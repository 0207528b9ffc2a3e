"""Sparse linear algebra and scalar root finding for projection/transport solves.

Systems are stored in compressed-row form. Assembly goes through
:class:`CsrPattern`, which maps (row, col) entry streams onto a fixed,
sorted sparsity pattern so that repeated assemblies are deterministic and
bit-identical for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps


class IterationLimitError(RuntimeError):
    """Iterative solve did not reach the requested tolerance.

    Carries the final relative residual and the iteration count.
    """

    def __init__(self, message, residual, iterations):
        super().__init__(f"{message} (rel residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


class RootFindingError(RuntimeError):
    """Newton iteration failed and no usable bracket was available."""


@dataclass
class SparseSystem:
    """Compressed-row matrix plus right-hand side.

    Invariants: ``row_offsets`` is nondecreasing with final entry
    ``len(values)``; column indices lie in ``[0, n)`` and are strictly
    increasing within each row.
    """

    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    rhs: np.ndarray
    n: int
    _csr: sps.csr_matrix | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.row_offsets = np.asarray(self.row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(self.col_indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.rhs = np.asarray(self.rhs, dtype=np.float64)
        if len(self.row_offsets) != self.n + 1:
            raise ValueError("row_offsets must have length n + 1")
        if self.row_offsets[-1] != len(self.values):
            raise ValueError("final row offset must equal number of stored values")
        if np.any(np.diff(self.row_offsets) < 0):
            raise ValueError("row offsets must be nondecreasing")
        if len(self.col_indices) and (
            self.col_indices.min() < 0 or self.col_indices.max() >= self.n
        ):
            raise ValueError("column index out of range")

    @classmethod
    def from_dense(cls, a, b):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        csr = sps.csr_matrix(a)
        return cls(csr.indptr, csr.indices, csr.data, b, a.shape[0])

    def to_csr(self):
        if self._csr is None:
            self._csr = sps.csr_matrix(
                (self.values, self.col_indices, self.row_offsets), shape=(self.n, self.n)
            )
        return self._csr

    def to_dense(self):
        return self.to_csr().toarray()

    def matvec(self, x):
        return self.to_csr() @ x

    def diagonal(self):
        return self.to_csr().diagonal()


class CsrPattern:
    """Fixed sparsity pattern with a precomputed entry->slot scatter map.

    Built once from a (possibly duplicated) COO index stream; every later
    assembly sums a value stream of the same layout into the pattern with
    ``np.bincount``, which is sequential and therefore deterministic.
    """

    def __init__(self, rows, cols, n):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        if rows.shape != cols.shape:
            raise ValueError("row/col streams must have identical shape")
        keys = rows * n + cols
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        unique_keys, inverse = np.unique(sorted_keys, return_inverse=True)
        # slot of each original entry in the deduplicated, sorted pattern
        self.slot = np.empty(len(keys), dtype=np.int64)
        self.slot[order] = inverse
        self.n = n
        self.nnz = len(unique_keys)
        self.col_indices = unique_keys % n
        unique_rows = unique_keys // n
        self.row_offsets = np.zeros(n + 1, dtype=np.int64)
        np.add.at(self.row_offsets, unique_rows + 1, 1)
        self.row_offsets = np.cumsum(self.row_offsets)

    def values(self, entry_values):
        """Sum an entry stream (same layout as the constructor's indices) into
        the pattern's stored values."""
        return np.bincount(self.slot, weights=np.asarray(entry_values).ravel(),
                           minlength=self.nnz)

    def matrix(self, values, rhs):
        """The system with stored ``values`` on this pattern."""
        return SparseSystem(self.row_offsets, self.col_indices, values, rhs, self.n)

    def assemble(self, entry_values, rhs):
        """Sum an entry stream into the pattern; returns the system."""
        return self.matrix(self.values(entry_values), rhs)


def _jacobi_inverse(system):
    """Diagonal preconditioner, or identity when the diagonal is unusable.

    Streamline-weighted convection matrices can carry near-zero or negative
    diagonal entries; scaling by those poisons the Krylov iteration, so such
    systems are solved unpreconditioned.
    """
    d = system.diagonal()
    dmax = np.abs(d).max() if len(d) else 0.0
    if dmax == 0.0 or d.min() <= 1e-14 * dmax:
        return np.ones(system.n)
    return 1.0 / d


def solve_spd(system, rel_tol=1e-10, max_iter=None, x0=None):
    """Solve a symmetric positive definite system by preconditioned CG.

    Jacobi (diagonal) preconditioning; the convergence test is on the true
    relative residual ||Ax - b|| / ||b||. An initial guess ``x0`` warm-starts
    the iteration.

    Raises :class:`IterationLimitError` if the tolerance is not met within
    ``max_iter`` iterations (default ``10 * n``).
    """
    a = system.to_csr()
    b = system.rhs
    n = system.n
    if max_iter is None:
        max_iter = 10 * n
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n)
    minv = _jacobi_inverse(system)
    if x0 is None:
        x = np.zeros(n)
        r = b.copy()
    else:
        x = np.asarray(x0, dtype=np.float64).copy()
        r = b - a @ x
    z = minv * r
    p = z.copy()
    rz = r @ z
    rel = np.linalg.norm(r) / bnorm
    for it in range(1, max_iter + 1):
        q = a @ p
        pq = p @ q
        if pq <= 0.0:
            raise IterationLimitError("CG breakdown: matrix not SPD", rel, it)
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        rel = np.linalg.norm(r) / bnorm
        if rel <= rel_tol:
            # refresh against accumulated recurrence drift
            r = b - a @ x
            rel = np.linalg.norm(r) / bnorm
            if rel <= rel_tol:
                return x
        z = minv * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise IterationLimitError("CG did not converge", rel, max_iter)


def solve_nonsymmetric(system, rel_tol=1e-10, max_iter=None, x0=None):
    """Solve a nonsingular (generally nonsymmetric) system by BiCGStab.

    Jacobi right preconditioning, so the monitored residual is the true one.
    An initial guess ``x0`` warm-starts the iteration.
    """
    a = system.to_csr()
    b = system.rhs
    n = system.n
    if max_iter is None:
        max_iter = 10 * n
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n)
    minv = _jacobi_inverse(system)
    if x0 is None:
        x = np.zeros(n)
        r = b.copy()
    else:
        x = np.asarray(x0, dtype=np.float64).copy()
        r = b - a @ x
    if np.linalg.norm(r) / bnorm <= rel_tol:
        return x
    r0 = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    rel = np.linalg.norm(r) / bnorm

    def _finished(xc):
        rr = b - a @ xc
        return np.linalg.norm(rr) / bnorm <= rel_tol

    best = rel
    since_best = 0
    for it in range(1, max_iter + 1):
        rho_new = r0 @ r
        if abs(rho_new) < 1e-300 or since_best >= 40:
            # breakdown of the shadow residual, or stagnation: restart the
            # recurrences from the current iterate
            r = b - a @ x
            r0 = r.copy()
            p = r.copy()
            v = np.zeros(n)
            alpha = omega = 1.0
            since_best = 0
            rho_new = r0 @ r
            if abs(rho_new) < 1e-300:
                rel = np.linalg.norm(r) / bnorm
                if rel <= rel_tol:
                    return x
                raise IterationLimitError("BiCGStab breakdown", rel, it)
        else:
            beta = (rho_new / rho) * (alpha / omega)
            p = r + beta * (p - omega * v)
        rho = rho_new
        phat = minv * p
        v = a @ phat
        denom = r0 @ v
        if abs(denom) < 1e-300:
            raise IterationLimitError("BiCGStab breakdown (r0.v = 0)", rel, it)
        alpha = rho / denom
        s = r - alpha * v
        if np.linalg.norm(s) / bnorm <= rel_tol:
            x = x + alpha * phat
            if _finished(x):
                return x
            r = b - a @ x
            continue
        shat = minv * s
        t = a @ shat
        tt = t @ t
        if tt == 0.0:
            raise IterationLimitError("BiCGStab breakdown (t = 0)", rel, it)
        omega = (t @ s) / tt
        x = x + alpha * phat + omega * shat
        r = s - omega * t
        rel = np.linalg.norm(r) / bnorm
        if rel <= rel_tol and _finished(x):
            return x
        if rel < 0.98 * best:
            best = rel
            since_best = 0
        else:
            since_best += 1
        if omega == 0.0:
            raise IterationLimitError("BiCGStab breakdown (omega = 0)", rel, it)
    raise IterationLimitError("BiCGStab did not converge", rel, max_iter)


def scalar_newton(f, fprime, x0, tol=1e-12, max_iter=100, bracket=None):
    """Newton-Raphson for a scalar equation f(x) = 0, with |f(x)| <= tol.

    If ``bracket = (a, b)`` with a sign change is supplied, iterates that
    stagnate, leave the bracket, or hit a vanishing derivative fall back to
    bisection; without a bracket such failures raise
    :class:`RootFindingError`.
    """
    lo = hi = flo = fhi = None
    if bracket is not None:
        lo, hi = float(bracket[0]), float(bracket[1])
        if lo > hi:
            lo, hi = hi, lo
        flo, fhi = f(lo), f(hi)
        if abs(flo) <= tol:
            return lo
        if abs(fhi) <= tol:
            return hi
        if np.sign(flo) == np.sign(fhi):
            raise RootFindingError("bracket endpoints do not straddle a root")

    x = float(x0)
    for _ in range(max_iter):
        fx = f(x)
        if abs(fx) <= tol:
            return x
        if lo is not None:
            # shrink the bracket with every evaluation
            if np.sign(fx) == np.sign(flo):
                lo, flo = x, fx
            else:
                hi, fhi = x, fx
        d = fprime(x)
        use_bisect = False
        if not np.isfinite(d) or abs(d) < 1e-300:
            use_bisect = True
        else:
            step = fx / d
            xn = x - step
            if not np.isfinite(xn):
                use_bisect = True
            elif lo is not None and not (lo <= xn <= hi):
                use_bisect = True
            else:
                x = xn
                continue
        if use_bisect:
            if lo is None:
                raise RootFindingError(
                    "Newton iteration failed (derivative underflow or divergence) "
                    "and no bracketing interval was provided"
                )
            x = 0.5 * (lo + hi)
    fx = f(x)
    if abs(fx) <= tol:
        return x
    raise RootFindingError(f"root not found to tolerance {tol:g}; final |f| = {abs(fx):.3e}")
