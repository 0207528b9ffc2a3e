"""Sparse linear algebra and scalar root finding for projection/transport solves.

Systems are stored in compressed-row form. Assembly goes through
:class:`CsrPattern`, which maps (row, col) entry streams onto a fixed,
sorted sparsity pattern so that repeated assemblies are deterministic and
bit-identical for identical inputs.

The solvers take one of two paths, chosen once per sparsity pattern:

* **direct**: a pattern of n rows, nnz entries and half-bandwidth b with
  ``n * b**2 <= DIRECT_RATIO * nnz`` (narrow-band systems, such as 2D meshes
  of a few hundred dofs) is also laid out in b x b blocks of a
  block-tridiagonal matrix, and the systems built on it are solved by block
  LU. That costs about ``n * b**2 / nnz`` matvecs' worth of flops, where
  Jacobi-preconditioned Krylov iterations on smooth (C1) bases take
  hundreds of matvecs.
* **Krylov**: every other system, including all from
  :meth:`SparseSystem.from_dense`, is solved by Jacobi-preconditioned CG or
  BiCGStab.

Both paths end on the same true-residual check. A direct solve that meets
a singular block, gives a non-finite result or misses ``rel_tol`` hands its
result to the Krylov iteration as the initial guess. A matrix solved with
many right-hand sides keeps its block-LU factors (:meth:`SparseSystem.factored`),
so each later direct solve costs two sweeps of b x b matvecs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sps

# a pattern takes the direct path when n * b**2 <= DIRECT_RATIO * nnz; block
# LU then costs about n * b**2 / nnz matvecs. Measured per solve, it beats
# Krylov on 2D C1-quadratic systems (n * b**2 / nnz of 33-95) and loses on
# 2D 40x40 p1 (203) and 3D 16^3 trilinear (3936)
DIRECT_RATIO = 128


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
    _banded: BlockTridiagonal | None = field(default=None, repr=False, compare=False)
    _lu: BlockLU | None = field(default=None, repr=False, compare=False)

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

    def factored(self):
        """This system with the block-LU factors of its matrix kept.

        Systems made from the result with ``dataclasses.replace(system,
        rhs=...)`` share the factors. A system on the Krylov path, or with an
        exactly singular block, is returned as it is.
        """
        if self._banded is None:
            return self
        try:
            return replace(self, _lu=self._banded.factor(self.values))
        except np.linalg.LinAlgError:
            return self


class BlockTridiagonal:
    """Scatter of a pattern of half-bandwidth ``b`` into a block-tridiagonal
    matrix of b x b blocks, and its block-LU solve.

    Rows are padded to ``nb * b``, the padding carrying a unit diagonal. Row
    ``i`` of block row ``I = i // b`` is stored as ``[L | D | U | f]``, the
    blocks at block columns I-1, I, I+1 followed by the right-hand side, so
    that ``|i - j| <= b`` always falls into one of the three blocks.
    """

    def __init__(self, rows, cols, n, b):
        self.n, self.b = n, b
        self.nb = -(-n // b)
        width = 3 * b + 1
        self.index = rows * width + cols - (rows // b - 1) * b
        self.template = np.zeros((self.nb * b, width))
        pad = np.arange(n, self.nb * b)
        self.template[pad, pad % b + b] = 1.0

    def _eliminate(self, values, rhs=None):
        """Forward elimination of the system with stored ``values``.

        Each block row first subtracts ``L`` times the block row above's
        final ``[U | f]`` from its ``[D | f]``, then replaces its ``[U | f]``
        by ``D^-1 [U | f]``. Returns the (nb, b, 3b+1) array; its ``D`` blocks
        are then the eliminated ones. Raises ``np.linalg.LinAlgError`` on an
        exactly singular block.
        """
        b = self.b
        w = self.template.copy()
        w.reshape(-1)[self.index] = values
        if rhs is not None:
            w[:self.n, -1] = rhs
        w = w.reshape(self.nb, b, 3 * b + 1)
        for i in range(self.nb):
            if i:
                lxz = w[i, :, :b] @ w[i - 1, :, 2 * b:]
                w[i, :, b:2 * b] -= lxz[:, :b]
                w[i, :, -1] -= lxz[:, -1]
            w[i, :, 2 * b:] = np.linalg.solve(w[i, :, b:2 * b], w[i, :, 2 * b:])
        return w

    def solve(self, values, rhs):
        """Block-LU solution of the system with stored ``values``: forward
        elimination, then one b x b matvec per block row of back
        substitution."""
        w = self._eliminate(values, rhs)
        return _back_substitute(w[:, :, 2 * self.b:3 * self.b], w[:, :, -1].copy(), self.n)

    def factor(self, values):
        """Block-LU factors of the matrix with stored ``values``, for solves
        with many right-hand sides."""
        b = self.b
        w = self._eliminate(values)
        return BlockLU(self.n, w[:, :, :b], np.linalg.inv(w[:, :, b:2 * b]),
                       w[:, :, 2 * b:3 * b])


def _back_substitute(upper, x, n):
    """Solve the block upper bidiagonal system ``[I, upper]`` in place on the
    (nb, b) forward-eliminated right-hand side ``x``; its first ``n`` entries."""
    for i in range(len(x) - 2, -1, -1):
        x[i] -= upper[i] @ x[i + 1]
    return x.reshape(-1)[:n]


class BlockLU:
    """Kept factors of a :class:`BlockTridiagonal` matrix: per block row the
    sub-diagonal block ``L``, the inverse of the eliminated ``D`` and the
    eliminated ``D^-1 U``."""

    def __init__(self, n, lower, dinv, upper):
        self.n, self.lower, self.dinv, self.upper = n, lower, dinv, upper

    def solve(self, rhs):
        """Two sweeps of b x b matvecs: ``g = D^-1 (f - L g_above)`` down the
        block rows, then back substitution up them."""
        nb, b = self.dinv.shape[:2]
        x = np.zeros(nb * b)
        x[:self.n] = rhs
        x = x.reshape(nb, b)
        for i in range(nb):
            if i:
                x[i] -= self.lower[i] @ x[i - 1]
            x[i] = self.dinv[i] @ x[i]
        return _back_substitute(self.upper, x, self.n)


class CsrPattern:
    """Fixed sparsity pattern with a precomputed entry->slot scatter map.

    Built once from a (possibly duplicated) COO index stream; every later
    assembly sums a value stream of the same layout into the pattern with
    ``np.bincount``, which is sequential and therefore deterministic.

    ``banded`` is the pattern's :class:`BlockTridiagonal` layout when it
    takes the direct path (see the module docstring), else None.
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
        self.banded = None
        if self.nnz:
            b = max(int(np.abs(unique_rows - self.col_indices).max()), 1)
            if n * b * b <= DIRECT_RATIO * self.nnz:
                self.banded = BlockTridiagonal(unique_rows, self.col_indices, n, b)

    def values(self, entry_values):
        """Sum an entry stream (same layout as the constructor's indices) into
        the pattern's stored values."""
        return np.bincount(self.slot, weights=np.asarray(entry_values).ravel(),
                           minlength=self.nnz)

    def matrix(self, values, rhs):
        """The system with stored ``values`` on this pattern."""
        return SparseSystem(self.row_offsets, self.col_indices, values, rhs, self.n,
                            _banded=self.banded)

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


def _direct(system):
    """Block-LU solution on the system's banded layout, from its kept factors
    when it has them; None when the system has no layout, a block is
    singular or the result is not finite."""
    if system._lu is not None:
        x = system._lu.solve(system.rhs)
    elif system._banded is None:
        return None
    else:
        try:
            x = system._banded.solve(system.values, system.rhs)
        except np.linalg.LinAlgError:
            return None
    return x if np.all(np.isfinite(x)) else None


def _start(system, x0):
    """Initial iterate and its true residual: the direct solution when there
    is one, else ``x0`` (default zero)."""
    x = _direct(system)
    if x is None and x0 is None:
        return np.zeros(system.n), system.rhs.copy()
    if x is None:
        x = np.asarray(x0, dtype=np.float64).copy()
    return x, system.rhs - system.to_csr() @ x


def solve_spd(system, rel_tol=1e-10, max_iter=None, x0=None):
    """Solve a symmetric positive definite system.

    A system on a narrow-band pattern (see the module docstring) is solved
    directly by block LU. Otherwise, or when that result misses the
    tolerance, Jacobi (diagonal) preconditioned CG runs from it, or from
    ``x0`` (a warm start) on the Krylov path. The convergence test is on the
    true relative residual ||Ax - b|| / ||b||.

    Raises :class:`IterationLimitError` if the tolerance is not met within
    ``max_iter`` CG iterations (default ``10 * n``).
    """
    a = system.to_csr()
    b = system.rhs
    n = system.n
    if max_iter is None:
        max_iter = 10 * n
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n)
    x, r = _start(system, x0)
    rel = np.linalg.norm(r) / bnorm
    if rel <= rel_tol:
        return x
    minv = _jacobi_inverse(system)
    z = minv * r
    p = z.copy()
    rz = r @ z
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
    """Solve a nonsingular (generally nonsymmetric) system.

    A system on a narrow-band pattern (see the module docstring) is solved
    directly by block LU. Otherwise, or when that result misses the
    tolerance, BiCGStab with Jacobi right preconditioning runs from it, or
    from ``x0`` (a warm start) on the Krylov path. The monitored residual is
    the true one.

    Raises :class:`IterationLimitError` if the tolerance is not met within
    ``max_iter`` BiCGStab iterations (default ``10 * n``).
    """
    a = system.to_csr()
    b = system.rhs
    n = system.n
    if max_iter is None:
        max_iter = 10 * n
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n)
    x, r = _start(system, x0)
    rel = np.linalg.norm(r) / bnorm
    if rel <= rel_tol:
        return x
    minv = _jacobi_inverse(system)
    r0 = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)

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
