"""Sparse linear algebra and scalar root finding for projection/transport solves.

A system (:class:`SparseSystem`) is a matrix plus its right-hand side: a
scipy CSR matrix, or the Kronecker sum of the projection on a separable
tensor patch (:class:`KroneckerInverse`), which holds only its 1D factors.
Assembly goes through :class:`CsrPattern`, which maps (row, col) entry
streams onto a fixed, sorted sparsity pattern so that repeated assemblies
are deterministic and bit-identical for identical inputs; every matrix
built on a pattern wraps its assembled values in the pattern's own index
arrays, without converting or copying them. A general stream's pattern
takes one sort of its keys. The element stream of a tensor patch needs no
sort at all: its pattern is the Kronecker product of its directions' 1D
patterns (:meth:`CsrPattern.tensor`), and both ways give the same
arrays.

The solvers take one of two paths, chosen once per sparsity pattern:

* **direct**: a pattern of n rows, nnz entries and half-bandwidth b with
  ``n * b**2 <= DIRECT_RATIO * nnz`` (narrow-band systems, such as 2D meshes
  of a few hundred dofs) is also laid out in b x b blocks of a
  block-tridiagonal matrix, and every system built on it is solved through
  block-LU factors (:class:`BlockLU`). Factoring costs about
  ``n * b**2 / nnz`` matvecs' worth of flops, where Jacobi-preconditioned
  Krylov iterations on smooth (C1) bases take hundreds of matvecs.
* **Krylov**: every other system, including all from
  :meth:`SparseSystem.from_dense`, is solved by Jacobi-preconditioned CG or
  BiCGStab.

Every factor is kept in one place, a :class:`KeptFactor` passed to the
solver: ``lu``, the block-LU factors (:class:`BlockLU`) of its ``matrix``,
whichever path the pattern takes, or, for the projection of a separable
tensor patch, the :class:`KroneckerInverse` that is that matrix itself and
solves it by fast diagonalization. A solve applies one rule. A system whose
matrix *is* ``kept.matrix`` is solved by ``lu`` from F^-1 b. Any other
system is refined from the warm start ``x0`` against ``lu``, the factors of
an earlier, nearby matrix such as a previous Picard system of the same or an
earlier time step (a holder may start from factors alone, without their
matrix); when refinement gives up, or nothing is kept yet,
:meth:`KeptFactor.factor` drops the kept factor, tries the system's own
block LU once and keeps the result or None, and the system is solved by it
as above.

All paths end on the same true-residual check. A factor's result that misses
``rel_tol`` is the Krylov iteration's initial guess; where no factor is kept
or its result is not finite, ``x0`` is. The check, the refinement and the
Krylov loops read the matrix through ``shape``, ``A @ x`` and
``diagonal()`` alone, which both kinds of matrix provide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps

# a pattern takes the direct path when n * b**2 <= DIRECT_RATIO * nnz; block
# LU then costs about n * b**2 / nnz matvecs. Measured per solve, it beats
# Krylov on 2D C1-quadratic systems (n * b**2 / nnz of 33-95) and loses on
# 2D 40x40 p1 (203) and 3D 16^3 trilinear (3936)
DIRECT_RATIO = 128

# refinement against a kept factor gives up, and the system is factored
# itself, after REFINE_MAX_SWEEPS sweeps, once a sweep leaves more than
# REFINE_CUT of the residual, or once the sweeps run against the factor since
# it was computed cost more than one factor (BlockTridiagonal.sweeps_per_factor).
# On the 20x20 C1-quadratic vortex a solve takes 2 sweeps on average
REFINE_MAX_SWEEPS = 5
REFINE_CUT = 0.5


class StepError(RuntimeError):
    """Base of the errors a transport step can raise: ``step`` and ``t`` are
    the index and start time of the step the error was raised in, or None
    outside a step (see :meth:`in_step`)."""

    step = None
    t = None

    def in_step(self, step, t):
        """Record the transport step the error occurred in, and name it at
        the end of the message."""
        self.step, self.t = step, t
        self.args = (f"{self.args[0]}, in step {step} from t={t:.6g}",)


class IterationLimitError(StepError):
    """Iterative solve did not reach the requested tolerance.

    Carries the final relative residual and the iteration count, and within
    a transport step that step (:class:`StepError`).
    """

    def __init__(self, message, residual, iterations):
        super().__init__(f"{message} (rel residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


class RootFindingError(StepError):
    """:func:`scalar_newton` failed: a bracket without a sign change, or no
    steps left; within a transport step it carries that step (:class:`StepError`)."""


@dataclass
class SparseSystem:
    """Square matrix plus right-hand side.

    ``matrix`` is a scipy CSR matrix or a :class:`KroneckerInverse`; the
    solvers use only its ``shape``, ``@`` and ``diagonal()``. ``_banded`` is
    the matrix's :class:`BlockTridiagonal` layout when its pattern takes the
    direct path (see the module docstring).
    """

    matrix: sps.csr_matrix | KroneckerInverse
    rhs: np.ndarray
    _banded: BlockTridiagonal | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.rhs = np.asarray(self.rhs, dtype=np.float64)
        rows, cols = self.matrix.shape
        if rows != cols or self.rhs.shape != (rows,):
            raise ValueError(f"matrix {self.matrix.shape} and right-hand side "
                             f"{self.rhs.shape} do not form a square system")

    @property
    def n(self):
        return self.matrix.shape[0]

    @classmethod
    def from_dense(cls, a, b):
        return cls(sps.csr_matrix(np.asarray(a, dtype=np.float64)), b)


class KeptFactor:
    """The one holder of a factor: ``lu``, a :class:`BlockLU` of ``matrix``
    (or None), or a :class:`KroneckerInverse` that is ``matrix`` itself, for
    the solves it is passed to (see the module docstring). ``matrix`` is None
    when ``lu`` came from elsewhere, such as the factor a time step hands to
    the next; every system is then refined against it. It is None on the
    Krylov path too, where nothing is factored, so that no solved system
    outlives its solve here. ``lu_sweeps`` counts the refinement sweeps run
    against ``lu`` since it was computed.

    A system of another matrix is solved by iterative refinement with the
    fixed factor, ``x <- x + F^-1 (b - A x)`` from the warm start (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., SIAM 2002,
    ch. 12; across Picard iterations this is the chord method: Kelley,
    *Iterative Methods for Linear and Nonlinear Equations*, SIAM 1995), each
    sweep judged on the true residual, until it gives up (see
    ``REFINE_MAX_SWEEPS``). Giving up once the factor's sweeps cost more
    than a factor makes this the Shamanskii form of the chord method, which
    refactors only when the kept factor stops paying (Kelley, ch. 5).

    ``factors`` counts the block-LU factors this holder computed,
    ``sweeps`` holds the sweeps of each refined solve, ``refactors`` counts
    those that gave up, ``krylov_fallbacks`` the direct solves (a factor
    kept, or a direct-path pattern) that missed ``rel_tol`` and went on to
    Krylov, and ``krylov_restarts`` the restarts of BiCGStab's recurrences
    on stagnation or breakdown of the shadow residual.
    """

    def __init__(self, matrix=None, lu=None, lu_sweeps=0):
        self.matrix, self.lu, self.lu_sweeps = matrix, lu, lu_sweeps
        self.factors = 0
        self.sweeps = []
        self.refactors = 0
        self.krylov_fallbacks = 0
        self.krylov_restarts = 0

    def factor(self, system):
        """Keep ``system``'s matrix and its block-LU factors, or the matrix
        and None with an exactly singular block; keep neither on the Krylov
        path, where there is nothing to factor."""
        # the old factor is released before the new one is built
        self.matrix, self.lu, self.lu_sweeps = None, None, 0
        if system._banded is None:
            return
        self.matrix = system.matrix
        try:
            self.lu = system._banded.factor(system.matrix.data)
        except np.linalg.LinAlgError:
            return
        self.factors += 1

    def refine(self, system, rel_tol, x0, bnorm):
        """The refined solution of ``system`` from ``x0`` (default zero) to
        true relative residual ``rel_tol``, or None when refinement gives up."""
        a, b = system.matrix, system.rhs
        x = np.zeros(system.n) if x0 is None else np.array(x0, dtype=np.float64)
        r = b - a @ x
        rel = np.linalg.norm(r) / bnorm
        budget = np.inf if system._banded is None else system._banded.sweeps_per_factor
        sweeps, contracted = 0, True
        while not rel <= rel_tol:
            if not contracted or sweeps == REFINE_MAX_SWEEPS or self.lu_sweeps >= budget:
                self.sweeps.append(sweeps)
                self.refactors += 1
                return None
            x += self.lu.solve(r)
            self.lu_sweeps += 1
            r = b - a @ x
            last, rel = rel, np.linalg.norm(r) / bnorm
            contracted = rel <= REFINE_CUT * last
            sweeps += 1
        self.sweeps.append(sweeps)
        return x


class BlockTridiagonal:
    """Scatter of a pattern of half-bandwidth ``b`` into a block-tridiagonal
    matrix of b x b blocks, and its block-LU factorization.

    ``rows`` and ``cols`` list the pattern's entries, each once. Rows are
    padded to ``nb * b``, the padding carrying a unit diagonal. Row ``i`` of
    block row ``I = i // b`` is stored as ``[L | D | U]``, the blocks at
    block columns I-1, I, I+1, so that ``|i - j| <= b`` always falls into
    one of the three. ``sweeps_per_factor`` is what one factor is worth in
    refinement sweeps (see ``REFINE_MAX_SWEEPS``).
    """

    def __init__(self, rows, cols, n, b):
        self.n, self.b = n, b
        self.nb = -(-n // b)
        # a factor costs about n * b**2 / nnz matvecs (see DIRECT_RATIO); a
        # refinement sweep is counted as one
        self.sweeps_per_factor = n * b * b / len(rows)
        width = 3 * b
        self.index = rows * width + cols - (rows // b - 1) * b
        self.template = np.zeros((self.nb * b, width))
        pad = np.arange(n, self.nb * b)
        self.template[pad, pad % b + b] = 1.0

    def factor(self, values):
        """Block-LU factors of the matrix with stored ``values``.

        Forward elimination: each block row subtracts ``L`` times the block
        row above's eliminated ``U`` from its ``D``, replaces that ``D`` by
        its inverse and its ``U`` by ``D^-1 U``, so that every third of the
        elimination array is read by the solves. Raises
        ``np.linalg.LinAlgError`` on an exactly singular block.
        """
        b = self.b
        w = self.template.copy()
        w.reshape(-1)[self.index] = values
        w = w.reshape(self.nb, b, 3 * b)
        for i in range(self.nb):
            if i:
                w[i, :, b:2 * b] -= w[i, :, :b] @ w[i - 1, :, 2 * b:]
            w[i, :, b:2 * b] = np.linalg.inv(w[i, :, b:2 * b])
            w[i, :, 2 * b:] = w[i, :, b:2 * b] @ w[i, :, 2 * b:]
        return BlockLU(self.n, w[:, :, :b], w[:, :, b:2 * b], w[:, :, 2 * b:])


class BlockLU:
    """Kept factors of a :class:`BlockTridiagonal` matrix: per block row the
    sub-diagonal block ``L``, the inverse of the eliminated ``D`` and the
    eliminated ``D^-1 U``, views of the three thirds of one array."""

    def __init__(self, n, lower, dinv, upper):
        self.n, self.lower, self.dinv, self.upper = n, lower, dinv, upper

    def solve(self, rhs):
        """Two sweeps of b x b matvecs: ``g = D^-1 (f - L g_above)`` down the
        block rows, then back substitution ``x = g - (D^-1 U) x_below`` up
        them."""
        nb, b = self.dinv.shape[:2]
        x = np.zeros(nb * b)
        x[:self.n] = rhs
        x = x.reshape(nb, b)
        for i in range(nb):
            if i:
                x[i] -= self.lower[i] @ x[i - 1]
            x[i] = self.dinv[i] @ x[i]
        for i in range(nb - 2, -1, -1):
            x[i] -= self.upper[i] @ x[i + 1]
        return x.reshape(-1)[:self.n]


class KroneckerInverse:
    """The Kronecker sum

        A = (x)_d M_d + kappa * sum_d K_d (x) (x)_{e != d} M_e

    of per-direction SPD mass matrices M_d and symmetric positive
    semidefinite stiffness matrices K_d, dofs numbered with direction 0
    fastest, held as its dense 1D factors, and its exact inverse by fast
    diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964). It is a
    system's matrix (``shape``, ``A @ x``, ``diagonal()``) and the factor
    kept for that system (``solve``) at once, so no nD matrix is formed.

    ``lines`` holds per direction, 0 first, ``(lam_d, U_d, M_d, K_d)``: the
    1D matrices and their generalized eigenpairs, ``K_d U_d = M_d U_d
    diag(lam_d)`` and ``U_d^T M_d U_d = I``. Then ``A^-1 = U diag(1 / (1 +
    kappa sum_d lam_d)) U^T`` with ``U = (x)_d U_d``.
    """

    def __init__(self, lines, kappa):
        self.kappa = kappa
        self.modes = [u for _, u, _, _ in lines]
        self.factors = [(m, k) for _, _, m, k in lines]
        total = np.zeros(())
        for lam, *_ in lines:
            total = np.add.outer(lam, total)
        # (n_{dim-1}, ..., n_0): the last axis is direction 0
        self.scale = 1.0 / (1.0 + kappa * total)
        self.shape = (self.scale.size,) * 2

    def __matmul__(self, x):
        """A x by mode products: dim with the M_d, and where kappa is not
        zero the stiffness sum alongside, S <- M_d S + K_d P per direction,
        P the mass products before it."""
        mass, stiff = np.reshape(x, self.scale.shape), None
        for m, k in self.factors:
            if self.kappa:
                part = _mode_product(mass, k.T)
                stiff = part if stiff is None else _mode_product(stiff, m.T) + part
            mass = _mode_product(mass, m.T)
        if stiff is not None:
            mass = mass + self.kappa * stiff
        return mass.reshape(-1)

    def diagonal(self):
        """diag(A), from outer products of the 1D diagonals."""
        mass, stiff = np.ones(()), np.zeros(())
        for m, k in self.factors:
            stiff = np.multiply.outer(np.diag(m), stiff) + np.multiply.outer(np.diag(k), mass)
            mass = np.multiply.outer(np.diag(m), mass)
        return (mass + self.kappa * stiff).reshape(-1)

    def _mode_products(self, x, transpose):
        for u in self.modes:
            x = _mode_product(x, u if transpose else u.T)
        return x

    def solve(self, rhs):
        """Dim mode products with U_d^T, the diagonal scaling, then dim mode
        products with U_d."""
        x = self._mode_products(np.reshape(rhs, self.scale.shape), True)
        return self._mode_products(x * self.scale, False).reshape(-1)


def _mode_product(x, m):
    """``x @ m`` with the contracted last axis moved to the front: dim such
    products visit every direction in turn and restore the axis order."""
    return np.moveaxis(x @ m, -1, 0)


class CsrPattern:
    """Fixed sparsity pattern with a precomputed entry->slot scatter map.

    Built once from an entry stream of (row, col) pairs, duplicates
    included; every later assembly sums a value stream of the same layout
    into the pattern with ``np.bincount``, which is sequential and therefore
    deterministic. The general constructor sorts the stream's keys once,
    then marks where each run of equal keys starts. The pattern of a tensor
    patch's element stream follows from its directions' 1D patterns with no
    sort at all (:meth:`tensor`); both give the same arrays.

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
        keys = keys[order]
        # the slot of each entry in the deduplicated, sorted pattern: an entry
        # starts a new slot where its sorted key differs from the one before
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        self.slot = np.empty(len(keys), dtype=np.int64)
        self.slot[order] = np.cumsum(first) - 1
        keys = keys[first]
        row_offsets = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))])
        self._layout(row_offsets, keys % n)

    @classmethod
    def tensor(cls, conn, lines):
        """The pattern of a tensor patch's element stream, built from the 1D
        patterns of its directions with no sort.

        ``conn`` (nel, nen) holds each element's dofs and ``lines`` one pair
        ``(conn_d, n_d)`` per direction, direction 0 first: the 1D element
        stream (n_elems_d, nen_d) and the number of 1D functions. Elements,
        local functions and dofs are numbered direction 0 fastest, so that
        ``conn`` is the Kronecker combination of the ``conn_d``.

        Dof i = (i_0, ..., i_{D-1}) couples with j exactly when every i_d
        couples with j_d in its line's pattern. Row lengths are thus products
        of 1D row lengths, a row's sorted columns are the Kronecker product
        of its 1D column lists, and the entry (e, a, b) sits at

            row_offsets[conn[e, a]] + sum_d pos_d(e_d, a_d, b_d) * prod_{d' < d} len_d'(i_d')

        with pos_d the entry's position within its 1D row and len_d the 1D
        row lengths. The terms of the leading directions span only their own
        axes; the last direction's is the one product over the whole stream,
        written into the slot array, to which the rest is added in place.
        The columns are scattered from the slots.
        """
        self = cls.__new__(cls)
        lengths, positions = [], []
        for line, n_line in lines:
            m, a = line.shape
            pattern = cls(np.repeat(line, a, axis=1), np.tile(line, (1, a)), n_line)
            offsets = pattern.row_offsets.astype(np.int64)
            lengths.append(np.diff(offsets))
            positions.append(pattern.slot.reshape(m, a, a) - offsets[line][:, :, None])
        row_lengths = lengths[-1]
        for length in lengths[-2::-1]:
            row_lengths = np.multiply.outer(row_lengths, length).ravel()
        # over the elements, rows and columns of the leading directions, each
        # axis direction 0 fastest: the within-row position of their part of
        # an entry, and the stride of the next direction's position
        pos = np.zeros((1, 1, 1), dtype=np.int64)
        stride = np.ones((1, 1), dtype=np.int64)
        for (line, _), length, position in zip(lines[:-1], lengths, positions):
            (m, a), (e, r, c) = line.shape, pos.shape
            pos = (pos[None, :, None, :, None, :]
                   + position[:, None, :, None, :, None] * stride[None, :, None, :, None, None])
            pos = pos.reshape(m * e, a * r, a * c)
            stride = (stride[None, :, None, :] * length[line][:, None, :, None]).reshape(m * e, a * r)
        (m, a), (e, r, c) = lines[-1][0].shape, pos.shape
        slot = np.empty((m, e, a, r, a, c), dtype=np.int64)
        np.multiply(positions[-1][:, None, :, None, :, None],
                    stride[None, :, None, :, None, None], out=slot)
        slot += pos[None, :, None, :, None, :]
        slot = slot.reshape(conn.shape + conn.shape[-1:])
        row_offsets = np.concatenate([[0], np.cumsum(row_lengths)])
        slot += row_offsets[conn][:, :, None]
        cols = np.empty(row_offsets[-1], dtype=np.int64)
        cols[slot] = conn[:, None, :]
        self.slot = slot.reshape(-1)
        self._layout(row_offsets, cols)
        return self

    def _layout(self, row_offsets, cols):
        """The index arrays and the banded layout, from the (n + 1,)
        ``row_offsets`` and the columns ``cols`` of the entries, each once,
        sorted by row and then column."""
        self.n = n = len(row_offsets) - 1
        self.nnz = len(cols)
        # scipy picks the index dtype (int32 unless the pattern needs int64)
        # once here, so that each matrix() wraps these arrays as they are
        template = sps.csr_matrix((np.empty(self.nnz), cols, row_offsets), shape=(n, n))
        self.row_offsets, self.col_indices = template.indptr, template.indices
        self.banded = None
        if self.nnz:
            # a row's farthest entries are its first and last columns
            filled = np.flatnonzero(np.diff(row_offsets))
            b = max(int(np.max(filled - cols[row_offsets[filled]])),
                    int(np.max(cols[row_offsets[filled + 1] - 1] - filled)), 1)
            if n * b * b <= DIRECT_RATIO * self.nnz:
                rows = np.repeat(np.arange(n), np.diff(row_offsets))
                self.banded = BlockTridiagonal(rows, cols, n, b)

    def values(self, entry_values):
        """Sum an entry stream (same layout as the constructor's indices) into
        the pattern's stored values."""
        return np.bincount(self.slot, weights=np.asarray(entry_values).ravel(),
                           minlength=self.nnz)

    def csr(self, values):
        """The CSR matrix with stored ``values`` on this pattern; it shares the
        pattern's index arrays and the ``values`` array."""
        return sps.csr_matrix((values, self.col_indices, self.row_offsets),
                              shape=(self.n, self.n))

    def matrix(self, values, rhs):
        """The system with stored ``values`` on this pattern; its matrix is
        :meth:`csr` of them."""
        return SparseSystem(self.csr(values), rhs, _banded=self.banded)

    def assemble(self, entry_values, rhs):
        """Sum an entry stream into the pattern; returns the system."""
        return self.matrix(self.values(entry_values), rhs)


def _jacobi_inverse(system):
    """Diagonal preconditioner, or identity when the diagonal is unusable.

    Streamline-weighted convection matrices can carry near-zero or negative
    diagonal entries; scaling by those poisons the Krylov iteration, so such
    systems are solved unpreconditioned.
    """
    d = system.matrix.diagonal()
    dmax = np.abs(d).max() if len(d) else 0.0
    if dmax == 0.0 or d.min() <= 1e-14 * dmax:
        return np.ones(system.n)
    return 1.0 / d


def _solve(krylov, system, rel_tol, max_iter, x0, kept):
    """The part both solvers share: zero for a zero right-hand side; the
    start of the module docstring's rule with ``kept`` (a fresh
    :class:`KeptFactor` when None), returned when its true relative residual
    meets ``rel_tol`` and otherwise handed to the ``krylov`` loop with the
    Jacobi inverse and ``max_iter`` (default ``10 * n``). A right-hand side
    that is not finite raises :class:`IterationLimitError` at once."""
    b = system.rhs
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(system.n)
    if not math.isfinite(bnorm):
        i = int(np.argmax(~np.isfinite(b)))
        raise IterationLimitError(f"right-hand side entry {i} is {b[i]}", np.nan, 0)
    if kept is None:
        kept = KeptFactor()
    if kept.matrix is not system.matrix:
        x = None if kept.lu is None else kept.refine(system, rel_tol, x0, bnorm)
        if x is not None:
            return x
        # nothing kept yet, or it is too far off: factor this system
        kept.factor(system)
    x = None if kept.lu is None else kept.lu.solve(b)
    if x is None or not np.all(np.isfinite(x)):
        x = None if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    if x is None:
        x, r = np.zeros(system.n), b.copy()
    else:
        r = b - system.matrix @ x
    rel = np.linalg.norm(r) / bnorm
    if rel <= rel_tol:
        return x
    if kept.lu is not None or system._banded is not None:
        kept.krylov_fallbacks += 1
    if max_iter is None:
        max_iter = 10 * system.n
    return krylov(system.matrix, b, x, r, rel, bnorm, rel_tol, max_iter,
                  _jacobi_inverse(system), kept)


def solve_spd(system, rel_tol=1e-10, max_iter=None, x0=None, kept=None):
    """Solve a symmetric positive definite system.

    The start is that of the module docstring's rule with the factor
    ``kept``; when it misses the tolerance, Jacobi (diagonal) preconditioned
    CG runs from it. The convergence test is on the true relative residual
    ||Ax - b|| / ||b||.

    Raises :class:`IterationLimitError` if the tolerance is not met within
    ``max_iter`` CG iterations (default ``10 * n``), and at once where the
    right-hand side or an iteration's residual norm is not finite.
    """
    return _solve(_cg, system, rel_tol, max_iter, x0, kept)


def solve_nonsymmetric(system, rel_tol=1e-10, max_iter=None, x0=None, kept=None):
    """Solve a nonsingular (generally nonsymmetric) system.

    The start is that of the module docstring's rule with the factor
    ``kept``; when it misses the tolerance, BiCGStab with Jacobi right
    preconditioning runs from it. The monitored residual is the true one.

    Raises :class:`IterationLimitError` if the tolerance is not met within
    ``max_iter`` BiCGStab iterations (default ``10 * n``), and at once where the
    right-hand side or an iteration's residual norm is not finite.
    """
    return _solve(_bicgstab, system, rel_tol, max_iter, x0, kept)


def _cg(a, b, x, r, rel, bnorm, rel_tol, max_iter, minv, kept):
    """Jacobi-preconditioned CG from ``x``, whose true residual is ``r``; ``kept`` is unused."""
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
        if not math.isfinite(rel):
            raise IterationLimitError("CG residual is not finite", rel, it)
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


def _bicgstab(a, b, x, r, rel, bnorm, rel_tol, max_iter, minv, kept):
    """Jacobi right-preconditioned BiCGStab from ``x``, whose true residual is ``r``.

    On breakdown of the shadow residual, or after 40 iterations without a 2%
    gain on the best residual, the recurrences restart from the best iterate.
    A restart that finds no gain since the previous one ends the solve, and
    every :class:`IterationLimitError` reports the best iterate's true
    residual.
    """
    n = len(b)
    r0 = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)

    def _finished(xc):
        rr = b - a @ xc
        return np.linalg.norm(rr) / bnorm <= rel_tol

    def _failed(message, it):
        rr = b - a @ x_best
        return IterationLimitError(message, np.linalg.norm(rr) / bnorm, it)

    # x is rebound, never updated in place, so the best iterate needs no copy
    best, x_best = rel, x
    best_at_restart = np.inf
    since_best = 0
    for it in range(1, max_iter + 1):
        rho_new = r0 @ r
        if abs(rho_new) < 1e-300 or since_best >= 40:
            if not best < best_at_restart:
                raise _failed("BiCGStab stagnated", it)
            # breakdown of the shadow residual, or stagnation: restart the
            # recurrences from the best iterate
            kept.krylov_restarts += 1
            best_at_restart = best
            x = x_best
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
                raise _failed("BiCGStab breakdown", it)
        else:
            beta = (rho_new / rho) * (alpha / omega)
            p = r + beta * (p - omega * v)
        rho = rho_new
        phat = minv * p
        v = a @ phat
        denom = r0 @ v
        if abs(denom) < 1e-300:
            raise _failed("BiCGStab breakdown (r0.v = 0)", it)
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
            raise _failed("BiCGStab breakdown (t = 0)", it)
        omega = (t @ s) / tt
        x = x + alpha * phat + omega * shat
        r = s - omega * t
        rel = np.linalg.norm(r) / bnorm
        if not math.isfinite(rel):
            raise _failed("BiCGStab residual is not finite", it)
        if rel <= rel_tol and _finished(x):
            return x
        if rel < 0.98 * best:
            best, x_best = rel, x
            since_best = 0
        else:
            since_best += 1
        if omega == 0.0:
            raise _failed("BiCGStab breakdown (omega = 0)", it)
    raise _failed("BiCGStab did not converge", max_iter)


def scalar_newton(f, fprime, x0, bracket, tol=1e-12, max_iter=100):
    """Safeguarded Newton (``rtsafe``: Press et al., *Numerical Recipes*, 3rd
    ed., section 9.4) for an increasing f: the x with |f(x)| <= tol.

    Each evaluation narrows the interval known to hold the root, unbounded at
    first. A Newton step is rejected where the derivative is not positive or
    the step leaves that interval; the first rejection calls ``bracket()``
    for (lo, hi) with f(lo) <= 0 <= f(hi), and each rejected step bisects.
    Returns ``(root, bisections)``; raises :class:`RootFindingError` for a
    bracket without that sign change, or after ``max_iter`` steps.
    """
    lo, hi = -np.inf, np.inf
    bisections = 0
    x = float(x0)
    for _ in range(max_iter):
        fx = f(x)
        if abs(fx) <= tol:
            return x, bisections
        if fx < 0.0:
            lo = x
        else:
            hi = x
        d = fprime(x)
        if d > 0.0:
            xn = x - fx / d
            if lo < xn < hi:
                x = xn
                continue
        if not bisections:
            a, b = bracket()
            if not f(a) <= 0.0 <= f(b):
                raise RootFindingError(f"bracket [{a:g}, {b:g}] does not straddle a root")
            lo, hi = max(lo, a), min(hi, b)
        bisections += 1
        x = 0.5 * (lo + hi)
    raise RootFindingError(f"root not found to tolerance {tol:g}; last |f| = {abs(fx):.3e}")
