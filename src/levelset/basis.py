"""Shape functions: univariate B-splines and tensor-product rational bases.

Knot vectors are open with unit-length spans (span k occupies [k, k+1]), so
parametric distance is distance measured in element lengths. One 1D kernel
gives the values and first derivatives of the active functions at a list of
coordinates. Per point, a tensor basis is the product of its per-direction
rows (:func:`eval_tensor_batched`, with :func:`eval_rational` its one-point
form); at the points of a product of 1D point lists, a field's values follow
from the 1D rows alone (:func:`line_products`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Evaluation point outside the parametric domain."""


class InvalidWeightsError(ValueError):
    """Rational weight function is nonpositive."""


# ordering convention for mixed second derivatives, per spatial dimension
MIXED_PAIRS = {1: (), 2: ((0, 1),), 3: ((0, 1), (0, 2), (1, 2))}


def check_finite(name, arr):
    """Raise ``ValueError`` naming the array ``name`` and its first entry
    that is not finite, if any; one ``np.isfinite`` pass."""
    finite = np.isfinite(arr)
    if not finite.all():
        i = tuple(int(k) for k in np.unravel_index(int(np.argmin(finite)), arr.shape))
        raise ValueError(f"{name}[{', '.join(map(str, i))}] is {arr[i]}; "
                         f"every entry must be finite")


class BasisSpec:
    """Tensor-product B-spline/NURBS basis: per-direction degrees and open
    knot vectors plus one positive weight per control point (all ones gives
    a plain B-spline). Knots and weights must be finite. A triangulated
    patch has no basis spec (see :func:`levelset.mesh.triangulate`).
    """

    def __init__(self, degrees, knots, weights=None):
        self.degrees = tuple(int(p) for p in degrees)
        self.knots = tuple(np.asarray(k, dtype=np.float64) for k in knots)
        self.dim = len(self.degrees)
        if len(self.knots) != self.dim:
            raise ValueError("one knot vector per direction required")
        for d, (p, kv) in enumerate(zip(self.degrees, self.knots)):
            if p < 1:
                raise ValueError("degree must be >= 1")
            check_finite(f"knots[{d}]", kv)
            if np.any(np.diff(kv) < 0):
                raise ValueError("knot vector must be nondecreasing")
            if len(kv) < 2 * (p + 1):
                raise ValueError("knot vector too short for an open basis")
            if not (np.all(kv[: p + 1] == kv[0]) and np.all(kv[-(p + 1):] == kv[-1])):
                raise ValueError("knot vectors must be open (end knots repeated degree+1 times)")
        self.n_funcs_per_dir = tuple(
            len(kv) - p - 1 for p, kv in zip(self.degrees, self.knots)
        )
        self.n_funcs = int(np.prod(self.n_funcs_per_dir))
        if weights is None:
            self.weights = None
        else:
            w = np.asarray(weights, dtype=np.float64).ravel()
            if len(w) != self.n_funcs:
                raise ValueError("one weight per control point required")
            check_finite("weights", w)
            if np.any(w <= 0):
                raise InvalidWeightsError("weights must be strictly positive")
            self.weights = w

    @classmethod
    def tensor_uniform(cls, degrees, n_elements, continuity=None, weights=None):
        """Open knot vectors with unit spans on [0, n] per direction.

        ``continuity`` limits inter-element smoothness (default: degree - 1,
        the maximum); interior knots are repeated ``degree - continuity``
        times.
        """
        degrees = tuple(int(p) for p in np.atleast_1d(degrees))
        n_elements = tuple(int(n) for n in np.atleast_1d(n_elements))
        if len(degrees) == 1 and len(n_elements) > 1:
            degrees = degrees * len(n_elements)
        if continuity is None:
            cont = tuple(p - 1 for p in degrees)
        else:
            cont = tuple(int(c) for c in np.atleast_1d(continuity))
            if len(cont) == 1:
                cont = cont * len(degrees)
        if not len(degrees) == len(n_elements) == len(cont):
            raise ValueError(f"degrees {degrees}, element counts {n_elements} and continuity "
                             f"{cont} must have one entry per direction")
        knots = []
        for p, n, c in zip(degrees, n_elements, cont):
            if not 0 <= c <= p - 1:
                raise ValueError("continuity must be in [0, degree-1]")
            mult = p - c
            kv = [0.0] * (p + 1)
            for k in range(1, n):
                kv.extend([float(k)] * mult)
            kv.extend([float(n)] * (p + 1))
            knots.append(np.array(kv))
        return cls(degrees, knots, weights=weights)

    def span_of_element(self, direction, elements):
        """Knot-span index of each of ``elements`` along one direction."""
        # elements sit on unit spans [k, k+1]; the span index is the last
        # occurrence of the left breakpoint
        return np.searchsorted(self.knots[direction], np.asarray(elements, dtype=np.float64),
                               side="right") - 1


@dataclass
class BasisEval:
    """Active basis functions with their values and parametric gradients.

    Batched evaluations hold one row per point: indices and values (m, nen),
    grads (m, nen, dim); :func:`eval_rational` returns the rows of its one
    point. ``second_mixed`` holds mixed parametric second derivatives ordered
    by :data:`MIXED_PAIRS` (tensor-product only; ``None`` otherwise).
    """

    indices: np.ndarray
    values: np.ndarray
    grads: np.ndarray
    second_mixed: np.ndarray | None = None


def _find_spans(knots, degree, u):
    """Span indices for an array of parametric coordinates (open knots)."""
    u = np.asarray(u, dtype=np.float64)
    lo, hi = knots[0], knots[-1]
    if np.any(u < lo) or np.any(u > hi):
        raise DomainError(
            f"parametric coordinate outside knot range [{lo:g}, {hi:g}]"
        )
    spans = np.searchsorted(knots, u, side="right") - 1
    last = len(knots) - degree - 2
    return np.clip(spans, degree, last)


def _ders_basis_batched(knots, p, u, spans=None, origin=None):
    """Nonzero basis functions and first derivatives at each point of ``u``.

    Returns ``(spans, ders)`` with ``ders`` of shape (2, m, p+1): ``ders[0][i]``
    and ``ders[1][i]`` are the values and first derivatives of the p+1
    functions active at point i. Triangular-table recursion, the first-order
    case of Piegl & Tiller's A2.3 (The NURBS Book); only the (small) degree
    loops run in Python. An explicit ``spans`` array forces one-sided
    evaluation for points sitting exactly on interior knots.

    With ``origin`` (m,), and then ``spans``, given, ``u`` holds each point's
    coordinate relative to its origin and the knots enter as differences from
    it. On integer knots with the origin the left knot of the point's span
    those differences are exact, so points at the same offset in spans whose
    knots lie alike around them get bitwise-equal rows, whatever the span.
    """
    u = np.asarray(u, dtype=np.float64)
    m = len(u)
    if spans is None:
        spans = _find_spans(knots, p, u)
    else:
        spans = np.asarray(spans, dtype=np.int64)
    left = np.zeros((p + 1, m))
    right = np.zeros((p + 1, m))
    ndu = np.zeros((p + 1, p + 1, m))
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        below, above = knots[spans + 1 - j], knots[spans + j]
        if origin is not None:
            below, above = below - origin, above - origin
        left[j] = u - below
        right[j] = above - u
        saved = np.zeros(m)
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved
    ders = np.empty((2, m, p + 1))
    ders[0] = ndu[:, p].T
    # N'_r = p (N_{r-1,p-1} / ndu[p, r-1] - N_{r,p-1} / ndu[p, r]): the
    # degree p-1 functions over the knot differences in ndu's lower
    # triangle. d starts from +0, as in A2.3, so r = 0 never yields -0
    for r in range(p + 1):
        d = np.zeros(m)
        if r >= 1:
            d = 1.0 / ndu[p, r - 1] * ndu[r - 1, p - 1]
        if r < p:
            d = d - 1.0 / ndu[p, r] * ndu[r, p - 1]
        ders[1, :, r] = d
    ders[1] *= p
    return spans, ders


def active_indices(spans, p):
    """Active 1D function indices (m, p+1) of degree ``p`` on knot spans
    ``spans`` (m,)."""
    return np.asarray(spans)[:, None] - p + np.arange(p + 1)[None, :]


def tensor_indices(spec, spans_per_dir):
    """Active global function indices (m, nen), direction 0 fastest, of the
    per-direction knot-span indices ``spans_per_dir`` (one (m,) array each)."""
    active = [active_indices(s, p) for s, p in zip(spans_per_dir, spec.degrees)]
    m = len(active[0])
    idx = active[-1]
    for d in range(spec.dim - 2, -1, -1):
        idx = (idx[:, :, None] * spec.n_funcs_per_dir[d] + active[d][:, None, :]).reshape(m, -1)
    return idx


def _outer(factors):
    """Tensor product of per-direction (m, p_d+1) factors, direction 0 fastest."""
    out = factors[-1]
    for f in factors[-2::-1]:
        out = (out[:, :, None] * f[:, None, :]).reshape(len(f), -1)
    return out


def line_products(coeffs, lines):
    """Values sum_a N_a c_a of a tensor B-spline basis at every point of a
    product of per-direction 1D point lists, one banded product per
    direction (sum factorization).

    ``coeffs`` holds one coefficient per function, shaped (..., n_{dim-1},
    ..., n_0) so that direction 0 is the last axis, after any leading axes
    of fields evaluated together; ``lines[d]`` is ``(first, rows)``: for
    each of direction d's E_d points, the index of its first active function
    (E_d,) and the p_d+1 values (or derivatives) of the active functions
    (E_d, p_d+1). Each pass replaces direction d's axis of n_d functions by
    its E_d points, summing over the rows in order; the result is (...,
    E_{dim-1}, ..., E_0). No points-by-functions table is formed.
    """
    x = coeffs
    for d, (first, rows) in enumerate(lines):
        axis = x.ndim - 1 - d
        shape = [1] * x.ndim
        shape[axis] = -1
        out = rows[:, 0].reshape(shape) * np.take(x, first, axis=axis)
        for r in range(1, rows.shape[1]):
            out += rows[:, r].reshape(shape) * np.take(x, first + r, axis=axis)
        x = out
    return x


def tensor_products(per_dir):
    """Values (m, nen) and parametric gradients (m, nen, dim) of a tensor
    basis from its per-direction (2, m, p_d+1) value and derivative rows."""
    dim = len(per_dir)
    vals = _outer([ders[0] for ders in per_dir])
    grads = np.empty(vals.shape + (dim,))
    for g in range(dim):
        grads[:, :, g] = _outer([per_dir[d][1 if d == g else 0] for d in range(dim)])
    return vals, grads


def eval_tensor_batched(spec, points, mixed=False, spans_per_dir=None):
    """Evaluate a tensor-product basis at ``points`` (m, dim): the products
    of its per-direction value and derivative rows there (``spans_per_dir``,
    one (m,) array per direction, forces the knot spans).

    Returns a :class:`BasisEval` with the active global indices (m, nen),
    values (m, nen), parametric gradients (m, nen, dim) and, when requested
    and dim >= 2, mixed second derivatives (m, nen, n_pairs).

    Rational weighting follows the quotient expansions
        R   = N/W
        R_x = N_x/W - R W_x/W
        R_xy= N_xy/W - R_x W_y/W - R_y W_x/W - R W_xy/W
    with N the weighted numerator and W the weight function.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    m, dim = points.shape
    if dim != spec.dim:
        raise ValueError(f"points have dim {dim}, basis has dim {spec.dim}")
    spans, per_dir = zip(*(
        _ders_basis_batched(spec.knots[d], spec.degrees[d], points[:, d],
                            spans=None if spans_per_dir is None else spans_per_dir[d])
        for d in range(dim)))
    indices = tensor_indices(spec, spans)
    nen = indices.shape[1]

    vals, grads = tensor_products(per_dir)
    pairs = MIXED_PAIRS[dim]
    mixed_arr = None
    if mixed and pairs:
        mixed_arr = np.empty((m, nen, len(pairs)))
        for ip, (da, db) in enumerate(pairs):
            mixed_arr[:, :, ip] = _outer(
                [per_dir[d][1 if d in (da, db) else 0] for d in range(dim)]
            )

    if spec.weights is not None:
        w = spec.weights[indices]  # (m, nen)
        nw = vals * w
        wsum = nw.sum(axis=1)
        if np.any(wsum <= 0):
            raise InvalidWeightsError("weight function nonpositive at an evaluation point")
        winv = 1.0 / wsum
        r = nw * winv[:, None]
        nw_d = grads * w[:, :, None]
        w_d = nw_d.sum(axis=1)  # (m, dim)
        r_d = nw_d * winv[:, None, None] - r[:, :, None] * (w_d * winv[:, None])[:, None, :]
        if mixed_arr is not None:
            nw_m = mixed_arr * w[:, :, None]
            w_m = nw_m.sum(axis=1)  # (m, n_pairs)
            r_m = np.empty_like(nw_m)
            for ip, (da, db) in enumerate(pairs):
                r_m[:, :, ip] = (
                    nw_m[:, :, ip] * winv[:, None]
                    - r_d[:, :, da] * (w_d[:, db] * winv)[:, None]
                    - r_d[:, :, db] * (w_d[:, da] * winv)[:, None]
                    - r * (w_m[:, ip] * winv)[:, None]
                )
            mixed_arr = r_m
        vals, grads = r, r_d
    return BasisEval(indices, vals, grads, mixed_arr)


def eval_rational(spec, point):
    """Rational basis values and derivatives at a single parametric point."""
    be = eval_tensor_batched(spec, np.asarray(point, dtype=np.float64).reshape(1, -1),
                             mixed=spec.dim >= 2)
    second = be.second_mixed[0] if be.second_mixed is not None else None
    return BasisEval(be.indices[0], be.values[0], be.grads[0], second)

