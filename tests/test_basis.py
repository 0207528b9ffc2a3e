import numpy as np
import pytest

from conftest import graded_square
from levelset.basis import (
    BasisSpec,
    DomainError,
    InvalidWeightsError,
    eval_rational,
    eval_tensor_batched,
)
from levelset.mesh import _split_lattice, triangulate


def naive_cox_de_boor(knots, p, i, u, from_left=False):
    """Textbook divided recursion, independent of the production evaluator.
    With ``from_left`` the spans are closed on the right instead, which gives
    the limits from the left at interior knots."""
    if p == 0:
        if from_left:
            return 1.0 if knots[i] < u <= knots[i + 1] else 0.0
        # half-open spans, closed at the right end of the last span
        if knots[i] <= u < knots[i + 1]:
            return 1.0
        if u == knots[-1] and knots[i] < knots[i + 1] == knots[-1]:
            return 1.0
        return 0.0
    left = 0.0
    if knots[i + p] > knots[i]:
        left = (u - knots[i]) / (knots[i + p] - knots[i]) * naive_cox_de_boor(
            knots, p - 1, i, u, from_left)
    right = 0.0
    if knots[i + p + 1] > knots[i + 1]:
        right = (knots[i + p + 1] - u) / (knots[i + p + 1] - knots[i + 1]) * naive_cox_de_boor(
            knots, p - 1, i + 1, u, from_left)
    return left + right


def naive_derivative(knots, p, i, u, from_left=False):
    """p/(u_{i+p} - u_i) N_{i,p-1} - p/(u_{i+p+1} - u_{i+1}) N_{i+1,p-1} from
    :func:`naive_cox_de_boor`, a term over a zero-width span dropped."""
    d = 0.0
    if knots[i + p] > knots[i]:
        d += p / (knots[i + p] - knots[i]) * naive_cox_de_boor(knots, p - 1, i, u, from_left)
    if knots[i + p + 1] > knots[i + 1]:
        d -= p / (knots[i + p + 1] - knots[i + 1]) * naive_cox_de_boor(knots, p - 1, i + 1, u,
                                                                       from_left)
    return d


def eval_bspline(spec, u):
    """First active index, values and derivatives of a 1D basis at ``u``,
    through the batched tensor evaluator."""
    be = eval_tensor_batched(spec, [[u]])
    return be.indices[0, 0], be.values[0], be.grads[0, :, 0]


def test_bspline_p1_midelement():
    spec = BasisSpec.tensor_uniform(1, 6)
    first, vals, _ = eval_bspline(spec, 2.5)
    assert np.allclose(vals, [0.5, 0.5], atol=1e-15)
    assert first == 2


def test_bspline_p2_interior_midspan_vs_oracle():
    spec = BasisSpec.tensor_uniform(2, 8)
    u = 4.5  # middle of an interior span
    first, vals, _ = eval_bspline(spec, u)
    oracle = [naive_cox_de_boor(spec.knots[0], 2, first + j, u) for j in range(3)]
    assert np.allclose(vals, oracle, atol=1e-13)
    assert np.allclose(vals, [0.125, 0.75, 0.125], atol=1e-13)


def test_bspline_values_match_oracle_everywhere(rng):
    spec = BasisSpec.tensor_uniform(2, 5)
    for u in rng.uniform(0.0, 5.0, size=25):
        first, vals, _ = eval_bspline(spec, u)
        oracle = [naive_cox_de_boor(spec.knots[0], 2, first + j, u) for j in range(3)]
        assert np.allclose(vals, oracle, atol=1e-13)


def test_bspline_partition_of_unity(rng):
    spec = BasisSpec.tensor_uniform(2, 7)
    for u in rng.uniform(0.0, 7.0, size=50):
        _, vals, derivs = eval_bspline(spec, u)
        assert np.all(vals >= -1e-14)
        assert np.isclose(vals.sum(), 1.0, atol=1e-13)
        assert np.isclose(derivs.sum(), 0.0, atol=1e-12)


@pytest.mark.parametrize("continuity", [None, 0], ids=["maximal", "C0"])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_first_derivatives_match_divided_oracle(p, continuity, rng):
    n = 5
    spec = BasisSpec.tensor_uniform(p, n, continuity)
    knots = spec.knots[0]
    u = rng.uniform(0.0, n, size=30)
    be = eval_tensor_batched(spec, u[:, None])
    for k in range(len(u)):
        oracle = [naive_derivative(knots, p, i, u[k]) for i in be.indices[k]]
        assert np.abs(be.grads[k, :, 0] - oracle).max() <= 1e-12
    # at the interior knots, from the element on each side: the one-sided
    # limits, from the left with the left element's span
    at = np.arange(1.0, n)
    for from_left, elements in ((True, at - 1), (False, at)):
        spans = spec.span_of_element(0, elements)
        be = eval_tensor_batched(spec, at[:, None], spans_per_dir=[spans])
        for k in range(len(at)):
            oracle = [naive_derivative(knots, p, i, at[k], from_left) for i in be.indices[k]]
            assert np.abs(be.grads[k, :, 0] - oracle).max() <= 1e-12


def test_tensor_uniform_lengths_must_agree():
    for degrees, n_elements, continuity in (((2, 2), (4, 4, 4), None), (2, (4, 4), (1, 0, 0)),
                                            ((1, 2), 4, None)):
        with pytest.raises(ValueError, match="one entry per direction"):
            BasisSpec.tensor_uniform(degrees, n_elements, continuity)
    # a single degree or continuity serves every direction
    spec = BasisSpec.tensor_uniform(2, (4, 3), 0)
    assert spec.degrees == (2, 2) and spec.n_funcs_per_dir == (9, 7)


def test_bspline_domain_error():
    spec = BasisSpec.tensor_uniform(2, 4)
    with pytest.raises(DomainError):
        eval_bspline(spec, -0.1)
    with pytest.raises(DomainError):
        eval_bspline(spec, 4.0001)


def _random_weight_spec(rng, n=4, spread=0.8):
    nf = (n + 2) * (n + 2)
    w = 1.0 + spread * rng.uniform(-0.5, 1.0, size=nf)
    return BasisSpec.tensor_uniform((2, 2), (n, n), weights=w)


def test_partition_of_unity_rational(rng):
    spec = _random_weight_spec(rng)
    pts = rng.uniform(0.0, 4.0, size=(1000, 2))
    be = eval_tensor_batched(spec, pts)
    assert np.allclose(be.values.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(be.grads.sum(axis=1), 0.0, atol=1e-12)


def test_unit_weights_match_plain_bspline(rng):
    n = 5
    spec_w = BasisSpec.tensor_uniform((2, 2), (n, n), weights=np.ones((n + 2) ** 2))
    spec_p = BasisSpec.tensor_uniform((2, 2), (n, n))
    pts = rng.uniform(0.0, n, size=(200, 2))
    bw = eval_tensor_batched(spec_w, pts, mixed=True)
    bp = eval_tensor_batched(spec_p, pts, mixed=True)
    assert np.abs(bw.values - bp.values).max() <= 1e-15
    assert np.abs(bw.grads - bp.grads).max() <= 1e-15
    scale = max(1.0, np.abs(bp.second_mixed).max())
    assert np.abs(bw.second_mixed - bp.second_mixed).max() <= 1e-15 * scale


def _fd_point(spec, point, direction, h):
    lo = np.array(point, dtype=float)
    hi = lo.copy()
    lo[direction] -= h
    hi[direction] += h
    blo = eval_rational(spec, lo)
    bhi = eval_rational(spec, hi)
    assert np.array_equal(blo.indices, bhi.indices)
    return (bhi.values - blo.values) / (2 * h)


def _interior_points(rng, n, count, margin):
    return rng.uniform(margin, n - margin, size=(count, 2))


def test_rational_first_derivatives_vs_fd(rng):
    # example tolerance: step 1e-6, relative error < 1e-6
    spec = _random_weight_spec(rng)
    for point in _interior_points(rng, 4, 20, 0.05):
        be = eval_rational(spec, point)
        for d in range(2):
            fd = _fd_point(spec, point, d, 1e-6)
            denom = max(1.0, np.abs(be.grads[:, d]).max())
            assert np.abs(fd - be.grads[:, d]).max() / denom < 1e-6


def test_rational_derivatives_vs_fd_step_1e5(rng):
    # invariant tolerance: central step 1e-5, relative error 1e-5, first and
    # mixed second derivatives
    spec = _random_weight_spec(rng)
    h = 1e-5
    for point in _interior_points(rng, 4, 12, 0.05):
        be = eval_rational(spec, point)
        for d in range(2):
            fd = _fd_point(spec, point, d, h)
            denom = max(1.0, np.abs(be.grads[:, d]).max())
            assert np.abs(fd - be.grads[:, d]).max() / denom < 1e-5
        # cross difference for the mixed second derivative
        pp = eval_rational(spec, point + [h, h]).values
        pm = eval_rational(spec, point + [h, -h]).values
        mp = eval_rational(spec, point + [-h, h]).values
        mm = eval_rational(spec, point + [-h, -h]).values
        fd2 = (pp - pm - mp + mm) / (4 * h * h)
        denom = max(1.0, np.abs(be.second_mixed[:, 0]).max())
        assert np.abs(fd2 - be.second_mixed[:, 0]).max() / denom < 1e-5


def test_constant_weights_cancel(rng):
    # all weights equal: every weight-derivative term vanishes, so the
    # rational evaluation collapses to the plain polynomial one
    n = 4
    w = np.full((n + 2) ** 2, 3.7)
    spec_w = BasisSpec.tensor_uniform((2, 2), (n, n), weights=w)
    spec_p = BasisSpec.tensor_uniform((2, 2), (n, n))
    for point in _interior_points(rng, n, 10, 0.02):
        bw = eval_rational(spec_w, point)
        bp = eval_rational(spec_p, point)
        assert np.allclose(bw.values, bp.values, atol=1e-14)
        assert np.allclose(bw.grads, bp.grads, atol=1e-13)
        assert np.allclose(bw.second_mixed, bp.second_mixed, atol=1e-12)


def test_simplex_vertices_and_centroid(rng):
    # every triangle of the diagonal split: neither the lower-right 2q nor
    # the upper-left 2q+1 has the reference triangle's frame
    patch = triangulate(graded_square(4, 1))
    elems = np.arange(patch.n_elements)
    v = _split_lattice(*patch.n_elems).astype(np.float64)
    for k in range(3):
        be = patch.field_basis_eval(elems, v[:, k])
        assert np.allclose(be.values, np.eye(3)[k])
    be = patch.field_basis_eval(elems, v.mean(axis=1))
    assert np.allclose(be.values, [1 / 3, 1 / 3, 1 / 3])
    assert np.allclose(be.grads.sum(axis=1), 0.0, atol=1e-15)
    # partition of unity at random barycentric points
    lam = rng.dirichlet(np.ones(3), size=patch.n_elements)
    be = patch.field_basis_eval(elems, np.einsum("ek,ekd->ed", lam, v))
    assert np.allclose(be.values, lam)
    assert np.allclose(be.values.sum(axis=1), 1.0)


def test_weight_validation():
    with pytest.raises(InvalidWeightsError):
        BasisSpec.tensor_uniform(1, 4, weights=np.array([1.0] * 4 + [0.0]))


def test_nonpositive_weight_function_detected():
    spec = BasisSpec.tensor_uniform(1, 4, weights=np.ones(5))
    spec.weights = spec.weights.copy()
    spec.weights[:] = [1.0, -2.0, 1.0, 1.0, 1.0]  # bypasses construction checks
    with pytest.raises(InvalidWeightsError):
        eval_rational(spec, [0.5])


def test_open_knot_validation():
    with pytest.raises(ValueError):
        BasisSpec(degrees=(2,), knots=(np.array([0, 0, 1, 2, 2, 2.0]),))
