import numpy as np
import pytest

from conftest import (
    alternating_line_patch,
    assembled_projection,
    basis_blocks,
    geometric_line_patch,
    graded_square,
    linear_field,
    nurbs_square,
    unit_line,
    unit_square,
)
from levelset.fields import AnalyticField, HeavisideParams, ScalarField, regularized_heaviside
from levelset.linalg import solve_spd
from levelset.mesh import SamplePoints, build_structured, grade_structured
from levelset.redistance import (
    ALTERNATIVES,
    PositivityError,
    ProjectionOperator,
    RedistanceParams,
    project_function,
    redistance_field,
)


def sample_line(patch, n=400, lo=1e-3, hi=None):
    hi = 1.0 - lo if hi is None else hi
    xs = np.linspace(lo, hi, n)
    return xs, patch.locate(xs[:, None])


# ----------------------------------------------------------------------
# direct redistancing


def test_direct_identity_for_unit_parametric_slope():
    # elements of width 1: parametric slope of phi = x is exactly one
    patch = build_structured([(0.0, 8.0)], [8], 1)
    phi = linear_field(patch, 1.0, c=-3.0)
    sd = redistance_field(phi, RedistanceParams("direct"))
    xs = np.linspace(0.1, 7.9, 100)
    assert np.allclose(sd.eval_values(patch.locate(xs[:, None])), xs - 3.0, atol=1e-13)


def test_direct_uniform_scaling():
    patch = unit_line(10)
    phi = linear_field(patch, 2.0)
    sd = redistance_field(phi, RedistanceParams("direct"))
    xs, at = sample_line(patch)
    assert np.allclose(sd.eval_values(at), xs / 0.1, atol=1e-12)


def path_integral_oracle(patch, n_fine=200001):
    """Scaled distance by numerically integrating dphi / h for phi = x."""
    xs = np.linspace(0.0, 1.0, n_fine)
    widths = np.diff(patch.grid_lines[0])
    idx = np.clip(np.searchsorted(patch.grid_lines[0], xs, side="right") - 1,
                  0, len(widths) - 1)
    h = widths[idx]
    integrand = 1.0 / h
    cumulative = np.concatenate([[0.0], np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * np.diff(xs))])
    return xs, cumulative


def test_direct_vs_path_integral_oracle():
    patch = geometric_line_patch(10, ratio=1.04)
    phi = linear_field(patch, 1.0)
    sd = redistance_field(phi, RedistanceParams("direct"))
    xs_fine, oracle = path_integral_oracle(patch)
    lines = patch.grid_lines[0]
    mids = 0.5 * (lines[1:] + lines[:-1])
    direct_vals = sd.eval_values(patch.locate(mids[:, None]))
    oracle_vals = np.interp(mids, xs_fine, oracle)
    assert np.all(np.abs(direct_vals - oracle_vals) / oracle_vals < 0.20)
    # the oracle is continuous while the direct quotient jumps at breakpoints
    left, right = patch.interior_edge_samples()
    jumps = np.abs(sd.eval_values(left) - sd.eval_values(right))
    assert jumps.max() > 1e-6


# ----------------------------------------------------------------------
# projection assembly


def test_projection_constant_reproduction():
    patch = unit_square(6)
    system = ProjectionOperator(patch, 0.0).system(
        lambda x: np.full(np.shape(x)[:-1], 4.2))
    coeffs = solve_spd(system)
    assert np.allclose(coeffs, 4.2, atol=1e-9)


def test_projection_large_smoothing_tends_to_mean():
    # strongly smoothing-dominated (near-singular) system: allow a loose
    # iterative tolerance and check against the dense oracle and the mean
    patch = unit_line(12)
    f = lambda x: np.sin(2.0 * np.pi * x[..., 0]) + 0.75
    system = assembled_projection(patch, 1e4, f)
    coeffs = solve_spd(system, rel_tol=1e-9, max_iter=100000)
    oracle = np.linalg.solve(system.matrix.toarray(), system.rhs)
    assert np.allclose(coeffs, oracle, atol=1e-8)
    assert np.allclose(coeffs, 0.75, atol=2e-3)  # pure-Neumann diffusion limit


def test_projection_matrix_exactly_symmetric():
    patch = graded_square(8, 2)
    system = assembled_projection(patch, 1.0, lambda x: x[..., 0])
    a = system.matrix.toarray()
    assert np.abs(a - a.T).max() == 0.0


@pytest.mark.parametrize("kappa_d", [0.0, 1.0, 10.0])
def test_projection_element_matrices_vs_einsum(kappa_d):
    cube = build_structured([(0.0, 1.0)] * 3, [3] * 3, 1)
    for patch in (graded_square(6, 2), grade_structured(cube, lambda s: s**1.5),
                  nurbs_square()):
        wdet = patch.tabulation().wdet
        n, dn, _ = basis_blocks(patch)
        oracle = np.einsum("eq,eqa,eqb->eab", wdet, n, n)
        oracle = oracle + kappa_d * np.einsum("eq,eqad,eqbd->eab", wdet, dn, dn)
        a_e = ProjectionOperator(patch, kappa_d).element_matrices()
        assert np.abs(a_e - oracle).max() <= 1e-14 * np.abs(oracle).max()
        assert np.array_equal(a_e, a_e.swapaxes(1, 2))


def test_projection_vs_dense_oracle_small_meshes(rng):
    for patch in (unit_square(12), graded_square(10, 1)):
        f = lambda x: np.cos(x[..., 0]) * x[..., 1]
        system = assembled_projection(patch, 0.0, f)
        x = solve_spd(system, rel_tol=1e-13)
        oracle = np.linalg.solve(system.matrix.toarray(), system.rhs)
        assert np.linalg.norm(x - oracle) / np.linalg.norm(oracle) < 1e-10


def test_project_function_reproduces_polynomials():
    patch = unit_square(5, 2)
    field = project_function(patch, lambda x: 2.0 * x[..., 0] - 3.0 * x[..., 1] + 1.0)
    pts = np.array([[1.25, 3.75], [0.5, 4.5]])
    at = SamplePoints(patch, patch.element_of_param(pts), pts)
    assert np.allclose(field.eval_values(at),
                       2.0 * at.x[:, 0] - 3.0 * at.x[:, 1] + 1.0, atol=1e-9)


# ----------------------------------------------------------------------
# projected redistancing


def test_projected_redistance_uniform_slope_exact():
    patch = unit_line(10)
    phi = linear_field(patch, 3.0, c=-1.2)
    sd = redistance_field(phi, RedistanceParams("proj-redist", kappa_d=0.0))
    xs, at = sample_line(patch)
    assert np.allclose(sd.eval_values(at), (3.0 * xs - 1.2) / 0.3, atol=1e-8)


def test_projected_redistance_continuous_on_graded():
    patch = alternating_line_patch(10)
    phi = linear_field(patch, 1.0, c=-0.5)
    sd = redistance_field(phi, RedistanceParams("proj-redist", kappa_d=1.0))
    left, right = patch.interior_edge_samples()
    jumps = np.abs(sd.eval_values(left) - sd.eval_values(right))
    assert jumps.max() < 1e-9


def test_projected_redistance_interface_drift_grows_with_smoothing():
    patch = geometric_line_patch(12, ratio=1.5)
    phi = linear_field(patch, 1.0, c=-0.5)
    drifts = {}
    for kd in (1.0, 10.0):
        sd = redistance_field(phi, RedistanceParams("proj-redist", kappa_d=kd))
        drifts[kd] = abs(float(sd.eval_values(patch.locate([[0.5]]))[0]))
    assert drifts[10.0] > 1e-6  # the zero crossing has moved
    assert drifts[10.0] > drifts[1.0]


# ----------------------------------------------------------------------
# scaling alternatives


def test_projected_scaling_uniform():
    patch = unit_line(10)
    phi = linear_field(patch, 5.0, c=-2.0)
    sd = redistance_field(phi, RedistanceParams("proj-scale", kappa_d=0.0))
    assert np.allclose(sd.epsilon.coeffs, 1.0 / 0.5, atol=1e-9)
    xs, at = sample_line(patch)
    assert np.allclose(sd.eval_values(at), (5.0 * xs - 2.0) / 0.5, atol=1e-8)


def test_projected_inverse_scaling_uniform():
    patch = unit_line(10)
    phi = linear_field(patch, 5.0, c=-2.0)
    sd = redistance_field(phi, RedistanceParams("proj-inv-scale", kappa_d=0.0))
    assert np.allclose(sd.epsilon.coeffs, 0.5, atol=1e-9)
    xs, at = sample_line(patch)
    assert np.allclose(sd.eval_values(at), (5.0 * xs - 2.0) / 0.5, atol=1e-8)


def random_smooth_nodal_field(patch, rng):
    """Smooth level-set-like field: dominant linear part plus mild waves."""
    a, b = rng.uniform(0.6, 1.4, size=2) * rng.choice([-1.0, 1.0], size=2)
    c = rng.uniform(-0.3, 0.3)
    k1, k2 = rng.integers(1, 4, size=2)
    amp = rng.uniform(0.02, 0.08)

    def fn(x):
        return (a * x[..., 0] + b * x[..., 1] + c
                + amp * np.sin(k1 * np.pi * x[..., 0]) * np.cos(k2 * np.pi * x[..., 1]))

    return project_function(patch, fn)


def test_sign_preservation_scaling_alternatives(rng):
    patch = unit_square(10)
    for _ in range(12):
        phi = random_smooth_nodal_field(patch, rng)
        phi_qp = phi.quadrature_values()
        for kd in (0.0, 1.0, 10.0):
            for alt in ("proj-scale", "proj-inv-scale"):
                sd = redistance_field(phi, RedistanceParams(alt, kappa_d=kd))
                assert np.array_equal(np.sign(sd.quadrature_values()), np.sign(phi_qp))


def test_zero_set_exactly_preserved():
    patch = unit_square(8)
    phi = linear_field(patch, 1.0, -1.0)  # x - y: zero on the diagonal
    for alt in ("proj-scale", "proj-inv-scale"):
        sd = redistance_field(phi, RedistanceParams(alt, kappa_d=10.0))
        diag = np.linspace(0.05, 0.95, 50)
        at = patch.locate(np.stack([diag, diag], axis=-1))
        assert np.abs(sd.eval_values(at)).max() < 1e-13


def test_eikonal_consistency_all_alternatives_uniform():
    patch = unit_square(10)
    phi = linear_field(patch, 3.0, c=-1.2)
    params = lambda alt: RedistanceParams(alt, kappa_d=0.0)
    for alt in ("proj-redist", "proj-scale", "proj-inv-scale"):
        sd = redistance_field(phi, params(alt))
        norms = np.linalg.norm(sd.quadrature_grads_xi(), axis=-1)
        assert np.abs(norms - 1.0).max() < 1e-10
    # direct quotient: the scaled field is linear, slope via two-point sampling
    sd = redistance_field(phi, params("direct"))
    vals = sd.eval_values(SamplePoints(patch, [55, 55], [[5.2, 5.5], [5.8, 5.5]]))
    assert (vals[1] - vals[0]) / 0.6 == pytest.approx(1.0, abs=1e-10)


def test_scaling_eikonal_band_on_graded_mesh():
    patch = graded_square(30, 1)
    phi = linear_field(patch, 1.0, c=-0.4)
    sd = redistance_field(phi, RedistanceParams("proj-scale", kappa_d=1.0))
    vals = sd.quadrature_values()
    norms = np.linalg.norm(sd.quadrature_grads_xi(), axis=-1)
    band = np.abs(vals) <= 3.0
    assert band.any()
    assert norms[band].min() > 0.8
    assert norms[band].max() < 1.2


def test_inverse_scaling_continuous_on_distorted_c1q2():
    patch = graded_square(20, 2)
    phi = linear_field(patch, 1.0, -1.0)
    sd = redistance_field(phi, RedistanceParams("proj-inv-scale", kappa_d=0.0))
    left, right = patch.interior_edge_samples()
    hv = HeavisideParams(3.0)
    jump = np.abs(regularized_heaviside(sd.eval_values(left), hv)
                  - regularized_heaviside(sd.eval_values(right), hv)).max()
    assert jump < 1e-8


def test_analytic_field_evaluates_its_quadrature_arrays_once():
    # the 12 scaled distances of a distortion case read the same analytic
    # values and gradients at the quadrature points
    patch = graded_square(6, 2)
    exact = linear_field(patch, 1.0, -1.0)
    calls = []
    phi = AnalyticField(patch, lambda x: calls.append("fn") or exact.fn(x),
                        lambda x: calls.append("grad_fn") or exact.grad_fn(x))
    for alt in ALTERNATIVES:
        for kd in (0.0, 1.0, 10.0):
            redistance_field(phi, RedistanceParams(alt, kappa_d=kd))
    assert calls.count("grad_fn") == 1 and calls.count("fn") == 1
    tab = patch.tabulation()
    assert phi.quadrature_values().tobytes() == exact.fn(tab.x).tobytes()
    assert phi.quadrature_grads_xi().tobytes() == np.einsum(
        "eqd,eqdk->eqk", exact.grad_fn(tab.x), tab.J).tobytes()
    for kept in (phi.quadrature_values(), phi.quadrature_grads_xi()):
        with pytest.raises(ValueError):
            kept[0, 0] = 0.5


def test_positivity_error_and_clamp():
    # flat region abutting a steep ramp: the projected gradient magnitude
    # undershoots below the floor next to the transition
    patch = unit_line(20)
    nodes = patch.grid_lines[0]
    coeffs = np.where(nodes < 0.5, 0.0, (nodes - 0.5) * 4.0)
    phi = ScalarField(patch, coeffs)
    with pytest.raises(PositivityError) as err:
        redistance_field(phi, RedistanceParams("proj-inv-scale", kappa_d=0.0))
    assert err.value.value < err.value.floor
    sd = redistance_field(
        phi, RedistanceParams("proj-inv-scale", kappa_d=0.0, positivity="clamp"))
    assert sd.quadrature_values().shape == (20, 2)
    # the points floored, counted; no other alternative clamps
    assert sd.clamped == np.count_nonzero(sd.epsilon.quadrature_values() < sd.delta) > 0
    for alt in ("direct", "proj-redist"):
        assert redistance_field(phi, RedistanceParams(alt, positivity="clamp")).clamped == 0
    assert np.all(sd.shift_response_qp() > 0)
    # the clamped quotient still never flips signs
    assert np.array_equal(np.sign(sd.quadrature_values()),
                          np.sign(phi.quadrature_values()))


@pytest.mark.parametrize("alternative", ["proj-scale", "proj-inv-scale"])
def test_positivity_enforced_for_both_scalings(alternative):
    # a level set flat for x < 0.3: its gradient magnitude, and more so its
    # reciprocal, overshoot when projected, so eps dips below the floor (for
    # proj-scale to about -1.4e8, which flips the signs unless it raises)
    patch = build_structured([(0.0, 1.0)] * 2, [10, 10], 1)
    x = patch.geom_coeffs
    phi = ScalarField(patch, np.clip(x[:, 0], 0.3, 1.0) - 0.6)
    with pytest.raises(PositivityError) as err:
        redistance_field(phi, RedistanceParams(alternative, kappa_d=0.0))
    assert err.value.value < err.value.floor
    sd = redistance_field(phi, RedistanceParams(alternative, kappa_d=0.0,
                                                positivity="clamp"))
    assert sd.clamped == np.count_nonzero(sd.epsilon.quadrature_values() < sd.delta) > 0
    assert np.all(sd.shift_response_qp() > 0)
    assert np.array_equal(np.sign(sd.quadrature_values()),
                          np.sign(phi.quadrature_values()))


def test_shift_response_matches_shifted_field():
    # phi_hat(phi + s) == phi_hat(phi) + s * response, per alternative
    patch = graded_square(8, 1)
    phi = project_function(patch, lambda x: x[..., 0] - 0.6 * x[..., 1] - 0.2)
    s = 0.0371
    shifted = ScalarField(patch, phi.coeffs + s)
    for alt in ("direct", "proj-redist", "proj-scale", "proj-inv-scale"):
        params = RedistanceParams(alt, kappa_d=0.5)
        op = ProjectionOperator(patch, 0.5)
        sd = redistance_field(phi, params, op=op)
        sd_shifted = redistance_field(shifted, params, op=op)
        predicted = sd.quadrature_values() + s * sd.shift_response_qp()
        # the projected variant compares two independent iterative solves
        assert np.abs(predicted - sd_shifted.quadrature_values()).max() < 1e-8


def test_params_validation():
    with pytest.raises(ValueError):
        RedistanceParams("nonsense")
    with pytest.raises(ValueError):
        RedistanceParams(kappa_d=-1.0)
    with pytest.raises(ValueError):
        RedistanceParams(positivity="maybe")
    assert RedistanceParams("projected-inverse-scaling").alternative == "proj-inv-scale"
