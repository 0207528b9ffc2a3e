import numpy as np
import pytest

from conftest import (BASIS_BLOCK_PATCHES, alternating_line_patch, linear_field, unit_line,
                      unit_square)
from levelset.fields import (
    AnalyticField,
    HeavisideParams,
    NaiveScaledField,
    ScalarField,
    heaviside_band_derivative,
    regularized_heaviside,
    subdomain_volumes,
)


def test_regularized_heaviside_values():
    hv = HeavisideParams(alpha=2.0)
    assert regularized_heaviside(0.0, hv) == 0.5
    assert regularized_heaviside(2.0, hv) == 1.0
    assert regularized_heaviside(-2.0, hv) == 0.0
    assert regularized_heaviside(5.0, hv) == 1.0
    assert regularized_heaviside(1.0, hv) == pytest.approx(0.8535533905932737, abs=1e-15)
    vals = regularized_heaviside(np.linspace(-5.0, 5.0, 101), hv)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_regularized_heaviside_physical_values():
    # a band of physical half-width eps is the scaled-distance step at alpha=eps
    eps = 0.25
    hv = HeavisideParams(eps)
    assert regularized_heaviside(0.0, hv) == 0.5
    assert regularized_heaviside(eps, hv) == 1.0
    assert regularized_heaviside(-eps / 2, hv) == pytest.approx(
        0.14644660940672624, abs=1e-15)
    with pytest.raises(ValueError):
        HeavisideParams(-1.0)


def test_regularized_heaviside_monotone_and_c1():
    hv = HeavisideParams(alpha=1.5)
    x = np.linspace(-3.0, 3.0, 20001)
    h = regularized_heaviside(x, hv)
    assert np.all(np.diff(h) >= 0)
    # one-sided slopes at the band edges vanish from both sides; the kernel
    # grows linearly away from the edge, so the bound scales with the window
    dh = np.diff(h) / np.diff(x)
    for edge in (-1.5, 1.5):
        near = np.abs(0.5 * (x[1:] + x[:-1]) - edge) < 5e-4
        assert np.abs(dh[near]).max() < 5e-4
    # derivative kernel agrees with the sampled slope inside the band
    mid = 0.5 * (x[1:] + x[:-1])
    inside = np.abs(mid) < 1.4
    kernel = heaviside_band_derivative(mid[inside], 1.5)
    assert np.abs(kernel - dh[inside]).max() < 1e-6


def test_naive_scaled_distance_uniform():
    patch = unit_line(10)
    phi = linear_field(patch, 1.0, c=-0.5)
    naive = NaiveScaledField(phi)
    xs = np.linspace(0.02, 0.98, 200)
    pts = patch.param_of_physical(xs[:, None])
    elems = patch.element_of_param(pts)
    vals = naive.eval_values(elems, pts)
    assert np.allclose(vals, (xs - 0.5) / 0.1, atol=1e-12)
    assert np.all(np.diff(vals) > 0)


def test_naive_scaled_distance_graded_sawtooth():
    # dense sampling finds at least one strictly descending step pair
    patch = alternating_line_patch(10)
    phi = linear_field(patch, 1.0, c=-0.5)
    naive = NaiveScaledField(phi)
    xs = np.linspace(1e-3, 1 - 1e-3, 1000)
    pts = patch.param_of_physical(xs[:, None])
    elems = patch.element_of_param(pts)
    h = regularized_heaviside(naive.eval_values(elems, pts), HeavisideParams(3.0))
    assert np.diff(h).min() < -1e-3


def test_naive_scaled_distance_zero_gradient_fallback():
    patch = unit_square(6)
    phi = AnalyticField(patch, lambda x: np.zeros(np.shape(x)[:-1]),
                        lambda x: np.zeros(np.shape(x)))
    vals = NaiveScaledField(phi).quadrature_values()
    assert np.all(np.isfinite(vals))
    assert np.allclose(vals, 0.0)


def test_subdomain_volumes_constant():
    patch = unit_square(8)
    hv = HeavisideParams(alpha=2.0)
    phi_hat = linear_field(patch, 0.0, c=20.0 * hv.alpha)
    v0, v1 = subdomain_volumes(phi_hat, hv)
    assert v1 == pytest.approx(1.0, abs=1e-12)
    assert v0 == pytest.approx(0.0, abs=1e-12)


def test_subdomain_volumes_antisymmetric():
    patch = unit_square(8)
    hv = HeavisideParams(alpha=2.0)
    phi_hat = linear_field(patch, 10.0, c=-5.0)  # antisymmetric about x = 1/2
    v0, v1 = subdomain_volumes(phi_hat, hv)
    assert v1 == pytest.approx(0.5, abs=1e-12)
    assert v0 == pytest.approx(0.5, abs=1e-12)


def test_subdomain_volumes_disc_vs_fine_quadrature_oracle():
    # scaled signed distance of the disc, interface width 2 elements on 80x80
    n, alpha, radius = 80, 2.0, 0.15
    center = np.array([0.5, 0.75])
    patch = unit_square(n)
    hv = HeavisideParams(alpha=alpha)

    def phi_hat_fn(x):
        return (radius - np.linalg.norm(x - center, axis=-1)) * n

    def grad_fn(x):
        d = x - center
        nn = np.linalg.norm(d, axis=-1, keepdims=True)
        return -n * d / np.maximum(nn, 1e-300)

    field = AnalyticField(patch, phi_hat_fn, grad_fn)
    v0, v1 = subdomain_volumes(field, hv)
    assert v1 == pytest.approx(np.pi * radius**2, abs=1e-3)
    assert v0 + v1 == pytest.approx(1.0, abs=1e-12)
    # independent fine midpoint quadrature of the same regularized integrand
    m = 1500
    g = (np.arange(m) + 0.5) / m
    xx, yy = np.meshgrid(g, g, indexing="ij")
    pts = np.stack([xx, yy], axis=-1)
    oracle = regularized_heaviside(phi_hat_fn(pts), hv).mean()
    assert v1 == pytest.approx(oracle, abs=2e-5)


def test_volume_split_sums_to_measure(rng):
    patch = unit_square(7)
    hv = HeavisideParams(alpha=1.0)
    coeffs = rng.standard_normal(patch.n_dofs)
    v0, v1 = subdomain_volumes(ScalarField(patch, coeffs), hv)
    assert v0 + v1 == pytest.approx(patch.tabulation().wdet.sum(), abs=1e-12)


def linear_fields(patch, a, b=0.0, c=0.0):
    """a*x + b*y + c as an analytic field and as the discrete field of its
    nodal values (exact on the linear patches used here)."""
    analytic = linear_field(patch, a, b, c)
    nodal = analytic.fn(patch.geom_coeffs)
    return analytic, ScalarField(patch, nodal)


def test_parametric_gradient_norm_uniform():
    patch = unit_line(10)
    elems, pts = np.array([4]), np.array([[4.3]])
    for phi in linear_fields(patch, 1.0):
        got = np.linalg.norm(phi.eval_grads_xi(elems, pts)[0])
        assert got == pytest.approx(0.1, abs=1e-14)
    for const in linear_fields(patch, 0.0, c=3.0):
        assert np.linalg.norm(const.eval_grads_xi(elems, pts)[0]) == 0.0


def test_parametric_gradient_norm_graded_chain_rule(rng):
    from conftest import graded_square

    patch = graded_square(12, 1)
    pts = rng.uniform(0.3, 11.7, size=(20, 2))
    elems = patch.element_of_param(pts)
    _, jac = patch.geometry_eval(elems, pts)
    grad = np.array([3.0, 2.0])
    for phi in linear_fields(patch, 3.0, 2.0):
        got = np.linalg.norm(phi.eval_grads_xi(elems, pts), axis=-1)
        for k in range(len(pts)):
            oracle = np.linalg.norm(grad @ jac[k])
            assert got[k] == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("make", BASIS_BLOCK_PATCHES.values(), ids=BASIS_BLOCK_PATCHES.keys())
def test_quadrature_grads_xi_vs_einsum(make, rng):
    patch = make()
    phi = ScalarField(patch, rng.standard_normal(patch.n_dofs))
    tab = patch.tabulation()
    oracle = np.einsum("eqad,ea->eqd", tab.field_dN, phi.coeffs[tab.field_conn])
    got = phi.quadrature_grads_xi()
    assert got.shape == oracle.shape
    assert np.abs(got - oracle).max() <= 1e-14 * np.abs(oracle).max()


def test_scalar_field_validation_and_shift():
    patch = unit_line(5)
    with pytest.raises(ValueError):
        ScalarField(patch, np.zeros(3))
    field = ScalarField(patch, np.linspace(0, 1, patch.n_dofs))
    shifted = field.shifted(2.5)
    pts = np.array([[1.3], [4.2]])
    elems = patch.element_of_param(pts)
    assert np.allclose(shifted.eval_values(elems, pts) - field.eval_values(elems, pts),
                       2.5, atol=1e-14)


def test_heaviside_params_validation():
    with pytest.raises(ValueError):
        HeavisideParams(alpha=0.0)
