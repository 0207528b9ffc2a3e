"""Acceptance checks. Each test prints one PASS/FAIL line (run with -s).

The heavyweight runs sit at the end of the module: the required convergence
sweep takes a couple of minutes and the 3D cube run takes on the order of
ten minutes. The 80-element level and the triangle family of the convergence
study are opt-in (LEVELSET_ACCEPT_FULL=1), mirroring the CLI flags
--with-80/--with-triangles.
"""

import os
import time

import numpy as np
import pytest

from conftest import alternating_line_patch, graded_square, linear_field, unit_square
from levelset.basis import BasisSpec, eval_rational
from levelset.benchmarks import (
    CaseConfig,
    run_convergence,
    run_distortion,
    run_vortex2d,
    run_vortex3d,
    vortex2d_field,
    vortex_time_factor,
)
from levelset.fields import (
    HeavisideParams,
    ScalarField,
    regularized_heaviside,
    subdomain_volumes,
)
from levelset.mesh import build_structured
from levelset.redistance import RedistanceParams


def _report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# --- 1. monotone Heaviside on the graded 1D mesh ------------------------


def test_c01_monotone_heaviside_1d():
    from levelset.fields import NaiveScaledField
    from levelset.redistance import redistance_field

    start = time.perf_counter()
    patch = alternating_line_patch(10)  # widths alternate 0.05 / 0.15
    phi = linear_field(patch, 1.0, c=-0.5)
    hv = HeavisideParams(3.0)
    xs = np.linspace(1e-3, 1 - 1e-3, 1000)
    at = patch.locate(xs[:, None])

    naive = NaiveScaledField(phi)
    h_naive = regularized_heaviside(naive.eval_values(at), hv)
    descending_margin = -float(np.diff(h_naive).min())

    sd = redistance_field(phi, RedistanceParams("proj-inv-scale", kappa_d=1.0))
    h_scaled = regularized_heaviside(sd.eval_values(at), hv)
    monotone = bool(np.all(np.diff(h_scaled) >= -1e-13))

    elapsed = time.perf_counter() - start
    ok = descending_margin > 1e-3 and monotone and elapsed < 1.0
    _report(1, "monotone-heaviside-1d", ok,
            f"naive descending margin {descending_margin:.3e}, "
            f"scaled monotone {monotone}, {elapsed:.2f}s")


# --- 2. distortion test --------------------------------------------------


def test_c02_distortion():
    start = time.perf_counter()
    report = run_distortion(CaseConfig("distortion", mesh_n=40, vtk=False))
    by_key = {(e.alternative, e.kappa_d): e for e in report.entries}
    direct_jump = by_key[("direct", 0.0)].max_jump
    proj_jumps = {
        (alt, kd): by_key[(alt, kd)].max_jump
        for alt in ("proj-redist", "proj-scale", "proj-inv-scale")
        for kd in (0.0, 1.0)
    }
    drift_ratio = by_key[("proj-redist", 10.0)].drift / by_key[("proj-redist", 1.0)].drift
    elapsed = time.perf_counter() - start
    ok = (direct_jump > 1e-3
          and all(j < 1e-8 for j in proj_jumps.values())
          and drift_ratio >= 2.0
          and elapsed < 10.0)
    _report(2, "distortion-test", ok,
            f"direct jump {direct_jump:.3e}, max proj jump "
            f"{max(proj_jumps.values()):.2e}, drift ratio {drift_ratio:.2f}, "
            f"{elapsed:.1f}s")


# --- 3. interface preservation ------------------------------------------


def _random_smooth_field(patch, rng):
    from levelset.redistance import project_function

    a, b = rng.uniform(0.6, 1.4, size=2) * rng.choice([-1.0, 1.0], size=2)
    c = rng.uniform(-0.3, 0.3)
    k1, k2 = rng.integers(1, 4, size=2)
    amp = rng.uniform(0.02, 0.08)

    def fn(x):
        return (a * x[..., 0] + b * x[..., 1] + c
                + amp * np.sin(k1 * np.pi * x[..., 0]) * np.cos(k2 * np.pi * x[..., 1]))

    return project_function(patch, fn)


def test_c03_interface_preservation():
    from levelset.redistance import redistance_field

    start = time.perf_counter()
    rng = np.random.default_rng(7)
    patches = [unit_square(10, 1), unit_square(8, 2)]
    violations = 0
    checked = 0
    for k in range(50):
        patch = patches[k % 2]
        phi = _random_smooth_field(patch, rng)
        phi_qp = phi.quadrature_values()
        for kd in (0.0, 1.0, 10.0):
            for alt in ("proj-scale", "proj-inv-scale"):
                sd = redistance_field(phi, RedistanceParams(alt, kappa_d=kd))
                checked += 1
                if not np.array_equal(np.sign(sd.quadrature_values()),
                                      np.sign(phi_qp)):
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    _report(3, "interface-preservation", ok,
            f"{checked} projections, {violations} sign violations, {elapsed:.1f}s")


# --- 4. Eikonal consistency ----------------------------------------------


def test_c04_eikonal_consistency():
    from levelset.redistance import redistance_field

    start = time.perf_counter()
    worst_uniform = 0.0
    for patch in (build_structured([(0.0, 1.0)], [25], 1),
                  unit_square(20, 1), unit_square(20, 2)):
        phi = linear_field(patch, 3.0, c=-1.2)
        # the 1e-8 gradient target needs a tight projection solve: solver
        # residuals amplify by the inverse mesh size through the gradient
        sd = redistance_field(phi, RedistanceParams("proj-inv-scale", kappa_d=0.0,
                                                    rel_tol=1e-13))
        norms = np.linalg.norm(sd.quadrature_grads_xi(), axis=-1)
        worst_uniform = max(worst_uniform, float(np.abs(norms - 1.0).max()))

    band_lo, band_hi = np.inf, -np.inf
    for kd in (0.0, 1.0):
        patch = graded_square(40, 1)
        phi = linear_field(patch, 3.0, c=-1.2)
        sd = redistance_field(phi, RedistanceParams("proj-inv-scale", kappa_d=kd))
        vals = sd.quadrature_values()
        norms = np.linalg.norm(sd.quadrature_grads_xi(), axis=-1)
        band = np.abs(vals) <= 3.0
        band_lo = min(band_lo, float(norms[band].min()))
        band_hi = max(band_hi, float(norms[band].max()))
    elapsed = time.perf_counter() - start
    ok = worst_uniform <= 1e-8 and band_lo > 0.8 and band_hi < 1.2 and elapsed < 5.0
    _report(4, "eikonal-consistency", ok,
            f"uniform |grad|-1 max {worst_uniform:.2e}, graded band "
            f"[{band_lo:.3f}, {band_hi:.3f}], {elapsed:.1f}s")


# --- 9. transport sanity (cheap; runs before the long cases) -------------


def test_c09_transport_sanity():
    from levelset.redistance import project_function
    from levelset.transport import (SeparableVelocity, TimeState, TransportIntegrator,
                                    TransportParams)

    start = time.perf_counter()
    rng = np.random.default_rng(3)
    u_reversal = vortex_time_factor(4.0, 8.0) * vortex2d_field(rng.uniform(0, 1, (100, 2)))
    zero_at_reversal = bool(np.all(u_reversal == 0.0))

    patch = unit_square(12)
    a, b = 0.4, -0.7
    phi0 = project_function(patch, lambda x: a * x[..., 0] + b * x[..., 1] + 0.2)
    u = np.array([0.6, 0.25])
    dt = 0.01
    vel = SeparableVelocity(lambda x: np.broadcast_to(u, np.shape(x)), lambda t: 1.0)
    integ = TransportIntegrator(
        patch, vel, TransportParams(dt=dt, capturing_c=0.0, volume_conserve=False,
                                    rel_tol=1e-12))
    state = TimeState(phi0)
    translation_err = 0.0
    for k in range(1, 4):
        state = integ.step(state)
        shift = (a * u[0] + b * u[1]) * dt * k
        translation_err = max(translation_err,
                              float(np.abs(state.phi.coeffs - (phi0.coeffs - shift)).max()))

    rest = TransportIntegrator(
        patch, SeparableVelocity(np.zeros_like, lambda t: 1.0),
        TransportParams(dt=0.05, capturing_c=1.0, volume_conserve=False,
                        rel_tol=1e-12))
    fixed = rest.step(TimeState(phi0))
    rest_err = float(np.abs(fixed.phi.coeffs - phi0.coeffs).max())

    elapsed = time.perf_counter() - start
    ok = (zero_at_reversal and translation_err <= 1e-10 and rest_err <= 1e-10
          and elapsed < 1.0)
    _report(9, "transport-sanity", ok,
            f"reversal velocity zero {zero_at_reversal}, translation err "
            f"{translation_err:.2e}, rest err {rest_err:.2e}, {elapsed:.2f}s")


# --- 7. rational derivatives ---------------------------------------------


def test_c07_rational_derivatives():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    n = 4
    weights = 1.0 + 0.8 * rng.uniform(-0.5, 1.0, size=(n + 2) ** 2)
    spec = BasisSpec.tensor_uniform((2, 2), (n, n), weights=weights)
    pts = rng.uniform(0.05, n - 0.05, size=(200, 2))
    worst = 0.0
    h1, h2 = 1e-6, 1e-4
    for point in pts:
        be = eval_rational(spec, point)
        for d in range(2):
            lo, hi = point.copy(), point.copy()
            lo[d] -= h1
            hi[d] += h1
            fd = (eval_rational(spec, hi).values - eval_rational(spec, lo).values) / (2 * h1)
            denom = max(1.0, float(np.abs(be.grads[:, d]).max()))
            worst = max(worst, float(np.abs(fd - be.grads[:, d]).max()) / denom)
        pp = eval_rational(spec, point + [h2, h2]).values
        pm = eval_rational(spec, point + [h2, -h2]).values
        mp = eval_rational(spec, point + [-h2, h2]).values
        mm = eval_rational(spec, point + [-h2, -h2]).values
        fd2 = (pp - pm - mp + mm) / (4 * h2 * h2)
        denom = max(1.0, float(np.abs(be.second_mixed[:, 0]).max()))
        worst = max(worst, float(np.abs(fd2 - be.second_mixed[:, 0]).max()) / denom)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 1.0
    _report(7, "rational-derivatives", ok,
            f"max rel deviation {worst:.2e} at 200 points, {elapsed:.2f}s")


# --- 5. volume conservation over the full 2D vortex ----------------------


def test_c05_volume_conservation_vortex2d():
    start = time.perf_counter()
    cfg = CaseConfig("vortex2d", mesh_n=40, degree=1, kappa_d=1.0, vtk=False)
    res = run_vortex2d(cfg)
    rel_err = float(np.abs(res.volumes - res.v1_initial).max() / res.v1_initial)
    max_corr = float(np.abs(res.corrections).max())
    # independent recomputation of the final conserved volume
    from levelset.redistance import RedistanceParams as RP, redistance_field

    sd = redistance_field(res.state.effective(),
                          RP(cfg.alternative, kappa_d=1.0, positivity="clamp"))
    _, v_final = subdomain_volumes(sd, HeavisideParams(res.config.alpha), res.patch)
    final_rel = abs(v_final - res.v1_initial) / res.v1_initial
    elapsed = time.perf_counter() - start
    ok = rel_err <= 1e-10 and final_rel <= 1e-10 and max_corr < 1e-2
    _report(5, "volume-conservation-vortex2d", ok,
            f"max step rel err {rel_err:.2e}, final rel err {final_rel:.2e}, "
            f"max correction {max_corr:.2e}, {elapsed:.0f}s")


# --- 6. convergence study ------------------------------------------------

PAPER_L1_LINEAR_40 = 5.37e-2
PAPER_L1_QUADRATIC_40 = 1.89e-2


@pytest.mark.slow
def test_c06_convergence_required_set():
    start = time.perf_counter()
    cfg = CaseConfig("converge", kappa_d=0.0, vtk=False)
    tables = run_convergence(cfg)
    by_family = {(t.family, t.degree): t for t in tables}
    lin = by_family[("quad", 1)].rows
    qua = by_family[("quad", 2)].rows
    rate_lin = lin[2].rate_l1
    rate_qua = qua[2].rate_l1
    l1_lin_40 = lin[2].l1_h
    l1_qua_40 = qua[2].l1_h
    elapsed = time.perf_counter() - start
    within = (PAPER_L1_LINEAR_40 / 3 <= l1_lin_40 <= PAPER_L1_LINEAR_40 * 3
              and PAPER_L1_QUADRATIC_40 / 3 <= l1_qua_40 <= PAPER_L1_QUADRATIC_40 * 3)
    ok = rate_lin >= 0.6 and rate_qua >= 1.2 and within and elapsed < 900.0
    _report(6, "convergence-study", ok,
            f"linear rate {rate_lin:.2f} L1(40) {l1_lin_40:.3e} "
            f"(target {PAPER_L1_LINEAR_40:.2e}x3), quadratic rate {rate_qua:.2f} "
            f"L1(40) {l1_qua_40:.3e} (target {PAPER_L1_QUADRATIC_40:.2e}x3), "
            f"{elapsed:.0f}s")


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("LEVELSET_ACCEPT_FULL"),
                    reason="80-element level and triangle family are opt-in "
                           "(set LEVELSET_ACCEPT_FULL=1, or use the CLI flags "
                           "--with-80/--with-triangles)")
def test_c06_convergence_optional_extension():
    cfg = CaseConfig("converge", kappa_d=0.0, vtk=False,
                     with_80=True, with_triangles=True)
    tables = run_convergence(cfg)
    by_family = {(t.family, t.degree): t for t in tables}
    tri = by_family[("tri", 1)].rows
    l1_tri_80 = tri[3].l1_h
    ok = 3.20e-2 / 3 <= l1_tri_80 <= 3.20e-2 * 3
    _report(6, "convergence-optional-80-triangles", ok,
            f"triangle L1(80) {l1_tri_80:.3e} (target 3.20e-2 x3), "
            f"rate {tri[3].rate_l1:.2f}")


# --- 8. three-dimensional property run -----------------------------------


@pytest.mark.slow
def test_c08_vortex3d_volume_property():
    start = time.perf_counter()
    cfg = CaseConfig("vortex3d", mesh_n=32, degree=1, kappa_d=0.0, vtk=False)
    res = run_vortex3d(cfg)
    rel_err = float(np.abs(res.volumes - res.v1_initial).max() / res.v1_initial)
    elapsed = time.perf_counter() - start
    ok = rel_err <= 1e-6
    _report(8, "vortex3d-volume-property", ok,
            f"max |V1 - V1_0|/V1_0 = {rel_err:.2e} over {len(res.times) - 1} "
            f"steps, {elapsed:.0f}s")
