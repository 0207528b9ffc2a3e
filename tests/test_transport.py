import re
from dataclasses import replace
from functools import partial
from itertools import groupby

import numpy as np
import pytest

import levelset.cli as cli
import levelset.transport as transport
from conftest import (BASIS_BLOCK_PATCHES, BASIS_ULPS, basis_blocks, linear_field, metric,
                      recording_solver, unit_line, unit_square, within_ulps)
from levelset.benchmarks import vortex2d_field, vortex3d_field, vortex_time_factor
from levelset.fields import (HeavisideParams, ScalarField, heaviside_band_derivative,
                             regularized_heaviside, subdomain_volumes)
from levelset.gram import BasisGroups, ParametricGram
from levelset.linalg import (REFINE_MAX_SWEEPS, BlockLU, IterationLimitError, KeptFactor,
                             RootFindingError, StepError, scalar_newton, solve_nonsymmetric)
from levelset.mesh import build_structured
from levelset.redistance import (
    PositivityError,
    ProjectionOperator,
    RedistanceParams,
    project_function,
    redistance_field,
)
from levelset.transport import (
    ETA,
    ConservationError,
    PicardError,
    SeparableVelocity,
    StepInfo,
    TimeState,
    TransportIntegrator,
    TransportParams,
    _shift_for_volume,
    _tau_from_quad,
    capturing_kappa,
)


def constant_velocity(u):
    u = np.asarray(u, dtype=np.float64)
    return SeparableVelocity(lambda x: np.broadcast_to(u, np.shape(x)), lambda t: 1.0)


def vortex_velocity(dim=2, period=8.0):
    """The vortex field of ``dim`` times its time-reversing factor."""
    field = vortex2d_field if dim == 2 else vortex3d_field
    return SeparableVelocity(field, partial(vortex_time_factor, period=period))


def stabilization_tau(u, g_metric, dt, form="printed"):
    """The SUPG time scale at velocity ``u``, with u.Gu from one tabulated
    metric ``g_metric``."""
    u = np.asarray(u, dtype=np.float64)
    return float(_tau_from_quad(u @ g_metric @ u, dt, form))


def test_stabilization_tau_zero_velocity():
    g = metric(unit_square(10).tabulation())[0, 0]
    assert stabilization_tau([0.0, 0.0], g, 0.1) == pytest.approx(10.0, rel=1e-14)


def test_stabilization_tau_large_dt_limit():
    g = metric(unit_square(10).tabulation())[0, 0]
    # with the temporal term vanishing, axis-aligned unit speed leaves the
    # element width; only the conventional form has a vanishing temporal term
    # for large steps (the printed form's tends to 1/dt instead)
    assert stabilization_tau([1.0, 0.0], g, 1e9,
                             form="conventional") == pytest.approx(0.1, rel=1e-9)
    assert stabilization_tau([1.0, 0.0], g, 1e9) == pytest.approx(1e-9, rel=1e-6)


def test_stabilization_tau_generic_oracle(rng):
    g = metric(unit_square(7).tabulation())[0, 0]
    for _ in range(5):
        u = rng.standard_normal(2)
        dt = float(rng.uniform(0.01, 2.0))
        oracle = 1.0 / np.sqrt(dt**2 + u @ g @ u)
        assert stabilization_tau(u, g, dt) == pytest.approx(oracle, rel=1e-14)
        conv = 1.0 / np.sqrt((2.0 / dt) ** 2 + u @ g @ u)
        assert stabilization_tau(u, g, dt, form="conventional") == pytest.approx(
            conv, rel=1e-14)


def test_stabilization_tau_decreases_with_dt_at_rest():
    g = metric(unit_square(10).tabulation())[0, 0]
    dts = np.linspace(0.05, 1.0, 30)
    taus = [stabilization_tau([0.0, 0.0], g, dt) for dt in dts]
    assert np.all(np.diff(taus) < 0)


def test_capturing_kappa():
    assert np.array_equal(capturing_kappa(np.array([0.0]), 2.0), [0.0])
    assert np.array_equal(capturing_kappa(np.array([5.0]), 0.0), [0.0])
    assert np.array_equal(capturing_kappa(np.array([-2.0]), 1.0), [2.0])
    assert np.allclose(capturing_kappa(np.array([-1.0, 0.5]), 3.0), [3.0, 1.5])


def test_params_validation():
    with pytest.raises(ValueError):
        TransportParams(dt=0.0)
    with pytest.raises(ValueError):
        TransportParams(dt=0.1, capturing_c=-1.0)
    with pytest.raises(ValueError):
        TransportParams(dt=0.1, tau_form="other")
    with pytest.raises(ValueError):
        TimeState(project_function(unit_line(5), lambda x: x[..., 0]),
                  phi_prime=float("nan"))


def test_supg_zero_velocity_identity_step():
    patch = unit_square(8)
    phi = project_function(patch, lambda x: x[..., 0] - 0.3 * x[..., 1])
    state = TimeState(phi, phi_prime=0.25)
    params = TransportParams(dt=0.05, capturing_c=0.0, volume_conserve=False,
                             rel_tol=1e-12)
    new = TransportIntegrator(patch, constant_velocity([0.0, 0.0]), params).step(state)
    assert np.abs(new.phi.coeffs - (phi.coeffs + 0.25)).max() < 1e-10
    assert new.t == pytest.approx(0.05)


def test_supg_matrix_nonsymmetric_for_nonzero_velocity(monkeypatch):
    patch = unit_square(6)
    phi = project_function(patch, lambda x: x[..., 0])
    params = TransportParams(dt=0.05, capturing_c=0.0, volume_conserve=False)
    calls = recording_solver(monkeypatch)
    TransportIntegrator(patch, constant_velocity([0.7, 0.1]), params).step(TimeState(phi))
    a = calls[0][0].matrix.toarray()
    assert np.abs(a - a.T).max() > 1e-8


def test_rigid_translation_of_linear_field_is_exact():
    # linear-in-space solutions stay in the space: one step is exact
    patch = unit_square(12)
    a, b, c = 0.4, -0.7, 0.2
    phi0 = project_function(patch, lambda x: a * x[..., 0] + b * x[..., 1] + c)
    u = np.array([0.6, 0.25])
    dt = 0.01
    params = TransportParams(dt=dt, capturing_c=0.0, volume_conserve=False,
                             rel_tol=1e-13)
    integ = TransportIntegrator(patch, constant_velocity(u), params)
    state = TimeState(phi0)
    for _ in range(3):
        state = integ.step(state)
    shift = (a * u[0] + b * u[1]) * dt * 3
    assert np.abs(state.phi.coeffs - (phi0.coeffs - shift)).max() < 1e-10


def test_strong_consistency_zero_residual():
    # an exact transport solution in the discrete space annihilates the
    # residual. ``older`` puts the extrapolated predictor on it, so the step's
    # first Picard residual is that of its system at the exact solution
    patch = unit_square(10)
    a, b = 0.5, -0.3
    u = np.array([0.8, 0.4])
    dt = 0.02
    phi0 = project_function(patch, lambda x: a * x[..., 0] + b * x[..., 1])
    exact1 = ScalarField(patch, phi0.coeffs - (a * u[0] + b * u[1]) * dt)
    params = TransportParams(dt=dt, capturing_c=1.0, volume_conserve=False)
    integ = TransportIntegrator(patch, constant_velocity(u), params)
    integ.step(TimeState(phi0, older=2.0 * phi0.coeffs - exact1.coeffs))
    assert integ.last_info.picard_trace[0] < 1e-9
    # accepted as it stands, with no solve
    assert integ.last_info.inner_tols == []


def test_frozen_reversal_time_velocity_is_fixed_point():
    patch = unit_square(10)
    phi = project_function(
        patch, lambda x: 0.15 - np.linalg.norm(x - np.array([0.5, 0.75]), axis=-1))
    frozen = SeparableVelocity(vortex2d_field, lambda t: vortex_time_factor(4.0, 8.0))
    params = TransportParams(dt=0.05, capturing_c=1.0, volume_conserve=False,
                             rel_tol=1e-12)
    state = TimeState(phi)
    new = TransportIntegrator(patch, frozen, params).step(state)
    assert np.abs(new.phi.coeffs - phi.coeffs).max() < 1e-10


def rotation_velocity(center, omega=1.0):
    center = np.asarray(center)

    def field(x):
        d = x - center
        return omega * np.stack([-d[..., 1], d[..., 0]], axis=-1)

    return SeparableVelocity(field, lambda t: 1.0)


def l2_norm(patch, coeffs):
    field = ScalarField(patch, coeffs)
    w = patch.tabulation().wdet
    return float(np.sqrt(np.sum(w * field.quadrature_values() ** 2)))


def test_single_step_accuracy_vs_fine_reference():
    # one step against a many-substep reference shrinks at second order in dt
    patch = unit_square(16)
    phi0 = project_function(
        patch, lambda x: 0.15 - np.linalg.norm(x - np.array([0.5, 0.6]), axis=-1))
    vel = rotation_velocity([0.5, 0.5])

    def one_step_error(dt):
        coarse = TransportIntegrator(
            patch, vel, TransportParams(dt=dt, capturing_c=0.0,
                                        volume_conserve=False, rel_tol=1e-11))
        fine = TransportIntegrator(
            patch, vel, TransportParams(dt=dt / 8, capturing_c=0.0,
                                        volume_conserve=False, rel_tol=1e-11))
        s_coarse = coarse.step(TimeState(phi0))
        s_fine = TimeState(phi0)
        for _ in range(8):
            s_fine = fine.step(s_fine)
        return l2_norm(patch, s_coarse.phi.coeffs - s_fine.phi.coeffs)

    e1 = one_step_error(0.1)
    e2 = one_step_error(0.05)
    assert e1 / e2 > 3.5  # better than second order locally


def test_reversibility_second_order():
    # one step forward, one step with reversed velocity; the streamline
    # weighting breaks exact reversibility at the size of tau * dt, so the
    # error is second order when tau itself shrinks with dt (conventional
    # temporal term) and first order with the printed form
    patch = unit_square(12)
    phi0 = project_function(
        patch, lambda x: 0.15 - np.linalg.norm(x - np.array([0.5, 0.75]), axis=-1))

    def pair_error(dt, form):
        params = TransportParams(dt=dt, capturing_c=0.0, volume_conserve=False,
                                 rel_tol=1e-12, tau_form=form)
        forward = TransportIntegrator(patch, vortex_velocity(), params)
        state = forward.step(TimeState(phi0))
        reversed_vel = SeparableVelocity(vortex2d_field,
                                         lambda t: -vortex_time_factor(dt - t, 8.0))
        back = TransportIntegrator(patch, reversed_vel, params)
        state = back.step(TimeState(state.phi, 0.0, 0.0))
        return np.abs(state.phi.coeffs - phi0.coeffs).max()

    e1 = pair_error(0.01, "conventional")
    e2 = pair_error(0.005, "conventional")
    e3 = pair_error(0.0025, "conventional")
    assert e1 / e2 > 3.3
    assert e2 / e3 > 3.3
    # printed form: tau tends to a constant, leaving a first-order residue
    p1 = pair_error(0.01, "printed")
    p2 = pair_error(0.005, "printed")
    assert 1.2 < p1 / p2 < 3.0


def test_picard_error_carries_trace():
    patch = unit_square(8)
    phi = project_function(
        patch, lambda x: 0.15 - np.linalg.norm(x - np.array([0.5, 0.75]), axis=-1))
    params = TransportParams(dt=0.05, capturing_c=50.0, picard_max=1,
                             picard_tol=1e-14, volume_conserve=False)
    integ = TransportIntegrator(patch, rotation_velocity([0.5, 0.5]), params)
    with pytest.raises(PicardError) as err:
        integ.step(TimeState(phi, t=0.25, step=4))
    assert len(err.value.trace) >= 1
    assert err.value.t == 0.25
    assert err.value.dt == 0.05
    assert err.value.step == 5
    assert "in step 5 from t=0.25 " in str(err.value)
    assert "dt=0.05;" in str(err.value)


def test_picard_error_is_a_step_error_naming_its_step():
    # every step failure is caught as a StepError; a PicardError names its
    # step from the start, so recording the step leaves its message as is
    patch = unit_square(8)
    phi = project_function(
        patch, lambda x: 0.15 - np.linalg.norm(x - np.array([0.5, 0.75]), axis=-1))
    params = TransportParams(dt=0.05, capturing_c=50.0, picard_max=1,
                             picard_tol=1e-14, volume_conserve=False)
    integ = TransportIntegrator(patch, rotation_velocity([0.5, 0.5]), params)
    with pytest.raises(StepError) as err:
        integ.step(TimeState(phi, t=0.25, step=4))
    assert isinstance(err.value, PicardError)
    assert (err.value.step, err.value.t, err.value.dt) == (5, 0.25, 0.05)
    assert str(err.value) == str(PicardError(err.value.trace, 0.25, 0.05, 5))
    assert str(err.value).count("in step 5") == 1


def test_vortex_run_reports_failed_step():
    from levelset.benchmarks import CaseConfig, run_vortex2d

    # the first step needs more than one Picard iteration
    cfg = CaseConfig("vortex2d", mesh_n=8, degree=1, t_end=0.5, picard_max=1, vtk=False)
    with pytest.raises(PicardError) as err:
        run_vortex2d(cfg)
    assert err.value.step == 1
    assert err.value.t == 0.0
    assert "in step 1 from t=0 " in str(err.value)


def test_positivity_error_reports_step_and_time():
    # flat region abutting a steep ramp: the projected gradient magnitude
    # undershoots below the floor next to the transition
    patch = unit_line(20)
    nodes = patch.grid_lines[0]
    phi = ScalarField(patch, np.where(nodes < 0.5, 0.0, (nodes - 0.5) * 4.0))
    params = TransportParams(dt=0.05, capturing_c=0.0)
    integ = TransportIntegrator(patch, constant_velocity([0.0]), params,
                                RedistanceParams(kappa_d=0.0), HeavisideParams(0.1))
    with pytest.raises(PositivityError) as err:
        integ.step(TimeState(phi, t=0.3, step=2))
    assert err.value.step == 3
    assert err.value.t == 0.3
    assert str(err.value).endswith("in step 3 from t=0.3")


def volume_integrator(patch, capturing_c=0.0):
    """A rotation integrator with volume conservation on ``patch``."""
    params = TransportParams(dt=0.05, capturing_c=capturing_c)
    return TransportIntegrator(patch, rotation_velocity([0.5, 0.5]), params,
                               RedistanceParams(kappa_d=0.0), HeavisideParams(2.0))


def disc_state(patch, t=0.3, step=2):
    phi = project_function(
        patch, lambda x: 0.25 - np.linalg.norm(x - np.array([0.5, 0.6]), axis=-1))
    return TimeState(phi, t=t, step=step)


@pytest.mark.parametrize("capturing_c", [0.0, 1.0], ids=["one-solve", "picard-solve"])
def test_iteration_limit_error_reports_step_and_time(capturing_c, monkeypatch):
    # a Krylov solve that gives up inside a step, with capturing off (the one
    # solve of the step) and on (a relaxed Picard system)
    def give_up(system, rel_tol, x0, kept):
        raise IterationLimitError("BiCGStab did not converge", 0.5, 7)

    patch = unit_square(8)
    integ = volume_integrator(patch, capturing_c)
    monkeypatch.setattr(transport, "solve_nonsymmetric", give_up)
    with pytest.raises(IterationLimitError) as err:
        integ.step(disc_state(patch, t=0.3, step=2))
    assert (err.value.step, err.value.t) == (3, 0.3)
    assert (err.value.residual, err.value.iterations) == (0.5, 7)
    assert str(err.value).endswith("after 7 iterations), in step 3 from t=0.3")


def test_conservation_error_reports_step_and_time():
    patch = unit_square(8)
    integ = volume_integrator(patch)
    with pytest.raises(ConservationError) as err:
        # exceeds the domain measure
        integ.step(disc_state(patch, t=0.15, step=4), target_v1=2.0)
    assert (err.value.step, err.value.t) == (5, 0.15)
    assert str(err.value) == "target volume 2 outside (0, 1), in step 5 from t=0.15"


def test_root_finding_error_reports_step_and_time(monkeypatch):
    # the safeguarded Newton solve fails
    def fail(f, fp, x0, bracket, tol, max_iter):
        raise RootFindingError(f"root not found to tolerance {tol:g}")

    patch = unit_square(8)
    integ = volume_integrator(patch)
    monkeypatch.setattr(transport, "scalar_newton", fail)
    with pytest.raises(RootFindingError) as err:
        integ.step(disc_state(patch, t=0.0, step=0))
    assert (err.value.step, err.value.t) == (1, 0.0)
    assert str(err.value).endswith(", in step 1 from t=0")


def test_step_errors_outside_a_step_name_none():
    patch = unit_square(6)
    phi = project_function(patch, lambda x: x[..., 0] - 0.5)
    with pytest.raises(ConservationError) as err:
        _shift_for_volume(redistance_field(phi, RedistanceParams(kappa_d=0.0)), 2.0,
                          HeavisideParams(2.0), patch)
    assert (err.value.step, err.value.t) == (None, None)
    assert "in step" not in str(err.value)


def test_steps_count_the_positivity_clamps(monkeypatch, capsys):
    # the coarse vortex thins the spiral below the mesh, so the clamping run
    # floors the projected scaling in many of its redistancings: the first
    # (set-up) and last (final error) outside the steps, one in each step
    from levelset.benchmarks import CaseConfig, run_vortex2d

    floored = []
    redistance = transport.redistance_field

    def counting_redistance(*args, **kwargs):
        sd = redistance(*args, **kwargs)
        floored.append(int(np.count_nonzero(sd.epsilon.quadrature_values() < sd.delta)))
        return sd

    monkeypatch.setattr(transport, "redistance_field", counting_redistance)
    result = run_vortex2d(CaseConfig("vortex2d", mesh_n=10, degree=1, kappa_d=0.0,
                                     vtk=False))
    assert len(floored) == 162 and len(result.steps) == 160
    assert [info.clamped for info in result.steps] == floored[1:-1]
    assert sum(n > 0 for n in floored) == 69
    totals = summary_counts(result, capsys, r"positivity clamps: (\d+) quadrature points "
                                            r"in (\d+) steps")
    assert totals == (sum(floored[1:-1]), sum(n > 0 for n in floored[1:-1]))


def test_volume_correction_noop_when_conserved():
    patch = unit_square(10)
    phi = project_function(
        patch, lambda x: 0.15 - np.linalg.norm(x - np.array([0.5, 0.75]), axis=-1))
    hv = HeavisideParams(2.0)
    rd = RedistanceParams(kappa_d=0.0)
    op = ProjectionOperator(patch, 0.0)
    sd = redistance_field(phi, rd, op=op)
    _, v1 = subdomain_volumes(sd, hv, patch)
    shift = _shift_for_volume(sd, v1, hv, patch)[0]
    assert abs(shift) < 1e-12


def test_volume_correction_linear_shift_vs_bisection():
    # unit-width elements make the scaled distance equal phi itself
    patch = build_structured([(0.0, 12.0)], [12], 1)
    phi = project_function(patch, lambda x: x[..., 0] - 5.5)
    hv = HeavisideParams(2.0)
    rd = RedistanceParams(kappa_d=0.0)
    sd = redistance_field(phi, rd)
    _, v1 = subdomain_volumes(sd, hv, patch)
    target = v1 - 0.8
    shift = _shift_for_volume(sd, target, hv, patch)[0]
    # independent bisection on the measured volume
    def vol_err(s):
        _, v = subdomain_volumes(redistance_field(ScalarField(patch, phi.coeffs + s),
                                                  rd), hv, patch)
        return v - target
    lo, hi = -2.0, 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.sign(vol_err(mid)) == np.sign(vol_err(lo)):
            lo = mid
        else:
            hi = mid
    assert abs(shift - 0.5 * (lo + hi)) < 1e-12
    # unit slope: the level set translates by the volume change, up to the
    # quadrature ripple of the band kernel
    assert shift == pytest.approx(-0.8, abs=5e-3)


def test_volume_correction_falls_back_to_the_closed_form_bracket(monkeypatch):
    # unit-width elements make the scaled distance equal phi itself; with a
    # half-width of 0.25 every quadrature point (|phi_hat| >= 0.289) lies
    # outside the band, so f'(0) = 0 and the first Newton step is rejected
    patch = build_structured([(0.0, 12.0)], [12], 1)
    phi = project_function(patch, lambda x: x[..., 0] - 5.5)
    hv = HeavisideParams(0.25)
    rd = RedistanceParams(kappa_d=0.0)
    sd = redistance_field(phi, rd)
    assert np.abs(sd.quadrature_values()).min() > hv.alpha
    _, v1 = subdomain_volumes(sd, hv, patch)
    target = v1 - 0.8
    brackets, results = [], []
    newton = transport.scalar_newton

    def recording(f, fprime, x0, bracket, **kwargs):
        def recorded():
            brackets.append(bracket())
            return brackets[-1]
        results.append(newton(f, fprime, x0, recorded, **kwargs))
        return results[-1]

    monkeypatch.setattr(transport, "scalar_newton", recording)
    shift, achieved, vol = _shift_for_volume(sd, target, hv, patch)
    (_, bisections), = results
    assert vol.bracketed and bisections >= 1
    (lo, hi), = brackets
    # the shifts that take the last point below the band and the last one
    # above it, where f is -target and measure - target
    vals, g = sd.quadrature_values(), sd.shift_response_qp()
    assert (lo, hi) == (np.min((-hv.alpha - vals) / g), np.max((hv.alpha - vals) / g))
    assert vol.f(lo) == pytest.approx(-target, rel=1e-15)
    assert vol.f(hi) == pytest.approx(patch.tabulation().wdet.sum() - target, rel=1e-15)
    assert achieved == pytest.approx(target, rel=1e-13)

    assert abs(shift - bisection_shift(patch, phi.coeffs, rd, hv, target)) < 1e-12


def bisection_shift(patch, coeffs, rd, hv, target):
    """Independent bisection on the measured volume, over the whole patch,
    for the shift s in [-12, 12] at which the level set coeffs + s reaches
    ``target``."""
    def vol_err(s):
        _, v = subdomain_volumes(redistance_field(ScalarField(patch, coeffs + s), rd),
                                 hv, patch)
        return v - target
    a, b = -12.0, 12.0
    for _ in range(80):
        mid = 0.5 * (a + b)
        if np.sign(vol_err(mid)) == np.sign(vol_err(a)):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def test_step_whose_shift_solve_bisects():
    # the line of the test above under zero velocity: the step's shift solve
    # rejects its first Newton step and bisects
    patch = build_structured([(0.0, 12.0)], [12], 1)
    hv, rd = HeavisideParams(0.25), RedistanceParams(kappa_d=0.0)
    integ = TransportIntegrator(patch, constant_velocity([0.0]), TransportParams(dt=0.1),
                                rd, hv)
    state = TimeState(project_function(patch, lambda x: x[..., 0] - 5.5))
    _, v1 = subdomain_volumes(integ.scaled_distance(state), hv, patch)
    target = v1 - 0.8
    new = integ.step(state, target_v1=target)
    info = integ.last_info
    assert info.shift_bracketed
    assert abs(info.volume - target) <= 1e-13 * 12.0
    oracle = bisection_shift(patch, new.phi.coeffs, rd, hv, target)
    assert abs(info.correction - oracle) < 1e-12


def test_volume_correction_unreachable_target():
    patch = unit_square(6)
    phi = project_function(patch, lambda x: x[..., 0] - 0.5)
    hv = HeavisideParams(2.0)
    rd = RedistanceParams(kappa_d=0.0)
    with pytest.raises(ConservationError):
        # exceeds the domain measure
        _shift_for_volume(redistance_field(phi, rd), 2.0, hv, patch)


def test_volume_conservation_without_its_parameters_fails_at_construction():
    patch = unit_square(4)
    for given in ((), (RedistanceParams(kappa_d=0.0),), (None, HeavisideParams(2.0))):
        with pytest.raises(ValueError, match="volume conservation needs redistancing"):
            TransportIntegrator(patch, constant_velocity([0.0, 0.0]), TransportParams(dt=0.1),
                                *given)
    # before any set-up work
    assert "_tab" not in vars(patch)


def test_stepwise_conservation_independent_check():
    patch = unit_square(16)
    phi = project_function(
        patch, lambda x: 0.15 - np.linalg.norm(x - np.array([0.5, 0.75]), axis=-1))
    hv = HeavisideParams(2.0)
    rd = RedistanceParams(kappa_d=1.0)
    params = TransportParams(dt=0.025, capturing_c=1.0, picard_tol=1e-6,
                             picard_max=60)
    integ = TransportIntegrator(patch, vortex_velocity(), params, rd, hv)
    state = TimeState(phi)
    _, v1 = subdomain_volumes(integ.scaled_distance(state), hv, patch)
    for _ in range(12):
        state = integ.step(state, target_v1=v1)
        sd = redistance_field(state.effective(), rd, op=integ.proj_op)
        _, v_now = subdomain_volumes(sd, hv, patch)
        assert abs(v_now - v1) / v1 <= 1e-10


# -- CSR-value-space assembly --------------------------------------------


def capturing_oracle(patch, kappa):
    dn = basis_blocks(patch)[1]
    return np.einsum("eqad,eq,eqbd->eab", dn, patch.tabulation().wdet * kappa, dn)


def rel_diff(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_relaxed_system_matches_assembly_at_averaged_kappa(monkeypatch):
    # the relaxed system mixes assembled values; it must equal the system
    # assembled from element matrices at the averaged coefficient itself
    patch = unit_square(6, degree=2)
    phi = project_function(
        patch, lambda x: 0.2 - np.linalg.norm(x - np.array([0.5, 0.7]), axis=-1))
    dt = 0.05
    velocity = rotation_velocity([0.5, 0.5])
    params = TransportParams(dt=dt, capturing_c=1.0, picard_tol=1e-14,
                             picard_max=3, volume_conserve=False)
    integ = TransportIntegrator(patch, velocity, params)
    calls = recording_solver(monkeypatch)
    with pytest.raises(PicardError):
        integ.step(TimeState(phi, phi_prime=0.01))
    assert len(calls) == 3

    tab = patch.tabulation()
    conn = tab.field_conn
    prev_e = (phi.coeffs + 0.01)[conn]
    u = velocity.field(tab.x)
    u_grad_n = physical_u_grad_n(patch, u)
    m_e, k_e = advective_oracle(patch, u, dt)
    n = basis_blocks(patch)[0]
    kappa_bar = None
    for _, guess in calls:
        # the convection residual at the quadrature points, by its definition
        guess_e = guess[conn]
        resid = (np.einsum("eqa,ea->eq", n, (guess_e - prev_e) / dt)
                 + np.einsum("eqa,ea->eq", u_grad_n, 0.5 * (guess_e + prev_e)))
        kappa = np.abs(resid)
        kappa_bar = kappa if kappa_bar is None else 0.5 * (kappa_bar + kappa)
    s_e = capturing_oracle(patch, kappa_bar)
    a_e = m_e / dt + 0.5 * k_e + 0.5 * s_e
    b_e = m_e / dt - 0.5 * k_e - 0.5 * s_e
    oracle = integ.pattern.assemble(
        a_e, patch.scatter_dofs(np.einsum("eab,eb->ea", b_e, prev_e)))
    relaxed = calls[-1][0]
    assert rel_diff(relaxed.matrix.data, oracle.matrix.data) <= 1e-13
    assert rel_diff(relaxed.rhs, oracle.rhs) <= 1e-13


@pytest.mark.parametrize("patch", [
    build_structured([(0.0, 1.0)] * 3, [3, 3, 3], 1),
    unit_square(5, degree=2),
], ids=["trilinear-3d", "quadratic-2d"])
def test_capturing_matrix_matches_einsum(patch, rng):
    tab = patch.tabulation()
    integ = TransportIntegrator(patch, constant_velocity(np.zeros(patch.dim)),
                                TransportParams(dt=0.1, volume_conserve=False))
    kappa = rng.uniform(0.0, 2.0, tab.wdet.shape)
    oracle = capturing_oracle(patch, kappa)
    capturing = integ._capturing_gram(tab.wdet * kappa)
    assert np.abs(capturing - oracle).max() <= 1e-13 * np.abs(oracle).max()


@pytest.mark.parametrize("make", BASIS_BLOCK_PATCHES.values(), ids=BASIS_BLOCK_PATCHES.keys())
def test_grouped_capturing_matrix_matches_einsum(make, rng):
    patch = make()
    tab = patch.tabulation()
    kappa = rng.uniform(0.0, 2.0, tab.wdet.shape)
    oracle = capturing_oracle(patch, kappa)
    integ = TransportIntegrator(patch, constant_velocity(np.zeros(patch.dim)),
                                TransportParams(dt=0.1, volume_conserve=False))
    assert rel_diff(integ._capturing_gram(tab.wdet * kappa), oracle) <= 1e-13


@pytest.mark.parametrize("make", BASIS_BLOCK_PATCHES.values(), ids=BASIS_BLOCK_PATCHES.keys())
def test_capturing_gram_through_a_scratch_is_bitwise(make, rng):
    # products formed a few whole groups at a time in a scratch of the
    # largest group's rows, and written into a given array, are bitwise the
    # products of all groups at once
    patch = make()
    tab = patch.tabulation()
    gram = ParametricGram(tab, mass=0.0, stiffness=1.0)
    w = rng.uniform(0.0, 2.0, tab.wdet.shape)
    rows = int(np.bincount(tab.basis_groups.index).max())
    out = np.empty((patch.n_elements, gram.tables.shape[-1]))
    got = gram(w, out, np.empty((rows, out.shape[1])))
    assert np.shares_memory(got, out) and np.array_equal(got, gram(w))


def test_one_group_contracts_without_gather_or_scatter(monkeypatch, rng):
    # a one-group patch contracts with one GEMM, rows @ table, into the given
    # array: no group order is read, so nothing is gathered or scattered,
    # through contract itself, the field at the quadrature points, the
    # projection's right-hand side, or a transport step's operators and
    # capturing matrices (the patches and operators are set up first)
    cube = build_structured([(0.0, 1.0)] * 3, [6] * 3, 1)
    square = unit_square(7, degree=2)
    groups, several = (patch.tabulation().basis_groups for patch in (cube, square))
    assert groups.n_groups == 1 and several.n_groups == 9
    integ = TransportIntegrator(cube, vortex_velocity(3, period=0.8),
                                TransportParams(dt=0.05, picard_tol=1e-4, volume_conserve=False))
    op = ProjectionOperator(cube, 0.0)

    def forbidden(self):
        raise AssertionError("elements gathered or scattered by group")

    monkeypatch.setattr(BasisGroups, "order", property(forbidden))
    monkeypatch.setattr(BasisGroups, "starts", property(forbidden))
    rows = rng.uniform(-1.0, 1.0, (cube.n_elements, 8))
    tables = groups.values.swapaxes(1, 2)
    out = np.empty((cube.n_elements, 8))
    assert groups.contract(rows, tables, out, np.empty((1, 8))) is out
    assert np.array_equal(out, rows @ tables[0])
    with pytest.raises(AssertionError, match="by group"):
        several.contract(rng.uniform(size=(square.n_elements, 9)), several.values.swapaxes(1, 2))
    phi = ScalarField(cube, op.solve(lambda x: 0.3 - x[..., 0]))
    phi.quadrature_values()
    phi.quadrature_grads_xi()
    integ.step(TimeState(phi))
    assert len(integ.last_info.picard_trace) > 1


def test_one_group_scratch_holds_a_block_only():
    # one group's capturing products go straight into the entry stream, so
    # the scratch holds one block's three arrays, not every element's products
    cube = build_structured([(0.0, 1.0)] * 3, [16] * 3, 1)
    integ = TransportIntegrator(cube, constant_velocity(np.zeros(3)),
                                TransportParams(dt=0.1, volume_conserve=False))
    block = integ._blocks[0]
    assert len(integ._blocks) > 1
    assert integ._scratch.size == 3 * (block.stop - block.start) * 8 * 8 < cube.n_elements * 64


def test_capturing_gram_holds_no_gradient_copy():
    cube = build_structured([(0.0, 1.0)] * 3, [6] * 3, 1)
    integ = TransportIntegrator(cube, constant_velocity(np.zeros(3)),
                                TransportParams(dt=0.1, volume_conserve=False))
    # no (nel, nen, nq, dim) copy of the parametric gradients is held, and
    # the per-group tables are small: one distinct block in 216 elements
    dn_t = basis_blocks(cube)[1].transpose(0, 2, 1, 3)
    held = [v for obj in (integ, integ._capturing_gram) for v in vars(obj).values()
            if isinstance(v, np.ndarray)]
    assert not any(a.shape == dn_t.shape and np.array_equal(a, dn_t) for a in held)
    assert integ._capturing_gram.tables.nbytes < dn_t.nbytes // 10


def test_uncaptured_step_system_is_elementwise_assembly(monkeypatch):
    # without capturing, the solved system is bit for bit the assembly of
    # W^T P+ with right-hand side W^T (P- phi_old), from the integrator's own
    # operators (which test_advective_parts_match_einsum checks against the
    # element matrices M/dt +- K/2)
    patch = unit_square(7, degree=2)
    phi = project_function(patch, lambda x: x[..., 0] - 0.3 * x[..., 1])
    dt = 0.04
    params = TransportParams(dt=dt, capturing_c=0.0, volume_conserve=False)
    integ = TransportIntegrator(patch, rotation_velocity([0.5, 0.5]), params)
    calls = recording_solver(monkeypatch)
    integ.step(TimeState(phi, phi_prime=0.125, t=0.3))
    assert len(calls) == 1
    system = calls[0][0]
    prev_e = (phi.coeffs + 0.125)[patch.tabulation().field_conn]
    wt, p_plus, p_minus = operators(integ, 0.3 + 0.5 * dt)
    q = (p_minus @ prev_e[..., None])[..., 0]
    oracle = integ.pattern.assemble(wt @ p_plus, patch.scatter_dofs((wt @ q[..., None])[..., 0]))
    assert np.array_equal(system.matrix.data, oracle.matrix.data)
    assert np.array_equal(system.rhs, oracle.rhs)


def test_vortex2d_picard_solve_counts_per_step(monkeypatch):
    # per-step Picard solve counts of the coarse vortex, recorded with each
    # step's loop started from the extrapolated level set (the first step has
    # no predecessor and starts from the incoming state)
    from levelset.benchmarks import CaseConfig, run_vortex2d

    counts = []
    solve = transport.solve_nonsymmetric
    step_fn = TransportIntegrator.step

    def counting_solve(*args, **kwargs):
        counts[-1] += 1
        return solve(*args, **kwargs)

    def counting_step(self, *args, **kwargs):
        counts.append(0)
        return step_fn(self, *args, **kwargs)

    monkeypatch.setattr(transport, "solve_nonsymmetric", counting_solve)
    monkeypatch.setattr(TransportIntegrator, "step", counting_step)
    result = run_vortex2d(CaseConfig("vortex2d", mesh_n=10, degree=1, t_end=1.0, vtk=False))
    assert [len(info.inner_tols) for info in result.steps] == counts
    assert counts == [7, 4, 4, 5, 3, 4, 3, 4, 4, 5, 5, 5, 4, 4, 4, 4, 3, 4, 4, 3]


# -- kept block-LU factor per step ---------------------------------------


def summary_counts(result, capsys, pattern):
    """The integers of the CLI summary line of ``result`` that ``pattern``
    matches."""
    cli._summarize(result.config, result)
    return tuple(map(int, re.search(pattern, capsys.readouterr().out).groups()))


def test_vortex2d_picard_solves_refine_against_the_carried_factor(monkeypatch, capsys):
    # the coarse vortex of the solve-count test takes the direct path: the
    # first system is factored and solved exactly, every later one refined to
    # its tolerance against the factor kept across Picard iterations and time
    # steps, and factored itself only when refinement gives up, at the latest
    # once the sweeps run against the factor cost more than one factor
    from levelset.benchmarks import CaseConfig, run_vortex2d

    solves = []
    solve = transport.solve_nonsymmetric

    def recording_solve(system, rel_tol=1e-10, max_iter=None, x0=None, kept=None):
        lu_in = kept.lu
        x = solve(system, rel_tol=rel_tol, max_iter=max_iter, x0=x0, kept=kept)
        # the factor kept is this system's own only when the solve factored it
        solves.append((system, rel_tol, x, kept, lu_in, kept.lu, kept.matrix is system.matrix))
        return x

    monkeypatch.setattr(transport, "solve_nonsymmetric", recording_solve)
    result = run_vortex2d(CaseConfig("vortex2d", mesh_n=10, degree=1, t_end=1.0, vtk=False))
    assert len(result.steps) == 20
    # the solves of each step in turn, as many as its record lists tolerances
    assert len(solves) == sum(len(info.inner_tols) for info in result.steps)
    budget = np.ceil(result.patch.csr_pattern().banded.sweeps_per_factor)
    calls = iter(solves)
    lu, lu_sweeps = None, 0  # the hand-built initial state carries no factor
    spent_at_refactor = []
    for info in result.steps:
        step_solves = [next(calls) for _ in info.inner_tols]
        # one holder per step, passed to every solve of it
        assert len({id(kept) for *_, kept, _, _, _ in step_solves}) == 1
        sweeps = iter(info.refine_sweeps)
        for (system, rel_tol, x, _, lu_in, lu_out, fresh), tol in zip(
                step_solves, info.inner_tols, strict=True):
            assert rel_tol == tol
            resid = system.matrix @ x - system.rhs
            assert np.linalg.norm(resid) <= tol * np.linalg.norm(system.rhs)
            # the factor passes unchanged from solve to solve, across step
            # boundaries too, until a solve factors its own system
            assert lu_in is lu and isinstance(lu_out, BlockLU)
            assert (lu_out is not lu_in) == fresh
            # every solve that found a factor refined against it first, and
            # no factor runs more sweeps than one factor is worth
            if lu_in is not None:
                k = next(sweeps)
                assert 0 <= k <= REFINE_MAX_SWEEPS
                lu_sweeps += k
            assert lu_sweeps <= budget
            if fresh:
                oracle = np.linalg.solve(system.matrix.toarray(), system.rhs)
                assert np.linalg.norm(x - oracle) <= 1e-12 * np.linalg.norm(oracle)
                if lu_in is not None:
                    spent_at_refactor.append(lu_sweeps)
                lu_sweeps = 0
            lu = lu_out
        assert next(sweeps, None) is None
        assert info.factors == sum(fresh for *_, fresh in step_solves)
        assert info.refactors == sum(lu_in is not None and fresh
                                     for *_, lu_in, _, fresh in step_solves)
        assert info.krylov_fallbacks == 0
    # the run's last factor travels on in its final state, with its sweeps
    assert result.state.factor is lu and result.state.factor_sweeps == lu_sweeps
    # the sweep budget, not only the contraction test, sets some refactors
    assert max(spent_at_refactor) == budget
    # one BlockLU per factor computed, fewer than one per step: many steps
    # compute none
    factors = [info.factors for info in result.steps]
    assert sum(factors) == len({id(lu_out) for *_, lu_out, _ in solves})
    assert factors[0] == 1 and 1 < sum(factors) < len(factors) and 0 in factors
    # the summary's run totals are the records' sums
    totals = summary_counts(result, capsys, r"block-LU factors (\d+), refinement sweeps (\d+), "
                                            r"refactors (\d+), Krylov fallbacks (\d+)")
    assert totals == (sum(factors), sum(sum(info.refine_sweeps) for info in result.steps),
                      sum(info.refactors for info in result.steps), 0)


def test_far_off_kept_factor_refactors_the_system(monkeypatch):
    # a factor of the same pattern at 100x the time step is no approximate
    # inverse: refinement stops contracting, the system is factored itself,
    # solved to its tolerance, counted, and its factor kept for later ones
    patch = unit_square(10, degree=2)
    phi = project_function(
        patch, lambda x: 0.15 - np.linalg.norm(x - np.array([0.5, 0.75]), axis=-1))
    # ``older`` puts the extrapolated predictor on phi + 0.01, and a Picard
    # tolerance no guess meets stops each step after its first solve: that of
    # the loop's system at the predictor
    state = TimeState(phi, older=phi.coeffs - 0.01)
    calls = recording_solver(monkeypatch)
    for dt in (0.05, 5.0):
        params = TransportParams(dt=dt, picard_tol=1e-14, picard_max=1, volume_conserve=False)
        with pytest.raises(PicardError):
            TransportIntegrator(patch, vortex_velocity(), params).step(state)
    (near, _), (far, _) = calls
    kept = KeptFactor()
    solve_nonsymmetric(far, kept=kept)
    far_lu = kept.lu
    assert isinstance(far_lu, BlockLU) and kept.sweeps == []
    x = solve_nonsymmetric(near, rel_tol=1e-10, x0=phi.coeffs, kept=kept)
    resid = near.matrix @ x - near.rhs
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(near.rhs)
    assert kept.refactors == 1 and len(kept.sweeps) == 1
    assert kept.lu is not far_lu and kept.matrix is near.matrix
    # the refreshed factor is this matrix's own: a repeat solve runs from it
    # directly, without a sweep
    x = solve_nonsymmetric(near, rel_tol=1e-10, kept=kept)
    assert np.array_equal(x, kept.lu.solve(near.rhs))
    assert len(kept.sweeps) == 1 and kept.refactors == 1


# -- inexact Picard ------------------------------------------------------

# per-step Picard solve counts and L1 Heaviside mismatch of the 8^3 vortex
# (Krylov path), recorded with every inner solve at the full rel_tol and each
# step's loop started from the extrapolated level set
VORTEX3D_8_SOLVES = [6, 3, 3, 3, 3, 3, 3, 3, 2, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5,
                     5, 4, 4, 3]
VORTEX3D_8_L1 = 0.009206046765819409


@pytest.fixture(scope="module")
def vortex3d_8_run():
    """The 8^3 vortex and the number of nonsymmetric solves of each step
    that ran one, counted apart from the step records."""
    from levelset.benchmarks import CaseConfig, run_vortex3d

    kepts = []
    solve = transport.solve_nonsymmetric

    def counting_solve(*args, **kwargs):
        kepts.append(kwargs["kept"])
        return solve(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "solve_nonsymmetric", counting_solve)
        result = run_vortex3d(CaseConfig("vortex3d", mesh_n=8, degree=1, kappa_d=0.0,
                                         t_end=0.8, vtk=False))
    # each step passes its own kept factor to all its solves, so the runs of
    # one factor split the calls by step
    return result, [len(list(run)) for _, run in groupby(kepts, key=id)]


def test_vortex3d_inexact_picard_keeps_solve_counts(vortex3d_8_run):
    result, counts = vortex3d_8_run
    assert result.patch.csr_pattern().banded is None  # the Krylov path
    # no step of this run accepts its predictor, so every step has a count
    assert counts == VORTEX3D_8_SOLVES
    assert [len(info.inner_tols) for info in result.steps] == counts
    # no kept factor on the Krylov path, and none carried between steps
    assert all(info.factors == 0 and info.refine_sweeps == [] and info.refactors == 0
               and info.krylov_fallbacks == 0 for info in result.steps)
    assert result.state.factor is None
    assert result.l1_heaviside == pytest.approx(VORTEX3D_8_L1, rel=1e-4)


def test_picard_record_per_step(vortex3d_8_run):
    result, _ = vortex3d_8_run
    picard_tol, rel_tol = result.config.picard_tol, TransportParams.rel_tol
    for info in result.steps:
        trace, tols = info.picard_trace, info.inner_tols
        assert trace[-1] <= picard_tol
        assert all(rel > picard_tol for rel in trace[:-1])
        # one inner solve from each rejected guess, forced by its residual
        assert len(tols) == len(trace) - 1
        for rel, tol in zip(trace, tols):
            assert rel_tol <= tol <= ETA * rel


def test_uncaptured_krylov_step_meets_full_tolerance(monkeypatch):
    patch = build_structured([(0.0, 1.0)] * 3, [6, 6, 6], 1)
    assert patch.csr_pattern().banded is None  # the Krylov path
    phi = project_function(
        patch, lambda x: 0.2 - np.linalg.norm(x - np.array([0.4, 0.45, 0.5]), axis=-1))
    params = TransportParams(dt=0.05, capturing_c=0.0, volume_conserve=False)
    integ = TransportIntegrator(patch, vortex_velocity(3, 0.8), params)
    assert integ.last_info is None
    calls = recording_solver(monkeypatch)
    new = integ.step(TimeState(phi, t=0.1))
    ((system, _),) = calls
    resid = system.matrix @ new.phi.coeffs - system.rhs
    assert np.linalg.norm(resid) <= params.rel_tol * np.linalg.norm(system.rhs)
    info = integ.last_info
    assert (info.picard_trace, info.inner_tols, info.refine_sweeps, info.refactors) == (
        [], [params.rel_tol], [], 0)
    # without volume conservation the volume record keeps its defaults
    assert np.isnan(info.volume) and info.correction == 0.0 and info.shift_evals == 0


def test_run_totals_sum_the_volume_shift_record(vortex3d_8_run, capsys):
    result, _ = vortex3d_8_run
    totals = summary_counts(result, capsys, r"volume shift: evaluations (\d+), bracket "
                                            r"fallbacks (\d+), band widenings (\d+)")
    assert totals == (sum(info.shift_evals for info in result.steps), 0, 0)
    # Newton from zero converges on every step, inside the first band
    assert all(info.shift_evals >= 2 and not info.shift_bracketed
               and info.shift_widenings == 0 for info in result.steps)


def test_run_counts_the_steps_accepting_the_predictor(vortex3d_8_run, capsys):
    # a step with capturing on that accepted its predictor has a trace but no
    # solve; a step without capturing has no trace and one solve
    result, counts = vortex3d_8_run
    accepted = StepInfo([1e-5], [], 0, [], 0, 0, 0)
    uncaptured = StepInfo([], [1e-10], 0, [], 0, 0, 0)
    run = replace(result, steps=result.steps + [accepted, uncaptured])
    totals = summary_counts(run, capsys, r"Picard solves (\d+),.* with no solve (\d+)")
    assert totals == (sum(counts) + 1, VORTEX3D_8_SOLVES.count(0) + 1)


# -- extrapolated Picard start ---------------------------------------------


def predictor_setup(capturing_c=1.0):
    """A conserving coarse-vortex integrator and a state one step in, so that
    it carries a genuine ``older``."""
    patch = unit_square(8)
    phi = project_function(
        patch, lambda x: 0.15 - np.linalg.norm(x - np.array([0.5, 0.75]), axis=-1))
    params = TransportParams(dt=0.1, capturing_c=capturing_c, picard_tol=1e-6,
                             picard_max=60)
    integ = TransportIntegrator(patch, vortex_velocity(), params,
                                RedistanceParams(kappa_d=1.0), HeavisideParams(2.0))
    return integ, integ.step(TimeState(phi))


def assert_same_step(a, b):
    assert np.array_equal(a.phi.coeffs, b.phi.coeffs)
    assert (a.phi_prime, a.t, a.step) == (b.phi_prime, b.t, b.step)


def test_step_carries_the_incoming_coefficients_as_older():
    integ, state = predictor_setup()
    assert state.older is not None and state.phi_prime != 0.0
    new = integ.step(state)
    assert np.array_equal(new.older, state.phi.coeffs + state.phi_prime)
    # the 8x8 p1 pattern takes the direct path: the factor travels on too
    assert isinstance(state.factor, BlockLU) and isinstance(new.factor, BlockLU)
    # equality and repr leave the arrays and the factor out
    assert replace(state, older=None, factor=None, factor_sweeps=0) == state
    assert not any(name in repr(state) for name in ("older", "factor"))


def test_picard_loop_starts_from_the_extrapolation(monkeypatch):
    integ, state = predictor_setup()
    guesses = []
    parts = TransportIntegrator._capturing_parts

    def recording_parts(self, guess, *args):
        guesses.append(guess.copy())
        return parts(self, guess, *args)

    monkeypatch.setattr(TransportIntegrator, "_capturing_parts", recording_parts)
    integ.step(state)
    prev = state.phi.coeffs + state.phi_prime
    assert np.array_equal(guesses[0], 2.0 * prev - state.older)
    assert not np.array_equal(guesses[0], prev)


def test_older_equal_to_the_state_starts_like_no_predecessor():
    # 2p - p is p exactly, so the step is bitwise the one without a predecessor
    integ, state = predictor_setup()
    itself = integ.step(replace(state, older=state.phi.coeffs + state.phi_prime))
    trace = integ.last_info.picard_trace
    alone = integ.step(replace(state, older=None))
    assert_same_step(itself, alone)
    assert trace == integ.last_info.picard_trace


def test_step_keeps_no_hidden_state():
    integ, state = predictor_setup()
    first = integ.step(state)
    info = integ.last_info
    second = integ.step(state)
    assert_same_step(first, second)
    assert np.array_equal(first.older, second.older)
    assert info == integ.last_info and info is not integ.last_info


# -- element blocks and kept buffers ---------------------------------------


def step_buffers(integ):
    """The arrays an integrator keeps for its steps to overwrite."""
    return [integ._p_plus, integ._q, integ._entries, integ._s_bar, integ._scratch]


def integrator_in_blocks(monkeypatch, patch, elements):
    """A vortex integrator on ``patch`` whose blocks hold ``elements`` elements."""
    tab = patch.tabulation()
    per_element = tab.wdet.shape[1] * tab.field_conn.shape[1]
    monkeypatch.setattr(transport, "BLOCK_ENTRIES", elements * per_element)
    params = TransportParams(dt=0.05, volume_conserve=False)
    return TransportIntegrator(patch, vortex_velocity(patch.dim, 0.8), params)


@pytest.mark.parametrize("make", [
    lambda: unit_square(6, degree=2),
    lambda: build_structured([(0.0, 1.0)] * 3, [3, 3, 4], 1),
], ids=["quadratic-2d", "trilinear-3d"])
def test_blocked_step_is_one_block_bitwise(make, monkeypatch):
    # 36 elements in blocks of 5: the last block holds one element
    patch = make()
    one = integrator_in_blocks(monkeypatch, patch, patch.n_elements)
    blocked = integrator_in_blocks(monkeypatch, patch, 5)
    assert one._blocks == [slice(0, 36)] and blocked._blocks[-1] == slice(35, 36)
    state = TimeState(vortex_disc(patch), phi_prime=0.01, t=0.1)
    guess = state.phi.coeffs + 0.01 * np.sin(np.arange(patch.n_dofs))
    parts = []
    for integ in (one, blocked):
        prev, a0, rhs0 = integ._step_parts(state)
        s, s_prev = integ._capturing_parts(guess, prev)
        parts.append((a0, rhs0, integ._q.copy(), integ._p_plus.copy(), s, s_prev))
    for got, want in zip(*parts):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("make", BASIS_BLOCK_PATCHES.values(), ids=BASIS_BLOCK_PATCHES.keys())
def test_set_up_in_blocks_is_the_whole_patch_formula_bitwise(make, monkeypatch):
    # u0.grad N and u0.G u0 formed block by block, in blocks of 5 elements,
    # against J^-1, G and u0.grad N formed at every quadrature point at once
    patch = make()
    integ = integrator_in_blocks(monkeypatch, patch, 5)
    assert len(integ._blocks) > 1
    tab = patch.tabulation()
    groups = tab.basis_groups
    u0 = integ.velocity.field(tab.x)
    jinv = np.linalg.inv(tab.J)
    v0 = jinv @ u0[..., None]
    ugn0 = np.empty_like(integ._ugn0)
    for g in range(groups.n_groups):
        idx = groups.members(g)
        ugn0[idx] = (groups.grads[g] @ v0[idx])[..., 0]
    g_metric = jinv.swapaxes(-1, -2) @ jinv
    ugu0 = np.einsum("eqi,eqi->eq", np.einsum("eqij,eqj->eqi", g_metric, u0), u0)
    assert integ._ugn0.tobytes() == ugn0.tobytes()
    assert integ._ugu0.tobytes() == ugu0.tobytes()


def test_steps_reuse_the_integrators_buffers():
    integ, state = predictor_setup()
    kept = step_buffers(integ)
    addresses = [a.__array_interface__["data"][0] for a in kept]
    for _ in range(2):
        state = integ.step(state)
    assert all(a is b for a, b in zip(step_buffers(integ), kept))
    assert [a.__array_interface__["data"][0] for a in kept] == addresses


def test_step_outputs_alias_no_buffer(monkeypatch):
    # what a step hands out stays as it was after the next step overwrites
    # the integrator's buffers
    integ, state = predictor_setup()
    calls = recording_solver(monkeypatch)
    new = integ.step(state)
    info = integ.last_info
    handed = [new.phi.coeffs, new.older, new.factor.lower.base]
    handed += [a for system, _ in calls for a in (system.matrix.data, system.rhs)]
    assert not any(np.shares_memory(a, b) for a in handed for b in step_buffers(integ))
    copies = [a.copy() for a in handed]
    record = replace(info, picard_trace=list(info.picard_trace),
                     inner_tols=list(info.inner_tols), refine_sweeps=list(info.refine_sweeps))
    integ.step(new)
    assert all(np.array_equal(a, b) for a, b in zip(handed, copies))
    assert info == record


def test_uncaptured_step_ignores_older():
    integ, state = predictor_setup(capturing_c=0.0)
    rng = np.random.default_rng(3)
    skewed = integ.step(replace(state, older=rng.standard_normal(state.phi.coeffs.shape)))
    assert_same_step(skewed, integ.step(replace(state, older=None)))


def test_older_of_the_wrong_shape_is_rejected():
    _, state = predictor_setup()
    with pytest.raises(ValueError, match="older"):
        replace(state, older=state.older[:-1])
    lu = state.factor
    with pytest.raises(ValueError, match="factor"):
        replace(state, factor=BlockLU(lu.n - 1, lu.lower, lu.dinv, lu.upper))


# -- separable velocity ---------------------------------------------------


def vortex_disc(patch):
    centre = np.full(patch.dim, 0.35)
    return project_function(patch, lambda x: 0.2 - np.linalg.norm(x - centre, axis=-1))


def physical_u_grad_n(patch, u):
    """u.grad N = dN Jinv u at quadrature velocity ``u``."""
    dn = basis_blocks(patch)[1]
    return np.einsum("eqak,eqkd,eqd->eqa", dn, np.linalg.inv(patch.tabulation().J), u)


def advective_oracle(patch, u, dt):
    """m_e and k_e from their definition at quadrature velocity ``u``:
    u.grad N = dN Jinv u, the printed tau from u.G u, W = N + tau u.grad N,
    M = (W, N), K = (W, u.grad N)."""
    tab = patch.tabulation()
    n = basis_blocks(patch)[0]
    u_grad_n = physical_u_grad_n(patch, u)
    tau = 1.0 / np.sqrt(dt * dt + np.einsum("eqi,eqij,eqj->eq", u, metric(tab), u))
    w = n + tau[..., None] * u_grad_n
    return (np.einsum("eq,eqa,eqb->eab", tab.wdet, w, n),
            np.einsum("eq,eqa,eqb->eab", tab.wdet, w, u_grad_n))


@pytest.mark.parametrize("make", BASIS_BLOCK_PATCHES.values(), ids=BASIS_BLOCK_PATCHES.keys())
def test_physical_gradients_match_einsum(make):
    # the physical gradients enter only along the velocity field, as
    # u0.grad N = dN Jinv u0, kept from set-up
    patch = make()
    velocity = vortex_velocity(patch.dim)
    integ = TransportIntegrator(patch, velocity, TransportParams(dt=0.1, volume_conserve=False))
    tab = patch.tabulation()
    oracle = physical_u_grad_n(patch, velocity.field(tab.x))
    assert integ._ugn0.shape == oracle.shape
    assert rel_diff(integ._ugn0, oracle) <= 1e-14


def operators(integ, t_mid):
    """W^T, P+ and P- of every element at ``t_mid``, gathered block by block.
    W^T keeps the layout the step reads, a transposed view of W."""
    f = float(integ.velocity.factor(t_mid))
    parts = []
    for block in integ._blocks:
        wt, p_plus, p_minus = integ._operators(f, block)
        parts.append((wt.swapaxes(1, 2).copy(), p_plus.copy(), p_minus.copy()))
    w, p_plus, p_minus = (np.concatenate(a) for a in zip(*parts))
    return w.swapaxes(1, 2), p_plus, p_minus


def assert_operators_match_oracle(integ, u, t_mid):
    """W^T P+- at ``t_mid`` against M/dt +- K/2 of :func:`advective_oracle` at
    quadrature velocity ``u``."""
    dt = integ.params.dt
    m_oracle, k_oracle = advective_oracle(integ.patch, u, dt)
    wt, p_plus, p_minus = operators(integ, t_mid)
    assert rel_diff(wt @ p_plus, m_oracle / dt + 0.5 * k_oracle) <= 1e-14
    assert rel_diff(wt @ p_minus, m_oracle / dt - 0.5 * k_oracle) <= 1e-14


def assert_operators_at_rest(integ, t_mid):
    """With the velocity zero at ``t_mid``, P+ and P- are both N/dt: bitwise
    the tabulated basis over dt, and the basis evaluated at every quadrature
    point over dt to roundoff (BASIS_ULPS)."""
    _, p_plus, p_minus = operators(integ, t_mid)
    groups = integ.patch.tabulation().basis_groups
    n_dt = groups.values[groups.index] / integ.params.dt
    assert np.array_equal(p_plus, n_dt) and np.array_equal(p_minus, n_dt)
    assert within_ulps(p_plus, basis_blocks(integ.patch)[0] / integ.params.dt, BASIS_ULPS)


@pytest.mark.parametrize("make", BASIS_BLOCK_PATCHES.values(), ids=BASIS_BLOCK_PATCHES.keys())
def test_advective_parts_match_einsum(make):
    patch = make()
    period, dt = 0.8, 0.1
    velocity = vortex_velocity(patch.dim, period)
    integ = TransportIntegrator(patch, velocity, TransportParams(dt=dt, volume_conserve=False))
    tab = patch.tabulation()
    for t_mid in (0.05, 0.25, 0.65):
        assert_operators_match_oracle(
            integ, velocity.factor(t_mid) * velocity.field(tab.x), t_mid)
    # the velocity vanishes exactly at reversal
    assert_operators_at_rest(integ, 0.5 * period)


@pytest.mark.parametrize("patch", [
    unit_square(6, degree=2),
    build_structured([(0.0, 1.0)] * 3, [4] * 3, 1),
], ids=["quadratic-2d", "trilinear-3d"])
def test_separable_velocity_matches_plain_callable(patch):
    # the declared-separable vortex reproduces the plain callable u(x, t) of
    # the vortex field times its time factor, and its W^T P+- the oracle
    # at that velocity, along a few steps with the reversal instant t = T/2
    # among their midpoints
    period, dt = 0.8, 0.1
    field = vortex2d_field if patch.dim == 2 else vortex3d_field

    def plain(x, t):
        return vortex_time_factor(t, period) * field(x)

    separable = vortex_velocity(patch.dim, period)
    params = TransportParams(dt=dt, capturing_c=1.0, picard_tol=1e-6, picard_max=60,
                             volume_conserve=False)
    integ = TransportIntegrator(patch, separable, params)
    state = TimeState(vortex_disc(patch))
    tab = patch.tabulation()
    for _ in range(5):
        t_mid = state.t + 0.5 * dt
        u = plain(tab.x, t_mid)
        assert np.array_equal(separable.factor(t_mid) * separable.field(tab.x), u)
        assert_operators_match_oracle(integ, u, t_mid)
        state = integ.step(state)
    # the velocity vanishes exactly at reversal
    assert not plain(tab.x, 0.5 * period).any()
    assert_operators_at_rest(integ, 0.5 * period)


def test_separable_velocity_holds_no_physical_gradients(monkeypatch):
    import levelset.benchmarks as bm

    built = []

    class Recorded(TransportIntegrator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(bm, "TransportIntegrator", Recorded)
    result = bm.run_vortex3d(bm.CaseConfig("vortex3d", mesh_n=4, t_end=0.25, vtk=False))
    (integ,) = built
    assert isinstance(integ.velocity, SeparableVelocity)
    patch = result.patch
    tab = patch.tabulation()
    nel, nq = tab.wdet.shape
    nen = tab.field_conn.shape[1]
    assert integ._ugn0.shape == (nel, nq, nen)
    assert integ._ugu0.shape == tab.wdet.shape
    # the basis is kept once per group: no (nel, nq, nen, dim) array is held
    # by the tabulation, the integrator, its projection operator or its Gram
    # tables, and of their (nel, nq, nen) arrays only u0.grad N and the
    # buffer P+ that every step overwrites
    owners = {"tab": tab, "groups": tab.basis_groups, "integ": integ,
              "proj_op": integ.proj_op, "gram": integ._capturing_gram}
    held = {f"{owner}.{name}": v for owner, obj in owners.items()
            for name, v in vars(obj).items() if isinstance(v, np.ndarray)}
    assert {"tab.x", "tab.J", "groups.values", "integ._ugn0"} <= set(held)
    assert not [name for name, a in held.items() if a.shape == (nel, nq, nen, patch.dim)]
    assert [name for name, a in held.items() if a.shape == (nel, nq, nen)] == [
        "integ._ugn0", "integ._p_plus"]


def test_separable_velocity_field_is_evaluated_once():
    # the field at set-up only; the factor once per step, at its midpoint,
    # however many Picard iterations the step takes
    patch = unit_square(5)
    fields, factors = [], []

    def field(x):
        fields.append(x.shape)
        return vortex2d_field(x)

    def factor(t):
        factors.append(t)
        return vortex_time_factor(t, 0.8)

    dt = 0.1
    integ = TransportIntegrator(patch, SeparableVelocity(field, factor),
                                TransportParams(dt=dt, picard_tol=1e-6, picard_max=60,
                                                volume_conserve=False))
    assert fields == [patch.tabulation().x.shape] and factors == []
    state = TimeState(vortex_disc(patch))
    for _ in range(2):
        state = integ.step(state)
        assert len(integ.last_info.picard_trace) > 1
    assert len(fields) == 1
    assert factors == pytest.approx([0.5 * dt, 1.5 * dt])


@pytest.mark.parametrize("make, name, value", [
    (TransportParams, "dt", np.nan),
    (TransportParams, "capturing_c", np.inf),
    (TransportParams, "picard_tol", np.nan),
    (TransportParams, "picard_tol", 0.0),
    (TransportParams, "rel_tol", -np.inf),
    (TransportParams, "rel_tol", 0.0),
    (TransportParams, "picard_max", 0),
    (RedistanceParams, "kappa_d", np.nan),
    (RedistanceParams, "rel_tol", 0.0),
    (HeavisideParams, "alpha", np.nan),
])
def test_settings_must_be_finite_and_in_range(make, name, value):
    # each is rejected where it is built, naming the field, before a NaN
    # reaches a solve
    given = {"dt": 0.1} if make is TransportParams else {}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        make(**(given | {name: value}))


def test_velocity_other_than_separable_is_rejected():
    with pytest.raises(TypeError, match="SeparableVelocity"):
        TransportIntegrator(unit_square(4), lambda x, t: np.zeros_like(x),
                            TransportParams(dt=0.1))


@pytest.mark.parametrize("field", [lambda x: np.array([1.0, 0.0]), lambda x: x[..., :1]],
                         ids=["constant-vector", "one-component"])
def test_velocity_field_of_the_wrong_shape_is_rejected(field):
    patch = unit_square(4)
    shape = patch.tabulation().x.shape
    with pytest.raises(ValueError, match=re.escape(f"(nel, nq, dim) = {shape}")):
        TransportIntegrator(patch, SeparableVelocity(field, lambda t: 1.0),
                            TransportParams(dt=0.1, volume_conserve=False))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_velocity_is_rejected_at_set_up(bad):
    patch = unit_square(8)

    def field(x):
        u = np.ones_like(x)
        u[9, 3, 1] = bad
        return u

    with pytest.raises(ValueError, match=re.escape(
            f"velocity field is not finite at element 9, quadrature point 3: [ 1. {bad}]")):
        TransportIntegrator(patch, SeparableVelocity(field, lambda t: 1.0),
                            TransportParams(dt=0.1, volume_conserve=False))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_initial_coefficients_are_rejected(bad):
    patch = unit_square(4)
    coeffs = np.ones(patch.n_dofs)
    coeffs[7] = bad
    with pytest.raises(ValueError, match=re.escape(
            f"phi.coeffs[7] is {bad}; every entry must be finite")):
        TimeState(ScalarField(patch, coeffs))


# -- the volume shift on the interface band -------------------------------


def all_points_shift(sd, target, hv, patch):
    """The volume-restoring shift with every quadrature point in each sum."""
    wdet = patch.tabulation().wdet
    vals, g = sd.quadrature_values(), sd.shift_response_qp()

    def f(s):
        return float(np.sum(wdet * regularized_heaviside(vals + s * g, hv))) - target

    def fp(s):
        return float(np.sum(wdet * heaviside_band_derivative(vals + s * g, hv.alpha) * g))

    def bracket():
        raise AssertionError("a Newton step was rejected")

    root, _ = scalar_newton(f, fp, 0.0, bracket, tol=1e-13 * max(1.0, float(wdet.sum())),
                            max_iter=100)
    return root, target + f(root)


def band_radius(sd, hv):
    return transport.BAND_MARGIN * hv.alpha / float(np.median(sd.shift_response_qp()))


SHIFT_PATCHES = {
    "2d": lambda: unit_square(16),
    "3d": lambda: build_structured([(0.0, 1.0)] * 3, [8] * 3, 1),
}


@pytest.mark.parametrize("make", SHIFT_PATCHES.values(), ids=SHIFT_PATCHES.keys())
def test_banded_shift_matches_all_points(make):
    patch = make()
    hv = HeavisideParams(2.0)
    sd = redistance_field(vortex_disc(patch), RedistanceParams(kappa_d=0.0))
    _, v1 = subdomain_volumes(sd, hv, patch)
    target = 0.98 * v1
    band = transport._BandVolume(sd.quadrature_values(), sd.shift_response_qp(),
                                 patch.tabulation().wdet, hv, target, band_radius(sd, hv))
    assert 0 < len(band.band[0]) < band.vals.size   # a proper band
    shift, achieved, vol = _shift_for_volume(sd, target, hv, patch)
    oracle_shift, oracle_achieved = all_points_shift(sd, target, hv, patch)
    assert abs(shift) < band_radius(sd, hv)
    assert shift == pytest.approx(oracle_shift, rel=1e-13, abs=0.0)
    assert achieved == pytest.approx(oracle_achieved, rel=1e-13, abs=0.0)
    assert vol.evals >= 3 and not vol.bracketed and vol.widenings == 0


@pytest.mark.parametrize("make", SHIFT_PATCHES.values(), ids=SHIFT_PATCHES.keys())
def test_banded_shift_widens_beyond_the_margin(make):
    patch = make()
    hv = HeavisideParams(2.0)
    sd = redistance_field(vortex_disc(patch), RedistanceParams(kappa_d=0.0))
    wdet = patch.tabulation().wdet
    # the volume one and a half band radii away
    far = 1.5 * band_radius(sd, hv)
    target = float(np.sum(wdet * regularized_heaviside(
        sd.quadrature_values() + far * sd.shift_response_qp(), hv)))
    shift, achieved, vol = _shift_for_volume(sd, target, hv, patch)
    assert vol.widenings >= 1 and not vol.bracketed
    oracle_shift, oracle_achieved = all_points_shift(sd, target, hv, patch)
    assert shift == pytest.approx(oracle_shift, rel=1e-13, abs=0.0)
    assert shift == pytest.approx(far, rel=1e-10)
    assert achieved == pytest.approx(oracle_achieved, rel=1e-13, abs=0.0)


def test_step_reports_band_widenings():
    patch = unit_square(12)
    hv = HeavisideParams(2.0)
    rd = RedistanceParams(kappa_d=0.0)
    integ = TransportIntegrator(patch, constant_velocity([0.0, 0.0]),
                                TransportParams(dt=0.05), rd, hv)
    state = TimeState(vortex_disc(patch))
    _, v1 = subdomain_volumes(integ.scaled_distance(state), hv, patch)
    integ.step(state, target_v1=v1)
    info = integ.last_info
    assert info.shift_widenings == 0 and info.shift_evals >= 2 and info.shift_bracketed is False
    # a target far from the current volume moves the shift out of the band
    integ.step(state, target_v1=2.5 * v1)
    assert integ.last_info.shift_widenings >= 1
    assert integ.last_info.volume == pytest.approx(2.5 * v1, rel=1e-12)


def test_banded_shift_with_the_whole_domain_in_the_band():
    # |phi_hat| < 3 element lengths everywhere, inside a half-width of 4
    patch = unit_square(6)
    hv = HeavisideParams(4.0)
    sd = redistance_field(project_function(patch, lambda x: x[..., 0] - 0.5),
                          RedistanceParams(kappa_d=0.0))
    _, v1 = subdomain_volumes(sd, hv, patch)
    band = transport._BandVolume(sd.quadrature_values(), sd.shift_response_qp(),
                                 patch.tabulation().wdet, hv, v1, band_radius(sd, hv))
    assert band.radius == np.inf and band.band[0].size == band.vals.size
    target = 0.9 * v1
    shift, achieved, vol = _shift_for_volume(sd, target, hv, patch)
    assert (shift, achieved) == all_points_shift(sd, target, hv, patch)
    assert vol.widenings == 0
