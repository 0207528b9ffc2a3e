import re
from dataclasses import replace
from functools import partial
from itertools import groupby

import numpy as np
import pytest

import levelset.cli as cli
import levelset.transport as transport
from conftest import BASIS_BLOCK_PATCHES, linear_field, unit_line, unit_square
from levelset.benchmarks import vortex2d_field, vortex3d_field, vortex_time_factor
from levelset.fields import (HeavisideParams, ScalarField, heaviside_band_derivative,
                             regularized_heaviside, subdomain_volumes)
from levelset.linalg import (REFINE_MAX_SWEEPS, BlockLU, KeptFactor, scalar_newton,
                             solve_nonsymmetric)
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
    g = unit_square(10).tabulation().G[0, 0]
    assert stabilization_tau([0.0, 0.0], g, 0.1) == pytest.approx(10.0, rel=1e-14)


def test_stabilization_tau_large_dt_limit():
    g = unit_square(10).tabulation().G[0, 0]
    # with the temporal term vanishing, axis-aligned unit speed leaves the
    # element width; only the conventional form has a vanishing temporal term
    # for large steps (the printed form's tends to 1/dt instead)
    assert stabilization_tau([1.0, 0.0], g, 1e9,
                             form="conventional") == pytest.approx(0.1, rel=1e-9)
    assert stabilization_tau([1.0, 0.0], g, 1e9) == pytest.approx(1e-9, rel=1e-6)


def test_stabilization_tau_generic_oracle(rng):
    g = unit_square(7).tabulation().G[0, 0]
    for _ in range(5):
        u = rng.standard_normal(2)
        dt = float(rng.uniform(0.01, 2.0))
        oracle = 1.0 / np.sqrt(dt**2 + u @ g @ u)
        assert stabilization_tau(u, g, dt) == pytest.approx(oracle, rel=1e-14)
        conv = 1.0 / np.sqrt((2.0 / dt) ** 2 + u @ g @ u)
        assert stabilization_tau(u, g, dt, form="conventional") == pytest.approx(
            conv, rel=1e-14)


def test_stabilization_tau_decreases_with_dt_at_rest():
    g = unit_square(10).tabulation().G[0, 0]
    dts = np.linspace(0.05, 1.0, 30)
    taus = [stabilization_tau([0.0, 0.0], g, dt) for dt in dts]
    assert np.all(np.diff(taus) < 0)


def test_capturing_kappa():
    assert capturing_kappa(0.0, 2.0) == 0.0
    assert capturing_kappa(5.0, 0.0) == 0.0
    assert capturing_kappa(-2.0, 1.0) == 2.0
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


def test_supg_matrix_nonsymmetric_for_nonzero_velocity():
    patch = unit_square(6)
    phi = project_function(patch, lambda x: x[..., 0])
    state = TimeState(phi)
    params = TransportParams(dt=0.05, capturing_c=0.0)
    system = TransportIntegrator(patch, constant_velocity([0.7, 0.1]),
                                 params).assemble(state, phi.coeffs)
    a = system.matrix.toarray()
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
    # an exact transport solution in the discrete space annihilates the residual
    patch = unit_square(10)
    a, b = 0.5, -0.3
    u = np.array([0.8, 0.4])
    dt = 0.02
    phi0 = project_function(patch, lambda x: a * x[..., 0] + b * x[..., 1])
    exact1 = ScalarField(patch, phi0.coeffs - (a * u[0] + b * u[1]) * dt)
    params = TransportParams(dt=dt, capturing_c=1.0)
    state = TimeState(phi0)
    system = TransportIntegrator(patch, constant_velocity(u), params).assemble(
        state, exact1.coeffs)
    resid = system.matrix @ exact1.coeffs - system.rhs
    assert np.linalg.norm(resid) / np.linalg.norm(system.rhs) < 1e-9


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


def test_volume_correction_unreachable_target():
    patch = unit_square(6)
    phi = project_function(patch, lambda x: x[..., 0] - 0.5)
    hv = HeavisideParams(2.0)
    rd = RedistanceParams(kappa_d=0.0)
    with pytest.raises(ConservationError):
        # exceeds the domain measure
        _shift_for_volume(redistance_field(phi, rd), 2.0, hv, patch)


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


def recording_solver(monkeypatch):
    """Route the integrator's solves through a recorder of (system, x0)."""
    calls = []
    real = transport.solve_nonsymmetric

    def record(system, rel_tol=1e-10, max_iter=None, x0=None, kept=None):
        calls.append((system, np.array(x0)))
        return real(system, rel_tol=rel_tol, max_iter=max_iter, x0=x0, kept=kept)

    monkeypatch.setattr(transport, "solve_nonsymmetric", record)
    return calls


def capturing_oracle(tab, kappa):
    return np.einsum("eqad,eq,eqbd->eab", tab.field_dN, tab.wdet * kappa, tab.field_dN)


def rel_diff(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_relaxed_system_matches_assembly_at_averaged_kappa(monkeypatch):
    # the relaxed system mixes assembled values; it must equal the system
    # assembled from element matrices at the averaged coefficient itself
    patch = unit_square(6, degree=2)
    phi = project_function(
        patch, lambda x: 0.2 - np.linalg.norm(x - np.array([0.5, 0.7]), axis=-1))
    dt = 0.05
    params = TransportParams(dt=dt, capturing_c=1.0, picard_tol=1e-14,
                             picard_max=3, volume_conserve=False)
    integ = TransportIntegrator(patch, rotation_velocity([0.5, 0.5]), params)
    calls = recording_solver(monkeypatch)
    with pytest.raises(PicardError):
        integ.step(TimeState(phi, phi_prime=0.01))
    assert len(calls) == 3

    tab = patch.tabulation()
    conn = tab.field_conn
    prev_e = (phi.coeffs + 0.01)[conn]
    u_grad_n, m_e, k_e = integ._advective_parts(0.5 * dt)
    kappa_bar = None
    for _, guess in calls:
        kappa = integ._capturing_kappa_qp(u_grad_n, guess[conn], prev_e)
        kappa_bar = kappa if kappa_bar is None else 0.5 * (kappa_bar + kappa)
    s_e = capturing_oracle(tab, kappa_bar)
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
                                TransportParams(dt=0.1))
    kappa = rng.uniform(0.0, 2.0, tab.wdet.shape)
    oracle = capturing_oracle(tab, kappa)
    assert np.abs(integ._capturing_matrix(kappa) - oracle).max() <= 1e-13 * np.abs(oracle).max()


@pytest.mark.parametrize("make", BASIS_BLOCK_PATCHES.values(), ids=BASIS_BLOCK_PATCHES.keys())
def test_grouped_capturing_matrix_matches_einsum(make, rng):
    patch = make()
    tab = patch.tabulation()
    kappa = rng.uniform(0.0, 2.0, tab.wdet.shape)
    oracle = capturing_oracle(tab, kappa)
    integ = TransportIntegrator(patch, constant_velocity(np.zeros(patch.dim)),
                                TransportParams(dt=0.1))
    assert rel_diff(integ._capturing_matrix(kappa), oracle) <= 1e-13


def test_capturing_gram_holds_no_gradient_copy():
    cube = build_structured([(0.0, 1.0)] * 3, [6] * 3, 1)
    integ = TransportIntegrator(cube, constant_velocity(np.zeros(3)), TransportParams(dt=0.1))
    # no (nel, nen, nq, dim) copy of the parametric gradients is held, and
    # the per-group tables are small: 8 distinct blocks in 216 elements
    dn_t = cube.tabulation().field_dN.transpose(0, 2, 1, 3)
    held = [v for obj in (integ, integ._capturing_gram) for v in vars(obj).values()
            if isinstance(v, np.ndarray)]
    assert not any(a.shape == dn_t.shape and np.array_equal(a, dn_t) for a in held)
    assert integ._capturing_gram.tables.nbytes < dn_t.nbytes // 10


def test_uncaptured_step_system_is_elementwise_assembly(monkeypatch):
    # without capturing, the solved system is bit for bit the assembly of
    # M/dt + K/2 with right-hand side (M/dt - K/2) phi_old
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
    _, m_e, k_e = integ._advective_parts(0.3 + 0.5 * dt)
    b_e = m_e / dt - 0.5 * k_e
    oracle = integ.pattern.assemble(
        m_e / dt + 0.5 * k_e, patch.scatter_dofs((b_e @ prev_e[..., None])[..., 0]))
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


def test_vortex2d_later_picard_solves_refine_against_the_kept_factor(monkeypatch, capsys):
    # the coarse vortex of the solve-count test takes the direct path: each
    # step's first solve is exact, the later ones refined to their tolerance
    from levelset.benchmarks import CaseConfig, run_vortex2d

    solves = []
    solve = transport.solve_nonsymmetric

    def recording_solve(system, rel_tol=1e-10, max_iter=None, x0=None, kept=None):
        x = solve(system, rel_tol=rel_tol, max_iter=max_iter, x0=x0, kept=kept)
        solves.append((system, rel_tol, x, kept))
        return x

    monkeypatch.setattr(transport, "solve_nonsymmetric", recording_solve)
    result = run_vortex2d(CaseConfig("vortex2d", mesh_n=10, degree=1, t_end=1.0, vtk=False))
    assert len(result.steps) == 20
    # the solves of each step in turn, as many as its record lists tolerances
    assert len(solves) == sum(len(info.inner_tols) for info in result.steps)
    calls = iter(solves)
    for info in result.steps:
        (first, _, x, kept), *later = (next(calls) for _ in info.inner_tols)
        # one factor per step, passed to every solve: the first system's
        assert isinstance(kept, KeptFactor) and all(k is kept for *_, k in later)
        assert isinstance(kept.lu, BlockLU) and kept.matrix is first.matrix
        oracle = np.linalg.solve(first.matrix.toarray(), first.rhs)
        assert np.linalg.norm(x - oracle) <= 1e-12 * np.linalg.norm(oracle)
        for (system, rel_tol, x, _), tol in zip(later, info.inner_tols[1:], strict=True):
            assert rel_tol == tol
            resid = system.matrix @ x - system.rhs
            assert np.linalg.norm(resid) <= tol * np.linalg.norm(system.rhs)
        assert info.refine_sweeps is kept.sweeps and len(kept.sweeps) == len(later)
        assert all(1 <= k <= REFINE_MAX_SWEEPS for k in info.refine_sweeps)
        assert info.refactors == 0 and info.krylov_fallbacks == 0
    # the summary's run totals are the records' sums
    totals = summary_counts(result, capsys, r"refinement sweeps (\d+), refactors (\d+), "
                                            r"Krylov fallbacks (\d+)")
    assert totals == (sum(sum(info.refine_sweeps) for info in result.steps), 0, 0)


def test_far_off_kept_factor_refactors_the_system():
    # a factor of the same pattern at 100x the time step is no approximate
    # inverse: refinement stops contracting, the system is factored itself,
    # solved to its tolerance, counted, and its factor kept for later ones
    patch = unit_square(10, degree=2)
    phi = project_function(
        patch, lambda x: 0.15 - np.linalg.norm(x - np.array([0.5, 0.75]), axis=-1))
    state = TimeState(phi)
    near, far = (TransportIntegrator(patch, vortex_velocity(), TransportParams(dt=dt))
                 .assemble(state, guess_coeffs=phi.coeffs + 0.01) for dt in (0.05, 5.0))
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
    # no kept factor on the Krylov path
    assert all(info.refine_sweeps == [] and info.refactors == 0
               and info.krylov_fallbacks == 0 for info in result.steps)
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


def test_uncaptured_krylov_step_meets_full_tolerance():
    patch = build_structured([(0.0, 1.0)] * 3, [6, 6, 6], 1)
    assert patch.csr_pattern().banded is None  # the Krylov path
    phi = project_function(
        patch, lambda x: 0.2 - np.linalg.norm(x - np.array([0.4, 0.45, 0.5]), axis=-1))
    params = TransportParams(dt=0.05, capturing_c=0.0, volume_conserve=False)
    integ = TransportIntegrator(patch, vortex_velocity(3, 0.8), params)
    assert integ.last_info is None
    state = TimeState(phi, t=0.1)
    new = integ.step(state)
    system = integ.assemble(state)
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
    accepted = StepInfo([1e-5], [], [], 0, 0)
    uncaptured = StepInfo([], [1e-10], [], 0, 0)
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
    # equality and repr leave the arrays out
    assert replace(state, older=None) == state
    assert "older" not in repr(state)


def test_picard_loop_starts_from_the_extrapolation(monkeypatch):
    integ, state = predictor_setup()
    guesses = []
    parts = TransportIntegrator._capturing_parts

    def recording_parts(self, u_grad_n, guess, *args):
        guesses.append(guess.copy())
        return parts(self, u_grad_n, guess, *args)

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


def test_uncaptured_step_ignores_older():
    integ, state = predictor_setup(capturing_c=0.0)
    rng = np.random.default_rng(3)
    skewed = integ.step(replace(state, older=rng.standard_normal(state.phi.coeffs.shape)))
    assert_same_step(skewed, integ.step(replace(state, older=None)))


def test_older_of_the_wrong_shape_is_rejected():
    _, state = predictor_setup()
    with pytest.raises(ValueError, match="older"):
        replace(state, older=state.older[:-1])


# -- separable velocity ---------------------------------------------------


def vortex_disc(patch):
    centre = np.full(patch.dim, 0.35)
    return project_function(patch, lambda x: 0.2 - np.linalg.norm(x - centre, axis=-1))


def advective_oracle(tab, u, dt):
    """m_e and k_e from their definition at quadrature velocity ``u``:
    u.grad N = dN Jinv u, the printed tau from u.G u, W = N + tau u.grad N,
    M = (W, N), K = (W, u.grad N)."""
    u_grad_n = np.einsum("eqak,eqkd,eqd->eqa", tab.field_dN, tab.Jinv, u)
    tau = 1.0 / np.sqrt(dt * dt + np.einsum("eqi,eqij,eqj->eq", u, tab.G, u))
    w = tab.field_N + tau[..., None] * u_grad_n
    return (np.einsum("eq,eqa,eqb->eab", tab.wdet, w, tab.field_N),
            np.einsum("eq,eqa,eqb->eab", tab.wdet, w, u_grad_n))


@pytest.mark.parametrize("make", BASIS_BLOCK_PATCHES.values(), ids=BASIS_BLOCK_PATCHES.keys())
def test_physical_gradients_match_einsum(make):
    # the physical gradients enter only along the velocity field, as
    # u0.grad N = dN Jinv u0, kept from set-up
    patch = make()
    velocity = vortex_velocity(patch.dim)
    integ = TransportIntegrator(patch, velocity, TransportParams(dt=0.1))
    tab = patch.tabulation()
    oracle = np.einsum("eqak,eqkd,eqd->eqa", tab.field_dN, tab.Jinv, velocity.field(tab.x))
    assert integ._ugn0.shape == oracle.shape
    assert rel_diff(integ._ugn0, oracle) <= 1e-14


@pytest.mark.parametrize("make", BASIS_BLOCK_PATCHES.values(), ids=BASIS_BLOCK_PATCHES.keys())
def test_advective_parts_match_einsum(make):
    patch = make()
    period, dt = 0.8, 0.1
    velocity = vortex_velocity(patch.dim, period)
    integ = TransportIntegrator(patch, velocity, TransportParams(dt=dt))
    tab = patch.tabulation()
    for t_mid in (0.05, 0.25, 0.65):
        m_oracle, k_oracle = advective_oracle(
            tab, velocity.factor(t_mid) * velocity.field(tab.x), dt)
        _, m_e, k_e = integ._advective_parts(t_mid)
        assert rel_diff(m_e, m_oracle) <= 1e-14
        assert rel_diff(k_e, k_oracle) <= 1e-14
    # the velocity, and so k_e, vanishes exactly at reversal
    _, _, k_rev = integ._advective_parts(0.5 * period)
    assert not k_rev.any()


@pytest.mark.parametrize("patch", [
    unit_square(6, degree=2),
    build_structured([(0.0, 1.0)] * 3, [4] * 3, 1),
], ids=["quadratic-2d", "trilinear-3d"])
def test_separable_velocity_matches_plain_callable(patch):
    # the declared-separable vortex reproduces the plain callable u(x, t) of
    # the vortex field times its time factor, and its m_e and k_e the oracle
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
        m_oracle, k_oracle = advective_oracle(tab, u, dt)
        _, m_e, k_e = integ._advective_parts(t_mid)
        assert rel_diff(m_e, m_oracle) <= 1e-14
        assert rel_diff(k_e, k_oracle) <= 1e-14
        state = integ.step(state)
    # the velocity, and so k_e, vanishes exactly at reversal
    assert not plain(tab.x, 0.5 * period).any()
    _, _, k_rev = integ._advective_parts(0.5 * period)
    assert not k_rev.any()


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
    tab = result.patch.tabulation()
    assert integ._ugn0.shape == tab.field_N.shape
    assert integ._ugu0.shape == tab.wdet.shape
    # no (nel, nq, nen, dim) array is held
    held = [v for v in vars(integ).values() if isinstance(v, np.ndarray)]
    assert not any(a.shape == tab.field_dN.shape for a in held)


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
    (RedistanceParams, "gradient_floor", np.inf),
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
                            TransportParams(dt=0.1))


# -- the volume shift on the interface band -------------------------------


def all_points_shift(sd, target, hv, patch):
    """The volume-restoring shift with every quadrature point in each sum."""
    wdet = patch.tabulation().wdet
    vals, g = sd.quadrature_values(), sd.shift_response_qp()

    def f(s):
        return float(np.sum(wdet * regularized_heaviside(vals + s * g, hv))) - target

    def fp(s):
        return float(np.sum(wdet * heaviside_band_derivative(vals + s * g, hv.alpha) * g))

    root = scalar_newton(f, fp, 0.0, tol=1e-13 * max(1.0, float(wdet.sum())), max_iter=100)
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
