import numpy as np
import pytest

import levelset.transport as transport
from conftest import linear_field, unit_line, unit_square
from levelset.fields import HeavisideParams, ScalarField, subdomain_volumes
from levelset.mesh import build_structured, metric
from levelset.redistance import ProjectionOperator, RedistanceParams, project_function
from levelset.transport import (
    ConservationError,
    PicardError,
    TimeState,
    TransportIntegrator,
    TransportParams,
    assemble_supg,
    capturing_kappa,
    stabilization_tau,
    step,
    volume_correction,
)


def constant_velocity(u):
    u = np.asarray(u, dtype=np.float64)

    def vel(x, t):
        return np.broadcast_to(u, np.shape(x)).copy()

    return vel


def test_stabilization_tau_zero_velocity():
    pair = metric(unit_square(10), 0, [0.5, 0.5])
    assert stabilization_tau([0.0, 0.0], pair, 0.1) == pytest.approx(10.0, rel=1e-14)


def test_stabilization_tau_large_dt_limit():
    pair = metric(unit_square(10), 0, [0.5, 0.5])
    # with the temporal term vanishing, axis-aligned unit speed leaves the
    # element width; only the conventional form has a vanishing temporal term
    # for large steps (the printed form's tends to 1/dt instead)
    assert stabilization_tau([1.0, 0.0], pair, 1e9,
                             form="conventional") == pytest.approx(0.1, rel=1e-9)
    assert stabilization_tau([1.0, 0.0], pair, 1e9) == pytest.approx(1e-9, rel=1e-6)


def test_stabilization_tau_generic_oracle(rng):
    pair = metric(unit_square(7), 0, [0.3, 0.8])
    for _ in range(5):
        u = rng.standard_normal(2)
        dt = float(rng.uniform(0.01, 2.0))
        oracle = 1.0 / np.sqrt(dt**2 + u @ pair.G @ u)
        assert stabilization_tau(u, pair, dt) == pytest.approx(oracle, rel=1e-14)
        conv = 1.0 / np.sqrt((2.0 / dt) ** 2 + u @ pair.G @ u)
        assert stabilization_tau(u, pair, dt, form="conventional") == pytest.approx(
            conv, rel=1e-14)


def test_stabilization_tau_decreases_with_dt_at_rest():
    pair = metric(unit_square(10), 0, [0.5, 0.5])
    dts = np.linspace(0.05, 1.0, 30)
    taus = [stabilization_tau([0.0, 0.0], pair, dt) for dt in dts]
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
    new = step(state, constant_velocity([0.0, 0.0]), params)
    assert np.abs(new.phi.coeffs - (phi.coeffs + 0.25)).max() < 1e-10
    assert new.t == pytest.approx(0.05)


def test_supg_matrix_nonsymmetric_for_nonzero_velocity():
    patch = unit_square(6)
    phi = project_function(patch, lambda x: x[..., 0])
    state = TimeState(phi)
    params = TransportParams(dt=0.05, capturing_c=0.0)
    system = assemble_supg(phi, state, constant_velocity([0.7, 0.1]), params, patch)
    a = system.to_dense()
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
    system = assemble_supg(exact1, state, constant_velocity(u), params, patch)
    resid = system.matvec(exact1.coeffs) - system.rhs
    assert np.linalg.norm(resid) / np.linalg.norm(system.rhs) < 1e-9


def test_frozen_reversal_time_velocity_is_fixed_point():
    from levelset.benchmarks import vortex2d_velocity

    patch = unit_square(10)
    phi = project_function(
        patch, lambda x: 0.15 - np.linalg.norm(x - np.array([0.5, 0.75]), axis=-1))
    frozen = lambda x, t: vortex2d_velocity(x, 4.0)
    params = TransportParams(dt=0.05, capturing_c=1.0, volume_conserve=False,
                             rel_tol=1e-12)
    state = TimeState(phi)
    new = step(state, frozen, params)
    assert np.abs(new.phi.coeffs - phi.coeffs).max() < 1e-10


def rotation_velocity(center, omega=1.0):
    center = np.asarray(center)

    def vel(x, t):
        d = x - center
        return omega * np.stack([-d[..., 1], d[..., 0]], axis=-1)

    return vel


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
    from levelset.benchmarks import vortex2d_velocity

    patch = unit_square(12)
    phi0 = project_function(
        patch, lambda x: 0.15 - np.linalg.norm(x - np.array([0.5, 0.75]), axis=-1))

    def pair_error(dt, form):
        params = TransportParams(dt=dt, capturing_c=0.0, volume_conserve=False,
                                 rel_tol=1e-12, tau_form=form)
        forward = TransportIntegrator(patch, vortex2d_velocity, params)
        state = forward.step(TimeState(phi0))
        reversed_vel = lambda x, t: -vortex2d_velocity(x, dt - t)
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
        integ.step(TimeState(phi))
    assert len(err.value.trace) >= 1


def test_volume_correction_noop_when_conserved():
    patch = unit_square(10)
    phi = project_function(
        patch, lambda x: 0.15 - np.linalg.norm(x - np.array([0.5, 0.75]), axis=-1))
    hv = HeavisideParams(2.0)
    rd = RedistanceParams(kappa_d=0.0)
    op = ProjectionOperator(patch, 0.0)
    from levelset.redistance import redistance_field

    sd = redistance_field(phi, rd, op=op)
    _, v1 = subdomain_volumes(sd, hv, patch)
    shift = volume_correction(phi, v1, hv, rd, op=op)
    assert abs(shift) < 1e-12


def test_volume_correction_linear_shift_vs_bisection():
    # unit-width elements make the scaled distance equal phi itself
    patch = build_structured([(0.0, 12.0)], [12], 1)
    phi = project_function(patch, lambda x: x[..., 0] - 5.5)
    hv = HeavisideParams(2.0)
    rd = RedistanceParams(kappa_d=0.0)
    from levelset.redistance import redistance_field

    sd = redistance_field(phi, rd)
    _, v1 = subdomain_volumes(sd, hv, patch)
    target = v1 - 0.8
    shift = volume_correction(phi, target, hv, rd)
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
        volume_correction(phi, 2.0, hv, rd)  # exceeds the domain measure


def test_stepwise_conservation_independent_check():
    from levelset.benchmarks import vortex2d_velocity
    from levelset.redistance import redistance_field

    patch = unit_square(16)
    phi = project_function(
        patch, lambda x: 0.15 - np.linalg.norm(x - np.array([0.5, 0.75]), axis=-1))
    hv = HeavisideParams(2.0)
    rd = RedistanceParams(kappa_d=1.0)
    params = TransportParams(dt=0.025, capturing_c=1.0, picard_tol=1e-6,
                             picard_max=60)
    integ = TransportIntegrator(patch, vortex2d_velocity, params, rd, hv)
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

    def record(system, rel_tol=1e-10, max_iter=None, x0=None):
        calls.append((system, np.array(x0)))
        return real(system, rel_tol=rel_tol, max_iter=max_iter, x0=x0)

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
    assert rel_diff(relaxed.values, oracle.values) <= 1e-13
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
    assert np.array_equal(system.values, oracle.values)
    assert np.array_equal(system.rhs, oracle.rhs)


def test_vortex2d_picard_solve_counts_per_step(monkeypatch):
    # per-step Picard solve counts of the coarse vortex, recorded with the
    # earlier element-level assembly of both systems per iteration
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
    run_vortex2d(CaseConfig("vortex2d", mesh_n=10, degree=1, t_end=1.0, vtk=False))
    assert counts == [7, 6, 7, 7, 7, 6, 6, 6, 5, 4, 4, 5, 6, 6, 6, 6, 6, 6, 6, 6]
