"""Streamline-upwind stabilized level-set convection with volume control.

One step solves the midpoint-in-time convection system

    (w + tau u.grad w, phi_t + u.grad phi) + (grad_xi w, kappa_c grad_xi phi) = 0

with phi_t = (phi_new - (phi_old + correction_old)) / dt and the convective
terms evaluated at the half step. The residual-proportional capturing
diffusion kappa_c is relinearized by Picard iteration (fixed point in the
lagged residual). After the solve, the configured scaled-distance
alternative feeds a scalar root solve that shifts the level set to restore
the target subdomain volume.

The Picard loop is inexact: a step is accepted once the unrelaxed residual
of the current guess is at most ``picard_tol``, so each relaxed system is
solved only to ``max(rel_tol, ETA * rel)``, with ``rel`` the unrelaxed
relative residual of the guess it starts from (an Eisenstat-Walker forcing
term: Eisenstat & Walker, SIAM J. Sci. Comput. 17(1), 1996). Inner accuracy
far below the outer residual is invisible to that acceptance test and only
adds Krylov iterations. While capturing is on, ``rel_tol`` is therefore the
floor of the inner tolerance; without capturing there is one linear solve,
to ``rel_tol``. Direct block-LU solves are exact whatever the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (ScalarField, heaviside_band_derivative, regularized_heaviside,
                     subdomain_volumes)
from .linalg import RootFindingError, scalar_newton, solve_nonsymmetric
from .gram import ParametricGram
from .redistance import PositivityError, ProjectionOperator, redistance_field

# forcing factor of the inexact Picard loop: each relaxed system is solved to
# ETA times the unrelaxed residual of its starting guess (see module docstring).
# On the 16^3 vortex, 1e-3 keeps every step's Picard count and moves the L1
# Heaviside error by 1.5e-5 relative; 1e-2 moves it by 2.5e-4
ETA = 1e-3


class PicardError(RuntimeError):
    """Fixed-point relinearization did not converge; carries the residual
    trace and the index ``step``, start time ``t`` and length ``dt`` of the
    failed step."""

    def __init__(self, trace, t=float("nan"), dt=float("nan"), step=None):
        where = "the step" if step is None else f"step {step}"
        super().__init__(
            f"Picard iteration did not converge in {where} from t={t:.6g} with "
            f"dt={dt:.6g}; relative residual trace: "
            + ", ".join(f"{r:.3e}" for r in trace)
        )
        self.trace = list(trace)
        self.t = t
        self.dt = dt
        self.step = step


class ConservationError(RuntimeError):
    """The volume-restoring shift could not be bracketed or reached."""


@dataclass
class TransportParams:
    """Time step, capturing constant and nonlinear/solver controls.

    ``rel_tol`` is the relative tolerance of the linear solve when capturing
    is off. While capturing is on, it is the floor of the inexact inner
    tolerance ``max(rel_tol, ETA * rel)`` (see the module docstring).
    """

    dt: float
    capturing_c: float = 1.0
    picard_tol: float = 1e-8
    picard_max: int = 20
    volume_conserve: bool = True
    tau_form: str = "printed"
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("time step must be positive")
        if self.capturing_c < 0:
            raise ValueError("capturing constant must be nonnegative")
        if self.tau_form not in ("printed", "conventional"):
            raise ValueError("tau_form must be 'printed' or 'conventional'")


@dataclass
class TimeState:
    """Level set plus the global conservation shift of the completed step.

    ``step`` counts the steps completed, so the next one is ``step + 1``.
    """

    phi: ScalarField
    phi_prime: float = 0.0
    t: float = 0.0
    step: int = 0

    def __post_init__(self):
        if not np.isfinite(self.phi_prime):
            raise ValueError("conservation shift must be finite")

    def effective(self):
        """The corrected level set phi + phi_prime actually in effect."""
        return self.phi.shifted(self.phi_prime)


def _tau_from_quad(ugu, dt, form):
    """Streamline stabilization time scale from u.Gu, G the metric of the
    tabulation.

    ``form='printed'`` follows (dt^2 + u.Gu)^(-1/2) exactly;
    ``form='conventional'`` switches the temporal term to (2/dt)^2.
    """
    if form == "printed":
        return 1.0 / np.sqrt(dt * dt + ugu)
    return 1.0 / np.sqrt((2.0 / dt) ** 2 + ugu)


def capturing_kappa(residual, c):
    """Residual-proportional capturing diffusion (vanishes on exact solutions)."""
    out = c * np.abs(np.asarray(residual, dtype=np.float64))
    return float(out) if np.isscalar(residual) else out


def _physical_gradients(tab):
    """Physical basis gradients dN Jinv (nel, nq, nen, dim), summed over k in
    index order: the rounding of einsum("eqak,eqkd->eqad"), 2-5x faster."""
    dn, jinv = tab.field_dN, tab.Jinv
    dim = dn.shape[-1]
    out = np.empty(dn.shape)
    for d in range(dim):
        acc = dn[..., 0] * jinv[..., None, 0, d]
        for k in range(1, dim):
            acc += dn[..., k] * jinv[..., None, k, d]
        out[..., d] = acc
    return out


class TransportIntegrator:
    """Caches mesh-bound data so repeated steps stay cheap.

    ``velocity`` is a callable of (points, t) -> velocity vectors, evaluated
    at the quadrature points and the half-step time.

    The half-step system is A = M/dt + K/2 + S/2 with right-hand side
    (M/dt - K/2 - S/2) phi_old, where M and K are the streamline-weighted
    mass and convection matrices and S the capturing diffusion. Work is
    split by what it depends on: M/dt +- K/2 is assembled into CSR values
    once per step, and each Picard iteration builds one capturing matrix
    S(kappa) and adds it to those values.
    """

    def __init__(self, patch, velocity, params, redistance_params=None,
                 heaviside_params=None):
        self.patch = patch
        self.velocity = velocity
        self.params = params
        self.rd_params = redistance_params
        self.hv_params = heaviside_params
        self.pattern = patch.csr_pattern()
        tab = patch.tabulation()
        # geometry-bound, time-independent physical basis gradients
        self._grad_n_phys = _physical_gradients(tab)
        # S[a,b] = sum_q (wdet kappa) sum_d dN[q,a,d] dN[q,b,d]
        self._capturing_gram = ParametricGram(tab, mass=0.0, stiffness=1.0)
        self.last_info = {}
        self.proj_op = None
        if redistance_params is not None:
            self.proj_op = ProjectionOperator(patch, redistance_params.kappa_d,
                                              rel_tol=redistance_params.rel_tol)

    # -- assembly pieces ------------------------------------------------

    def _advective_parts(self, t_mid):
        tab = self.patch.tabulation()
        u = np.asarray(self.velocity(tab.x, t_mid), dtype=np.float64)
        # u.Gu in two contractions: faster than one three-operand einsum
        ugu = np.einsum("eqi,eqi->eq", np.einsum("eqij,eqj->eqi", tab.G, u), u)
        tau = _tau_from_quad(ugu, self.params.dt, self.params.tau_form)
        u_grad_n = (self._grad_n_phys @ u[..., None])[..., 0]
        w_supg = tab.field_N + tau[..., None] * u_grad_n
        # batched GEMMs: M[a,b] = sum_q wdet W[q,a] N[q,b], likewise for K
        wt = (w_supg * tab.wdet[..., None]).swapaxes(1, 2)
        m_e = wt @ tab.field_N
        k_e = wt @ u_grad_n
        return u_grad_n, m_e, k_e

    def _capturing_kappa_qp(self, u_grad_n, guess_e, prev_e):
        tab = self.patch.tabulation()
        dt = self.params.dt
        mid_e = 0.5 * (guess_e + prev_e)
        resid = (
            (tab.field_N @ ((guess_e - prev_e) / dt)[..., None])[..., 0]
            + (u_grad_n @ mid_e[..., None])[..., 0]
        )
        return capturing_kappa(resid, self.params.capturing_c)

    def _capturing_matrix(self, kappa):
        return self._capturing_gram(self.patch.tabulation().wdet * kappa)

    def _step_parts(self, state):
        """Iterate-independent pieces of one step: the lagged coefficients,
        u.grad N, and the CSR values and right-hand side of M/dt +- K/2."""
        dt = self.params.dt
        prev = state.phi.coeffs + state.phi_prime
        prev_e = prev[self.patch.tabulation().field_conn]
        u_grad_n, m_e, k_e = self._advective_parts(state.t + 0.5 * dt)
        a0 = self.pattern.values(m_e / dt + 0.5 * k_e)
        b_e = m_e / dt - 0.5 * k_e
        rhs0 = self.patch.scatter_dofs((b_e @ prev_e[..., None])[..., 0])
        return prev, prev_e, u_grad_n, a0, rhs0

    def _capturing_parts(self, u_grad_n, guess, prev_e):
        """CSR values of S(kappa(guess)) and the dof vector S phi_old."""
        conn = self.patch.tabulation().field_conn
        s_e = self._capturing_matrix(self._capturing_kappa_qp(u_grad_n, guess[conn], prev_e))
        s_prev = self.patch.scatter_dofs((s_e @ prev_e[..., None])[..., 0])
        return self.pattern.values(s_e), s_prev

    def assemble(self, state, guess_coeffs=None):
        """The half-step convection system for the given lagged iterate."""
        prev, prev_e, u_grad_n, a0, rhs0 = self._step_parts(state)
        if self.params.capturing_c == 0.0:
            return self.pattern.matrix(a0, rhs0)
        guess = prev if guess_coeffs is None else np.asarray(guess_coeffs, dtype=np.float64)
        s, s_prev = self._capturing_parts(u_grad_n, guess, prev_e)
        return self.pattern.matrix(a0 + 0.5 * s, rhs0 - 0.5 * s_prev)

    # -- stepping ---------------------------------------------------------

    def _solve_convection(self, state):
        """New coefficients, the unrelaxed relative residual of each Picard
        guess, and the relative tolerance given to each linear solve."""
        params = self.params
        pattern = self.pattern
        # M/dt +- K/2 do not depend on the iterate: formed once per step
        prev, prev_e, u_grad_n, a0, rhs0 = self._step_parts(state)
        if params.capturing_c == 0.0:
            coeffs = solve_nonsymmetric(pattern.matrix(a0, rhs0), rel_tol=params.rel_tol,
                                        x0=prev)
            return coeffs, [], [params.rel_tol]
        guess = prev.copy()
        trace = []
        inner_tols = []
        s_bar = s_prev_bar = None
        while True:
            # one capturing matrix per iteration, at kappa of the current guess
            s, s_prev = self._capturing_parts(u_grad_n, guess, prev_e)
            system = pattern.matrix(a0 + 0.5 * s, rhs0 - 0.5 * s_prev)
            resid = system.matrix @ guess - system.rhs
            rel = np.linalg.norm(resid) / max(np.linalg.norm(system.rhs), 1e-300)
            trace.append(rel)
            if rel <= params.picard_tol:
                return guess, trace, inner_tols
            if len(trace) > params.picard_max:
                raise PicardError(trace, state.t, params.dt, state.step + 1)
            # under-relax the lagged coefficient: the abs-value kink makes the
            # undamped fixed point oscillate on under-resolved fields. S is
            # linear in kappa, so S(kappa_bar) with kappa_bar <- (kappa_bar +
            # kappa) / 2 is the same average of assembled values, and mixing
            # those saves building a second capturing matrix at kappa_bar
            if s_bar is None:
                s_bar, s_prev_bar = s, s_prev
            else:
                s_bar = 0.5 * (s_bar + s)
                s_prev_bar = 0.5 * (s_prev_bar + s_prev)
            relaxed = pattern.matrix(a0 + 0.5 * s_bar, rhs0 - 0.5 * s_prev_bar)
            inner_tols.append(max(params.rel_tol, ETA * rel))
            guess = solve_nonsymmetric(relaxed, rel_tol=inner_tols[-1], x0=guess)

    def step(self, state, target_v1=None):
        """Advance one time step; returns the new state.

        With volume conservation enabled, the configured scaled-distance
        alternative is rebuilt from the new level set and a global shift is
        solved for so the step ends at ``target_v1`` (default: the volume
        the incoming state carries).

        ``last_info`` then holds the step's ``volume`` and ``correction``,
        its Picard record ``picard_trace`` (the unrelaxed relative residual
        of each guess; empty without capturing) and ``inner_tols`` (the
        relative tolerance given to each linear solve).
        """
        new_coeffs, trace, inner_tols = self._solve_convection(state)
        phi_new = ScalarField(self.patch, new_coeffs)
        new_prime = 0.0
        self.last_info = {"volume": float("nan"), "correction": 0.0,
                          "picard_trace": trace, "inner_tols": inner_tols}
        if self.params.volume_conserve:
            if self.rd_params is None or self.hv_params is None:
                raise ValueError("volume conservation needs redistancing and "
                                 "interface-width parameters")
            try:
                if target_v1 is None:
                    sd_prev = redistance_field(state.effective(), self.rd_params,
                                               op=self.proj_op)
                    target_v1 = subdomain_volumes(sd_prev, self.hv_params, self.patch)[1]
                sd = redistance_field(phi_new, self.rd_params, op=self.proj_op)
            except PositivityError as exc:
                exc.in_step(state.step + 1, state.t)
                raise
            new_prime, achieved = _shift_for_volume(sd, target_v1, self.hv_params,
                                                    self.patch)
            self.last_info.update(volume=achieved, correction=new_prime)
        return TimeState(phi_new, new_prime, state.t + self.params.dt, state.step + 1)

    def scaled_distance(self, state):
        """Scaled distance of the state's effective level set."""
        return redistance_field(state.effective(), self.rd_params, op=self.proj_op)


def _shift_for_volume(sd, target_v1, hv_params, patch, tol=None):
    """Scalar shift s with V1(phi + s) = target_v1; returns (s, achieved V1).

    Uses that every alternative responds affinely to a constant shift:
    phi_hat(phi + s) = phi_hat(phi) + s * g with g > 0 pointwise, so the
    volume is monotone in s and the derivative is analytic.
    """
    tab = patch.tabulation()
    wdet = tab.wdet
    measure = float(wdet.sum())
    if not 0.0 < target_v1 < measure:
        raise ConservationError(
            f"target volume {target_v1:g} outside (0, {measure:g})"
        )
    vals = sd.quadrature_values()
    g = sd.shift_response_qp()
    alpha = hv_params.alpha

    def f(s):
        return float(np.sum(wdet * regularized_heaviside(vals + s * g, hv_params))) - target_v1

    def fp(s):
        return float(np.sum(wdet * heaviside_band_derivative(vals + s * g, alpha) * g))

    if tol is None:
        tol = 1e-13 * max(1.0, measure)
    try:
        root = scalar_newton(f, fp, 0.0, tol=tol, max_iter=100)
        return root, target_v1 + f(root)
    except RootFindingError:
        pass
    # geometric bracket growth around zero; f is monotone increasing in s
    scale = alpha / max(float(np.median(g)), 1e-300)
    radius = scale
    for _ in range(60):
        if f(-radius) <= 0.0 <= f(radius):
            root = scalar_newton(f, fp, 0.0, tol=tol, max_iter=200,
                                 bracket=(-radius, radius))
            return root, target_v1 + f(root)
        radius *= 2.0
    raise ConservationError("could not bracket the volume-restoring shift")
