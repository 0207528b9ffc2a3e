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
to ``rel_tol``.

Every solve of a step is passed one ``linalg.KeptFactor``. On the direct
(block-LU) path, the step's first system is factored and solved exactly; its
later relaxed systems are refined from the previous guess against those
factors to their own inexact tolerance, and factored themselves only when
refinement stops contracting.

Each step's Picard loop starts from the linear extrapolation 2 phi^n -
phi^(n-1) of the effective coefficients phi + phi_prime, a second-order
predictor: the guess of the extrapolated Crank-Nicolson linearizations
(Baker, Dougalis & Karakashian, Math. Comp. 39(160), 1982). phi^(n-1)
travels in the incoming :class:`TimeState` as ``older``, so a step stays a
function of its input; a state without it (the first step, or one built by
hand) starts from phi^n. The extrapolation assumes that ``older`` is one
step of the same ``dt`` back. A wrong ``older`` costs iterations, not
accuracy: the unrelaxed residual test still decides acceptance, and a
predictor that passes it is accepted with no solve at all. Without
capturing there is no loop, and the one solve starts from phi^n.

Two pieces of per-step work are cut to what depends on time:

* The velocity is a :class:`SeparableVelocity`, u(x, t) = f(t) u0(x), the
  one form the integrator takes (every case's time-reversed deformation
  field has it: LeVeque, SIAM J. Numer. Anal. 33(2), 1996). u0 is evaluated
  once: the integrator keeps u0.grad N and u0.G u0 at the quadrature points
  from set-up, and each step scales them by f and f^2.
* The volume shift s is solved on the interface band. Outside
  |phi_hat| < alpha + R g, with R = BAND_MARGIN alpha / median(g) in shift
  units, every shift |s| <= R leaves the regularized step exactly 0 or 1 and
  its derivative exactly 0. Those points enter once, as the constant weight
  above the band, and each Newton evaluation sums the band only. An iterate
  beyond R widens the band (counted in :class:`StepInfo`), up to every point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fields import (ScalarField, check_setting, heaviside_band_derivative,
                     regularized_heaviside, subdomain_volumes)
from .linalg import KeptFactor, RootFindingError, scalar_newton, solve_nonsymmetric
from .gram import ParametricGram
from .redistance import PositivityError, ProjectionOperator, redistance_field

# forcing factor of the inexact Picard loop: each relaxed system is solved to
# ETA times the unrelaxed residual of its starting guess (see module docstring).
# On the 16^3 vortex, 1e-3 keeps every step's Picard count and moves the L1
# Heaviside error by 1.5e-5 relative; 1e-2 moves it by 2.5e-4
ETA = 1e-3

# half-width of the interface band of the volume shift, beyond |phi_hat| < alpha,
# in units of alpha / median(g): on the 16^3 vortex the band holds 17-18% of
# the quadrature points and no shift leaves it
BAND_MARGIN = 0.5


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
        for name in ("dt", "picard_tol", "rel_tol"):
            check_setting(name, getattr(self, name))
        check_setting("capturing_c", self.capturing_c, positive=False)
        if not self.picard_max >= 1:
            raise ValueError(f"picard_max must be at least 1, got {self.picard_max}")
        if self.tau_form not in ("printed", "conventional"):
            raise ValueError("tau_form must be 'printed' or 'conventional'")


@dataclass
class TimeState:
    """Level set plus the global conservation shift of the completed step.

    ``step`` counts the steps completed, so the next one is ``step + 1``.
    ``older`` holds the effective coefficients phi + phi_prime of the state
    this one was stepped from, one step of the same ``dt`` back; the next
    step's Picard loop starts from their extrapolation (see the module
    docstring). It is None for a state without a predecessor, and it takes
    no part in equality.
    """

    phi: ScalarField
    phi_prime: float = 0.0
    t: float = 0.0
    step: int = 0
    older: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.phi_prime):
            raise ValueError("conservation shift must be finite")
        if self.older is not None and np.shape(self.older) != self.phi.coeffs.shape:
            raise ValueError(f"older coefficients have shape {np.shape(self.older)}, "
                             f"the level set {self.phi.coeffs.shape}")

    def effective(self):
        """The corrected level set phi + phi_prime actually in effect."""
        return self.phi.shifted(self.phi_prime)


@dataclass
class StepInfo:
    """What one :meth:`TransportIntegrator.step` did.

    The Picard record: ``picard_trace`` holds the unrelaxed relative residual
    of each guess (empty without capturing); ``inner_tols`` the relative
    tolerance given to each linear solve (empty with capturing on when the
    predictor itself was accepted); ``refine_sweeps`` the refinement sweeps of
    each solve against the step's kept factor (empty on the Krylov path and
    without capturing); ``refactors`` how many of those solves gave up and
    factored their own system; ``krylov_fallbacks`` how many direct solves
    missed their tolerance and went on to Krylov.

    The volume record, left at its defaults without volume conservation: the
    achieved ``volume`` and the shift ``correction``; ``shift_evals``, the
    evaluations of the volume function; ``shift_bracketed``, whether Newton
    from zero failed and the shift was bracketed; ``shift_widenings``, the
    interface-band widenings; and ``clamped``, the quadrature points at
    which the positivity clamp floored the new level set's scaling.
    """

    picard_trace: list
    inner_tols: list
    refine_sweeps: list
    refactors: int
    krylov_fallbacks: int
    volume: float = float("nan")
    correction: float = 0.0
    shift_evals: int = 0
    shift_bracketed: bool = False
    shift_widenings: int = 0
    clamped: int = 0


@dataclass(frozen=True)
class SeparableVelocity:
    """A velocity u(x, t) = factor(t) * field(x), a spatial field times a
    time factor: the form :class:`TransportIntegrator` takes.

    ``field`` maps the quadrature points (nel, nq, dim) to vectors of the
    same shape; the integrator evaluates it once, at set-up. ``factor`` maps
    a time to a scalar and is evaluated once per step, at its midpoint. A
    steady field has the factor ``lambda t: 1.0``.
    """

    field: Callable
    factor: Callable


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


class TransportIntegrator:
    """Caches mesh-bound data so repeated steps stay cheap.

    ``velocity`` is a :class:`SeparableVelocity` f(t) u0(x); anything else
    raises ``TypeError``, and a field whose values at the quadrature points
    are not of their (nel, nq, dim) shape raises ``ValueError``. Set-up keeps
    u0.grad N (nel, nq, nen) and u0.G u0 (nel, nq), and each step forms
    u.grad N = f u0.grad N and u.Gu = f^2 u0.G u0 from them, with f taken at
    the half-step time.

    The half-step system is A = M/dt + K/2 + S/2 with right-hand side
    (M/dt - K/2 - S/2) phi_old, where M and K are the streamline-weighted
    mass and convection matrices and S the capturing diffusion. Work is
    split by what it depends on: M/dt +- K/2 is assembled into CSR values
    once per step, and each Picard iteration builds one capturing matrix
    S(kappa) and adds it to those values.

    With volume conservation on, the shift that restores the target volume
    is a scalar Newton solve summed over the interface band only (see the
    module docstring).

    ``last_info`` is the :class:`StepInfo` of the latest step, None before
    the first.
    """

    def __init__(self, patch, velocity, params, redistance_params=None,
                 heaviside_params=None):
        if not isinstance(velocity, SeparableVelocity):
            raise TypeError("velocity must be a SeparableVelocity factor(t) * field(x), "
                            f"got {type(velocity).__name__}")
        self.patch = patch
        self.velocity = velocity
        self.params = params
        self.rd_params = redistance_params
        self.hv_params = heaviside_params
        self.pattern = patch.csr_pattern()
        tab = patch.tabulation()
        # the time-independent velocity work: u0.grad N and u0.G u0
        u0 = np.asarray(velocity.field(tab.x), dtype=np.float64)
        if u0.shape != tab.x.shape:
            raise ValueError(f"velocity field gave shape {u0.shape} at the quadrature "
                             f"points; expected (nel, nq, dim) = {tab.x.shape}")
        self._ugn0 = (tab.field_dN @ (tab.Jinv @ u0[..., None]))[..., 0]
        self._ugu0 = np.einsum("eqi,eqi->eq", np.einsum("eqij,eqj->eqi", tab.G, u0), u0)
        # S[a,b] = sum_q (wdet kappa) sum_d dN[q,a,d] dN[q,b,d]
        self._capturing_gram = ParametricGram(tab, mass=0.0, stiffness=1.0)
        self.last_info = None
        self.proj_op = None
        if redistance_params is not None:
            self.proj_op = ProjectionOperator(patch, redistance_params.kappa_d,
                                              rel_tol=redistance_params.rel_tol)

    # -- assembly pieces ------------------------------------------------

    def _advective_parts(self, t_mid):
        tab = self.patch.tabulation()
        f = float(self.velocity.factor(t_mid))
        ugu = (f * f) * self._ugu0
        u_grad_n = f * self._ugn0
        tau = _tau_from_quad(ugu, self.params.dt, self.params.tau_form)
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

    def _capturing_parts(self, u_grad_n, guess, prev, prev_e):
        """CSR values of S(kappa(guess)) and the dof vector S phi_old, one
        matvec with the values just summed."""
        conn = self.patch.tabulation().field_conn
        s_e = self._capturing_matrix(self._capturing_kappa_qp(u_grad_n, guess[conn], prev_e))
        s = self.pattern.values(s_e)
        return s, self.pattern.csr(s) @ prev

    def assemble(self, state, guess_coeffs=None):
        """The half-step convection system for the given lagged iterate."""
        prev, prev_e, u_grad_n, a0, rhs0 = self._step_parts(state)
        if self.params.capturing_c == 0.0:
            return self.pattern.matrix(a0, rhs0)
        guess = prev if guess_coeffs is None else np.asarray(guess_coeffs, dtype=np.float64)
        s, s_prev = self._capturing_parts(u_grad_n, guess, prev, prev_e)
        return self.pattern.matrix(a0 + 0.5 * s, rhs0 - 0.5 * s_prev)

    # -- stepping ---------------------------------------------------------

    def _solve_convection(self, state):
        """New coefficients, the unrelaxed relative residual of each Picard
        guess, the relative tolerance given to each linear solve, and the
        step's :class:`KeptFactor`, passed to every solve, which records the
        refinement of the later solves and the Krylov fallbacks (see the
        module docstring)."""
        params = self.params
        pattern = self.pattern
        # M/dt +- K/2 do not depend on the iterate: formed once per step
        prev, prev_e, u_grad_n, a0, rhs0 = self._step_parts(state)
        kept = KeptFactor()
        if params.capturing_c == 0.0:
            coeffs = solve_nonsymmetric(pattern.matrix(a0, rhs0), rel_tol=params.rel_tol,
                                        x0=prev, kept=kept)
            return coeffs, [], [params.rel_tol], kept
        # the extrapolated predictor; 2p - p is p exactly, so older == prev
        # starts where a state without a predecessor does
        guess = prev.copy() if state.older is None else 2.0 * prev - state.older
        trace = []
        inner_tols = []
        s_bar = s_prev_bar = None
        while True:
            # one capturing matrix per iteration, at kappa of the current guess
            s, s_prev = self._capturing_parts(u_grad_n, guess, prev, prev_e)
            system = pattern.matrix(a0 + 0.5 * s, rhs0 - 0.5 * s_prev)
            resid = system.matrix @ guess - system.rhs
            rel = np.linalg.norm(resid) / max(np.linalg.norm(system.rhs), 1e-300)
            trace.append(rel)
            if rel <= params.picard_tol:
                return guess, trace, inner_tols, kept
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
            guess = solve_nonsymmetric(relaxed, rel_tol=inner_tols[-1], x0=guess, kept=kept)

    def step(self, state, target_v1=None):
        """Advance one time step; returns the new state, which carries the
        incoming state's effective coefficients as ``older``, and sets
        ``last_info`` to the step's :class:`StepInfo`.

        With volume conservation enabled, the configured scaled-distance
        alternative is rebuilt from the new level set and a global shift is
        solved for so the step ends at ``target_v1`` (default: the volume
        the incoming state carries).
        """
        new_coeffs, trace, inner_tols, kept = self._solve_convection(state)
        phi_new = ScalarField(self.patch, new_coeffs)
        # set before the volume block, so a step that raises there leaves
        # its Picard record readable
        self.last_info = info = StepInfo(trace, inner_tols, kept.sweeps, kept.refactors,
                                         kept.krylov_fallbacks)
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
            info.correction, info.volume, vol = _shift_for_volume(sd, target_v1,
                                                                  self.hv_params, self.patch)
            info.shift_evals, info.shift_bracketed = vol.evals, vol.bracketed
            info.shift_widenings, info.clamped = vol.widenings, sd.clamped
        return TimeState(phi_new, info.correction, state.t + self.params.dt, state.step + 1,
                         older=state.phi.coeffs + state.phi_prime)

    def scaled_distance(self, state):
        """Scaled distance of the state's effective level set."""
        return redistance_field(state.effective(), self.rd_params, op=self.proj_op)


class _BandVolume:
    """The volume function f(s) = V1(phi_hat + s g) - target and its
    derivative, summed over the interface band of the shifts |s| <= radius.

    A point with |phi_hat| >= alpha + radius g stays where the regularized
    step is exactly 0 or 1 and its derivative exactly 0 for every such
    shift; the weights of those above the band are summed once, as a
    constant. An evaluation beyond the radius first widens the band to twice
    that shift, or to every point, and counts the widening. ``evals`` counts
    the evaluations of f, and :func:`_shift_for_volume` sets ``bracketed``
    when Newton from zero failed and it bracketed the root.
    """

    def __init__(self, vals, g, wdet, hv_params, target, radius):
        self.vals, self.g, self.wdet = vals.ravel(), g.ravel(), wdet.ravel()
        self.hv_params = hv_params
        self.target = target
        self.evals = 0
        self.widenings = 0
        self.bracketed = False
        self._select(radius)

    def _select(self, radius):
        band = np.abs(self.vals) < self.hv_params.alpha + radius * self.g
        if band.all():
            # every point: none lies above the band, and no shift leaves it
            self.radius, self.above = np.inf, 0.0
            self.band = self.vals, self.g, self.wdet
        else:
            self.radius = radius
            self.above = float(np.sum(self.wdet[~band & (self.vals > 0.0)]))
            self.band = self.vals[band], self.g[band], self.wdet[band]

    def _cover(self, s):
        if abs(s) > self.radius:
            self.widenings += 1
            self._select(2.0 * abs(s))

    def f(self, s):
        self._cover(s)
        self.evals += 1
        vals, g, wdet = self.band
        h = regularized_heaviside(vals + s * g, self.hv_params)
        return self.above + float(np.sum(wdet * h)) - self.target

    def fp(self, s):
        self._cover(s)
        vals, g, wdet = self.band
        return float(np.sum(wdet * heaviside_band_derivative(vals + s * g,
                                                             self.hv_params.alpha) * g))


def _shift_for_volume(sd, target_v1, hv_params, patch):
    """Scalar shift s with V1(phi + s) = target_v1.

    Returns (s, achieved V1, the :class:`_BandVolume` solved), whose
    ``evals`` (the final one included), ``widenings`` and ``bracketed``
    record the solve.

    Uses that every alternative responds affinely to a constant shift:
    phi_hat(phi + s) = phi_hat(phi) + s * g with g > 0 pointwise, so the
    volume is monotone in s and the derivative is analytic. Both are summed
    over the interface band (see :class:`_BandVolume` and the module
    docstring); the points outside it change the sums only in order.
    """
    tab = patch.tabulation()
    wdet = tab.wdet
    measure = float(wdet.sum())
    if not 0.0 < target_v1 < measure:
        raise ConservationError(
            f"target volume {target_v1:g} outside (0, {measure:g})"
        )
    g = sd.shift_response_qp()
    # the shift that moves a typical point across the band's half-width
    scale = hv_params.alpha / max(float(np.median(g)), 1e-300)
    vol = _BandVolume(sd.quadrature_values(), g, wdet, hv_params, target_v1,
                      BAND_MARGIN * scale)

    def solved(root):
        return root, target_v1 + vol.f(root), vol

    tol = 1e-13 * max(1.0, measure)
    try:
        return solved(scalar_newton(vol.f, vol.fp, 0.0, tol=tol, max_iter=100))
    except RootFindingError:
        pass
    # geometric bracket growth around zero; f is monotone increasing in s
    vol.bracketed = True
    radius = scale
    for _ in range(60):
        if vol.f(-radius) <= 0.0 <= vol.f(radius):
            return solved(scalar_newton(vol.f, vol.fp, 0.0, tol=tol, max_iter=200,
                                        bracket=(-radius, radius)))
        radius *= 2.0
    raise ConservationError("could not bracket the volume-restoring shift")
