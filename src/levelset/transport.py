"""Streamline-upwind stabilized level-set convection with volume control.

One step solves the midpoint-in-time convection system

    (w + tau u.grad w, phi_t + u.grad phi) + (grad_xi w, kappa_c grad_xi phi) = 0

with phi_t = (phi_new - (phi_old + correction_old)) / dt and the convective
terms evaluated at the half step. The residual-proportional capturing
diffusion kappa_c is relinearized by Picard iteration (fixed point in the
lagged residual). After the solve, the configured scaled-distance
alternative feeds a scalar root solve that shifts the level set to restore
the target subdomain volume.

A step is carried by the streamline test function W = N + tau u.grad N and
the operators P+- = N/dt +- (u.grad N) / 2 at the quadrature points (Brooks
& Hughes, Comput. Methods Appl. Mech. Eng. 32, 1982): the residual of a guess
g is P+ g - P- phi_old, so before capturing W^T P+ g = W^T P- phi_old.

Each Picard iteration assembles the capturing matrix S(kappa(g)) of its
guess g once and checks g on the unrelaxed system A(g) = W^T P+ + S/2. A
guess is accepted once its unrelaxed relative residual is at most
``picard_tol``. A rejected guess is the start of the next solve, and the
system solved is:

* for the first two solves of a step, the very system just checked, with no
  averaging and no second assembly;
* from the third solve on, the system of an Anderson-mixed capturing weight
  (Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011; locally no worse than the
  fixed-point iteration it accelerates: Toth & Kelley, SIAM J. Numer. Anal.
  53(2), 2015). The mixing runs at the quadrature points, on the weight
  w = wdet kappa that the capturing matrix is built from. Of the latest
  guesses g_i that came from solves, at most ``ANDERSON_DEPTH + 1`` (two at
  the third solve), it keeps w(g_i) and f_i = w(g_i) - w_bar_(i-1), w_bar_(i-1)
  the weight of the system that gave g_i. The weights alpha, summing to 1,
  that minimize ||sum_i alpha_i f_i|| give w_bar = sum_i alpha_i w(g_i), and
  S(w_bar) is assembled once. S is linear in w, so this equals mixing the
  assembled matrices. A singular or non-finite least squares falls back to
  the latest guess's own system, and :class:`StepInfo` counts it.

The loop is inexact: each system is solved only to ``max(rel_tol, ETA *
rel)``, with ``rel`` the unrelaxed relative residual of the guess it starts
from (an Eisenstat-Walker forcing term: Eisenstat & Walker, SIAM J. Sci.
Comput. 17(1), 1996). Inner accuracy far below the outer residual is
invisible to the acceptance test and only adds Krylov iterations. While
capturing is on, ``rel_tol`` is therefore the floor of the inner tolerance;
without capturing there is one linear solve, to ``rel_tol``.

Every solve of a step is passed one ``linalg.KeptFactor``. On the direct
(block-LU) path its factor outlives the step: the new :class:`TimeState`
carries it as ``factor``, with the refinement sweeps run against it, and the
next step starts from it. Each system, the step's first included, is
refined from its warm start against the kept factor to its own tolerance,
and factored itself only when refinement stops contracting or the factor's
sweeps have cost more than a factor; the new factor is then kept for the
step's later systems and the steps after it. Across Picard iterations and
time steps this is the chord method in the Shamanskii form, which refactors
only when the kept factor stops paying (Kelley, *Iterative Methods for
Linear and Nonlinear Equations*, SIAM 1995, ch. 5). A state without a
factor (the first step, one built by hand, or any state on the Krylov path)
has its step's first system factored.

Each step's Picard loop starts from the quadratic extrapolation 3 phi^n -
3 phi^(n-1) + phi^(n-2) of the effective coefficients phi + phi_prime,
where the linear 2 phi^n - phi^(n-1) is the guess of the extrapolated
Crank-Nicolson linearizations (Baker, Dougalis & Karakashian, Math. Comp.
39(160), 1982). phi^(n-1) and phi^(n-2) travel in the incoming
:class:`TimeState` as ``older`` and ``oldest``, so a step stays a function
of its input. A state with ``older`` only (the second step) starts from the
linear extrapolation, and one without either (the first step, or one built
by hand) from phi^n. The extrapolation assumes that the history is one and
two steps of the same ``dt`` back. A wrong history costs iterations, not
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
  The volume increases with s, and one safeguarded Newton solve from 0
  (``linalg.scalar_newton``) finds s.

A step's element work runs over blocks of elements, each block's arrays of
about ``BLOCK_ENTRIES`` entries: N is the one basis table broadcast over the
block on a one-group patch (a uniform trilinear one), else gathered from each
element's group's table; tau, W^T and P+- are formed in block scratch, and so
are q and each Picard guess's residual and kappa. The integrator allocates
its buffers once and every step overwrites them: P+ (nel, nq, nen), q (nel,
nq), the element entry stream (nel, nen^2) that W^T P+ and each capturing
matrix fill before their one ``bincount`` each, and one scratch that holds a
block's arrays and, at other times on a patch of several groups, the
capturing products of whole basis groups; one group's products go straight
into the entry stream.
Blocking changes no value: a block's results are bitwise those of one block
over the whole patch. What a step hands out (states, systems, its
:class:`StepInfo`) never shares memory with a buffer.

Besides its buffers, a step holds few arrays of the pattern's size at a
time: W^T P+'s values for the whole step, and the latest capturing
matrix's values, which become the system's, until its solve returns (on the
direct path a kept factor keeps its matrix). A mixed system's capturing
matrix is assembled only after the unrelaxed one is dropped. The Anderson
history holds quadrature-point arrays (nel, nq) only: the capturing weights
of the latest guesses and their residuals. glibc gives the free top of its
heap back to the system once it exceeds twice the largest mapped block
freed so far, and a step whose temporaries outgrow that refaults its memory
on every step. On the 16^3 vortex a step allocates
at most 3.1 MB beyond its buffers, the mixing history's weights included
(measured with ``tracemalloc``), under a third of what whole-patch
temporaries took, and steps take no page faults once the buffers are
touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .basis import check_finite
from .fields import (ScalarField, check_setting, heaviside_band_derivative,
                     regularized_heaviside, subdomain_volumes)
from .linalg import BlockLU, KeptFactor, StepError, scalar_newton, solve_nonsymmetric
from .gram import ParametricGram
from .mesh import jacobian_solve
from .redistance import ProjectionOperator, redistance_field

# forcing factor of the inexact Picard loop: each system is solved to
# ETA times the unrelaxed residual of its starting guess (see module docstring).
# On the 16^3 vortex, 1e-3 keeps every step's Picard count and moves the L1
# Heaviside error by 1.5e-5 relative; 1e-2 moves it by 2.5e-4
ETA = 1e-3

# Anderson depth of the Picard loop: from a step's third solve on, each solve
# mixes the capturing weights of the latest ANDERSON_DEPTH + 1 guesses that
# came from solves (see the module docstring). At picard_tol 1e-6 on the
# 20x20 C1-quadratic vortex (kappa_d = 0, T = 8), depth 1 stalls near 2e-6
# and fails in step 159; depth 2 finishes in 1 907 solves, at most 24 in a
# step, and depth 3 in 1 878, at most 10. At the default 1e-4 no step there
# reaches a third solve, and the 10x10 linear vortex takes 390, 388 and 388
ANDERSON_DEPTH = 2

# a step's element work runs over blocks of elements whose (nq, nen) arrays
# hold about BLOCK_ENTRIES entries each (256 KiB): 512 trilinear hexes, the
# whole 20x20 C1-quadratic square
BLOCK_ENTRIES = 32768

# half-width of the interface band of the volume shift, beyond |phi_hat| < alpha,
# in units of alpha / median(g): on the 16^3 vortex the band holds 17-18% of
# the quadrature points and no shift leaves it
BAND_MARGIN = 0.5


class PicardError(StepError):
    """Fixed-point relinearization did not converge; carries the residual
    trace and the index ``step``, start time ``t`` and length ``dt`` of the
    failed step, which its message names from the start."""

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

    def in_step(self, step, t):
        """Record the step; the message names it already."""
        self.step, self.t = step, t


class ConservationError(StepError):
    """No shift restores the target volume: it lies outside (0, measure).
    Within a step it carries that step (:class:`levelset.linalg.StepError`)."""


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
    this one was stepped from, one step of the same ``dt`` back, and
    ``oldest`` those of the state before that, two steps back; the next
    step's Picard loop starts from their extrapolation. ``factor`` holds the
    block-LU factors (``linalg.BlockLU``) kept by the step that made this
    state, which the next step's solves refine against, and
    ``factor_sweeps`` the refinement sweeps run against them since they were
    computed (see the module docstring). ``older`` is None for a state
    without a predecessor, ``oldest`` for one without two, and ``factor``
    for both and on the Krylov path; none of the four takes part in
    equality. A non-finite shift or coefficient, history vectors of the
    wrong shape, and ``oldest`` without ``older`` raise ``ValueError``.
    """

    phi: ScalarField
    phi_prime: float = 0.0
    t: float = 0.0
    step: int = 0
    older: np.ndarray | None = field(default=None, repr=False, compare=False)
    oldest: np.ndarray | None = field(default=None, repr=False, compare=False)
    factor: BlockLU | None = field(default=None, repr=False, compare=False)
    factor_sweeps: int = field(default=0, repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.phi_prime):
            raise ValueError("conservation shift must be finite")
        check_finite("phi.coeffs", self.phi.coeffs)
        for name in ("older", "oldest"):
            coeffs = getattr(self, name)
            if coeffs is not None and np.shape(coeffs) != self.phi.coeffs.shape:
                raise ValueError(f"{name} coefficients have shape {np.shape(coeffs)}, "
                                 f"the level set {self.phi.coeffs.shape}")
        if self.oldest is not None and self.older is None:
            raise ValueError("oldest coefficients without older ones")
        if self.factor is not None and self.factor.n != len(self.phi.coeffs):
            raise ValueError(f"factor of {self.factor.n} unknowns, the level set has "
                             f"{len(self.phi.coeffs)}")

    def effective(self):
        """The corrected level set phi + phi_prime actually in effect."""
        return self.phi.shifted(self.phi_prime)


@dataclass
class StepInfo:
    """What one :meth:`TransportIntegrator.step` did.

    The Picard record: ``picard_trace`` holds the unrelaxed relative residual
    of each guess (empty without capturing); ``inner_tols`` the relative
    tolerance given to each linear solve (empty with capturing on when the
    predictor itself was accepted); ``factors`` the block-LU factors computed
    in the step (0 on a step that only refined against the factor it was
    handed, and on the Krylov path); ``refine_sweeps`` the refinement sweeps
    of each solve against a kept factor (empty on the Krylov path);
    ``refactors`` how many of those solves gave up and factored their own
    system; ``krylov_fallbacks`` how many direct solves missed their
    tolerance and went on to Krylov; ``krylov_restarts`` how many times
    BiCGStab restarted its recurrences; ``mixed_solves`` how many solves
    took an Anderson-mixed system; ``mixing_fallbacks`` how many solves from
    the third on found the mixing's least squares singular or not finite
    and took the latest guess's own system instead; ``krylov_iterations``
    the CG and BiCGStab iterations of the step's solves.

    The volume record, left at its defaults without volume conservation: the
    achieved ``volume`` and the shift ``correction``; ``shift_evals``, the
    evaluations of the volume function by the shift solve (the achieved
    volume is its last one, kept, not a further one); ``shift_bracketed``,
    whether the shift solve took a bisection step; ``shift_widenings``, the
    interface-band widenings; ``clamped``, the quadrature points at which
    the positivity clamp floored the new level set's scaling; and
    ``eps_min``, the least projected scaling at the quadrature points before
    that floor (nan for the alternatives that project no scaling).
    """

    picard_trace: list
    inner_tols: list
    factors: int
    refine_sweeps: list
    refactors: int
    krylov_fallbacks: int
    krylov_restarts: int
    mixed_solves: int = 0
    mixing_fallbacks: int = 0
    krylov_iterations: int = 0
    volume: float = float("nan")
    correction: float = 0.0
    shift_evals: int = 0
    shift_bracketed: bool = False
    shift_widenings: int = 0
    clamped: int = 0
    eps_min: float = float("nan")


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
    return c * np.abs(residual)


def _anderson_weights(residuals):
    """The weights alpha, summing to 1, that minimize ||sum_i alpha_i f_i||
    over the residuals f_i, oldest first (Walker & Ni, SIAM J. Numer. Anal.
    49(4), 2011), or None when that least squares is singular or its
    solution not finite.

    With the last residual f_m and the differences df_j = f_(j+1) - f_j, the
    unconstrained gamma minimizing ||f_m - sum_j gamma_j df_j|| gives
    alpha = diff([0, gamma, 1]).
    """
    diffs = np.stack([(b - a).ravel() for a, b in zip(residuals, residuals[1:])], axis=1)
    if not np.isfinite(diffs).all():
        return None
    gamma, _, rank, _ = np.linalg.lstsq(diffs, residuals[-1].ravel(), rcond=None)
    if rank < diffs.shape[1] or not np.isfinite(gamma).all():
        return None
    return np.diff(np.concatenate(([0.0], gamma, [1.0])))


class TransportIntegrator:
    """Caches mesh-bound data so repeated steps stay cheap.

    ``velocity`` is a :class:`SeparableVelocity` f(t) u0(x); anything else
    raises ``TypeError``, and a field whose values at the quadrature points
    are not finite or not of their (nel, nq, dim) shape raises
    ``ValueError``. Set-up keeps u0.grad N (nel, nq, nen) and u0.G u0 =
    |J^-1 u0|^2 (nel, nq), G the metric J^-T J^-1, both from the parametric
    velocity J^-1 u0 in closed form (:func:`levelset.mesh.jacobian_solve`);
    each step forms u.grad N = f u0.grad N and u.Gu = f^2 u0.G u0 from them,
    with f taken at the half-step time.

    The half-step system is A = W^T P+ + S/2 with right-hand side
    (W^T P- - S/2) phi_old, S the capturing diffusion. Work is split by what
    it depends on: once per step, W^T P+ is assembled into CSR values and P+
    and q = P- phi_old are kept at the quadrature points, in the
    integrator's buffers; each Picard iteration takes kappa from the
    residual P+ g - q of its guess g, one batched product per element block,
    and adds one capturing matrix S(kappa) to those values (see the module
    docstring for the blocks and buffers).

    With volume conservation on, the shift that restores the target volume
    is a scalar Newton solve summed over the interface band only (see the
    module docstring). It needs ``redistance_params`` and
    ``heaviside_params``: without them construction raises ``ValueError``.

    ``last_info`` is the :class:`StepInfo` of the latest step, None before
    the first.
    """

    def __init__(self, patch, velocity, params, redistance_params=None,
                 heaviside_params=None):
        if not isinstance(velocity, SeparableVelocity):
            raise TypeError("velocity must be a SeparableVelocity factor(t) * field(x), "
                            f"got {type(velocity).__name__}")
        if params.volume_conserve and (redistance_params is None or heaviside_params is None):
            raise ValueError("volume conservation needs redistancing and "
                             "interface-width parameters")
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
        if not np.isfinite(u0).all():
            e, q, _ = np.argwhere(~np.isfinite(u0))[0]
            raise ValueError(f"velocity field is not finite at element {e}, quadrature "
                             f"point {q}: {u0[e, q]}")
        groups = tab.basis_groups
        nel, nq = tab.wdet.shape
        nen = groups.values.shape[-1]
        size = max(1, BLOCK_ENTRIES // (nq * nen))
        self._blocks = [slice(start, min(start + size, nel)) for start in range(0, nel, size)]
        # v0 = J^-1 u0, the parametric velocity, is needed only here: formed
        # block by block in closed form, and not kept. u0.grad N = grad N.v0
        # and u0.G u0 = |v0|^2, G = J^-T J^-1 the metric, which is not formed
        self._ugn0 = np.empty((nel, nq, nen))
        self._ugu0 = np.empty((nel, nq))
        for block in self._blocks:
            v0 = jacobian_solve(tab.J[block], u0[block])
            self._ugn0[block] = (groups.grads[groups.index[block]] @ v0[..., None])[..., 0]
            self._ugu0[block] = np.einsum("eqi,eqi->eq", v0, v0)
        # S[a,b] = sum_q (wdet kappa) sum_d dN[q,a,d] dN[q,b,d]
        self._capturing_gram = ParametricGram(tab, mass=0.0, stiffness=1.0)
        # the step's buffers, overwritten by every step: P+, q = P- phi_old,
        # and the element entry stream that W^T P+ and each capturing matrix
        # fill before their bincount
        self._p_plus = np.empty((nel, nq, nen))
        self._q = np.empty((nel, nq))
        self._entries = np.empty((nel, nen * nen))
        # one scratch for two uses at different times: a block's P-, u.grad N
        # and W, and the capturing products of whole basis groups in group
        # order, in rows for as many elements as the block's three arrays
        # hold (the whole of a small patch, whose products then take one
        # scatter) or, if more, for the largest group. With one group the
        # products go straight into the entry stream, and the block's arrays
        # size the scratch
        block = min(size, nel) * nq * nen
        rows = min(nel, 3 * block // (nen * nen))
        if groups.n_groups > 1:
            rows = max(rows, int(np.diff(groups.starts).max()))
        self._scratch = np.empty(max(3 * block, rows * nen * nen))
        self._products = self._scratch[:rows * nen * nen].reshape(rows, nen * nen)
        self.last_info = None
        self.proj_op = None
        if redistance_params is not None:
            self.proj_op = ProjectionOperator(patch, redistance_params.kappa_d,
                                              rel_tol=redistance_params.rel_tol)

    # -- assembly pieces ------------------------------------------------

    def _operators(self, f, block):
        """W^T (m, nen, nq), the wdet-weighted streamline test functions, and
        P+- (m, nq, nen) of the m elements of the slice ``block`` at velocity
        factor ``f`` (see the module docstring). P+ is written into the kept
        buffer, W^T and P- into the scratch."""
        tab = self.patch.tabulation()
        groups = tab.basis_groups
        dt = self.params.dt
        m = block.stop - block.start
        nq, nen = groups.values.shape[1:]
        p_minus, u_grad_n, w = self._scratch[:3 * m * nq * nen].reshape(3, m, nq, nen)
        # N: the one table, broadcast over the block, or gathered by group
        # into the scratch that P- then overwrites
        n = (groups.values[0] if groups.n_groups == 1
             else np.take(groups.values, groups.index[block], axis=0, out=p_minus))
        np.multiply(self._ugn0[block], f, out=u_grad_n)
        tau = _tau_from_quad((f * f) * self._ugu0[block], dt, self.params.tau_form)
        np.multiply(tau[..., None], u_grad_n, out=w)
        w += n
        w *= tab.wdet[block][..., None]
        u_grad_n *= 0.5  # now (u.grad N) / 2
        p_plus = np.divide(n, dt, out=self._p_plus[block])
        np.subtract(p_plus, u_grad_n, out=p_minus)  # N is not read again
        p_plus += u_grad_n
        return w.swapaxes(1, 2), p_plus, p_minus

    def _step_parts(self, state):
        """Iterate-independent pieces of one step, block by block: P+ and
        q = P- phi_old into the kept buffers; returns phi_old and the
        uncaptured system's CSR values W^T P+ and right-hand side W^T q."""
        conn = self.patch.tabulation().field_conn
        nel, nen = conn.shape
        prev = state.phi.coeffs + state.phi_prime
        f = float(self.velocity.factor(state.t + 0.5 * self.params.dt))
        entries = self._entries.reshape(nel, nen, nen)
        rhs_e = np.empty((nel, nen))
        for block in self._blocks:
            wt, p_plus, p_minus = self._operators(f, block)
            q = self._q[block]
            q[...] = (p_minus @ prev[conn[block]][..., None])[..., 0]
            np.matmul(wt, p_plus, out=entries[block])
            rhs_e[block] = (wt @ q[..., None])[..., 0]
        return prev, self.pattern.values(self._entries), self.patch.scatter_dofs(rhs_e)

    def _capturing_parts(self, guess, prev, w=None):
        """CSR values of S(kappa(guess)), kappa from the residual P+ guess - q
        taken block by block, and the dof vector S phi_old (see
        :meth:`_capturing_values`); the weight wdet kappa (nel, nq) is
        written into ``w`` when given."""
        tab = self.patch.tabulation()
        conn = tab.field_conn
        if w is None:
            w = np.empty(tab.wdet.shape)
        for block in self._blocks:
            resid = (self._p_plus[block] @ guess[conn[block]][..., None])[..., 0] - self._q[block]
            w[block] = tab.wdet[block] * capturing_kappa(resid, self.params.capturing_c)
        return self._capturing_values(w, prev)

    def _capturing_values(self, w, prev):
        """CSR values of the capturing matrix S of the weight ``w`` = wdet
        kappa at the quadrature points, and the dof vector S phi_old, one
        matvec with the values just summed."""
        s = self.pattern.values(self._capturing_gram(w, self._entries, self._products))
        return s, self.pattern.csr(s) @ prev

    # -- stepping ---------------------------------------------------------

    def _solve_convection(self, state):
        """New coefficients, the step's :class:`KeptFactor`, which starts
        from the state's ``factor`` and is passed to every solve, and the
        step's :class:`StepInfo` before its volume record (see the module
        docstring)."""
        params = self.params
        # P+, q and the uncaptured system do not depend on the iterate: once per step
        prev, a0, rhs0 = self._step_parts(state)
        kept = KeptFactor(lu=state.factor, lu_sweeps=state.factor_sweeps)
        if params.capturing_c == 0.0:
            coeffs = solve_nonsymmetric(self.pattern.matrix(a0, rhs0), rel_tol=params.rel_tol,
                                        x0=prev, kept=kept)
            trace, inner_tols, mixed, fallbacks = [], [params.rel_tol], 0, 0
        else:
            coeffs, trace, inner_tols, mixed, fallbacks = self._picard(state, prev, a0, rhs0,
                                                                       kept)
        return coeffs, kept, StepInfo(trace, inner_tols, kept.factors, kept.sweeps,
                                      kept.refactors, kept.krylov_fallbacks,
                                      kept.krylov_restarts, mixed, fallbacks,
                                      kept.krylov_iterations)

    def _picard(self, state, prev, a0, rhs0, kept):
        """The Picard loop of a step with capturing on: the accepted guess,
        the unrelaxed relative residual of each guess, the tolerance given to
        each solve, the mixed solves and the mixings that fell back to the
        latest guess (see the module docstring)."""
        params = self.params
        pattern = self.pattern

        def captured(s, s_prev):
            # A = W^T P+ + S/2, formed in the array of S's values, and
            # b = W^T q - S phi_old / 2
            s *= 0.5
            s += a0
            return pattern.matrix(s, rhs0 - 0.5 * s_prev)

        guess = _predictor(state, prev)
        trace, inner_tols = [], []
        # (w(g_i), f_i = w(g_i) - w_bar_(i-1)) of the latest guesses g_i that
        # came from solves, w_bar_(i-1) the weight of the system that gave g_i
        history = []
        w_bar = None
        mixed = fallbacks = 0
        while True:
            # one capturing matrix per guess, at the guess's own kappa
            w = np.empty(self.patch.tabulation().wdet.shape)
            system = captured(*self._capturing_parts(guess, prev, w))
            resid = system.matrix @ guess - system.rhs
            rel = np.linalg.norm(resid) / max(np.linalg.norm(system.rhs), 1e-300)
            trace.append(rel)
            if rel <= params.picard_tol:
                return guess, trace, inner_tols, mixed, fallbacks
            if len(trace) > params.picard_max:
                raise PicardError(trace, state.t, params.dt, state.step + 1)
            if w_bar is not None:
                history = history[-ANDERSON_DEPTH:] + [(w, w - w_bar)]
            w_bar = w
            if len(inner_tols) >= 2:
                alpha = _anderson_weights([f for _, f in history])
                if alpha is None:
                    fallbacks += 1
                else:
                    # S is linear in w: the system of the mixed weight, whose
                    # capturing matrix replaces the unrelaxed one's
                    w_bar = sum(a * w_i for a, (w_i, _) in zip(alpha, history))
                    del system
                    system = captured(*self._capturing_values(w_bar, prev))
                    mixed += 1
            inner_tols.append(max(params.rel_tol, ETA * rel))
            guess = solve_nonsymmetric(system, rel_tol=inner_tols[-1], x0=guess, kept=kept)
            del system

    def step(self, state, target_v1=None):
        """Advance one time step; returns the new state, which carries the
        incoming state's effective coefficients as ``older`` and the step's
        block-LU factor as ``factor``, and sets ``last_info`` to the step's
        :class:`StepInfo`.

        With volume conservation enabled, the configured scaled-distance
        alternative is rebuilt from the new level set and a global shift is
        solved for so the step ends at ``target_v1`` (default: the volume
        the incoming state carries).

        Every :class:`levelset.linalg.StepError` raised within the step
        (a :class:`PicardError`, a solve's ``IterationLimitError``, a
        ``PositivityError``, the volume shift's ``ConservationError`` and
        ``RootFindingError``) carries the failed step, which the step
        records before it re-raises.
        """
        try:
            return self._step(state, target_v1)
        except StepError as exc:
            exc.in_step(state.step + 1, state.t)
            raise

    def _step(self, state, target_v1):
        new_coeffs, kept, info = self._solve_convection(state)
        phi_new = ScalarField(self.patch, new_coeffs)
        # set before the volume block, so a step that raises there leaves
        # its Picard record readable
        self.last_info = info
        if self.params.volume_conserve:
            if target_v1 is None:
                target_v1 = subdomain_volumes(self.scaled_distance(state), self.hv_params,
                                              self.patch)[1]
            sd = redistance_field(phi_new, self.rd_params, op=self.proj_op)
            info.correction, info.volume, vol = _shift_for_volume(sd, target_v1,
                                                                  self.hv_params, self.patch)
            info.shift_evals, info.shift_bracketed = vol.evals, vol.bracketed
            info.shift_widenings, info.clamped = vol.widenings, sd.clamped
            info.eps_min = sd.eps_min
        return TimeState(phi_new, info.correction, state.t + self.params.dt, state.step + 1,
                         older=state.phi.coeffs + state.phi_prime, oldest=state.older,
                         factor=kept.lu, factor_sweeps=kept.lu_sweeps)

    def scaled_distance(self, state):
        """Scaled distance of the state's effective level set."""
        return redistance_field(state.effective(), self.rd_params, op=self.proj_op)


def _predictor(state, prev):
    """The Picard loop's first guess: the extrapolation of the effective
    coefficients ``prev`` and the state's history, quadratic with two
    vectors, linear with one, ``prev`` itself with none. 3p - 3p + p and
    2p - p are p exactly, so a history equal to ``prev`` starts where none
    does."""
    if state.older is None:
        return prev.copy()
    if state.oldest is None:
        return 2.0 * prev - state.older
    return 3.0 * prev - 3.0 * state.older + state.oldest


class _BandVolume:
    """The volume function f(s) = V1(phi_hat + s g) - target and its
    derivative, summed over the interface band of the shifts |s| <= radius.

    A point with |phi_hat| >= alpha + radius g stays where the regularized
    step is exactly 0 or 1 and its derivative exactly 0 for every such
    shift; the weights of those above the band are summed once, as a
    constant. An evaluation beyond the radius first widens the band to twice
    that shift, or to every point, and counts the widening. ``evals`` counts
    the evaluations of f and ``last`` keeps the latest, and
    :func:`_shift_for_volume` sets ``bracketed`` when its solve took a
    bisection step.
    """

    def __init__(self, vals, g, wdet, hv_params, target, radius):
        self.vals, self.g, self.wdet = vals.ravel(), g.ravel(), wdet.ravel()
        self.hv_params = hv_params
        self.target = target
        self.evals = 0
        self.last = float("nan")
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
        self.last = self.above + float(np.sum(wdet * h)) - self.target
        return self.last

    def fp(self, s):
        self._cover(s)
        vals, g, wdet = self.band
        return float(np.sum(wdet * heaviside_band_derivative(vals + s * g,
                                                             self.hv_params.alpha) * g))


def _shift_for_volume(sd, target_v1, hv_params, patch):
    """Scalar shift s with V1(phi + s) = target_v1.

    Returns (s, achieved V1, the :class:`_BandVolume` solved), whose
    ``evals``, ``widenings`` and ``bracketed`` record the solve: one
    :func:`~levelset.linalg.scalar_newton` from 0, whose closed-form bracket
    is formed only if a Newton step is rejected. The solve's last evaluation
    is at the root it returns, so the achieved V1 is that evaluation kept,
    not a further one.

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
    vals, g, alpha = sd.quadrature_values(), sd.shift_response_qp(), hv_params.alpha
    # the shift that moves a typical point across the band's half-width
    scale = alpha / max(float(np.median(g)), 1e-300)
    vol = _BandVolume(vals, g, wdet, hv_params, target_v1, BAND_MARGIN * scale)

    def bracket():
        # f is -target < 0 once every point lies below the band, and
        # measure - target > 0 once every point lies above it: the shifts that
        # take the last point below and the last point above bracket the root
        return float(np.min((-alpha - vals) / g)), float(np.max((alpha - vals) / g))

    root, bisections = scalar_newton(vol.f, vol.fp, 0.0, bracket,
                                     tol=1e-13 * max(1.0, measure), max_iter=200)
    vol.bracketed = bisections > 0
    return root, target_v1 + vol.last, vol
