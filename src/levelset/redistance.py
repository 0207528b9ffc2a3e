"""Scaled mesh-length distance fields from a convected level set.

Four alternatives produce a distance-in-element-lengths field phi_hat from
phi without solving an Eikonal problem. ``RedistanceParams.alternative``
selects one, and :func:`redistance_field` builds it:

* ``direct``: pointwise quotient phi / ||grad_xi phi|| (discontinuous across
  elements on C0 discretizations, non-smooth even on C1 ones),
* ``proj-redist``: global projection of that quotient onto the discrete
  space (continuous, but the zero set may drift),
* ``proj-scale``: projection of 1 / ||grad_xi phi||, then phi_hat = phi * eps,
* ``proj-inv-scale``: projection of ||grad_xi phi||, then phi_hat = phi / eps.

The last two keep the zero set of phi exactly, since eps stays positive.
All projections solve (w, u) + (grad_xi w, kappa_d grad_xi u) = (w, f) with
natural boundary conditions; the mass term keeps the system SPD. On a
separable tensor patch (see :meth:`levelset.mesh.MeshPatch.kronecker_eigenpairs`)
that matrix is a Kronecker sum of 1D matrices, and each projection is solved
exactly by fast diagonalization, at about the cost of one matvec; on every
other patch, by block LU or warm-started CG.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import ScalarField, check_setting
from .linalg import KeptFactor, KroneckerInverse, solve_spd
from .gram import ParametricGram


ALTERNATIVES = ("direct", "proj-redist", "proj-scale", "proj-inv-scale")

_ALIASES = {
    "direct": "direct",
    "projected-redistance": "proj-redist",
    "proj-redist": "proj-redist",
    "projected-scaling": "proj-scale",
    "proj-scale": "proj-scale",
    "projected-inverse-scaling": "proj-inv-scale",
    "proj-inv-scale": "proj-inv-scale",
}


def canonical_alternative(name):
    try:
        return _ALIASES[name]
    except KeyError:
        raise ValueError(f"unknown redistancing alternative {name!r}; "
                         f"choose from {ALTERNATIVES}") from None


class PositivityError(RuntimeError):
    """Projected scaling dropped below the positivity floor.

    Raised within a transport step, it also carries that step's index
    ``step`` and start time ``t`` (both None otherwise).
    """

    def __init__(self, value, floor, element, location):
        super().__init__(
            f"projected scaling {value:.3e} fell below the floor {floor:.3e} "
            f"in element {element} near x = {np.array2string(np.asarray(location), precision=4)}"
        )
        self.value = value
        self.floor = floor
        self.element = element
        self.location = location
        self.step = None
        self.t = None

    def in_step(self, step, t):
        """Record the transport step the violation occurred in."""
        self.step, self.t = step, t
        self.args = (f"{self.args[0]}, in step {step} from t={t:.6g}",)


@dataclass
class RedistanceParams:
    """Choice of alternative, smoothing weight and gradient floor.

    ``positivity`` controls what happens when a projected scaling dips below
    the floor: ``"raise"`` (default) reports the violation, ``"clamp"``
    floors the coefficient pointwise. Clamping keeps the sign-preservation
    property and lets severely under-resolved transport runs proceed.
    """

    alternative: str = "proj-inv-scale"
    kappa_d: float = 0.0
    gradient_floor: float = 1e-8
    rel_tol: float = 1e-10
    positivity: str = "raise"

    def __post_init__(self):
        self.alternative = canonical_alternative(self.alternative)
        check_setting("kappa_d", self.kappa_d, positive=False)
        check_setting("gradient_floor", self.gradient_floor)
        check_setting("rel_tol", self.rel_tol)
        if self.positivity not in ("raise", "clamp"):
            raise ValueError("positivity must be 'raise' or 'clamp'")


class ProjectionOperator:
    """Reusable mass + kappa_d * parametric-stiffness operator on a patch.

    ``kept`` is the :class:`KeptFactor` of its matrix, by which every solve
    runs: a :class:`KroneckerInverse` on a separable patch, else the block-LU
    factors taken at construction where the pattern is narrow-band (None on
    the Krylov path).
    """

    def __init__(self, patch, kappa_d, rel_tol=1e-10):
        self.patch = patch
        self.kappa_d = float(kappa_d)
        self.rel_tol = rel_tol
        # the pattern first, so that its build's temporaries are freed before
        # the element matrices exist
        self.pattern = patch.csr_pattern()
        pairs = patch.kronecker_eigenpairs()
        self._matrix = self.pattern.assemble(self.element_matrices(), np.zeros(patch.n_dofs))
        if pairs is None:
            self.kept = KeptFactor()
            self.kept.factor(self._matrix)
        else:
            self.kept = KeptFactor(self._matrix.matrix, KroneckerInverse(pairs, self.kappa_d))
        self._last = None

    def element_matrices(self):
        """Element blocks (nel, nen, nen) of mass + kappa_d * stiffness."""
        tab = self.patch.tabulation()
        a_e = ParametricGram(tab, mass=1.0, stiffness=self.kappa_d)(tab.wdet)
        # bitwise-symmetric blocks: the summation order otherwise differs
        # between (a, b) and (b, a) at roundoff level
        return 0.5 * (a_e + a_e.swapaxes(1, 2))

    def _rhs(self, integrand):
        tab = self.patch.tabulation()
        if callable(integrand):
            f_qp = integrand(tab.x)
        else:
            f_qp = np.asarray(integrand, dtype=np.float64)
        rhs_e = np.einsum("eq,eqa->ea", tab.wdet * f_qp, tab.field_N)
        return self.patch.scatter_dofs(rhs_e)

    def system(self, integrand):
        """The SPD projection system for a pointwise right-hand-side
        ``integrand``: a callable of physical coordinates or a precomputed
        (n_elements, n_quad) array."""
        return replace(self._matrix, rhs=self._rhs(integrand))

    def solve(self, integrand):
        # warm-start from the previous solve; in time stepping consecutive
        # right-hand sides are close
        x = solve_spd(self.system(integrand), rel_tol=self.rel_tol, x0=self._last,
                      kept=self.kept)
        self._last = x
        return x


def project_function(patch, fn):
    """L2 projection of an analytic function onto the patch's field space."""
    op = ProjectionOperator(patch, 0.0)
    return ScalarField(patch, op.solve(fn))


def _clamped_grad_norms(phi, floor):
    g = phi.quadrature_grads_xi()
    norms = np.sqrt(np.einsum("eqd,eqd->eq", g, g))
    scale = float(norms.mean())
    delta = floor * (scale if scale > 0 else 1.0)
    return np.maximum(norms, delta), delta


class ScaledDistance:
    """Common interface of the scaled-distance alternatives.

    Every variant responds affinely to a constant shift of the source level
    set: shifting phi by s shifts phi_hat by s * shift_response pointwise,
    which is what the scalar volume correction differentiates through.
    ``op`` is the :class:`ProjectionOperator` a projected variant solved
    with, for reuse by later fields of the same kappa_d (None for
    ``direct``). ``clamped`` counts the quadrature points at which a
    clamping :class:`ScalingScaledDistance` floored its scaling; it is 0 for
    every other field.
    """

    clamped = 0

    def __init__(self, phi, delta, op=None):
        self.phi = phi
        self.patch = phi.patch
        self.delta = delta
        self.op = op

    def quadrature_values(self):
        raise NotImplementedError

    def shift_response_qp(self):
        raise NotImplementedError

    def eval_values(self, elements, pts):
        raise NotImplementedError


class DirectScaledDistance(ScaledDistance):
    """Pointwise quotient phi / max(||grad_xi phi||, floor)."""

    def __init__(self, phi, params):
        norms, delta = _clamped_grad_norms(phi, params.gradient_floor)
        super().__init__(phi, delta)
        self._norms_qp = norms

    def quadrature_values(self):
        return self.phi.quadrature_values() / self._norms_qp

    def shift_response_qp(self):
        return 1.0 / self._norms_qp

    def eval_values(self, elements, pts):
        g = self.phi.eval_grads_xi(elements, pts)
        norms = np.maximum(np.linalg.norm(g, axis=-1), self.delta)
        return self.phi.eval_values(elements, pts) / norms


class ProjectedRedistance(ScaledDistance):
    """Projection of the direct quotient onto the discrete space."""

    def __init__(self, phi, params, op):
        norms, delta = _clamped_grad_norms(phi, params.gradient_floor)
        super().__init__(phi, delta, op)
        self._inv_norms_qp = 1.0 / norms
        phi_qp = phi.quadrature_values()
        self.field = ScalarField(self.patch, op.solve(phi_qp * self._inv_norms_qp))
        self._response = None

    def quadrature_values(self):
        return self.field.quadrature_values()

    def quadrature_grads_xi(self):
        return self.field.quadrature_grads_xi()

    def shift_response_qp(self):
        # projection is linear, so a constant shift of phi adds the projected
        # reciprocal gradient norm
        if self._response is None:
            eta = ScalarField(self.patch, self.op.solve(self._inv_norms_qp))
            self._response = eta.quadrature_values()
        return self._response

    def eval_values(self, elements, pts):
        return self.field.eval_values(elements, pts)


class ScalingScaledDistance(ScaledDistance):
    """Multiplicative scaling: phi_hat = phi * eps or phi / eps.

    ``eps`` is the projected scaling coefficient; the product/quotient form
    vanishes exactly where phi vanishes, so the interface never moves.
    """

    def __init__(self, phi, params, op, inverse):
        norms, delta = _clamped_grad_norms(phi, params.gradient_floor)
        super().__init__(phi, delta, op)
        self.inverse = inverse
        self._clamp = params.positivity == "clamp"
        integrand = norms if inverse else 1.0 / norms
        self.epsilon = ScalarField(self.patch, op.solve(integrand))
        eps_qp = self.epsilon.quadrature_values()
        if eps_qp.min() < delta:
            if self._clamp:
                self.clamped = int(np.count_nonzero(eps_qp < delta))
                eps_qp = np.maximum(eps_qp, delta)
            else:
                e, q = np.unravel_index(int(np.argmin(eps_qp)), eps_qp.shape)
                loc = self.patch.tabulation().x[e, q]
                raise PositivityError(float(eps_qp.min()), delta, int(e), loc)
        self._eps_qp = eps_qp

    def quadrature_values(self):
        phi_qp = self.phi.quadrature_values()
        return phi_qp / self._eps_qp if self.inverse else phi_qp * self._eps_qp

    def quadrature_grads_xi(self):
        gp = self.phi.quadrature_grads_xi()
        ge = self.epsilon.quadrature_grads_xi()
        phi_qp = self.phi.quadrature_values()[..., None]
        eps = self._eps_qp[..., None]
        if self.inverse:
            return gp / eps - phi_qp * ge / eps**2
        return eps * gp + phi_qp * ge

    def shift_response_qp(self):
        return 1.0 / self._eps_qp if self.inverse else self._eps_qp

    def eval_values(self, elements, pts):
        phi = self.phi.eval_values(elements, pts)
        eps = self.epsilon.eval_values(elements, pts)
        if self._clamp:
            eps = np.maximum(eps, self.delta)
        return phi / eps if self.inverse else phi * eps


def redistance_field(phi, params, op=None):
    """The scaled distance of ``phi`` by the alternative ``params`` selects.

    A projected alternative solves with ``op``, a :class:`ProjectionOperator`
    of ``params.kappa_d``, or with one built here when it is None; ``direct``
    projects nothing and ignores it.
    """
    alt = params.alternative
    if alt == "direct":
        return DirectScaledDistance(phi, params)
    op = op or ProjectionOperator(phi.patch, params.kappa_d, rel_tol=params.rel_tol)
    if alt == "proj-redist":
        return ProjectedRedistance(phi, params, op)
    return ScalingScaledDistance(phi, params, op, inverse=alt == "proj-inv-scale")
