"""Heaviside family, scalar fields over a patch and subdomain volumes.

Two kinds of fields share one evaluation interface: discrete fields (one
coefficient per basis function) and analytic fields (closed-form value and
gradient, pulled back through the geometry map). Derived pointwise fields
(such as the locally scaled distance) wrap these. Off the quadrature points,
every field evaluates at one :class:`levelset.mesh.SamplePoints` (``eval_*``):
a discrete field's values by :meth:`~levelset.mesh.SamplePoints.values`,
which on a tensor patch's edge samples contracts the coefficients with 1D
basis rows direction by direction, and an analytic field through the
points' physical coordinates and Jacobians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import _frozen


def check_setting(name, value, positive=True):
    """Raise ``ValueError`` naming the setting ``name`` unless ``value`` is
    finite and positive, or nonnegative where ``positive`` is False."""
    if not math.isfinite(value) or value < 0 or (positive and value == 0):
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {sign}, got {value:g}")


@dataclass
class HeavisideParams:
    """Interface half-width in element lengths."""

    alpha: float = 2.0

    def __post_init__(self):
        check_setting("alpha", self.alpha)


def _smooth_step(ratio):
    # clip-then-sine: exact 0/1 outside the band, C1 across its edges
    return 0.5 * (1.0 + np.sin(0.5 * np.pi * np.clip(ratio, -1.0, 1.0)))


def regularized_heaviside(phi_hat, params):
    """Smooth monotone step in the scaled distance.

    Transitions over |phi_hat| <= alpha via half a sine wave; identically 0
    below the band and 1 above it, with zero slope at the band edges.
    """
    out = _smooth_step(np.asarray(phi_hat, dtype=np.float64) / params.alpha)
    return float(out) if np.isscalar(phi_hat) else out


def heaviside_band_derivative(phi_hat, alpha):
    """Derivative of the regularized step with respect to the scaled distance."""
    phi_hat = np.asarray(phi_hat, dtype=np.float64)
    inside = np.abs(phi_hat) < alpha
    return np.where(inside, 0.25 * np.pi / alpha * np.cos(0.5 * np.pi * phi_hat / alpha), 0.0)


class ScalarField:
    """Discrete field: one coefficient per basis function of a patch."""

    def __init__(self, patch, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (patch.n_dofs,):
            raise ValueError(
                f"expected {patch.n_dofs} coefficients, got {coeffs.shape}"
            )
        self.patch = patch
        self.coeffs = coeffs

    def shifted(self, constant):
        """Field plus a global constant (bases here reproduce constants)."""
        return ScalarField(self.patch, self.coeffs + constant)

    def quadrature_values(self):
        """Values (nel, nq): one GEMM per basis group."""
        tab = self.patch.tabulation()
        groups = tab.basis_groups
        return groups.contract(self.coeffs[tab.field_conn], groups.values.swapaxes(1, 2))

    def quadrature_grads_xi(self):
        """Parametric gradients (nel, nq, dim): one GEMM per basis group."""
        tab = self.patch.tabulation()
        groups = tab.basis_groups
        ng, nq, nen, dim = groups.grads.shape
        tables = groups.grads.transpose(0, 2, 1, 3).reshape(ng, nen, nq * dim)
        return groups.contract(self.coeffs[tab.field_conn], tables).reshape(-1, nq, dim)

    def eval_values(self, points):
        return points.values(self.coeffs)

    def eval_grads_xi(self, points):
        be = self.patch.field_basis_eval(points.elements, points.pts)
        return np.einsum("mak,ma->mk", be.grads, self.coeffs[be.indices])


class AnalyticField:
    """Closed-form field phi(x) with analytic physical gradient. Its values
    and parametric gradients at the quadrature points are kept read-only on
    first use, for every scaled distance built from it."""

    def __init__(self, patch, fn, grad_fn):
        self.patch = patch
        self.fn = fn
        self.grad_fn = grad_fn

    @cached_property
    def _values_qp(self):
        return _frozen(self.fn(self.patch.tabulation().x))

    @cached_property
    def _grads_xi_qp(self):
        tab = self.patch.tabulation()
        return _frozen(np.einsum("eqd,eqdk->eqk", self.grad_fn(tab.x), tab.J))

    def quadrature_values(self):
        return self._values_qp

    def quadrature_grads_xi(self):
        return self._grads_xi_qp

    def eval_values(self, points):
        return self.fn(points.x)

    def eval_grads_phys(self, points):
        return self.grad_fn(points.x)

    def eval_grads_xi(self, points):
        return np.einsum("md,mdk->mk", self.grad_fn(points.x), points.jacobians())


def _grad_norms(grads):
    return np.sqrt(np.einsum("...d,...d->...", grads, grads))


def _metric(jac):
    """The metric J^-T J^-1 of Jacobians ``jac`` (..., dim, dim)."""
    jinv = np.linalg.inv(jac)
    return jinv.swapaxes(-1, -2) @ jinv


class NaiveScaledField:
    """Pointwise quotient of a level set by the directional element size.

    The element size comes from the physical gradient and the metric tensor;
    at (near) zero gradients the smallest singular length of the Jacobian is
    used instead. The quotient is evaluated point by point, so it is neither
    continuous nor monotone in general. ``phi`` is an :class:`AnalyticField`,
    whose physical gradient the element size needs.
    """

    def __init__(self, phi):
        self.phi = phi
        self.patch = phi.patch

    @staticmethod
    def _scale(grads_phys, g_metric, sigma_min):
        norms = _grad_norms(grads_phys)
        quad = np.einsum("...d,...de,...e->...", grads_phys, g_metric, grads_phys)
        degenerate = norms <= 1e-14 * max(1.0, float(norms.max(initial=0.0)))
        safe_quad = np.where(degenerate, 1.0, quad)
        h = np.where(degenerate, sigma_min, norms / np.sqrt(safe_quad))
        return h

    def eval_values(self, points):
        jac = points.jacobians()
        sigma = np.linalg.svd(jac, compute_uv=False)[:, -1]
        h = self._scale(self.phi.eval_grads_phys(points), _metric(jac), sigma)
        return self.phi.eval_values(points) / h


def subdomain_volumes(phi_hat, params, patch=None):
    """Volumes of the two subdomains of a scaled distance field.

    Returns (V0, V1) with V1 the measure weighted by the regularized step
    and V0 its complement; V0 + V1 equals the domain measure to quadrature
    roundoff.
    """
    patch = patch or phi_hat.patch
    wdet = patch.tabulation().wdet
    h = regularized_heaviside(phi_hat.quadrature_values(), params)
    v1 = float(np.sum(wdet * h))
    v0 = float(np.sum(wdet * (1.0 - h)))
    return v0, v1
