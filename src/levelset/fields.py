"""Heaviside family, scalar fields over a patch and subdomain volumes.

Two kinds of fields share one evaluation interface: discrete fields (one
coefficient per basis function) and analytic fields (closed-form value and
gradient, pulled back through the geometry map). Derived pointwise fields
(such as the locally scaled distance) wrap these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
        tab = self.patch.tabulation()
        return np.einsum("eqa,ea->eq", tab.field_N, self.coeffs[tab.field_conn])

    def quadrature_grads_xi(self):
        tab = self.patch.tabulation()
        c = self.coeffs[tab.field_conn]
        return np.matmul(c[:, None, None, :], tab.field_dN)[:, :, 0, :]

    def eval_values(self, elements, pts):
        idx, vals = self.patch.field_basis_values(elements, pts)
        return np.einsum("ma,ma->m", vals, self.coeffs[idx])

    def eval_grads_xi(self, elements, pts):
        be = self.patch.field_basis_eval(elements, pts)
        return np.einsum("mak,ma->mk", be.grads, self.coeffs[be.indices])


class AnalyticField:
    """Closed-form field phi(x) with analytic physical gradient."""

    def __init__(self, patch, fn, grad_fn):
        self.patch = patch
        self.fn = fn
        self.grad_fn = grad_fn

    def quadrature_values(self):
        return self.fn(self.patch.tabulation().x)

    def quadrature_grads_phys(self):
        return self.grad_fn(self.patch.tabulation().x)

    def quadrature_grads_xi(self):
        tab = self.patch.tabulation()
        return np.einsum("eqd,eqdk->eqk", self.grad_fn(tab.x), tab.J)

    def eval_values(self, elements, pts):
        return self.fn(self.patch.physical_coords(elements, pts))

    def eval_grads_phys(self, elements, pts):
        return self.grad_fn(self.patch.physical_coords(elements, pts))

    def eval_grads_xi(self, elements, pts):
        x, jac = self.patch.geometry_eval(elements, pts)
        return np.einsum("md,mdk->mk", self.grad_fn(x), jac)


def _grad_norms(grads):
    return np.sqrt(np.einsum("...d,...d->...", grads, grads))


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

    def quadrature_values(self):
        tab = self.patch.tabulation()
        h = self._scale(self.phi.quadrature_grads_phys(), tab.G, tab.sigma_min)
        return self.phi.quadrature_values() / h

    def eval_values(self, elements, pts):
        gp = self.phi.eval_grads_phys(elements, pts)
        _, jac = self.patch.geometry_eval(elements, pts)
        jinv = np.linalg.inv(jac)
        g = np.einsum("mkd,mke->mde", jinv, jinv)
        sigma = np.linalg.svd(jac, compute_uv=False)[:, -1]
        h = self._scale(gp, g, sigma)
        return self.phi.eval_values(elements, pts) / h


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
