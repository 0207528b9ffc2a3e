import numpy as np
import pytest

import levelset.transport as transport
from levelset import (AnalyticField, BasisSpec, MeshPatch, build_structured, grade_structured,
                      triangulate)
from levelset.basis import _ders_basis_batched, tensor_products
from levelset.mesh import _split_lattice


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def unit_square(n, degree=1, continuity=None):
    return build_structured([(0.0, 1.0), (0.0, 1.0)], [n, n], degree, continuity)


def unit_line(n, degree=1):
    return build_structured([(0.0, 1.0)], [n], degree)


def alternating_line_patch(n=10):
    """1D mesh with element widths alternating 0.05/0.15 (for n=10)."""
    pair = 2.0 / n
    widths = np.tile([0.25 * pair, 0.75 * pair], n // 2)
    nodes = np.concatenate([[0.0], np.cumsum(widths)])
    law = lambda s: np.interp(s, np.linspace(0.0, 1.0, n + 1), nodes)
    return grade_structured(unit_line(n), law)


def geometric_line_patch(n=10, ratio=1.04):
    """1D mesh whose element widths grow geometrically by ``ratio``."""
    widths = ratio ** np.arange(n)
    nodes = np.concatenate([[0.0], np.cumsum(widths)])
    nodes /= nodes[-1]
    law = lambda s: np.interp(s, np.linspace(0.0, 1.0, n + 1), nodes)
    return grade_structured(unit_line(n), law)


def graded_square(n=40, degree=2, powers=(2.0, 1.6)):
    """Unit square graded toward both axes (distinct powers keep x-y asymmetry)."""
    base = unit_square(n, degree)
    px, py = powers
    return grade_structured(base, (lambda s: s**px, lambda s: s**py))


def nurbs_square(n=7, spread=0.8, seed=3):
    """C1 quadratic NURBS field on the unit square with non-uniform weights,
    which make every element's basis block distinct."""
    base = unit_square(n, degree=2)
    w = 1.0 + spread * np.random.default_rng(seed).uniform(-0.5, 1.0, base.n_dofs)
    spec = BasisSpec.tensor_uniform((2, 2), (n, n), weights=w)
    return MeshPatch(spec, base.geom_spec, base.geom_coeffs, grid_lines=base.grid_lines)


# patches with few distinct basis blocks (trilinear, C1 quadratic, graded,
# triangles) and one where every block is distinct (NURBS)
BASIS_BLOCK_PATCHES = {
    "trilinear-6": lambda: build_structured([(0.0, 1.0)] * 3, [6] * 3, 1),
    "c1-quadratic-7": lambda: unit_square(7, degree=2),
    "graded-quadratic": lambda: graded_square(10, 2),
    "triangles": lambda: triangulate(unit_square(6)),
    "nurbs": nurbs_square,
}


def assembled_projection(patch, kappa_d, rhs=None):
    """The projection system of ``patch`` assembled on its CSR pattern from
    the operator's element matrices, whether or not the operator itself
    assembles: the oracle of a separable patch's Kronecker sum. ``rhs`` is
    an integrand as :meth:`ProjectionOperator.system` takes it, or None for
    a zero right-hand side."""
    from levelset import ProjectionOperator

    op = ProjectionOperator(patch, kappa_d)
    b = np.zeros(patch.n_dofs) if rhs is None else op.system(rhs).rhs
    return patch.csr_pattern().assemble(op.element_matrices(), b)


def quadrature_points(patch):
    """Global parametric quadrature points (nel, nq, dim) of every element."""
    ref = patch.quadrature.points
    if patch.family == "tensor":
        multi = patch.element_multi_index(np.arange(patch.n_elements))
        offsets = np.stack([m.astype(np.float64) for m in multi], axis=-1)
        return offsets[:, None, :] + ref[None, :, :]
    v = _split_lattice(*patch.n_elems)
    return v[:, None, 0, :] + np.einsum("edr,qr->eqd", frame(v), ref)


def frame(v):
    """Edge vectors v1 - v0 and v2 - v0 of triangles ``v`` (m, 3, dim) as the
    columns of (m, dim, 2): the affine map from the reference triangle."""
    return np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1).astype(np.float64)


def frame_barycentrics(patch, elements, pts):
    """Barycentric coordinates (m, 3) and their parametric gradients (m, 3, 2)
    of a triangulated patch, by solving with each triangle's parametric
    frame on the split grid: the oracle of the closed form."""
    v = _split_lattice(*patch.n_elems)[elements]
    a = frame(v)
    ref = np.linalg.solve(a, (pts - v[:, 0])[..., None])[..., 0]
    lam = np.column_stack([1.0 - ref[:, 0] - ref[:, 1], ref])
    ref_grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    grads = np.einsum("mde,ae->mad", np.linalg.inv(a.swapaxes(1, 2)), ref_grads)
    return lam, grads


def frame_jacobians(patch):
    """J (nel, 2, 2) of every triangle of a triangulated patch: the frame of
    its physical vertices times the inverse of its parametric frame."""
    return frame(patch.geom_coeffs[patch.conn]) @ np.linalg.inv(
        frame(_split_lattice(*patch.n_elems)))


def _at_quadrature(patch, evaluate):
    qp = quadrature_points(patch)
    nel, nq, dim = qp.shape
    return nel, nq, evaluate(np.repeat(np.arange(nel), nq), qp.reshape(-1, dim))


def basis_blocks(patch):
    """Each element's field basis values (nel, nq, nen), parametric gradients
    (nel, nq, nen, dim) and dofs (nel, nq, nen), evaluated point by point by
    ``field_basis_eval`` at the quadrature points: the oracle of the
    tabulation's per-group tables."""
    nel, nq, be = _at_quadrature(patch, patch.field_basis_eval)
    nen = be.values.shape[1]
    return (be.values.reshape(nel, nq, nen), be.grads.reshape(nel, nq, nen, patch.dim),
            be.indices.reshape(nel, nq, nen))


def local_basis_blocks(patch):
    """Each element's field basis values (nel, nq, nen) and parametric
    gradients (nel, nq, nen, dim), tabulated element by element on its own
    local coordinates: per direction, the Gauss points on the element's knot
    vector shifted by its left knot. The oracle of the bits of a tensor
    B-spline patch's group tables; a rational or triangulated patch, whose
    tables are evaluations at the global points, has those of
    :func:`basis_blocks`."""
    spec = patch.field_spec
    if patch.family != "tensor" or spec.weights is not None:
        return basis_blocks(patch)[:2]
    ref = patch.quadrature.points
    multi = patch.element_multi_index(np.arange(patch.n_elements))
    vals, grads = [], []
    for e in range(patch.n_elements):
        per_dir = []
        for d, (knots, p) in enumerate(zip(spec.knots, spec.degrees)):
            span = int(spec.span_of_element(d, multi[d][e]))
            per_dir.append(_ders_basis_batched(knots - knots[span], p, ref[:, d],
                                               spans=np.full(len(ref), span))[1])
        n, dn = tensor_products(per_dir)
        vals.append(n)
        grads.append(dn)
    return np.stack(vals), np.stack(grads)


def within_ulps(got, want, ulps):
    """Whether ``got`` matches ``want`` to ``ulps`` machine epsilons of
    ``want``'s largest magnitude, shapes included."""
    scale = np.finfo(np.float64).eps * np.abs(want).max()
    return got.shape == want.shape and np.abs(got - want).max() <= ulps * scale


# roundoff of the tabulation on local coordinates against evaluation at the
# global quadrature points, in epsilons of each table's largest magnitude,
# over the patches of BASIS_BLOCK_PATCHES: measured at most 8.9 for the basis
# values and gradients and 8.5 for the measure weights (BASIS_ULPS, which P+-
# at rest take too), 2.6 for x (X_ULPS) and 6.8 for J (J_ULPS)
BASIS_ULPS = 12
X_ULPS = 4
J_ULPS = 8


def geometry_at_quadrature(patch):
    """x (nel, nq, dim) and J (nel, nq, dim, dim), evaluated point by point by
    ``geometry_eval`` at the quadrature points."""
    nel, nq, (x, jac) = _at_quadrature(patch, patch.geometry_eval)
    return x.reshape(nel, nq, patch.dim), jac.reshape(nel, nq, patch.dim, patch.dim)


def metric(tab):
    """The metric J^-T J^-1 at each quadrature point of ``tab``, formed from
    its Jacobians as the transport set-up forms it."""
    jinv = np.linalg.inv(tab.J)
    return jinv.swapaxes(-1, -2) @ jinv


def linear_field(patch, a, b=0.0, c=0.0):
    """Analytic a*x + b*y + c with its exact gradient."""
    grad = np.array([a, b][: patch.dim], dtype=np.float64)

    def fn(x):
        return x[..., 0] * a + (x[..., 1] * b if patch.dim > 1 else 0.0) + c

    def grad_fn(x):
        return np.broadcast_to(grad, np.shape(x)).copy()

    return AnalyticField(patch, fn, grad_fn)


def recording_solver(monkeypatch):
    """Route the transport integrator's solves through a recorder of (system,
    x0); returns the list it appends to."""
    calls = []
    real = transport.solve_nonsymmetric

    def record(system, rel_tol=1e-10, max_iter=None, x0=None, kept=None):
        calls.append((system, np.array(x0)))
        return real(system, rel_tol=rel_tol, max_iter=max_iter, x0=x0, kept=kept)

    monkeypatch.setattr(transport, "solve_nonsymmetric", record)
    return calls
