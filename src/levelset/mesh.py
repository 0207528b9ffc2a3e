"""Meshes: structured tensor-product patches, triangulations, quadrature rules
and the tabulated geometry (x, J, its inverse and the metric G = J^-T J^-1 at
the quadrature points).

A patch couples a field basis (which carries degree and continuity) with a
geometry map. Structured patches built here use a piecewise-multilinear
geometry (grid lines interpolated linearly), so an element's Jacobian is the
diagonal of its edge widths and parametric element size equals the physical
element width; curved geometry of any degree can still be supplied directly.
Parametric coordinates use unit knot spans, so parametric distance counts
element lengths. On such a patch with a plain B-spline field, the
projection's mass and parametric-stiffness matrices are Kronecker products of
1D ones, whose generalized eigenpairs the patch keeps
(:meth:`MeshPatch.kronecker_eigenpairs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .basis import (BasisEval, BasisSpec, eval_tensor_batched, eval_tensor_values,
                    _SIMPLEX_REF_GRADS)
from .gram import BasisGroups, ParametricGram
from .linalg import CsrPattern


class InvertedElementError(RuntimeError):
    """Jacobian determinant nonpositive somewhere in an element."""


class InvalidGradingError(ValueError):
    """Grading law is not strictly monotone on [0, 1]."""


@dataclass
class QuadratureRule:
    """Reference-element quadrature points and weights.

    Weights sum to the reference measure (1 for the unit box, 1/2 for the
    unit right triangle).
    """

    points: np.ndarray
    weights: np.ndarray


def gauss_rule_unit(npts):
    """Gauss-Legendre points/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


def tensor_gauss_rule(degrees):
    """Per-direction (degree+1)-point Gauss rule on the unit box."""
    pts_1d = []
    wts_1d = []
    for p in degrees:
        x, w = gauss_rule_unit(p + 1)
        pts_1d.append(x)
        wts_1d.append(w)
    grids = np.meshgrid(*pts_1d, indexing="ij")
    pts = np.stack([g.ravel(order="F") for g in grids], axis=-1)
    wgrids = np.meshgrid(*wts_1d, indexing="ij")
    w = np.ones(pts.shape[0])
    for g in wgrids:
        w = w * g.ravel(order="F")
    return QuadratureRule(pts, w)


class Tabulation(SimpleNamespace):
    """Per-element quadrature arrays of a patch (see :meth:`MeshPatch.tabulation`)."""

    @cached_property
    def sigma_min(self):
        """Smallest singular value of J at each quadrature point (nel, nq)."""
        return np.linalg.svd(self.J, compute_uv=False)[..., -1]

    @cached_property
    def basis_groups(self):
        """The elements grouped by bitwise-identical ``field_N`` and ``field_dN``
        blocks (see :class:`BasisGroups`), computed on first use."""
        return BasisGroups.of(self.field_N, self.field_dN)


def _simplex_frame(v):
    """Edge vectors v1 - v0 and v2 - v0 of triangles ``v`` (m, 3, dim) as the
    columns of (m, dim, 2): the affine map from the reference triangle."""
    return np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)


def triangle_rule():
    """Edge-midpoint rule on the unit right triangle (degree-2 exact)."""
    pts = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
    w = np.full(3, 1.0 / 6.0)
    return QuadratureRule(pts, w)


class MeshPatch:
    """Geometry + field discretization over one patch.

    Tensor patches: ``field_spec``/``geom_spec`` are tensor-product bases on
    the same unit-span breakpoints, ``geom_coeffs`` holds the geometry
    control points. Simplex patches: element connectivity over shared nodes
    with per-element parametric vertex coordinates.

    Instances are immutable after construction; all queries are pure.
    Element tabulations at quadrature points are built lazily and cached, and
    so are the field-basis values at the sample sets the patch hands out.
    """

    def __init__(self, field_spec, geom_spec=None, geom_coeffs=None, *,
                 node_coords=None, conn=None, param_vertices=None,
                 quadrature=None, grid_lines=None):
        self.field_spec = field_spec
        self.family = field_spec.family
        if self.family == "tensor":
            self.dim = field_spec.dim
            self.geom_spec = geom_spec
            self.geom_coeffs = np.asarray(geom_coeffs, dtype=np.float64)
            if self.geom_coeffs.shape != (geom_spec.n_funcs, self.dim):
                raise ValueError("geometry control net shape mismatch")
            self.n_elems = tuple(int(round(kv[-1] - kv[0])) for kv in field_spec.knots)
            geom_elems = tuple(int(round(kv[-1] - kv[0])) for kv in geom_spec.knots)
            if geom_elems != self.n_elems:
                raise ValueError("field and geometry bases must share breakpoints")
            self.n_elements = int(np.prod(self.n_elems))
            self.n_dofs = field_spec.n_funcs
            self.quadrature = quadrature or tensor_gauss_rule(field_spec.degrees)
            self.grid_lines = None
            if grid_lines is not None:
                self.grid_lines = tuple(np.asarray(g, dtype=np.float64) for g in grid_lines)
            # span index of each element, per direction and basis
            self._field_spans = tuple(
                np.array([field_spec.span_of_element(d, k) for k in range(self.n_elems[d])])
                for d in range(self.dim)
            )
            self._geom_spans = tuple(
                np.array([geom_spec.span_of_element(d, k) for k in range(self.n_elems[d])])
                for d in range(self.dim)
            )
        elif self.family == "simplex":
            self.dim = field_spec.dim
            self.node_coords = np.asarray(node_coords, dtype=np.float64)
            self.conn = np.asarray(conn, dtype=np.int64)
            self.param_vertices = np.asarray(param_vertices, dtype=np.float64)
            self.n_elements = len(self.conn)
            self.n_dofs = len(self.node_coords)
            self.quadrature = quadrature or triangle_rule()
            self.grid_lines = None
            if grid_lines is not None:
                self.grid_lines = tuple(np.asarray(g, dtype=np.float64) for g in grid_lines)
        else:
            raise ValueError(f"unknown family {self.family!r}")
        self._tab = None
        self._edge_cache = {}
        # (id(elements), id(pts)) of each read-only sample set handed out by
        # interior_edge_samples -> its field-basis (indices, values), or None
        # until first evaluated
        self._sample_values = {}

    # ------------------------------------------------------------------
    # element bookkeeping

    def element_multi_index(self, elements):
        """Per-direction element indices for flat element ids (tensor)."""
        elements = np.asarray(elements, dtype=np.int64)
        out = []
        rem = elements
        for d in range(self.dim):
            out.append(rem % self.n_elems[d])
            rem = rem // self.n_elems[d]
        return out

    def element_of_param(self, pts):
        """Flat element id containing each global parametric point."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        if self.family == "tensor":
            eid = np.zeros(len(pts), dtype=np.int64)
            stride = 1
            for d in range(self.dim):
                k = np.clip(np.floor(pts[:, d]).astype(np.int64), 0, self.n_elems[d] - 1)
                eid += k * stride
                stride *= self.n_elems[d]
            return eid
        # simplex: brute-force barycentric containment
        eid = np.full(len(pts), -1, dtype=np.int64)
        for e in range(self.n_elements):
            need = eid < 0
            if not np.any(need):
                break
            lam = self._simplex_bary(np.full(need.sum(), e), pts[need])
            inside = np.all(lam >= -1e-10, axis=1)
            idx = np.where(need)[0][inside]
            eid[idx] = e
        if np.any(eid < 0):
            raise ValueError("point not inside any element")
        return eid

    # ------------------------------------------------------------------
    # low-level evaluation

    def _element_spans(self, span_maps, elements):
        multi = self.element_multi_index(elements)
        return [span_maps[d][multi[d]] for d in range(self.dim)]

    def _tensor_eval(self, spec, span_maps, elements, pts, mixed=False):
        spans = self._element_spans(span_maps, elements)
        return eval_tensor_batched(spec, pts, mixed=mixed, spans_per_dir=spans)

    def field_basis_eval(self, elements, pts, mixed=False):
        """Field-basis values/gradients at global parametric points.

        Evaluation is one-sided: points on an element boundary are evaluated
        from the element given, yielding that side's limit.
        """
        if self.family == "tensor":
            return self._tensor_eval(self.field_spec, self._field_spans, elements, pts,
                                     mixed=mixed)
        return self._simplex_field_eval(elements, pts)

    def field_basis_values(self, elements, pts):
        """Field-basis ``(indices, values)`` at global parametric points.

        The values equal those of :meth:`field_basis_eval`, one-sided in the
        same way, without the gradients. For the read-only sample sets that
        :meth:`interior_edge_samples` returns they are computed once and kept
        (indices as int32); any other arrays are evaluated on every call.
        """
        key = (id(elements), id(pts))
        owned = key in self._sample_values and not (
            elements.flags.writeable or pts.flags.writeable)
        if owned and self._sample_values[key] is not None:
            return self._sample_values[key]
        if self.family == "tensor":
            spans = self._element_spans(self._field_spans, elements)
            idx, vals = eval_tensor_values(self.field_spec, pts, spans_per_dir=spans)
        else:
            elements = np.asarray(elements, dtype=np.int64)
            pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
            idx, vals = self.conn[elements], self._simplex_bary(elements, pts)
        if owned:
            self._sample_values[key] = (idx.astype(np.int32), vals)
            return self._sample_values[key]
        return idx, vals

    def _simplex_bary(self, elements, pts):
        v = self.param_vertices[elements]  # (m, 3, dim)
        a = _simplex_frame(v)  # (m, dim, 2)
        rhs = pts - v[:, 0]
        ref = np.linalg.solve(a, rhs[..., None])[..., 0]
        lam = np.empty((len(pts), 3))
        lam[:, 1] = ref[:, 0]
        lam[:, 2] = ref[:, 1]
        lam[:, 0] = 1.0 - ref[:, 0] - ref[:, 1]
        return lam

    def _simplex_field_eval(self, elements, pts):
        elements = np.asarray(elements, dtype=np.int64)
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        lam = self._simplex_bary(elements, pts)
        a = _simplex_frame(self.param_vertices[elements])
        ainv_t = np.linalg.inv(np.swapaxes(a, -1, -2))
        grads = np.einsum("mde,ae->mad", ainv_t, _SIMPLEX_REF_GRADS)
        return BasisEval(self.conn[elements], lam, grads, None)

    def physical_coords(self, elements, pts):
        """Physical coordinates at parametric points, equal to the first
        result of :meth:`geometry_eval` without the Jacobian."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        elements = np.asarray(elements, dtype=np.int64)
        if self.family == "tensor":
            spans = self._element_spans(self._geom_spans, elements)
            idx, vals = eval_tensor_values(self.geom_spec, pts, spans_per_dir=spans)
            return np.einsum("ma,mad->md", vals, self.geom_coeffs[idx])
        lam = self._simplex_bary(elements, pts)
        return np.einsum("ma,mad->md", lam, self.node_coords[self.conn[elements]])

    def geometry_eval(self, elements, pts):
        """Physical coordinates and Jacobian dx/dxi at parametric points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        if self.family == "tensor":
            be = self._tensor_eval(self.geom_spec, self._geom_spans, elements, pts)
            cp = self.geom_coeffs[be.indices]  # (m, ng, dim)
            x = np.einsum("ma,mad->md", be.values, cp)
            jac = np.einsum("mad,mak->mdk", cp, be.grads)
            return x, jac
        elements = np.asarray(elements, dtype=np.int64)
        lam = self._simplex_bary(elements, pts)
        xv = self.node_coords[self.conn[elements]]  # (m, 3, dim)
        x = np.einsum("ma,mad->md", lam, xv)
        a = _simplex_frame(self.param_vertices[elements])  # param ref->param
        b = _simplex_frame(xv)  # ref->phys
        jac = b @ np.linalg.inv(a)
        return x, jac

    # ------------------------------------------------------------------
    # tabulated quadrature data

    def tabulation(self):
        """Per-element arrays at quadrature points (lazily built, cached).

        Fields: x (nel,nq,dim), field_conn (nel,nen), field_N (nel,nq,nen),
        field_dN (nel,nq,nen,dim), J, Jinv, G, wdet (physical measure
        weights), sigma_min (smallest singular value of J, the
        degenerate-direction fallback length) and basis_groups (elements with
        bitwise-equal basis blocks), both computed on first use.
        """
        if self._tab is not None:
            return self._tab
        nel = self.n_elements
        ref = self.quadrature.points
        nq = len(ref)
        if self.family == "tensor":
            offsets = np.stack(
                [m.astype(np.float64) for m in self.element_multi_index(np.arange(nel))],
                axis=-1,
            )  # (nel, dim)
            qp = offsets[:, None, :] + ref[None, :, :]
        else:
            v = self.param_vertices
            qp = v[:, None, 0, :] + np.einsum("edr,qr->eqd", _simplex_frame(v), ref)
        flat_elems = np.repeat(np.arange(nel), nq)
        flat_pts = qp.reshape(-1, self.dim)
        fe = self.field_basis_eval(flat_elems, flat_pts)
        x, jac = self.geometry_eval(flat_elems, flat_pts)
        detj = np.linalg.det(jac)
        if np.any(detj <= 0):
            bad = int(flat_elems[np.argmin(detj)])
            raise InvertedElementError(
                f"nonpositive Jacobian determinant in element {bad}"
            )
        jinv = np.linalg.inv(jac)
        nen = fe.values.shape[1]
        dim = self.dim
        if self.family == "tensor":
            ref_w = self.quadrature.weights
            wdet = detj.reshape(nel, nq) * ref_w[None, :]
        else:
            a = _simplex_frame(self.param_vertices)
            ref_to_phys_det = np.abs(detj.reshape(nel, nq) * np.linalg.det(a)[:, None])
            wdet = ref_to_phys_det * self.quadrature.weights[None, :]
        g = np.einsum("mkd,mke->mde", jinv, jinv)
        self._tab = Tabulation(
            x=x.reshape(nel, nq, dim),
            field_conn=fe.indices.reshape(nel, nq, nen)[:, 0, :],
            field_N=fe.values.reshape(nel, nq, nen),
            field_dN=fe.grads.reshape(nel, nq, nen, dim),
            J=jac.reshape(nel, nq, dim, dim),
            Jinv=jinv.reshape(nel, nq, dim, dim),
            G=g.reshape(nel, nq, dim, dim),
            wdet=wdet,
        )
        return self._tab

    def _separable(self):
        """Whether the projection matrix is a Kronecker sum of 1D matrices: a
        tensor B-spline field without weights on the unweighted degree-1
        geometry whose control net is the grid of ``grid_lines``, with the
        tensor Gauss rule."""
        if self.family != "tensor" or self.grid_lines is None:
            return False
        geom = self.geom_spec
        if self.field_spec.weights is not None or geom.weights is not None \
                or any(p != 1 for p in geom.degrees):
            return False
        if tuple(map(len, self.grid_lines)) != tuple(n + 1 for n in self.n_elems):
            return False
        rule = tensor_gauss_rule(self.field_spec.degrees)
        return (np.array_equal(self.geom_coeffs, _grid_net(self.grid_lines))
                and np.array_equal(self.quadrature.points, rule.points)
                and np.array_equal(self.quadrature.weights, rule.weights))

    def kronecker_eigenpairs(self):
        """Per-direction generalized eigenpairs of the 1D parametric stiffness
        and mass matrices (lazily built, cached), or None unless the patch is
        separable (a plain B-spline field on the multilinear grid geometry).

        Direction d's pair ``(lam, U)`` solves ``K_d U = M_d U diag(lam)``
        with ``U^T M_d U = I``. For every kappa_d, the patch's projection
        matrix mass + kappa_d * stiffness is the Kronecker sum of the M_d and
        K_d (see :class:`levelset.linalg.KroneckerInverse`).
        """
        if not hasattr(self, "_kron"):
            self._kron = None
            if self._separable():
                self._kron = tuple(self._line_eigenpairs(d) for d in range(self.dim))
        return self._kron

    def _line_eigenpairs(self, d):
        """M_d and K_d assembled on the 1D patch of direction d's knot vectors
        and grid line; the pairs from ``eigh(L^-1 K_d L^-T)``, L the Cholesky
        factor of M_d."""
        line = self.grid_lines[d]
        field = BasisSpec("tensor", degrees=self.field_spec.degrees[d:d + 1],
                          knots=self.field_spec.knots[d:d + 1])
        geom = BasisSpec("tensor", degrees=(1,), knots=self.geom_spec.knots[d:d + 1])
        patch = MeshPatch(field, geom, line[:, None], grid_lines=(line,))
        tab, pattern = patch.tabulation(), patch.csr_pattern()
        zero = np.zeros(patch.n_dofs)
        mass, stiffness = (
            pattern.assemble(ParametricGram(tab, m, k)(tab.wdet), zero).matrix.toarray()
            for m, k in ((1.0, 0.0), (0.0, 1.0)))
        chol = np.linalg.cholesky(mass)
        half = np.linalg.solve(chol, stiffness)  # L^-1 K
        lam, vecs = np.linalg.eigh(np.linalg.solve(chol, half.T))
        return lam, np.linalg.solve(chol.T, vecs)

    def csr_pattern(self):
        """Sparsity pattern of element-dense assembly (lazily built).

        The entry stream layout matches raveled per-element matrices of
        shape (n_elements, nen, nen).
        """
        pat = getattr(self, "_csr", None)
        if pat is None:
            conn = self.tabulation().field_conn
            nel, nen = conn.shape
            rows = np.broadcast_to(conn[:, :, None], (nel, nen, nen))
            cols = np.broadcast_to(conn[:, None, :], (nel, nen, nen))
            pat = CsrPattern(rows.ravel(), cols.ravel(), self.n_dofs)
            self._csr = pat
        return pat

    def scatter_dofs(self, element_values):
        """Sum per-element nodal contributions (nel, nen) into a dof vector."""
        conn = self.tabulation().field_conn
        return np.bincount(conn.ravel(), weights=np.asarray(element_values).ravel(),
                           minlength=self.n_dofs)

    def domain_measure(self):
        return float(self.tabulation().wdet.sum())

    def h_min(self):
        """Smallest element length (CFL scale)."""
        if self.family == "tensor" and self.grid_lines is not None:
            return float(min(np.diff(g).min() for g in self.grid_lines))
        return float(self.tabulation().sigma_min.min())

    def param_of_physical(self, x):
        """Invert the (separable piecewise-linear) geometry map."""
        if self.grid_lines is None:
            raise ValueError("inverse map available for structured grid patches only")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.empty_like(x)
        for d in range(self.dim):
            lines = self.grid_lines[d]
            out[:, d] = np.interp(x[:, d], lines, np.arange(len(lines), dtype=np.float64))
        return out

    # ------------------------------------------------------------------
    # edges

    def interior_edge_samples(self, n_per_edge=4):
        """Paired one-sided sample points on every interior element edge.

        Returns (elems_left, pts_left, elems_right, pts_right); the k-th
        entries address the same geometric point from the two adjacent
        elements. The arrays are read-only and the same on every call, so
        :meth:`field_basis_values` keeps their evaluation.
        """
        key = n_per_edge
        if key in self._edge_cache:
            return self._edge_cache[key]
        if self.family == "tensor":
            if self.dim == 1:
                n = self.n_elems[0]
                ks = np.arange(1, n)
                pts = ks.astype(np.float64)[:, None]
                res = (ks - 1, pts, ks.copy(), pts.copy())
            elif self.dim == 2:
                t = (np.arange(n_per_edge) + 0.5) / n_per_edge
                nx, ny = self.n_elems
                # vertical lines x = k, then horizontal lines y = k; along each
                # line element by element, the edge parameter fastest
                k, j, s = np.meshgrid(np.arange(1, nx), np.arange(ny), t, indexing="ij")
                vert = np.stack([k.astype(np.float64), j + s], axis=-1).reshape(-1, 2)
                vert_l = ((k - 1) + j * nx).ravel()
                k, i, s = np.meshgrid(np.arange(1, ny), np.arange(nx), t, indexing="ij")
                horiz = np.stack([i + s, k.astype(np.float64)], axis=-1).reshape(-1, 2)
                horiz_l = (i + (k - 1) * nx).ravel()
                pts = np.concatenate([vert, horiz])
                els_l = np.concatenate([vert_l, horiz_l])
                els_r = np.concatenate([vert_l + 1, horiz_l + nx])
                res = (els_l, pts, els_r, pts.copy())
            else:
                raise NotImplementedError("edge sampling implemented for dim <= 2")
        else:
            edges = {}
            for e, tri in enumerate(self.conn):
                for a, b in ((0, 1), (1, 2), (2, 0)):
                    key_e = (min(tri[a], tri[b]), max(tri[a], tri[b]))
                    edges.setdefault(key_e, []).append((e, a, b))
            t = (np.arange(n_per_edge) + 0.5) / n_per_edge
            els_l, els_r, pts_l, pts_r = [], [], [], []
            for (na, nb), owners in edges.items():
                if len(owners) != 2:
                    continue
                (e1, a1, b1), (e2, a2, b2) = owners
                v1 = self.param_vertices[e1]
                v2 = self.param_vertices[e2]
                # orient both parametrizations from node na to node nb
                if self.conn[e1][a1] != na:
                    a1, b1 = b1, a1
                if self.conn[e2][a2] != na:
                    a2, b2 = b2, a2
                for s in t:
                    pts_l.append(v1[a1] + s * (v1[b1] - v1[a1]))
                    pts_r.append(v2[a2] + s * (v2[b2] - v2[a2]))
                    els_l.append(e1)
                    els_r.append(e2)
            res = (np.array(els_l), np.array(pts_l), np.array(els_r), np.array(pts_r))
        for arr in res:
            arr.flags.writeable = False
        self._sample_values[(id(res[0]), id(res[1]))] = None
        self._sample_values[(id(res[2]), id(res[3]))] = None
        self._edge_cache[key] = res
        return res


# ----------------------------------------------------------------------
# constructors


def build_structured(extents, counts, degree, continuity=None):
    """Uniform tensor-product patch on a box.

    ``extents`` is one (lo, hi) pair per direction, ``counts`` the element
    count per direction. The geometry map is piecewise multilinear through
    the grid nodes; the field basis has the requested degree and continuity.
    """
    extents = np.atleast_2d(np.asarray(extents, dtype=np.float64))
    counts = tuple(int(n) for n in np.atleast_1d(counts))
    dim = len(counts)
    if extents.shape != (dim, 2):
        raise ValueError("one (lo, hi) extent pair per direction required")
    if any(n < 1 for n in counts):
        raise ValueError("element counts must be >= 1")
    field_spec = BasisSpec.tensor_uniform(degree, counts, continuity)
    geom_spec = BasisSpec.tensor_uniform(1, counts)
    lines = [np.linspace(lo, hi, n + 1) for (lo, hi), n in zip(extents, counts)]
    return MeshPatch(field_spec, geom_spec, _grid_net(lines), grid_lines=lines)


def _grid_net(lines):
    """Control net (n_points, dim) of the grid of ``lines``, direction 0 fastest."""
    grids = np.meshgrid(*lines, indexing="ij")
    return np.stack([g.ravel(order="F") for g in grids], axis=-1)


def _as_laws(law, dim):
    if callable(law):
        return (law,) * dim
    laws = tuple(law)
    if len(laws) != dim:
        raise ValueError("one grading law per direction required")
    return laws


def grade_structured(patch, law):
    """Remap a structured patch's nodes through a monotone grading law.

    ``law`` maps [0, 1] to [0, 1] (normalized if its endpoint values differ)
    and must be strictly increasing; it is applied per direction (a tuple
    gives one law per direction). Parametric structure is unchanged.
    """
    if patch.family != "tensor" or patch.grid_lines is None:
        raise ValueError("grading applies to structured grid patches")
    laws = _as_laws(law, patch.dim)
    new_lines = []
    for d, f in enumerate(laws):
        lines = patch.grid_lines[d]
        lo, hi = lines[0], lines[-1]
        s_check = np.unique(np.concatenate([np.linspace(0.0, 1.0, 257),
                                            (lines - lo) / (hi - lo)]))
        vals = np.array([float(f(s)) for s in s_check])
        if np.any(np.diff(vals) <= 0):
            raise InvalidGradingError(f"grading law not strictly monotone (direction {d})")
        f0, f1 = float(f(0.0)), float(f(1.0))
        s = (lines - lo) / (hi - lo)
        mapped = np.array([float(f(v)) for v in s])
        mapped = (mapped - f0) / (f1 - f0)
        new_lines.append(lo + (hi - lo) * mapped)
    return MeshPatch(patch.field_spec, patch.geom_spec, _grid_net(new_lines),
                     grid_lines=new_lines)


def triangulate(patch, pattern=2):
    """Split a structured linear quadrilateral patch into triangles.

    ``pattern=2`` splits each quad along one diagonal (node set preserved);
    ``pattern=4`` adds the quad center and splits into four. Parametric
    triangle vertices inherit the parent grid's coordinates, so each parent
    edge keeps unit parametric length.
    """
    if patch.family != "tensor" or patch.dim != 2:
        raise ValueError("triangulation requires a 2D tensor patch")
    if any(p != 1 for p in patch.field_spec.degrees):
        raise ValueError("triangulation requires a linear quadrilateral patch")
    nx, ny = patch.n_elems
    nodes = patch.geom_coeffs.copy()

    def nid(i, j):
        return i + j * (nx + 1)

    conn = []
    pv = []
    extra = []
    next_id = len(nodes)
    for j in range(ny):
        for i in range(nx):
            n00, n10 = nid(i, j), nid(i + 1, j)
            n11, n01 = nid(i + 1, j + 1), nid(i, j + 1)
            p00, p10 = (i, j), (i + 1, j)
            p11, p01 = (i + 1, j + 1), (i, j + 1)
            if pattern == 2:
                conn.append((n00, n10, n11))
                pv.append((p00, p10, p11))
                conn.append((n00, n11, n01))
                pv.append((p00, p11, p01))
            elif pattern == 4:
                c = next_id
                next_id += 1
                extra.append(0.25 * (nodes[n00] + nodes[n10] + nodes[n11] + nodes[n01]))
                pc = (i + 0.5, j + 0.5)
                for (a, b), (pa, pb) in (((n00, n10), (p00, p10)), ((n10, n11), (p10, p11)),
                                         ((n11, n01), (p11, p01)), ((n01, n00), (p01, p00))):
                    conn.append((a, b, c))
                    pv.append((pa, pb, pc))
            else:
                raise ValueError("split pattern must be 2 or 4")
    if extra:
        nodes = np.vstack([nodes, np.array(extra)])
    return MeshPatch(
        BasisSpec.simplex(2),
        node_coords=nodes,
        conn=np.array(conn, dtype=np.int64),
        param_vertices=np.array(pv, dtype=np.float64),
        grid_lines=patch.grid_lines,
    )


def read_gmsh(path):
    """Import a linear-triangle mesh from the v2.2 ASCII format.

    Only 3-node triangles are kept. Each triangle's parametric space is the
    unit right triangle, so every imported element has unit parametric edge
    lengths along its legs.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    ids = {}
    coords = []
    tris = []
    i = 0
    while i < len(lines):
        if lines[i] == "$Nodes":
            count = int(lines[i + 1])
            for k in range(count):
                parts = lines[i + 2 + k].split()
                ids[int(parts[0])] = len(coords)
                coords.append((float(parts[1]), float(parts[2])))
            i += 2 + count
        elif lines[i] == "$Elements":
            count = int(lines[i + 1])
            for k in range(count):
                parts = lines[i + 2 + k].split()
                etype = int(parts[1])
                if etype != 2:
                    continue
                ntags = int(parts[2])
                nd = [ids[int(v)] for v in parts[3 + ntags: 6 + ntags]]
                tris.append(nd)
            i += 2 + count
        else:
            i += 1
    if not tris:
        raise ValueError(f"{path}: no linear triangles found")
    coords = np.array(coords)
    tris = np.array(tris, dtype=np.int64)
    # orient all triangles counterclockwise
    e1 = coords[tris[:, 1]] - coords[tris[:, 0]]
    e2 = coords[tris[:, 2]] - coords[tris[:, 0]]
    flip = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pv = np.broadcast_to(ref, (len(tris), 3, 2)).copy()
    return MeshPatch(
        BasisSpec.simplex(2),
        node_coords=coords,
        conn=tris,
        param_vertices=pv,
    )
