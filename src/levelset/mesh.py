"""Meshes: structured tensor-product patches, triangulations, quadrature rules,
the tabulation (x and J at the quadrature points, and the field basis once
per group of elements with one basis block) and the sample points at which
fields are evaluated off the quadrature rule (:class:`SamplePoints`).

A tensor patch's interior-edge samples are grid blocks (:class:`GridBlock`):
products of per-direction 1D lists of (element, local coordinate) pairs, the
knots of one direction's interior grid lines times the points along them. Each
basis is tabulated there once per 1D list, p+1 values and derivatives per
entry, and a field's values, x and J are two 1D banded products over the
coefficient grid per block, the sum-factorization view that
:mod:`levelset.gram` takes at the quadrature points, whose lattice is a grid
block too. Other sample points evaluate the basis point by point.

A patch couples a field basis (which carries degree and continuity) with a
geometry map. Structured patches built here use a piecewise-multilinear
geometry (grid lines interpolated linearly), so an element's Jacobian is the
diagonal of its edge widths and parametric element size equals the physical
element width; curved geometry of any degree can still be supplied directly.
Parametric coordinates use unit knot spans, so parametric distance counts
element lengths. On such a patch with a plain B-spline field, the
projection's mass and parametric-stiffness matrices are Kronecker products of
1D ones, which the patch keeps with their generalized eigenpairs
(:meth:`MeshPatch.kronecker_eigenpairs`).

A triangulated patch is its parent's structured nx x ny grid with every quad
q = i + j * nx split along the diagonal from (i, j) to (i+1, j+1): triangle
2q is the lower-right half, 2q+1 the upper-left one (:func:`triangulate`).
Its nodes and grid lines are all it keeps: connectivity follows from the
split, and a point's barycentric coordinates are a fixed affine function of
its coordinates in its quad, one for each half. They serve as its field and
its geometry basis, and its nodes as its control points, so a triangle is
evaluated as a tensor element is: x = sum_a N_a c_a and J = c^T grad N.
Locating points and pairing edges use the grid, as on tensor patches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .basis import (BasisEval, BasisSpec, _ders_basis_batched, active_indices, check_finite,
                    eval_tensor_batched, line_products, tensor_indices)
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
    """Quadrature arrays of a patch (see :meth:`MeshPatch.tabulation`).

    Per element and quadrature point it keeps the geometry: ``x``, ``J`` and
    ``wdet``. The field basis is kept once per group of elements with the
    same basis block, as the tables of ``basis_groups`` (see
    :class:`BasisGroups`); ``field_conn`` maps each element's block onto the
    dofs. ``sigma_min`` follows from J and is computed on first use, so a
    case that never reads it never holds it. The inverse Jacobian and the
    metric are not kept: their readers form them from ``J`` and drop them.
    """

    @cached_property
    def sigma_min(self):
        """Smallest singular value of J at each quadrature point (nel, nq)."""
        return np.linalg.svd(self.J, compute_uv=False)[..., -1]


def _grouped_geometry(geom, cp):
    """x (nel, nq, dim) and J (nel, nq, dim, dim) from the geometry basis
    groups ``geom`` and each element's control points ``cp`` (nel, nen, dim),
    a triangle's nodes: x = sum_a N_a c_a and J = c^T grad N."""
    ng, nq, _, dim = geom.grads.shape
    x = np.empty((len(cp), nq, dim))
    jac = np.empty((len(cp), nq, dim, dim))
    for g in range(ng):
        idx = geom.members(g)
        c = cp[idx]
        x[idx] = np.einsum("qa,ead->eqd", geom.values[g], c)
        jac[idx] = c.swapaxes(1, 2)[:, None] @ geom.grads[g]
    return x, jac


def _frozen(arr):
    """``arr`` made read-only, for arrays kept and handed out on first use."""
    arr.flags.writeable = False
    return arr


# parametric gradients of the barycentric coordinates of a grid quad's
# lower-right triangle 2q, (1 - s, s - t, t), and of its upper-left one 2q+1,
# (1 - t, s, t - s), where (s, t) is a point's position in the quad (see
# triangulate)
_TRI_GRADS = np.array([[[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]],
                       [[0.0, -1.0], [1.0, 0.0], [-1.0, 1.0]]])


def triangle_rule():
    """Edge-midpoint rule on the unit right triangle (degree-2 exact)."""
    pts = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
    w = np.full(3, 1.0 / 6.0)
    return QuadratureRule(pts, w)


class MeshPatch:
    """Geometry + field discretization over one patch.

    Tensor patches (``family`` "tensor"): ``field_spec``/``geom_spec`` are
    tensor-product bases on the same unit-span breakpoints, ``geom_coeffs``
    holds the geometry control points, and the tensor Gauss rule
    integrates. Simplex patches (``family`` "simplex", built from
    ``node_coords``): the structured grid of ``grid_lines`` split into
    triangles (see :func:`triangulate`), ``n_elems`` its quad counts and
    ``geom_coeffs`` its (nx+1)(ny+1) nodes, direction 0 fastest; the
    connectivity ``conn`` is built from the split, the barycentric
    coordinates are both bases, and the edge-midpoint rule integrates.

    Instances are immutable after construction; all queries are pure.
    Non-finite knots, weights, control points or nodes raise ``ValueError``
    at construction. The patch builds and keeps only its quadrature
    tabulation, its CSR pattern and its Kronecker factors, each on first
    use; the pattern only where something assembles on it (transport, or a
    projection on a patch that is not separable). Evaluations at other
    points are kept by the :class:`SamplePoints` that holds them
    (:meth:`locate`, :meth:`interior_edge_samples`).
    """

    def __init__(self, field_spec=None, geom_spec=None, geom_coeffs=None, *,
                 node_coords=None, grid_lines=None):
        self.field_spec = field_spec
        self.geom_spec = geom_spec
        self.grid_lines = None
        if grid_lines is not None:
            self.grid_lines = tuple(np.asarray(g, dtype=np.float64) for g in grid_lines)
        if node_coords is None:
            self.family = "tensor"
            self.dim = field_spec.dim
            self.geom_coeffs = np.asarray(geom_coeffs, dtype=np.float64)
            if self.geom_coeffs.shape != (geom_spec.n_funcs, self.dim):
                raise ValueError("geometry control net shape mismatch")
            check_finite("geom_coeffs", self.geom_coeffs)
            self.n_elems = tuple(int(round(kv[-1] - kv[0])) for kv in field_spec.knots)
            geom_elems = tuple(int(round(kv[-1] - kv[0])) for kv in geom_spec.knots)
            if geom_elems != self.n_elems:
                raise ValueError("field and geometry bases must share breakpoints")
            self.n_elements = int(np.prod(self.n_elems))
            self.n_dofs = field_spec.n_funcs
            self.quadrature = tensor_gauss_rule(field_spec.degrees)
            # the field and the geometry basis, each with the knot span of
            # every element per direction; _at's ``geometry`` picks one
            self._bases = tuple(
                (spec, tuple(spec.span_of_element(d, np.arange(n))
                             for d, n in enumerate(self.n_elems)))
                for spec in (field_spec, geom_spec))
        else:
            self.family = "simplex"
            self.dim = 2
            if self.grid_lines is None or len(self.grid_lines) != 2:
                raise ValueError("a simplex patch needs the grid_lines of the 2D grid it splits")
            self.n_elems = tuple(len(g) - 1 for g in self.grid_lines)
            self.geom_coeffs = np.asarray(node_coords, dtype=np.float64)
            nodes = (int(np.prod([len(g) for g in self.grid_lines])), self.dim)
            if self.geom_coeffs.shape != nodes:
                raise ValueError(f"a simplex patch needs node_coords of shape {nodes}, one "
                                 f"per node of its grid; got {self.geom_coeffs.shape}")
            check_finite("node_coords", self.geom_coeffs)
            lattice = _split_lattice(*self.n_elems)
            self.conn = lattice[..., 0] + lattice[..., 1] * (self.n_elems[0] + 1)
            self.n_elements = len(self.conn)
            self.n_dofs = len(self.geom_coeffs)
            self.quadrature = triangle_rule()

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
        """Flat element id containing each global parametric point.

        The grid cell is ``floor(pts)``, clipped to the patch: a point on an
        interior grid line goes to the cell on its upper side, a point
        outside the patch to the nearest cell. On a simplex patch that
        cell's quad q gives triangle 2q, or 2q+1 for a point strictly above
        the quad's diagonal: a point on the diagonal goes to 2q.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        eid = np.zeros(len(pts), dtype=np.int64)
        stride = 1
        cell = []
        for d in range(self.dim):
            cell.append(np.clip(np.floor(pts[:, d]).astype(np.int64), 0, self.n_elems[d] - 1))
            eid += cell[d] * stride
            stride *= self.n_elems[d]
        if self.family == "simplex":
            eid = 2 * eid + (pts[:, 1] - cell[1] > pts[:, 0] - cell[0])
        return eid

    # ------------------------------------------------------------------
    # low-level evaluation

    def _element_spans(self, span_maps, elements):
        multi = self.element_multi_index(elements)
        return [span_maps[d][multi[d]] for d in range(self.dim)]

    def _at(self, elements, pts, geometry=False):
        """Active indices (m, nen), values (m, nen) and parametric gradients
        (m, nen, dim) of the field basis, or of the geometry basis, at global
        parametric points: the one per-point evaluator of both families.
        Evaluation is one-sided: a point on an element boundary is evaluated
        from the element given, yielding that side's limit.

        On a triangle the barycentric coordinates are both bases, with the
        gradients of ``_TRI_GRADS`` for its half of its quad. lambda_1 and
        lambda_2 vanish at the quad's corner (i, j), so they are their
        gradients times (s, t), the point's position in the quad; lambda_0 is
        1 - lambda_1 - lambda_2.
        """
        elements = np.asarray(elements, dtype=np.int64)
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        if self.family == "simplex":
            st = pts - np.stack(self.element_multi_index(elements // 2), axis=-1)
            dlam = _TRI_GRADS[elements % 2]
            lam = np.empty((len(st), 3))
            lam[:, 1:] = (dlam[:, 1:] @ st[..., None])[..., 0]
            lam[:, 0] = 1.0 - lam[:, 1] - lam[:, 2]
            return self.conn[elements], lam, dlam
        spec, span_maps = self._bases[geometry]
        be = eval_tensor_batched(spec, pts, spans_per_dir=self._element_spans(span_maps, elements))
        return be.indices, be.values, be.grads

    def field_basis_eval(self, elements, pts):
        """Field-basis values and parametric gradients at global parametric
        points (see :meth:`_at`), as a :class:`BasisEval` without second
        derivatives."""
        return BasisEval(*self._at(elements, pts))

    def geometry_eval(self, elements, pts):
        """Physical coordinates and Jacobian dx/dxi at parametric points."""
        idx, vals, dn = self._at(elements, pts, geometry=True)
        cp = self.geom_coeffs[idx]  # (m, nen, dim)
        return np.einsum("ma,mad->md", vals, cp), cp.swapaxes(1, 2) @ dn

    # ------------------------------------------------------------------
    # tabulated quadrature data

    def tabulation(self):
        """Quadrature arrays of the patch (lazily built, cached).

        Per element: x (nel,nq,dim), J (nel,nq,dim,dim), wdet (nel,nq), the
        physical measure weights, and field_conn (nel,nen). The field basis
        values and parametric gradients are kept once per group of elements
        as the tables of basis_groups (a :class:`BasisGroups`); nothing is
        evaluated per element. sigma_min (smallest singular value of J, the
        degenerate-direction fallback length) is computed on first use (see
        :class:`Tabulation`).

        A tensor patch's quadrature lattice is a :class:`GridBlock`, each
        direction's elements times its Gauss points, direction 0 fastest,
        with each point's coordinate the Gauss point itself, relative to its
        element's left knot; the groups' tables are formed from its 1D rows
        (:meth:`GridBlock.tabulate`), for the field and the geometry basis
        alike. Rows on local coordinates are exact functions of an element's
        knots relative to its left knot, so elements alike in exact
        arithmetic share one group: a uniform trilinear patch has one. They
        agree with evaluation at the global points k + x_g (:meth:`_at`) to
        roundoff, not bitwise. A triangulated patch has two groups, triangles
        2q and 2q+1, which serve as its geometry basis too. A rational basis
        has one group per element, evaluated point by point (:meth:`_at`) at
        every global quadrature point. x and J come group by group from the
        elements' control points, or a triangle's nodes.
        """
        if hasattr(self, "_tab"):
            return self._tab
        elements = np.arange(self.n_elements)
        if self.family == "tensor":
            points = [gauss_rule_unit(p + 1)[0] for p in self.field_spec.degrees]
            lattice = GridBlock(
                tuple(np.repeat(np.arange(n), len(x)) for n, x in zip(self.n_elems, points)),
                tuple(np.tile(x, n) for n, x in zip(self.n_elems, points)),
                tuple(range(self.dim))[::-1])
            groups, geom = (self._tensor_groups(geometry, lattice, [len(x) for x in points])
                            for geometry in (False, True))
            field_conn, geom_conn = (tensor_indices(spec, self._element_spans(span_maps, elements))
                                     for spec, span_maps in self._bases)
        else:
            # barycentric coordinates at the rule's points are its reference
            # coordinates; the gradients are each half's constant ones
            ref = self.quadrature.points
            values = np.column_stack([1.0 - ref[:, 0] - ref[:, 1], ref])
            grads = np.repeat(_TRI_GRADS[:, None], len(ref), axis=1)
            groups = geom = BasisGroups(elements % 2, np.stack([values, values]), grads)
            field_conn = geom_conn = self.conn
        x, jac = _grouped_geometry(geom, self.geom_coeffs[geom_conn])
        detj = np.linalg.det(jac)
        if np.any(detj <= 0):
            bad = int(np.argmin(detj)) // x.shape[1]
            raise InvertedElementError(
                f"nonpositive Jacobian determinant in element {bad}"
            )
        self._tab = Tabulation(x=x, field_conn=field_conn, J=jac,
                               wdet=detj * self.quadrature.weights, basis_groups=groups)
        return self._tab

    def _tensor_groups(self, geometry, lattice, n_points):
        """:class:`BasisGroups` of the field basis, or of the geometry basis,
        on this tensor patch's elements, from its 1D rows on the quadrature
        ``lattice`` (a :class:`GridBlock`), ``n_points[d]`` per element
        along direction d."""
        spec, span_maps = self._bases[geometry]
        if spec.weights is None:
            return BasisGroups.tensor(lattice.tabulate(spec, span_maps), n_points)
        # a rational basis mixes the weights of its active functions: one
        # group per element, evaluated at its global quadrature points
        elements = np.arange(self.n_elements)
        nq = len(self.quadrature.weights)
        offsets = np.stack(
            [m.astype(np.float64) for m in self.element_multi_index(elements)], axis=-1)
        pts = offsets[:, None, :] + self.quadrature.points
        _, vals, dn = self._at(np.repeat(elements, nq), pts.reshape(-1, self.dim), geometry)
        nen = vals.shape[1]
        return BasisGroups(elements, vals.reshape(-1, nq, nen),
                           dn.reshape(-1, nq, nen, self.dim))

    def _separable(self):
        """Whether the projection matrix is a Kronecker sum of 1D matrices: a
        tensor B-spline field without weights on the unweighted degree-1
        geometry whose control net is the grid of ``grid_lines``. Every
        tensor patch integrates by the tensor Gauss rule, which is a product
        of 1D rules."""
        if self.family != "tensor" or self.grid_lines is None:
            return False
        geom = self.geom_spec
        if self.field_spec.weights is not None or geom.weights is not None \
                or any(p != 1 for p in geom.degrees):
            return False
        if tuple(map(len, self.grid_lines)) != tuple(n + 1 for n in self.n_elems):
            return False
        return np.array_equal(self.geom_coeffs, _grid_net(self.grid_lines))

    def kronecker_eigenpairs(self):
        """Per direction, 0 first, the dense 1D mass and parametric
        stiffness matrices and their generalized eigenpairs (lazily built,
        cached), or None unless the patch is separable (a plain B-spline
        field on the multilinear grid geometry).

        Direction d's entry ``(lam, U, M_d, K_d)`` has ``K_d U = M_d U
        diag(lam)`` with ``U^T M_d U = I``. For every kappa_d, the patch's
        projection matrix mass + kappa_d * stiffness is the Kronecker sum of
        the M_d and K_d, which :class:`levelset.linalg.KroneckerInverse`
        applies and inverts from these entries.
        """
        if hasattr(self, "_kron"):
            return self._kron
        self._kron = (tuple(self._line_eigenpairs(d) for d in range(self.dim))
                      if self._separable() else None)
        return self._kron

    def _line_eigenpairs(self, d):
        """M_d and K_d assembled on the 1D patch of direction d's knot vectors
        and grid line, and their eigenpairs from ``eigh(L^-1 K_d L^-T)``, L
        the Cholesky factor of M_d: ``(lam, U, M_d, K_d)``."""
        line = self.grid_lines[d]
        field = BasisSpec(degrees=self.field_spec.degrees[d:d + 1],
                          knots=self.field_spec.knots[d:d + 1])
        geom = BasisSpec(degrees=(1,), knots=self.geom_spec.knots[d:d + 1])
        patch = MeshPatch(field, geom, line[:, None], grid_lines=(line,))
        tab, pattern = patch.tabulation(), patch.csr_pattern()
        zero = np.zeros(patch.n_dofs)
        mass, stiffness = (
            pattern.assemble(ParametricGram(tab, m, k)(tab.wdet), zero).matrix.toarray()
            for m, k in ((1.0, 0.0), (0.0, 1.0)))
        chol = np.linalg.cholesky(mass)
        half = np.linalg.solve(chol, stiffness)  # L^-1 K
        lam, vecs = np.linalg.eigh(np.linalg.solve(chol, half.T))
        return lam, np.linalg.solve(chol.T, vecs), mass, stiffness

    def csr_pattern(self):
        """Sparsity pattern of element-dense assembly (lazily built).

        The entry stream layout matches raveled per-element matrices of
        shape (n_elements, nen, nen). A tensor patch builds it from the 1D
        patterns of its directions' element streams, with no sort over the
        whole stream (:meth:`CsrPattern.tensor`); weights do not change the
        support, so a NURBS patch does too. A triangulated patch sorts its
        stream (the general :class:`CsrPattern`).
        """
        if hasattr(self, "_csr"):
            return self._csr
        conn = self.tabulation().field_conn
        if self.family == "tensor":
            spec, span_maps = self._bases[0]
            self._csr = CsrPattern.tensor(conn, [
                (active_indices(spans, p), n)
                for spans, p, n in zip(span_maps, spec.degrees, spec.n_funcs_per_dir)])
        else:
            nel, nen = conn.shape
            rows = np.broadcast_to(conn[:, :, None], (nel, nen, nen))
            cols = np.broadcast_to(conn[:, None, :], (nel, nen, nen))
            self._csr = CsrPattern(rows.ravel(), cols.ravel(), self.n_dofs)
        return self._csr

    def scatter_dofs(self, element_values):
        """Sum per-element nodal contributions (nel, nen) into a dof vector."""
        conn = self.tabulation().field_conn
        return np.bincount(conn.ravel(), weights=np.asarray(element_values).ravel(),
                           minlength=self.n_dofs)

    def h_min(self):
        """Smallest element length (CFL scale): the narrowest grid cell of a
        patch with grid lines, else the smallest singular value of J."""
        if self.grid_lines is not None:
            return float(min(np.diff(g).min() for g in self.grid_lines))
        return float(self.tabulation().sigma_min.min())

    def param_of_physical(self, x):
        """Invert the (separable piecewise-linear) geometry map at points
        ``x`` (n, dim).

        Raises ``ValueError`` for points of another shape, and naming the
        first point that lies outside the patch by more than roundoff (16
        ulps of the grid's largest coordinate), which the inverse map would
        otherwise clip to the boundary, or that has a NaN coordinate.
        """
        if self.grid_lines is None:
            raise ValueError("inverse map available for structured grid patches only")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"points must have shape (n, {self.dim}), got {x.shape}")
        out = np.empty_like(x)
        outside = np.zeros(len(x), dtype=bool)
        for d in range(self.dim):
            lines = self.grid_lines[d]
            tol = 16 * np.finfo(np.float64).eps * np.abs(lines[[0, -1]]).max()
            outside |= ~((x[:, d] >= lines[0] - tol) & (x[:, d] <= lines[-1] + tol))
            out[:, d] = np.interp(x[:, d], lines, np.arange(len(lines), dtype=np.float64))
        if outside.any():
            i = int(np.argmax(outside))
            box = " x ".join(f"[{g[0]:.17g}, {g[-1]:.17g}]" for g in self.grid_lines)
            raise ValueError(f"point {i}, x = {np.array2string(x[i], precision=17)}, "
                             f"lies outside the patch {box}")
        return out

    def locate(self, x):
        """The :class:`SamplePoints` at physical points ``x`` (n, dim) of a
        structured grid patch, each in an element that contains it. Points of
        another shape, or a point outside the patch, raise ``ValueError``
        (see :meth:`param_of_physical`)."""
        pts = self.param_of_physical(x)
        return SamplePoints(self, self.element_of_param(pts), pts)

    # ------------------------------------------------------------------
    # edges

    def interior_edge_samples(self, n_per_edge=4):
        """Paired one-sided sample points on every interior element edge.

        Returns a ``(left, right)`` pair of :class:`SamplePoints`; their k-th
        points are the same geometric point, seen from the two adjacent
        elements. Each call builds new ones, so a caller that evaluates
        several fields on the edges keeps the pair.

        The points come line by line: first the lines x_0 = k (k an interior
        knot), then, in 2D, the lines x_1 = k; along a line element by
        element, the edge parameter t = (i + 1/2) / n_per_edge fastest. The
        lines of direction d are one :class:`GridBlock`: direction d's list
        holds the knots k, seen from element k - 1 (left, local coordinate
        1) or k (right, 0), and the other direction's list the points j + t
        of its elements j. Their local coordinates are the offsets
        (j + t) - j of the rounded global points, exact differences, so the
        blocks' rows are bitwise those of evaluating each global point. On a
        tensor patch both sides keep their blocks, so fields evaluate there
        by sum factorization (:meth:`SamplePoints.values`). A triangulated
        patch samples its grid's edges, then each quad's diagonal, point by
        point.
        """
        if self.dim > 2:
            raise NotImplementedError("edge sampling implemented for dim <= 2")
        t = (np.arange(n_per_edge) + 0.5) / n_per_edge
        sides = []
        for side in (0, 1):
            blocks = []
            for d in range(self.dim):
                ks = np.arange(1, self.n_elems[d])
                elements, coords = [], []
                for e, n in enumerate(self.n_elems):
                    if e == d:
                        elements.append(ks - 1 + side)
                        coords.append(np.full(len(ks), 1.0 - side))
                    else:
                        j = np.repeat(np.arange(n), n_per_edge)
                        elements.append(j)
                        coords.append((j + np.tile(t, n)) - j)
                order = (d,) + tuple(e for e in range(self.dim) if e != d)
                blocks.append(GridBlock(tuple(elements), tuple(coords), order))
            sides.append(blocks)
        if self.family == "tensor":
            return tuple(SamplePoints(self, *_block_points(blocks, self.n_elems), blocks)
                         for blocks in sides)
        (els_l, pts), (els_r, _) = (_block_points(blocks, self.n_elems) for blocks in sides)
        # a quad's lower-right triangle 2q holds its right and bottom edges,
        # 2q+1 its left and top ones; then each quad's diagonal
        nx, ny = self.n_elems
        above = np.arange(len(pts)) >= (nx - 1) * ny * n_per_edge
        els_l, els_r = 2 * els_l + above, 2 * els_r + ~above
        j, i, s = np.meshgrid(np.arange(ny), np.arange(nx), t, indexing="ij")
        q = (i + j * nx).ravel()
        pts = np.concatenate([pts, np.stack([i + s, j + s], axis=-1).reshape(-1, 2)])
        els_l = np.concatenate([els_l, 2 * q])
        els_r = np.concatenate([els_r, 2 * q + 1])
        return SamplePoints(self, els_l, pts), SamplePoints(self, els_r, pts)


@dataclass(frozen=True)
class GridBlock:
    """Sample points of a patch that are the product of per-direction 1D
    point lists.

    Direction d's list holds each of its points' element index along d,
    ``elements[d]``, and its local coordinate ``coords[d]``, relative to that
    element's left knot: element k spans [k, k+1], so the global parametric
    coordinate is k plus the local one. ``order`` names the directions from
    the slowest-varying to the fastest in the order of the block's points; a
    point's element is the one of its per-direction element indices
    (direction 0 fastest in the flat id).

    A tensor patch's quadrature lattice and its interior-edge samples are
    grid blocks, and :meth:`tabulate` is the one 1D tabulator of both.
    """

    elements: tuple
    coords: tuple
    order: tuple

    def entries(self):
        """Each point's index into direction d's list, one (m,) array per
        direction."""
        grid = np.indices([len(self.coords[d]) for d in self.order]).reshape(len(self.order), -1)
        return [grid[self.order.index(d)] for d in range(len(self.order))]

    def tabulate(self, spec, span_maps):
        """Per direction, the knot spans (E_d,) and the value and first
        derivative rows (2, E_d, p_d+1) of the basis ``spec`` at the list's
        points, each from its element's span (``span_maps``, as in
        :meth:`MeshPatch._element_spans`), on the local coordinates with the
        knots taken relative to the span's left knot (the ``origin`` of
        :func:`levelset.basis._ders_basis_batched`)."""
        lines = []
        for d, (knots, p) in enumerate(zip(spec.knots, spec.degrees)):
            spans = span_maps[d][self.elements[d]]
            lines.append(_ders_basis_batched(knots, p, self.coords[d], spans=spans,
                                             origin=knots[spans]))
        return lines

    def ravel(self, values):
        """Values (..., E_{dim-1}, ..., E_0) at the block's points, as
        :func:`levelset.basis.line_products` lays them out, as rows (m, ...)
        in the order of the points."""
        dim = len(self.order)
        lead = values.ndim - dim
        axes = [lead + dim - 1 - d for d in self.order] + list(range(lead))
        return values.transpose(axes).reshape(-1, *values.shape[:lead])


def _block_points(blocks, n_elems):
    """Flat element ids (m,) and global parametric points (m, dim), each
    element index k plus its local coordinate, of the points of ``blocks``,
    block after block."""
    elements, pts = [], []
    strides = np.cumprod((1,) + tuple(n_elems[:-1]))
    for block in blocks:
        entries = block.entries()
        elements.append(sum(el[e] * stride
                            for el, e, stride in zip(block.elements, entries, strides)))
        pts.append(np.stack([el[e] + c[e] for el, c, e
                             in zip(block.elements, block.coords, entries)], axis=-1))
    return np.concatenate(elements), np.concatenate(pts)


class SamplePoints:
    """Points of a patch, off its quadrature rule, at which fields are evaluated.

    Holds read-only copies of each point's element id and global parametric
    coordinates. Evaluation is one-sided: a point on an element boundary is
    evaluated from the element given. The physical coordinates ``x`` are
    computed on first use and kept read-only, so every field evaluated at
    the same samples shares them; Jacobians are computed on each call of
    :meth:`jacobians` and not kept.

    Points given as the :class:`GridBlock` s ``blocks`` of a tensor patch
    (its edge samples), which they follow block after block, keep them, and
    with them the per-direction 1D rows of the field and the geometry basis
    (:meth:`GridBlock.tabulate`), each tabulated once on first use. There a
    field's values, x and J are two 1D banded products per block over the
    coefficient grid (sum factorization), with no table per point; on the
    multilinear grid geometry x is bitwise the per-point sum. Every other
    evaluation goes through the one per-point evaluator,
    :meth:`MeshPatch._at`: the field basis ``basis`` on any point set, if
    asked for it, and on located points, grid nodes and a triangulated
    patch's samples every field's values (gathered from ``basis``), x and J
    (:meth:`MeshPatch.geometry_eval`).
    """

    def __init__(self, patch, elements, pts, blocks=()):
        self.patch = patch
        self.elements = _frozen(np.array(elements, dtype=np.int64))
        self.pts = _frozen(np.array(np.atleast_2d(pts), dtype=np.float64))
        self.blocks = tuple(blocks)
        self._lines = {}

    def _tables(self, geometry):
        """Each block's per-direction spans and rows (:meth:`GridBlock.tabulate`)
        of the field basis, or of the geometry basis; tabulated on first use
        and kept."""
        if geometry not in self._lines:
            spec, span_maps = self.patch._bases[geometry]
            self._lines[geometry] = [block.tabulate(spec, span_maps) for block in self.blocks]
        return self._lines[geometry]

    def values(self, coeffs):
        """Values sum_a N_a c_a of the field with coefficients ``coeffs``.

        On a block set, coefficients reshaped to (n_1, n_0) are contracted
        with each block's direction-0 rows, then its direction-1 rows
        (:meth:`_sums`); a rational basis takes the same products of w c
        and of w, and divides. Elsewhere each point gathers its active
        coefficients against ``basis``.
        """
        if not self.blocks:
            idx, vals = self.basis
            return np.einsum("ma,ma->m", vals, coeffs[idx])
        sums = self._sums(False, coeffs[:, None])
        return sums[:, 0] if self.patch.field_spec.weights is None else sums[:, 0] / sums[:, 1]

    def _sums(self, geometry, coeffs, deriv=None):
        """On a block set, sum_a N_a c_a of each column of ``coeffs``
        (n_funcs, k) over the field basis, or the geometry basis, by
        :func:`levelset.basis.line_products` over each block's rows: the
        derivative rows along direction ``deriv`` and the value rows along
        the others (value rows only by default). Returns (n, k); a rational
        basis sums w c and w instead, (n, k + 1) with the weight function
        last."""
        spec = self.patch._bases[geometry][0]
        shape = spec.n_funcs_per_dir[::-1]
        grid = coeffs.T.reshape(-1, *shape)
        if spec.weights is not None:
            weights = spec.weights.reshape(shape)
            grid = np.concatenate([weights * grid, weights[None]])
        return np.concatenate([
            block.ravel(line_products(grid, [(spans - p, ders[int(d == deriv)])
                                             for d, ((spans, ders), p)
                                             in enumerate(zip(lines, spec.degrees))]))
            for block, lines in zip(self.blocks, self._tables(geometry))])

    @cached_property
    def basis(self):
        """Field-basis ``(indices, values)``: those of
        :meth:`MeshPatch.field_basis_eval`, without the gradients."""
        idx, vals, _ = self.patch._at(self.elements, self.pts)
        return _frozen(idx), _frozen(vals)

    @cached_property
    def x(self):
        """Physical coordinates (n, dim): the first result of
        :meth:`MeshPatch.geometry_eval` without the Jacobian. On a block set
        they come from :meth:`_sums`, a rational geometry dividing
        by the weight function; on the multilinear grid geometry that is
        bitwise the per-point sum, whose rows along an edge's knot are 0
        and 1."""
        if not self.blocks:
            return _frozen(self.patch.geometry_eval(self.elements, self.pts)[0])
        x = self._sums(True, self.patch.geom_coeffs)
        if self.patch.geom_spec.weights is not None:
            x = x[:, :-1] / x[:, -1:]
        return _frozen(x)

    def jacobians(self):
        """Jacobians dx/dxi (n, dim, dim): the second result of
        :meth:`MeshPatch.geometry_eval`, computed on each call. On a block
        set column d comes from :meth:`_sums` with the derivative
        rows along d, summed in a different order than the per-point
        product, so it agrees with it to roundoff; on the multilinear grid
        geometry its off-diagonal entries are exact zeros. A rational
        geometry takes the quotient rule J = (sum w c N' - x sum w N') / W."""
        if not self.blocks:
            return self.patch.geometry_eval(self.elements, self.pts)[1]
        cp = self.patch.geom_coeffs
        jac = np.stack([self._sums(True, cp, d) for d in range(self.patch.dim)], axis=-1)
        if self.patch.geom_spec.weights is None:
            return jac
        w = self._sums(True, cp)[:, -1]
        return (jac[:, :-1] - self.x[:, :, None] * jac[:, -1:]) / w[:, None, None]


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


def triangulate(patch):
    """Split a structured linear quadrilateral patch into triangles.

    Quad q = i + j * nx of the parent's nx x ny grid becomes triangle 2q,
    vertices (i, j), (i+1, j), (i+1, j+1), and triangle 2q+1, vertices
    (i, j), (i+1, j+1), (i, j+1), both counterclockwise. Nodes are the
    parent's grid nodes, id i + j * (nx + 1). The parametric coordinates
    are the parent grid's, so each parent edge keeps unit parametric length.
    """
    if patch.family != "tensor" or patch.dim != 2:
        raise ValueError("triangulation requires a 2D tensor patch")
    if any(p != 1 for p in patch.field_spec.degrees):
        raise ValueError("triangulation requires a linear quadrilateral patch")
    return MeshPatch(node_coords=patch.geom_coeffs.copy(), grid_lines=patch.grid_lines)


def _split_lattice(nx, ny):
    """Integer parametric vertices (2 nx ny, 3, 2) of the triangles of an
    nx x ny grid split as :func:`triangulate` splits it."""
    j, i = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    corner = np.stack([i.ravel(), j.ravel()], axis=-1)  # (nx * ny, 2), quad q's (i, j)
    split = np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]])
    return (corner[:, None, None, :] + split).reshape(-1, 3, 2).astype(np.int64)
