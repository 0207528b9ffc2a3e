import re

import numpy as np
import pytest

from conftest import (BASIS_BLOCK_PATCHES, BASIS_ULPS, J_ULPS, X_ULPS, assembled_projection,
                      basis_blocks, frame_barycentrics, frame_jacobians, geometric_line_patch,
                      geometry_at_quadrature, graded_square, local_basis_blocks, metric,
                      nurbs_square, unit_line, unit_square, within_ulps)
from levelset.basis import BasisSpec, _ders_basis_batched
from levelset.fields import NaiveScaledField, ScalarField
from levelset.mesh import (
    GridBlock,
    InvalidGradingError,
    InvertedElementError,
    MeshPatch,
    SamplePoints,
    build_structured,
    gauss_rule_unit,
    grade_structured,
    triangulate,
    _split_lattice,
)


def test_jacobian_uniform_1d():
    tab = unit_line(10).tabulation()
    assert tab.J.shape[-2:] == (1, 1)
    assert tab.J[3, :, 0, 0] == pytest.approx(0.1, abs=1e-15)


def test_jacobian_uniform_2d():
    tab = build_structured([(0.0, 1.0), (0.0, 2.0)], [10, 5], 1).tabulation()
    assert np.allclose(tab.J[17], np.diag([0.1, 0.4]), atol=1e-14)


def curved_quadratic_patch(rng, n=3):
    """Isoparametric quadratic geometry with perturbed control points."""
    field = BasisSpec.tensor_uniform((2, 2), (n, n))
    geom = BasisSpec.tensor_uniform((2, 2), (n, n))
    nf = n + 2
    # Greville-style placement plus a smooth perturbation keeps detJ > 0
    grev = np.array([np.mean(geom.knots[0][i + 1: i + 3]) for i in range(nf)])
    gx, gy = np.meshgrid(grev, grev, indexing="ij")
    cp = np.stack([gx.ravel(order="F"), gy.ravel(order="F")], axis=-1) / n
    bump = 0.04 * np.stack(
        [np.sin(2.0 * cp[:, 1] * np.pi), np.cos(2.0 * cp[:, 0] * np.pi)], axis=-1
    )
    return MeshPatch(field, geom, cp + bump)


def test_jacobian_quadratic_geometry_vs_fd(rng):
    patch = curved_quadratic_patch(rng)
    pts = rng.uniform(0.3, 2.7, size=(10, 2))
    elems = patch.element_of_param(pts)
    _, jac = patch.geometry_eval(elems, pts)
    h = 1e-6
    for k in range(len(pts)):
        for d in range(2):
            hi = pts[k].copy()
            lo = pts[k].copy()
            hi[d] += h
            lo[d] -= h
            xh, _ = patch.geometry_eval(elems[[k]], hi[None, :])
            xl, _ = patch.geometry_eval(elems[[k]], lo[None, :])
            fd = (xh[0] - xl[0]) / (2 * h)
            assert np.abs(fd - jac[k][:, d]).max() / max(1.0, np.abs(jac[k][:, d]).max()) < 1e-6


def test_inverted_element_error():
    field = BasisSpec.tensor_uniform(1, 2)
    geom = BasisSpec.tensor_uniform(1, 2)
    cp = np.array([[0.0], [0.6], [0.4]])  # folds back
    patch = MeshPatch(field, geom, cp)
    with pytest.raises(InvertedElementError):
        patch.tabulation()


def test_metric_uniform():
    tab = unit_line(10).tabulation()
    assert metric(tab)[0, :, 0, 0] == pytest.approx(100.0, rel=1e-13)
    tab2 = build_structured([(0.0, 1.0), (0.0, 2.0)], [10, 5], 1).tabulation()
    assert np.allclose(metric(tab2)[0], np.diag([100.0, 6.25]), atol=1e-11)
    # the inverse metric J J^T
    jjt = np.einsum("qik,qjk->qij", tab2.J[0], tab2.J[0])
    assert np.allclose(jjt, np.diag([0.01, 0.16]), atol=1e-14)


def test_metric_rotated_square():
    # one square element rotated by 30 degrees: the metric is isotropic
    dx = 0.2
    theta = np.pi / 6
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    field = BasisSpec.tensor_uniform((1, 1), (1, 1))
    corners = np.array([[0.0, 0.0], [dx, 0.0], [0.0, dx], [dx, dx]]) @ rot.T
    patch = MeshPatch(field, field, corners)
    g = metric(patch.tabulation())[0]
    oracle_j = rot * dx  # direct matrix computation
    oracle_g = np.linalg.inv(oracle_j).T @ np.linalg.inv(oracle_j)
    assert np.allclose(g, oracle_g, atol=1e-12)
    assert np.allclose(g, np.eye(2) / dx**2, atol=1e-11)


def meshsize(grad, tab, e, q=0):
    """Element length along a physical gradient at one quadrature point, as
    the naive scaled distance divides by it."""
    return float(NaiveScaledField._scale(np.asarray(grad, dtype=np.float64),
                                         metric(tab)[e, q], tab.sigma_min[e, q]))


def test_meshsize_physical_examples():
    tab = build_structured([(0.0, 1.0), (0.0, 2.0)], [10, 5], 1).tabulation()
    assert meshsize([1.0, 0.0], tab, 0) == pytest.approx(0.1, abs=1e-14)
    assert meshsize([0.0, 1.0], tab, 0) == pytest.approx(0.4, abs=1e-14)
    # anisotropic element, diagonal direction, against the hand-evaluated form
    g = np.array([1.0, 1.0]) / np.sqrt(2.0)
    oracle = 1.0 / np.sqrt(g @ metric(tab)[0, 0] @ g)
    assert meshsize([1.0, 1.0], tab, 0) == pytest.approx(oracle, rel=1e-13)
    assert oracle == pytest.approx(1.0 / np.sqrt(0.5 * (100.0 + 6.25)), rel=1e-12)


def test_meshsize_parametric_graded_equals_element_width():
    patch = geometric_line_patch(10, ratio=1.3)
    tab = patch.tabulation()
    widths = np.diff(patch.grid_lines[0])
    for e in (0, 4, 9):
        for q in range(tab.J.shape[1]):
            assert meshsize([1.0], tab, e, q) == pytest.approx(widths[e], rel=1e-12)


def test_build_structured_counts():
    p1 = unit_square(80, 1)
    assert p1.n_dofs == 81**2
    p2 = unit_square(80, 2)
    assert p2.n_dofs == 82**2
    line = unit_line(10)
    assert np.allclose(np.diff(line.grid_lines[0]), 0.1)
    x, _ = line.geometry_eval(np.array([4]), np.array([[4.0]]))
    assert x[0, 0] == pytest.approx(0.4, abs=1e-15)


def test_build_structured_validation():
    with pytest.raises(ValueError):
        build_structured([(0.0, 1.0)], [0], 1)


def test_grade_identity():
    patch = unit_square(5)
    graded = grade_structured(patch, lambda s: s)
    assert np.allclose(graded.geom_coeffs, patch.geom_coeffs, atol=1e-15)


def test_grade_square_law_monotone_widths():
    graded = grade_structured(unit_line(10), lambda s: s * s)
    widths = np.diff(graded.grid_lines[0])
    assert np.all(np.diff(widths) > 0)


def test_grade_geometric_ratio_per_element():
    ratio = 1.25
    patch = geometric_line_patch(8, ratio)
    widths = np.diff(patch.grid_lines[0])
    assert np.allclose(widths[1:] / widths[:-1], ratio, rtol=1e-10)


def test_grade_rejects_non_monotone():
    with pytest.raises(InvalidGradingError):
        grade_structured(unit_line(6), lambda s: np.sin(4.0 * s))


def test_triangulate_counts_and_area():
    quad = build_structured([(0.0, 1.0), (0.0, 1.0)], [1, 1], 1)
    tri = triangulate(quad)
    assert tri.n_elements == 2
    assert tri.n_dofs == 4
    for grid in (unit_square(6), graded_square(6, 1)):
        tri = triangulate(grid)
        assert tri.n_elements == 2 * 36
        assert tri.n_dofs == 49
        assert tri.n_elems == (6, 6)
        assert abs(tri.tabulation().wdet.sum() - 1.0) < 1e-14
        # every triangle is counterclockwise
        tab = tri.tabulation()
        assert np.all(np.linalg.det(tab.J) > 0)
        assert np.all(tab.wdet > 0)


def test_triangulate_lists_the_split_grid():
    tri = triangulate(build_structured([(0.0, 1.0), (0.0, 1.0)], [2, 3], 1))
    # quad q = i + 2j becomes 2q = (i,j),(i+1,j),(i+1,j+1) and
    # 2q+1 = (i,j),(i+1,j+1),(i,j+1); node (i, j) has id i + 3j
    assert tri.conn.dtype == np.int64
    assert tri.conn.tolist() == [
        [0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4],
        [3, 4, 7], [3, 7, 6], [4, 5, 8], [4, 8, 7],
        [6, 7, 10], [6, 10, 9], [7, 8, 11], [7, 11, 10],
    ]
    assert _split_lattice(*tri.n_elems).tolist() == [
        [[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]],
        [[1, 0], [2, 0], [2, 1]], [[1, 0], [2, 1], [1, 1]],
        [[0, 1], [1, 1], [1, 2]], [[0, 1], [1, 2], [0, 2]],
        [[1, 1], [2, 1], [2, 2]], [[1, 1], [2, 2], [1, 2]],
        [[0, 2], [1, 2], [1, 3]], [[0, 2], [1, 3], [0, 3]],
        [[1, 2], [2, 2], [2, 3]], [[1, 2], [2, 3], [1, 3]],
    ]


def test_triangulate_requires_linear_quads():
    with pytest.raises(ValueError):
        triangulate(unit_square(4, 2))


def test_simplex_patch_is_a_split_grid():
    grid = build_structured([(0.0, 1.0), (0.0, 2.0)], [3, 2], 1)
    tri = triangulate(grid)
    with pytest.raises(ValueError):  # a parent without grid lines
        triangulate(MeshPatch(grid.field_spec, grid.geom_spec, grid.geom_coeffs))
    # one node per grid point, two coordinates each
    for bad in (tri.geom_coeffs[:-1], tri.geom_coeffs[:, :1], tri.geom_coeffs.T):
        got = re.escape(str(bad.shape))
        with pytest.raises(ValueError, match=rf"shape \(12, 2\).*got {got}"):
            MeshPatch(node_coords=bad, grid_lines=tri.grid_lines)
    same = MeshPatch(node_coords=tri.geom_coeffs, grid_lines=tri.grid_lines)
    assert same.conn.tolist() == tri.conn.tolist()


def element_of_param_search(patch, pts):
    """Reference: the first triangle whose barycentric coordinates at each
    point are all >= -1e-10, trying every triangle in turn."""
    eid = np.full(len(pts), -1, dtype=np.int64)
    for e in range(patch.n_elements):
        need = eid < 0
        lam, _ = frame_barycentrics(patch, np.full(need.sum(), e), pts[need])
        eid[np.where(need)[0][np.all(lam >= -1e-10, axis=1)]] = e
    assert np.all(eid >= 0)
    return eid


def test_simplex_element_of_param_matches_search(rng):
    nx, ny = 7, 5
    base = build_structured([(0.0, 1.0), (0.0, 2.0)], [nx, ny], 1)
    patch = triangulate(grade_structured(base, (lambda s: s**2.0, lambda s: s**1.6)))
    pts = rng.uniform(0.0, 1.0, size=(2000, 2)) * [nx, ny]
    assert np.array_equal(patch.element_of_param(pts), element_of_param_search(patch, pts))
    # s on a 1/64 lattice inside (0, 1), so that i + s and j + s are exact
    i, j, s = rng.integers(0, nx, 200), rng.integers(0, ny, 200), rng.integers(1, 64, 200) / 64
    q = i + j * nx
    # a point on a quad diagonal goes to 2q, as the search has it
    diag = np.stack([i + s, j + s], axis=-1)
    assert np.array_equal(patch.element_of_param(diag), 2 * q)
    assert np.array_equal(element_of_param_search(patch, diag), 2 * q)
    # a point on a grid line goes to the triangle of the quad floor() names:
    # on x = i the upper-left 2q+1, on y = j the lower-right 2q
    assert np.array_equal(patch.element_of_param(np.stack([i, j + s], axis=-1)), 2 * q + 1)
    assert np.array_equal(patch.element_of_param(np.stack([i + s, j], axis=-1)), 2 * q)


def test_simplex_closed_form_matches_frame_solve(rng):
    # barycentric coordinates, their gradients and J at random interior
    # points of every triangle of a graded split grid, against solving with
    # each triangle's parametric frame
    base = build_structured([(0.0, 1.0), (0.0, 2.0)], [7, 5], 1)
    patch = triangulate(grade_structured(base, (lambda s: s**2.0, lambda s: s**1.6)))
    elements = np.repeat(np.arange(patch.n_elements), 20)
    weights = rng.dirichlet(np.ones(3), size=len(elements))
    pts = np.einsum("mk,mkd->md", weights, _split_lattice(*patch.n_elems)[elements])
    lam, grads = frame_barycentrics(patch, elements, pts)
    be = patch.field_basis_eval(elements, pts)
    assert np.array_equal(be.indices, patch.conn[elements])
    assert be.values.tobytes() == lam.tobytes()
    assert np.array_equal(be.grads, grads)
    x, jac = patch.geometry_eval(elements, pts)
    assert x.tobytes() == np.einsum("ma,mad->md", lam,
                                    patch.geom_coeffs[patch.conn[elements]]).tobytes()
    assert np.array_equal(jac, frame_jacobians(patch)[elements])


@pytest.mark.parametrize("n", [6, 80])
def test_simplex_h_min_is_the_narrowest_grid_cell(n):
    for parent in (unit_square(n), graded_square(n, 1)):
        tri = triangulate(parent)
        narrowest = min(np.diff(g).min() for g in parent.grid_lines)
        assert tri.h_min() == narrowest == parent.h_min()
        assert "sigma_min" not in vars(tri.tabulation())
        # the smallest singular value of J, which it replaces, to the bit
        assert tri.tabulation().sigma_min.min() == narrowest


def test_metric_jacobian_identity_invariant(rng):
    for patch in (graded_square(10, 1), graded_square(8, 2),
                  triangulate(graded_square(8, 1)), curved_quadratic_patch(rng)):
        tab = patch.tabulation()
        jjt = np.einsum("eqik,eqjk->eqij", tab.J, tab.J)
        prod = np.einsum("eqij,eqjk->eqik", metric(tab), jjt)
        eye = np.eye(patch.dim)
        assert np.abs(prod - eye).max() < 1e-10


def test_quadrature_measures():
    cube = build_structured([(0.0, 1.0)] * 3, [4] * 3, 1)
    for patch in (unit_square(9), unit_square(5, 2), cube, graded_square(10)):
        assert abs(patch.tabulation().wdet.sum() - 1.0) < 1e-12


def test_quadrature_reference_sums():
    patch = unit_square(4, 2)
    assert patch.quadrature.weights.sum() == pytest.approx(1.0, abs=1e-14)
    tri = triangulate(unit_square(4))
    assert tri.quadrature.weights.sum() == pytest.approx(0.5, abs=1e-15)


def test_interior_edge_pairs_consistent():
    for patch in (graded_square(6, 2), triangulate(unit_square(5))):
        left, right = patch.interior_edge_samples(3)
        xl, _ = patch.geometry_eval(left.elements, left.pts)
        xr, _ = patch.geometry_eval(right.elements, right.pts)
        assert np.abs(xl - xr).max() < 1e-12


def edge_samples_loop(nx, ny, n_per_edge):
    """Reference: the 2D tensor edge samples built point by point."""
    t = (np.arange(n_per_edge) + 0.5) / n_per_edge
    els_l, els_r, pts = [], [], []
    for k in range(1, nx):  # vertical lines x = k
        for j in range(ny):
            for s in t:
                pts.append((float(k), j + s))
                els_l.append((k - 1) + j * nx)
                els_r.append(k + j * nx)
    for k in range(1, ny):  # horizontal lines y = k
        for i in range(nx):
            for s in t:
                pts.append((i + s, float(k)))
                els_l.append(i + (k - 1) * nx)
                els_r.append(i + k * nx)
    pts = np.array(pts)
    return np.array(els_l), pts, np.array(els_r), pts.copy()


def test_interior_edge_samples_match_loop():
    for nx, ny in ((7, 5), (3, 9)):
        patch = build_structured([(0.0, 1.0), (0.0, 2.0)], [nx, ny], 2)
        for n_per_edge in (3, 4):
            left, right = patch.interior_edge_samples(n_per_edge)
            got = (left.elements, left.pts, right.elements, right.pts)
            for g, w in zip(got, edge_samples_loop(nx, ny, n_per_edge)):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()


def simplex_edge_samples_dict_loop(patch, n_per_edge):
    """Reference: the triangles' shared edges found through a dict keyed by
    node pair, each sampled from its lower node id, as rows
    (point, {left element, right element})."""
    edges = {}
    for e, tri in enumerate(patch.conn):
        for a, b in ((0, 1), (1, 2), (2, 0)):
            edges.setdefault((min(tri[a], tri[b]), max(tri[a], tri[b])), []).append((e, a, b))
    t = (np.arange(n_per_edge) + 0.5) / n_per_edge
    rows = set()
    for (na, _), owners in edges.items():
        if len(owners) != 2:
            continue
        for e, a, b in owners:
            if patch.conn[e][a] != na:
                a, b = b, a
            v = _split_lattice(*patch.n_elems)[e]
            rows |= {(tuple(v[a] + s * (v[b] - v[a])), frozenset(o[0] for o in owners))
                     for s in t}
    return rows


def test_simplex_edge_samples_match_dict_loop():
    base = build_structured([(0.0, 1.0), (0.0, 2.0)], [7, 5], 1)
    for parent in (base, grade_structured(base, (lambda s: s**2.0, lambda s: s**1.6))):
        patch = triangulate(parent)
        for n_per_edge in (3, 4):
            left, right = patch.interior_edge_samples(n_per_edge)
            assert left.pts.tobytes() == right.pts.tobytes()
            rows = {(tuple(p), frozenset((a, b))) for p, a, b in
                    zip(left.pts.tolist(), left.elements.tolist(), right.elements.tolist())}
            assert len(rows) == len(left.elements)
            assert rows == simplex_edge_samples_dict_loop(patch, n_per_edge)


def sampled_patches(rng):
    """Graded quadratic, triangulated, NURBS, graded 1D and graded 3D
    patches, each with one-sided sample points: the left sides of its
    interior edges, or (3D) its grid nodes and random points, located."""
    cube = build_structured([(0.0, 1.0)] * 3, [3] * 3, 2)
    cube = grade_structured(cube, (lambda s: s**2.0, lambda s: s**1.6, lambda s: s**1.3))
    for patch in (graded_square(5, 2), triangulate(unit_square(4)), nurbs_square(),
                  grade_structured(unit_line(8, 2), lambda s: s**1.5)):
        yield patch, patch.interior_edge_samples(3)[0]
    yield cube, cube.locate(np.concatenate([cube.geom_coeffs, rng.uniform(size=(40, 3))]))


def test_sample_points_basis_matches_field_basis_eval(rng):
    for patch, at in sampled_patches(rng):
        idx, vals = at.basis
        full = patch.field_basis_eval(at.elements, at.pts)
        assert np.array_equal(idx, full.indices)
        assert vals.tobytes() == full.values.tobytes()
        assert at.basis is at.basis
        with pytest.raises(ValueError):
            vals[0, 0] = 0.5


def test_sample_points_x_matches_geometry_eval(rng):
    for patch, at in sampled_patches(rng):
        x, _ = patch.geometry_eval(at.elements, at.pts)
        assert at.x.tobytes() == x.tobytes()
        assert at.x is at.x
        with pytest.raises(ValueError):
            at.x[0, 0] = 0.5


def test_sample_points_jacobians_match_geometry_eval(rng):
    # point sets without blocks evaluate J as geometry_eval does, bitwise.
    # A block set sums each coordinate's coefficients one direction at a
    # time rather than per point over all active functions: the same terms
    # in another order, so it agrees to roundoff. On these grid geometries
    # a coordinate does not vary along the other directions, whose
    # derivative rows of -1 and 1 then cancel exactly
    for patch, at in sampled_patches(rng):
        _, jac = patch.geometry_eval(at.elements, at.pts)
        got = at.jacobians()
        if not at.blocks:
            assert got.tobytes() == jac.tobytes()
            continue
        assert got.shape == jac.shape
        assert np.abs(got - jac).max() <= 1e-13 * np.abs(jac).max()
        off_diagonal = ~np.eye(patch.dim, dtype=bool)
        assert np.all(got[:, off_diagonal] == 0.0)


def weighted_geometry_square(n=5, seed=7):
    """C1 quadratic field on a C1 quadratic NURBS map of the unit square: a
    wavy control net over the Greville points, with non-uniform weights."""
    field = BasisSpec.tensor_uniform((2, 2), (n, n))
    gx, gy = np.meshgrid(*[(kv[1:-2] + kv[2:-1]) / (2 * n) for kv in field.knots])
    net = np.stack([gx + 0.03 * np.sin(5 * gy), gy + 0.02 * np.cos(4 * gx)], axis=-1)
    w = 1.0 + 0.6 * np.random.default_rng(seed).uniform(size=field.n_funcs)
    geom = BasisSpec.tensor_uniform((2, 2), (n, n), weights=w)
    return MeshPatch(field, geom, net.reshape(-1, 2))


def test_weighted_geometry_edge_sets_match_geometry_eval():
    # a rational geometry sums w c and w on the blocks: x = sum w c N / W and
    # J = (sum w c N' - x sum w N') / W, to roundoff of the per-point sums
    patch = weighted_geometry_square()
    assert patch.tabulation().wdet.min() > 0
    for at in patch.interior_edge_samples(3):
        assert at.blocks
        x, jac = patch.geometry_eval(at.elements, at.pts)
        tol = 1e-13 * np.abs(jac).max()
        assert at.x.shape == x.shape and np.abs(at.x - x).max() <= tol
        got = at.jacobians()
        assert got.shape == jac.shape and np.abs(got - jac).max() <= tol


def block_patches():
    """Graded C1 and C0 quadratic squares, a NURBS square and a graded 1D
    quadratic line: the tensor patches whose edge samples are grid blocks."""
    return (graded_square(6, 2), unit_square(5, 2, continuity=0), nurbs_square(),
            grade_structured(unit_line(8, 2), lambda s: s**1.5))


def test_edge_block_values_match_the_per_point_gather(rng):
    # sum factorization over the grid lines against each point's active
    # coefficients gathered against its basis values; both sides of a
    # continuous field agree bitwise, and no points-by-functions table is built
    for patch in block_patches():
        left, right = patch.interior_edge_samples(3)
        assert left.blocks and right.blocks
        coeffs = rng.uniform(-2.0, 3.0, patch.n_dofs)
        field = ScalarField(patch, coeffs)
        sides = [field.eval_values(at) for at in (left, right)]
        for at, got in zip((left, right), sides):
            assert "basis" not in vars(at)
            be = patch.field_basis_eval(at.elements, at.pts)
            want = np.einsum("ma,ma->m", be.values, coeffs[be.indices])
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(coeffs).max()
        assert sides[0].tobytes() == sides[1].tobytes()


def test_edge_samples_of_a_line_are_its_interior_knots():
    patch = grade_structured(unit_line(5, 2), lambda s: s**1.5)
    left, right = patch.interior_edge_samples()
    assert left.pts.tolist() == right.pts.tolist() == [[1.0], [2.0], [3.0], [4.0]]
    assert left.elements.tolist() == [0, 1, 2, 3] and right.elements.tolist() == [1, 2, 3, 4]


def test_sample_points_own_read_only_copies():
    patch = graded_square(6, 2)
    elements, pts = np.array([7, 8]), np.array([[1.25, 1.5], [2.5, 1.75]])
    at = SamplePoints(patch, elements, pts)
    x = at.x.copy()
    elements[:] = 0
    pts += 0.125
    assert at.elements.tolist() == [7, 8] and at.pts[0].tolist() == [1.25, 1.5]
    assert at.x.tobytes() == x.tobytes()
    for arr in (at.elements, at.pts):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_locate_places_physical_points(rng):
    patch = graded_square(6, 2)
    x = rng.uniform(0.0, 1.0, size=(40, 2))
    at = patch.locate(x)
    assert np.array_equal(at.elements, patch.element_of_param(at.pts))
    assert np.abs(at.x - x).max() < 1e-14


def test_locate_rejects_points_outside_the_patch():
    patch = graded_square(6, 2)
    # the corners and points within roundoff of the boundary are inside
    edge = np.array([[0.0, 0.0], [1.0, 1.0], [1.0 + 1e-16, 0.5], [-1e-16, 0.25]])
    at = patch.locate(edge)
    assert np.abs(at.x - np.clip(edge, 0.0, 1.0)).max() < 1e-15
    for bad, i in (([[0.5, 0.5], [1.0 + 1e-9, 0.5]], 1),
                   ([[0.5, -0.01], [2.0, 0.5]], 0)):
        with pytest.raises(ValueError, match=rf"point {i}, .* outside the patch"):
            patch.locate(np.array(bad))
    line = build_structured([(-3.0, 5.0)], [4], 1)
    assert line.locate(np.array([[-3.0], [5.0]])).pts.tolist() == [[0.0], [4.0]]
    with pytest.raises(ValueError, match=r"\[-3, 5\]"):
        line.locate(np.array([[5.5]]))


def test_locate_rejects_points_of_the_wrong_dimension():
    # a 3D point on a 2D patch, and a flat pair on a 1D patch, which would
    # otherwise pass for one 2D point
    square = graded_square(4, 1)
    line = build_structured([(0.0, 1.0)], [4], 1)
    for patch, x in ((square, [[0.5, 0.5, 0.5]]), (triangulate(square), [[0.5, 0.5, 0.5]]),
                     (square, [0.5, 0.5]), (line, [0.25, 0.75]), (line, [[0.25, 0.75]])):
        shape = re.escape(str(np.shape(x)))
        with pytest.raises(ValueError, match=rf"shape \(n, {patch.dim}\), got {shape}"):
            patch.locate(np.array(x))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_locate_rejects_non_finite_points(bad):
    square = graded_square(4, 1)
    for patch in (square, triangulate(square)):
        with pytest.raises(ValueError, match=r"point 1, x = .* lies outside the patch"):
            patch.locate(np.array([[0.5, 0.5], [bad, 0.5]]))
        with pytest.raises(ValueError, match=r"point 0, x = .* lies outside the patch"):
            patch.locate(np.array([[0.5, bad]]))


def _with(arr, index, value):
    arr = np.array(arr, dtype=np.float64)
    arr[index] = value
    return arr


def _grid_patch_with(bad, family):
    """A 4x4 grid patch, tensor or triangulated, whose node 3 has y = ``bad``."""
    square = unit_square(4)
    nodes = _with(square.geom_coeffs, (3, 1), bad)
    if family == "tensor":
        return MeshPatch(square.field_spec, square.geom_spec, nodes, grid_lines=square.grid_lines)
    return MeshPatch(node_coords=nodes, grid_lines=square.grid_lines)


# each array a patch is built from, with one entry replaced: the knot at
# index 3 of a 1D vector, the weight at index 2, the coordinate (3, 1) of a
# tensor patch's control points or a triangulated patch's nodes
NON_FINITE_DATA = {
    "knots": (r"knots\[0\]\[3\]", lambda bad: BasisSpec(
        degrees=(1,), knots=(_with([0, 0, 1, 2, 3, 3], 3, bad),))),
    "weights": (r"weights\[2\]", lambda bad: BasisSpec.tensor_uniform(
        1, 4, weights=_with(np.ones(5), 2, bad))),
    "geom_coeffs": (r"geom_coeffs\[3, 1\]", lambda bad: _grid_patch_with(bad, "tensor")),
    "node_coords": (r"node_coords\[3, 1\]", lambda bad: _grid_patch_with(bad, "simplex")),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("array", list(NON_FINITE_DATA))
def test_non_finite_patch_data_fails_at_construction(array, bad):
    # NaN knots pass the nondecreasing test and an inf weight the positivity
    # one; each array is checked once, where it enters, and named
    name, build = NON_FINITE_DATA[array]
    with pytest.raises(ValueError, match=rf"^{name} is {bad}; every entry must be finite"):
        build(bad)


def test_sigma_min_computed_on_first_use(rng):
    patch = curved_quadratic_patch(rng)
    tab = patch.tabulation()
    assert "sigma_min" not in vars(tab)
    jac = tab.J.reshape(-1, 2, 2)
    oracle = np.linalg.svd(jac, compute_uv=False)[:, -1].reshape(tab.wdet.shape)
    assert tab.sigma_min.tobytes() == oracle.tobytes()
    assert patch.h_min() == oracle.min()


@pytest.mark.parametrize("make", BASIS_BLOCK_PATCHES.values(), ids=BASIS_BLOCK_PATCHES.keys())
def test_basis_groups_are_bitwise_equal_blocks(make):
    # membership is bitwise: each group's tables are its members' blocks,
    # tabulated element by element on local coordinates, and distinct blocks
    # stay apart. Against evaluation at the global quadrature points the
    # tables agree to roundoff; on triangles and NURBS, whose tables are
    # those evaluations, the two oracles are one
    patch = make()
    groups = patch.tabulation().basis_groups
    assert patch.tabulation().basis_groups is groups  # built once per tabulation
    n, dn = local_basis_blocks(patch)
    assert np.array_equal(np.sort(groups.order), np.arange(patch.n_elements))
    blocks = [n[e].tobytes() + dn[e].tobytes() for e in range(patch.n_elements)]
    for g in range(groups.n_groups):
        members = groups.members(g)
        assert np.array_equal(members, np.flatnonzero(groups.index == g))
        assert {blocks[e] for e in members} == {groups.values[g].tobytes()
                                                + groups.grads[g].tobytes()}
    assert len(set(blocks)) == groups.n_groups  # distinct blocks stay apart
    n_at, dn_at, _ = basis_blocks(patch)
    assert within_ulps(groups.values[groups.index], n_at, BASIS_ULPS)
    assert within_ulps(groups.grads[groups.index], dn_at, BASIS_ULPS)


def test_basis_group_counts():
    counts = {name: make().tabulation().basis_groups.n_groups
              for name, make in BASIS_BLOCK_PATCHES.items()}
    # per direction, a trilinear patch has one class of elements and a C1
    # quadratic one three (first, interior, last); grading moves only the
    # geometry; non-uniform weights make every block distinct
    assert counts == {"trilinear-6": 1, "c1-quadratic-7": 9, "graded-quadratic": 9,
                      "triangles": 2, "nurbs": 49}


def test_basis_groups_of_the_benchmark_patches():
    # one group on uniform bilinear and trilinear patches of any size, and
    # nine on the graded 120^2 C1 quadratic patch of the distortion run
    for patch in (unit_square(40), build_structured([(0.0, 1.0)] * 3, [16] * 3, 1)):
        assert patch.tabulation().basis_groups.n_groups == 1
    assert graded_square(120, 2).tabulation().basis_groups.n_groups == 9


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_lattice_rows_on_local_coordinates(degree):
    # the quadrature lattice's 1D rows, tabulated on local coordinates x_g,
    # differ from the rows at the global points k + x_g only through the
    # rounding delta of k + x_g: the values by at most max|delta| max|N'|
    # (measured up to 2.0e-14, at p = 4), the derivatives by at most 1e-13
    # (measured up to 1.2e-14 at p <= 2 and 9.3e-14 at p = 4). Elements whose
    # knots lie alike around their left knot have bitwise-equal rows: 2p - 1
    # classes on uniform C^(p-1) knots
    n = 120
    spec = BasisSpec.tensor_uniform(degree, n)
    knots = spec.knots[0]
    local = np.tile(gauss_rule_unit(degree + 1)[0], n)
    elements = np.repeat(np.arange(n), degree + 1)
    span_map = spec.span_of_element(0, np.arange(n))
    lattice = GridBlock((elements,), (local,), (0,))
    ((spans, rows),) = lattice.tabulate(spec, (span_map,))
    _, at_global = _ders_basis_batched(knots, degree, elements + local, spans=span_map[elements])
    assert np.array_equal(spans, span_map[elements])
    delta = np.abs((elements + local) - elements - local).max()  # exact differences
    slope = np.abs(at_global[1]).max()
    assert np.abs(rows[0] - at_global[0]).max() <= delta * slope + 4 * np.finfo(np.float64).eps
    assert np.abs(rows[1] - at_global[1]).max() <= 1e-13
    classes = {}
    per_element = rows.reshape(2, n, -1).swapaxes(0, 1)
    for s, block in zip(span_map, per_element):
        window = (knots[s - degree + 1:s + degree + 1] - knots[s]).tobytes()
        classes.setdefault(window, set()).add(block.tobytes())
    assert all(len(blocks) == 1 for blocks in classes.values())
    assert len({block.tobytes() for block in per_element}) == len(classes) == 2 * degree - 1


@pytest.mark.parametrize("make", BASIS_BLOCK_PATCHES.values(), ids=BASIS_BLOCK_PATCHES.keys())
def test_grouped_tabulation_is_pointwise_evaluation(make):
    # each element's dofs, and x, J and the measure weights of the geometry,
    # against evaluating the bases at every quadrature point: bitwise on
    # triangles, whose tables are those evaluations, and to roundoff on the
    # tensor patches, whose geometry is tabulated on local coordinates (its
    # basis blocks: see test_basis_groups_are_bitwise_equal_blocks)
    patch = make()
    tab = patch.tabulation()
    assert np.array_equal(tab.field_conn, basis_blocks(patch)[2][:, 0])
    x, jac = geometry_at_quadrature(patch)
    if patch.family == "simplex":
        # an oracle apart from x = sum N_a c_a and J = c^T grad N, which
        # geometry_eval shares with the tabulation: the frame J
        jac = np.repeat(frame_jacobians(patch)[:, None], len(patch.quadrature.weights), axis=1)
    wdet = np.linalg.det(jac) * patch.quadrature.weights
    if patch.family == "simplex":
        assert tab.x.tobytes() == x.tobytes()
        assert tab.J.tobytes() == jac.tobytes()
        assert tab.wdet.tobytes() == wdet.tobytes()
    else:
        assert within_ulps(tab.x, x, X_ULPS)
        assert within_ulps(tab.J, jac, J_ULPS)
        assert within_ulps(tab.wdet, wdet, BASIS_ULPS)
    assert set(vars(tab)) == {"x", "J", "wdet", "field_conn", "basis_groups"}


@pytest.mark.parametrize("make", [lambda: graded_square(10, 2),
                                  lambda: build_structured([(0.0, 1.0)] * 3, [4] * 3, 1)],
                         ids=["graded-quadratic", "trilinear-4"])
def test_kronecker_eigenpairs_diagonalize_the_projection_matrix(make):
    patch = make()
    pairs = patch.kronecker_eigenpairs()
    assert patch.kronecker_eigenpairs() is pairs  # built once per patch
    # direction 0 fastest: the last Kronecker factor is direction 0
    u, lam = np.ones((1, 1)), np.zeros(1)
    for lam_d, u_d, _, _ in pairs:
        u, lam = np.kron(u_d, u), np.add.outer(lam_d, lam).ravel()
    for kappa_d in (0.0, 1.0, 10.0):
        a = assembled_projection(patch, kappa_d).matrix.toarray()
        scale = 1.0 + kappa_d * lam
        assert np.abs(u.T @ a @ u - np.diag(scale)).max() <= 1e-12 * scale.max()
