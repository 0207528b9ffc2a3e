import numpy as np
import pytest

import levelset.gram as gram
from conftest import (BASIS_BLOCK_PATCHES, geometric_line_patch, graded_square, metric,
                      unit_line, unit_square)
from levelset.basis import BasisSpec
from levelset.fields import NaiveScaledField
from levelset.mesh import (
    InvalidGradingError,
    InvertedElementError,
    MeshPatch,
    SamplePoints,
    build_structured,
    grade_structured,
    triangulate,
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
    tri = triangulate(quad, pattern=2)
    assert tri.n_elements == 2
    assert tri.n_dofs == 4
    grid = unit_square(6)
    tri2 = triangulate(grid, pattern=2)
    assert tri2.n_elements == 2 * 36
    assert abs(tri2.tabulation().wdet.sum() - 1.0) < 1e-14
    tri4 = triangulate(grid, pattern=4)
    assert tri4.n_elements == 4 * 36
    assert tri4.n_dofs == 49 + 36
    assert abs(tri4.tabulation().wdet.sum() - 1.0) < 1e-14
    # every triangle of both splits is counterclockwise
    for tri in (tri2, tri4):
        tab = tri.tabulation()
        assert np.all(np.linalg.det(tab.J) > 0)
        assert np.all(tab.wdet > 0)


def test_triangulate_requires_linear_quads():
    with pytest.raises(ValueError):
        triangulate(unit_square(4, 2))


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


def test_sample_points_basis_matches_field_basis_eval():
    for patch in (graded_square(6, 2), triangulate(unit_square(4))):
        left, _ = patch.interior_edge_samples(3)
        idx, vals = left.basis
        full = patch.field_basis_eval(left.elements, left.pts)
        assert idx.dtype == np.int32 and np.array_equal(idx, full.indices)
        assert vals.tobytes() == full.values.tobytes()
        assert left.basis is left.basis
        with pytest.raises(ValueError):
            vals[0, 0] = 0.5


def test_sample_points_x_matches_geometry_eval():
    for patch in (graded_square(5, 2), triangulate(unit_square(4))):
        left, _ = patch.interior_edge_samples(3)
        x, _ = patch.geometry_eval(left.elements, left.pts)
        assert left.x.tobytes() == x.tobytes()
        assert left.x is left.x
        with pytest.raises(ValueError):
            left.x[0, 0] = 0.5


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


def test_sigma_min_computed_on_first_use(rng):
    patch = curved_quadratic_patch(rng)
    tab = patch.tabulation()
    assert "sigma_min" not in vars(tab)
    jac = tab.J.reshape(-1, 2, 2)
    oracle = np.linalg.svd(jac, compute_uv=False)[:, -1].reshape(tab.wdet.shape)
    assert tab.sigma_min.tobytes() == oracle.tobytes()
    assert patch.h_min() == oracle.min()


def group_members(groups):
    return [groups.order[a:b] for a, b in zip(groups.starts[:-1], groups.starts[1:])]


def block_bytes(tab, e):
    return tab.field_dN[e].tobytes() + tab.field_N[e].tobytes()


@pytest.mark.parametrize("make", BASIS_BLOCK_PATCHES.values(), ids=BASIS_BLOCK_PATCHES.keys())
def test_basis_groups_are_bitwise_equal_blocks(make):
    tab = make().tabulation()
    groups = tab.basis_groups
    assert tab.basis_groups is groups  # built once per tabulation
    assert np.array_equal(np.sort(groups.order), np.arange(len(tab.wdet)))
    reps = [block_bytes(tab, e) for e in groups.representatives]
    for members, rep in zip(group_members(groups), reps):
        assert all(block_bytes(tab, e) == rep for e in members)
    assert len(set(reps)) == groups.n_groups  # distinct blocks stay apart


def test_basis_group_counts():
    counts = {name: make().tabulation().basis_groups.n_groups
              for name, make in BASIS_BLOCK_PATCHES.items()}
    # grading moves only the geometry; non-uniform weights make every block distinct
    assert counts == {"trilinear-6": 8, "c1-quadratic-7": 16, "graded-quadratic": 16,
                      "triangles": 2, "nurbs": 49}


@pytest.mark.parametrize("make", BASIS_BLOCK_PATCHES.values(), ids=BASIS_BLOCK_PATCHES.keys())
def test_basis_groups_survive_hash_collisions(make, monkeypatch):
    patch = make()
    exact = group_members(patch.tabulation().basis_groups)
    monkeypatch.setattr(gram, "_block_keys", lambda bits: np.zeros(len(bits), np.uint64))
    tab = make().tabulation()
    collided = tab.basis_groups
    # every block collides, yet the groups are exactly the bitwise-equal ones
    assert sorted(map(tuple, group_members(collided))) == sorted(map(tuple, exact))
    reps = [block_bytes(tab, e) for e in collided.representatives]
    for members, rep in zip(group_members(collided), reps):
        assert all(block_bytes(tab, e) == rep for e in members)


@pytest.mark.parametrize("make", [lambda: graded_square(10, 2),
                                  lambda: build_structured([(0.0, 1.0)] * 3, [4] * 3, 1)],
                         ids=["graded-quadratic", "trilinear-4"])
def test_kronecker_eigenpairs_diagonalize_the_projection_matrix(make):
    from levelset import ProjectionOperator

    patch = make()
    pairs = patch.kronecker_eigenpairs()
    assert patch.kronecker_eigenpairs() is pairs  # built once per patch
    # direction 0 fastest: the last Kronecker factor is direction 0
    u, lam = np.ones((1, 1)), np.zeros(1)
    for lam_d, u_d in pairs:
        u, lam = np.kron(u_d, u), np.add.outer(lam_d, lam).ravel()
    for kappa_d in (0.0, 1.0, 10.0):
        a = ProjectionOperator(patch, kappa_d)._matrix.matrix.toarray()
        scale = 1.0 + kappa_d * lam
        assert np.abs(u.T @ a @ u - np.diag(scale)).max() <= 1e-12 * scale.max()
