import tracemalloc

import numpy as np
import pytest

from conftest import (alternating_line_patch, assembled_projection, graded_square, nurbs_square,
                      recording_solver, unit_square)
from levelset import MeshPatch, ProjectionOperator, build_structured, triangulate
from levelset.linalg import (
    BlockLU,
    BlockTridiagonal,
    CsrPattern,
    IterationLimitError,
    KeptFactor,
    KroneckerInverse,
    RootFindingError,
    SparseSystem,
    scalar_newton,
    solve_nonsymmetric,
    solve_spd,
)


def test_solve_spd_identity():
    b = np.array([3.0, -1.0, 2.5])
    sys = SparseSystem.from_dense(np.eye(3), b)
    assert np.allclose(solve_spd(sys), b, atol=1e-12)


def test_solve_spd_2x2_analytic():
    sys = SparseSystem.from_dense([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0])
    assert np.allclose(solve_spd(sys), [1.0, 1.0], atol=1e-12)


def test_solve_spd_random_vs_dense_oracle(rng):
    m = rng.standard_normal((20, 20))
    a = m @ m.T + 20.0 * np.eye(20)
    b = rng.standard_normal(20)
    x = solve_spd(SparseSystem.from_dense(a, b))
    oracle = np.linalg.solve(a, b)
    assert np.linalg.norm(x - oracle) / np.linalg.norm(oracle) < 1e-10


def test_solve_spd_iteration_limit(rng):
    m = rng.standard_normal((30, 30))
    a = m @ m.T + 1e-3 * np.eye(30)
    b = rng.standard_normal(30)
    with pytest.raises(IterationLimitError) as err:
        solve_spd(SparseSystem.from_dense(a, b), rel_tol=1e-14, max_iter=2)
    assert err.value.residual > 0
    assert err.value.iterations == 2


def test_bicgstab_counts_its_restarts():
    # a cyclic shift has a zero diagonal, so the Jacobi weights are ones, and
    # BiCGStab stalls on it: each restart of its recurrences is counted on
    # the factor holder passed to the solve. Each restart starts from the best
    # iterate, a restart that finds no gain since the previous one ends the
    # solve long before max_iter, and the error reports the best iterate's
    # true residual, at most that of the zero start. The singular I + shift
    # (n even) drifts so far from its best iterate that a restart from the
    # last one would report a residual above 1
    for n, diagonal in ((50, 0.0), (20, 1.0)):
        a = np.roll(np.eye(n), 1, axis=1) + diagonal * np.eye(n)
        kept = KeptFactor()
        with pytest.raises(IterationLimitError, match="stagnated") as err:
            solve_nonsymmetric(SparseSystem.from_dense(a, np.arange(1.0, n + 1)),
                               max_iter=300, kept=kept)
        assert kept.lu is None and kept.krylov_restarts >= 1
        assert err.value.iterations <= 150
        assert 0.0 < err.value.residual <= 1.0


@pytest.mark.parametrize("solve", [solve_spd, solve_nonsymmetric], ids=["cg", "bicgstab"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_right_hand_side_fails_before_iterating(solve, bad):
    b = np.array([1.0, 2.0, bad, 4.0, bad])
    with pytest.raises(IterationLimitError, match=f"right-hand side entry 2 is {bad}") as err:
        solve(SparseSystem.from_dense(2.0 * np.eye(5), b))
    assert err.value.iterations == 0


def test_non_finite_projection_integrand_fails_before_iterating():
    op = ProjectionOperator(unit_square(8), 1.0)
    f_qp = np.ones(op.patch.tabulation().wdet.shape)
    f_qp[5, 2] = np.nan
    with pytest.raises(IterationLimitError, match="right-hand side entry .* is nan") as err:
        op.solve(f_qp)
    assert err.value.iterations == 0


@pytest.mark.parametrize("solve, name", [(solve_spd, "CG"), (solve_nonsymmetric, "BiCGStab")],
                         ids=["cg", "bicgstab"])
def test_non_finite_matrix_stops_the_krylov_loop_at_once(solve, name):
    a = 4.0 * np.eye(6) - np.eye(6, k=1) - np.eye(6, k=-1)
    a[2, 3] = a[3, 2] = np.nan
    with pytest.raises(IterationLimitError, match=f"{name} residual is not finite") as err:
        solve(SparseSystem.from_dense(a, np.ones(6)))
    assert err.value.iterations == 1


def test_solve_nonsymmetric_identity():
    b = np.array([1.0, 2.0, 3.0, 4.0])
    sys = SparseSystem.from_dense(np.eye(4), b)
    assert np.allclose(solve_nonsymmetric(sys), b, atol=1e-12)


def test_solve_nonsymmetric_diagonal():
    n = 12
    b = np.arange(1.0, n + 1) * 1.7
    sys = SparseSystem.from_dense(np.diag(np.arange(1.0, n + 1)), b)
    assert np.allclose(solve_nonsymmetric(sys), b / np.arange(1.0, n + 1), atol=1e-12)


def test_solve_nonsymmetric_upwind_convection_vs_dense(rng):
    # 1D upwinded convection-reaction: nonsymmetric bidiagonal system
    n = 40
    h = 1.0 / n
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = 1.0 + 1.0 / h
        if i > 0:
            a[i, i - 1] = -1.0 / h
    b = rng.standard_normal(n)
    x = solve_nonsymmetric(SparseSystem.from_dense(a, b))
    oracle = np.linalg.solve(a, b)
    assert np.linalg.norm(x - oracle) / np.linalg.norm(oracle) < 1e-10


def no_bracket():
    raise AssertionError("a Newton step was rejected")


def test_newton_linear():
    root, bisections = scalar_newton(lambda x: x - 1.0, lambda x: 1.0, 0.0, no_bracket)
    assert root == pytest.approx(1.0) and bisections == 0


def test_newton_cube_root():
    root, bisections = scalar_newton(lambda x: x**3 - 8.0, lambda x: 3 * x * x, 3.0, no_bracket,
                                     tol=1e-14)
    assert root == pytest.approx(2.0, abs=1e-12) and bisections == 0


def _band_fraction(phi_hat, alpha=2.0):
    return 0.5 * (1.0 + np.sin(0.5 * np.pi * np.clip(phi_hat / alpha, -1, 1)))


def test_newton_volume_shift_vs_bisection_oracle():
    # volume of {H(x - 0.4 + s)} on [0, 1] with a linear scaled distance;
    # solve for the shift reaching a target volume both ways
    xs = np.linspace(0.0, 1.0, 20001)
    w = np.full_like(xs, xs[1] - xs[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    alpha = 0.2
    target = 0.7

    def vol(s):
        return float(np.sum(w * _band_fraction(xs - 0.4 + s, alpha))) - target

    def dvol(s):
        inside = np.abs(xs - 0.4 + s) < alpha
        d = np.where(inside, 0.25 * np.pi / alpha * np.cos(0.5 * np.pi * (xs - 0.4 + s) / alpha), 0.0)
        return float(np.sum(w * d))

    newton_root, bisections = scalar_newton(vol, dvol, 0.0, no_bracket, tol=1e-14)
    assert bisections == 0
    lo, hi = -0.5, 0.5
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.sign(vol(mid)) == np.sign(vol(lo)):
            lo = mid
        else:
            hi = mid
    assert abs(newton_root - 0.5 * (lo + hi)) < 1e-12


def test_newton_fallback_and_failure():
    # derivative vanishes at the start: the rejected step bisects the bracket
    f = lambda x: x**3 - 1.0
    fp = lambda x: 3 * x * x
    root, bisections = scalar_newton(f, fp, 0.0, lambda: (-1.0, 4.0), tol=1e-13)
    assert root == pytest.approx(1.0, abs=1e-10) and bisections >= 1
    # a bracket without a sign change, and too few steps, both fail
    with pytest.raises(RootFindingError, match="does not straddle"):
        scalar_newton(f, fp, 0.0, lambda: (2.0, 4.0), tol=1e-13)
    with pytest.raises(RootFindingError, match="not found to tolerance"):
        scalar_newton(f, fp, 0.0, lambda: (-1.0, 4.0), tol=1e-13, max_iter=3)


def test_pattern_assembly_deterministic(rng):
    rows = rng.integers(0, 15, size=200)
    cols = rng.integers(0, 15, size=200)
    vals = rng.standard_normal(200)
    pat = CsrPattern(rows, cols, 15)
    s1 = pat.assemble(vals, np.zeros(15))
    s2 = pat.assemble(vals.copy(), np.zeros(15))
    assert s1.matrix.data.tobytes() == s2.matrix.data.tobytes()


def test_pattern_invariants(rng):
    rows = rng.integers(0, 9, size=60)
    cols = rng.integers(0, 9, size=60)
    pat = CsrPattern(rows, cols, 9)
    assert pat.row_offsets[0] == 0
    assert pat.row_offsets[-1] == pat.nnz
    assert np.all(np.diff(pat.row_offsets) >= 0)
    for r in range(9):
        sl = pat.col_indices[pat.row_offsets[r]: pat.row_offsets[r + 1]]
        assert np.all(np.diff(sl) > 0)
        assert np.all((sl >= 0) & (sl < 9))


def sorted_pattern_oracle(rows, cols, n):
    """Slot map and index arrays of a stream by argsort and ``np.unique``."""
    keys = np.asarray(rows, dtype=np.int64) * n + np.asarray(cols, dtype=np.int64)
    unique, slot = np.unique(keys, return_inverse=True)
    counts = np.bincount(unique // n, minlength=n)
    return slot.ravel(), unique % n, np.concatenate([[0], np.cumsum(counts)])


@pytest.mark.parametrize("n, size", [(15, 200), (9, 60), (40, 1), (7, 0)])
def test_general_pattern_matches_the_sorted_oracle(rng, n, size):
    rows, cols = rng.integers(0, n, size=(2, size))
    pat = CsrPattern(rows, cols, n)
    slot, col_indices, row_offsets = sorted_pattern_oracle(rows, cols, n)
    assert np.array_equal(pat.slot, slot) and pat.slot.dtype == np.int64
    assert np.array_equal(pat.col_indices, col_indices)
    assert np.array_equal(pat.row_offsets, row_offsets)
    assert pat.nnz == len(col_indices)


def general_pattern(patch):
    """The pattern of a patch's element stream by the general constructor."""
    conn = patch.tabulation().field_conn
    nel, nen = conn.shape
    return CsrPattern(np.repeat(conn, nen, axis=1), np.tile(conn, (1, nen)), patch.n_dofs)


TENSOR_PATTERN_PATCHES = {
    "1d-cubic": lambda: build_structured([(0.0, 1.0)], [12], 3),
    "20x20-c1-q2": lambda: unit_square(20, degree=2),
    "c0-q2": lambda: unit_square(6, degree=2, continuity=0),
    "7x5-q2": lambda: build_structured([(0.0, 1.0), (0.0, 2.0)], [7, 5], 2),
    "5x4x3-q2": lambda: build_structured([(0.0, 1.0)] * 3, [5, 4, 3], 2),
    "16^3-p1": lambda: build_structured([(0.0, 1.0)] * 3, [16] * 3, 1),
    "graded-q2": lambda: graded_square(30, degree=2),
    "nurbs": nurbs_square,
}


@pytest.mark.parametrize("make", TENSOR_PATTERN_PATCHES.values(),
                         ids=TENSOR_PATTERN_PATCHES.keys())
def test_tensor_pattern_is_the_general_one_bitwise(make):
    # the Kronecker build of a tensor patch, with no sort over the stream,
    # gives the sorting constructor's arrays, dtypes included
    patch = make()
    pat, oracle = patch.csr_pattern(), general_pattern(patch)
    for name in ("slot", "col_indices", "row_offsets"):
        got, want = getattr(pat, name), getattr(oracle, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert (pat.n, pat.nnz) == (oracle.n, oracle.nnz)
    assert (pat.banded is None) == (oracle.banded is None)


def test_tensor_pattern_banded_layout_is_the_general_one():
    patch = unit_square(20, degree=2)
    banded, oracle = patch.csr_pattern().banded, general_pattern(patch).banded
    assert banded is not None and (banded.n, banded.b) == (oracle.n, oracle.b)
    assert np.array_equal(banded.index, oracle.index)
    assert np.array_equal(banded.template, oracle.template)
    assert banded.sweeps_per_factor == oracle.sweeps_per_factor


def test_tensor_pattern_build_peak_is_a_small_multiple_of_the_slot_map():
    # the sorting constructor peaks near 10x its slot map on this patch; the
    # Kronecker build holds the slot map, the columns and a few row arrays
    patch = graded_square(60, degree=2)
    patch.tabulation()
    tracemalloc.start()
    try:
        pattern = patch.csr_pattern()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * pattern.slot.nbytes


def test_sparse_system_validation():
    with pytest.raises(ValueError):
        SparseSystem.from_dense(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        SparseSystem.from_dense(np.eye(2), np.ones(3))


@pytest.mark.parametrize("make, direct", [
    (lambda: unit_square(10, degree=2), True),
    (lambda: build_structured([(0.0, 1.0)] * 3, [8] * 3, 1), False),
], ids=["2d-q2-direct", "3d-p1-krylov"])
def test_pattern_matrix_wraps_values_in_pattern_indices(make, direct):
    pat = make().csr_pattern()
    assert (pat.banded is not None) == direct
    values = np.linspace(1.0, 2.0, pat.nnz)
    matrix = pat.matrix(values, np.ones(pat.n)).matrix
    assert np.shares_memory(matrix.indices, pat.col_indices)
    assert np.shares_memory(matrix.indptr, pat.row_offsets)
    # the stored values are the passed array (a full-length view of it, as
    # scipy's format check slices it), not a copy
    assert np.shares_memory(matrix.data, values) and matrix.data.shape == values.shape
    values[0] = -1.0
    assert matrix.data[0] == -1.0


def test_spd_assembled_projection_vs_dense_oracle(rng):
    # assembled mass + smoothing systems are reproduced against a dense solve
    from levelset import ProjectionOperator, build_structured

    patch = build_structured([(0.0, 2.0)], [400], 1)
    f = lambda x: np.sin(3.0 * x[..., 0]) + 0.3 * x[..., 0]
    system = assembled_projection(patch, 1.0, f)
    x = solve_spd(system)
    oracle = np.linalg.solve(system.matrix.toarray(), system.rhs)
    assert np.linalg.norm(x - oracle) / np.linalg.norm(oracle) < 1e-8


def test_solve_spd_warm_start_at_solution():
    # a zero initial residual must return, not read p.q = 0 as a breakdown
    b = np.array([3.0, -1.0, 2.5])
    x = solve_spd(SparseSystem.from_dense(np.eye(3), b), x0=b)
    assert np.array_equal(x, b)


# -- direct (block-tridiagonal) path ----------------------------------------


def rel_error(x, oracle):
    return np.linalg.norm(x - oracle) / np.linalg.norm(oracle)


def test_direct_supg_quadratic_vs_dense_oracle(monkeypatch):
    from levelset.redistance import project_function
    from levelset.transport import (PicardError, SeparableVelocity, TimeState,
                                    TransportIntegrator, TransportParams)

    patch = unit_square(10, degree=2)
    phi = project_function(
        patch, lambda x: 0.2 - np.linalg.norm(x - np.array([0.5, 0.7]), axis=-1))
    rotation = SeparableVelocity(
        lambda x: np.stack([0.5 - x[..., 1], x[..., 0] - 0.5], axis=-1), lambda t: 1.0)
    params = TransportParams(dt=0.05, capturing_c=1.0, picard_tol=1e-14, picard_max=1,
                             volume_conserve=False)
    integ = TransportIntegrator(patch, rotation, params)
    # ``older`` puts the extrapolated predictor on phi + 0.01, and a Picard
    # tolerance no guess meets stops the step after its first solve: that of
    # the loop's system at the predictor
    calls = recording_solver(monkeypatch)
    with pytest.raises(PicardError):
        integ.step(TimeState(phi, older=phi.coeffs - 0.01))
    ((system, _),) = calls
    assert system._banded is not None
    oracle = np.linalg.solve(system.matrix.toarray(), system.rhs)
    assert rel_error(solve_nonsymmetric(system), oracle) <= 1e-12


def test_direct_projection_vs_dense_oracle():
    from levelset import ProjectionOperator

    # a banded patch that is not separable: a separable one solves by its
    # Kronecker sum and never reaches block LU
    f = lambda x: np.sin(3.0 * x[..., 0]) * x[..., 1] + 0.3
    system = ProjectionOperator(triangulate(unit_square(12)), 1.0).system(f)
    assert system._banded is not None
    oracle = np.linalg.solve(system.matrix.toarray(), system.rhs)
    assert rel_error(solve_spd(system), oracle) <= 1e-12


def test_direct_rule_takes_narrow_band_patterns_only():
    # n * b**2 / nnz: 95 (20x20 q2), 203 (40x40 p1), 3936 (16^3 p1), ~2500
    # (the graded 120x120 q2 distortion mesh)
    assert unit_square(20, degree=2).csr_pattern().banded is not None
    assert unit_square(40).csr_pattern().banded is None
    assert build_structured([(0.0, 1.0)] * 3, [16] * 3, 1).csr_pattern().banded is None
    assert graded_square(120, degree=2).csr_pattern().banded is None


def band_of_width_2(n):
    idx = np.arange(n)
    return np.abs(np.subtract.outer(idx, idx)) <= 2


def banded_test_matrix(rng, n=12):
    return np.where(band_of_width_2(n), rng.standard_normal((n, n)), 0.0) + 6.0 * np.eye(n)


def pattern_system(a, rhs):
    # the whole band is stored, zero values included
    rows, cols = np.nonzero(band_of_width_2(len(a)))
    return CsrPattern(rows, cols, len(a)).assemble(a[rows, cols], rhs)


def singular_leading_block_system(rng):
    a = banded_test_matrix(rng)
    a[:2, :2] = 1.0  # singular first 2x2 block; the matrix itself is not
    b = rng.standard_normal(len(a))
    return a, b, pattern_system(a, b)


def test_direct_singular_leading_block_falls_back_to_krylov(rng):
    a, b, system = singular_leading_block_system(rng)
    assert system._banded is not None and system._banded.b == 2
    with pytest.raises(np.linalg.LinAlgError):
        system._banded.factor(system.matrix.data)
    oracle = np.linalg.solve(a, b)
    assert rel_error(solve_nonsymmetric(system), oracle) < 1e-9
    kept = KeptFactor()
    assert rel_error(solve_nonsymmetric(system, kept=kept), oracle) < 1e-9
    assert kept.matrix is system.matrix and kept.lu is None
    assert kept.krylov_fallbacks == 1


def test_krylov_path_keeps_no_matrix(rng):
    # nothing is factored on the Krylov path, so the holder keeps nothing: a
    # solved system does not outlive its solve there
    m = rng.standard_normal((20, 20))
    system = SparseSystem.from_dense(m @ m.T + 20.0 * np.eye(20), rng.standard_normal(20))
    kept = KeptFactor()
    x = solve_nonsymmetric(system, kept=kept)
    assert rel_error(x, np.linalg.solve(system.matrix.toarray(), system.rhs)) < 1e-9
    assert kept.matrix is None and kept.lu is None and kept.factors == 0


def test_each_matrix_is_factored_once(rng, monkeypatch):
    attempts = []
    factor = BlockTridiagonal.factor

    def counting_factor(self, values):
        attempts.append(len(values))
        return factor(self, values)

    monkeypatch.setattr(BlockTridiagonal, "factor", counting_factor)
    # a singular block is met once per solve, not again for the start
    _, _, system = singular_leading_block_system(rng)
    solve_nonsymmetric(system, kept=KeptFactor())
    assert len(attempts) == 1
    # a projection operator factors its fixed matrix at construction only
    attempts.clear()
    op = ProjectionOperator(triangulate(unit_square(12)), kappa_d=1.0)
    assert len(attempts) == 1
    for c in (0.3, 0.5, 0.7):
        op.solve(lambda x: np.sin(3.0 * x[..., 0]) + c)
    assert len(attempts) == 1


def test_factor_start_missing_tolerance_is_a_counted_krylov_fallback(rng, monkeypatch):
    a = banded_test_matrix(rng)
    b = rng.standard_normal(len(a))
    system = pattern_system(a, b)
    kept = KeptFactor()
    kept.factor(system)
    assert rel_error(solve_nonsymmetric(system, kept=kept), np.linalg.solve(a, b)) <= 1e-13
    assert kept.krylov_fallbacks == 0
    exact = kept.lu.solve
    monkeypatch.setattr(kept.lu, "solve", lambda rhs: exact(rhs) * (1.0 + 1e-6))
    x = solve_nonsymmetric(system, kept=kept)
    assert rel_error(x, np.linalg.solve(a, b)) < 1e-9
    assert kept.krylov_fallbacks == 1 and kept.sweeps == [] and kept.refactors == 0


def test_kept_factors_match_fresh_block_lu(rng):
    a = banded_test_matrix(rng)
    b = rng.standard_normal(len(a))
    system = pattern_system(a, b)
    kept = KeptFactor()
    kept.factor(system)
    assert rel_error(kept.lu.solve(b), np.linalg.solve(a, b)) <= 1e-13
    # the projection operator on a banded, non-separable patch factors its
    # fixed matrix once
    op = ProjectionOperator(triangulate(unit_square(12)), kappa_d=1.0)
    assert op.pattern.banded is not None
    assert isinstance(op.kept.lu, BlockLU)
    for f in (lambda x: np.sin(3.0 * x[..., 0]) * x[..., 1] + 0.3,
              lambda x: np.cos(2.0 * x[..., 1]) - x[..., 0]):
        x = op.solve(f)
        fresh = op.pattern.matrix(op._matrix.matrix.data, op.system(f).rhs)
        assert fresh.matrix is not op.kept.matrix
        assert rel_error(x, solve_spd(fresh)) <= 1e-13


def test_block_lu_keeps_only_what_it_reads(rng):
    # L, D^-1 and D^-1 U are the three thirds of one array, so a carried
    # factor holds no byte its solves do not read
    system = pattern_system(banded_test_matrix(rng), np.ones(12))
    lu = system._banded.factor(system.matrix.data)
    held = lu.lower.base
    assert lu.dinv.base is held and lu.upper.base is held
    assert held.nbytes == sum(arr.nbytes for arr in (lu.lower, lu.dinv, lu.upper))
    assert lu.dinv.shape == (6, 2, 2)
    a = system.matrix.toarray()
    assert rel_error(lu.solve(system.rhs), np.linalg.solve(a, system.rhs)) <= 1e-13


def test_direct_unsolvable_system_still_raises(rng):
    a = banded_test_matrix(rng)
    a[3, :] = 0.0  # a stored row of zeros against a nonzero right-hand side
    system = pattern_system(a, np.ones(len(a)))
    assert system._banded is not None
    with pytest.raises(IterationLimitError):
        solve_nonsymmetric(system, max_iter=50)
    with pytest.raises(IterationLimitError):
        solve_spd(system, max_iter=50)


# -- kept inverse of separable projections (fast diagonalization) -----------


def projection_rhs(x):
    return np.sin(3.0 * x[..., 0]) + x[..., -1] ** 2


def bumped_square(n=8):
    """C1 quadratic field on the unit square's grid lines, with the interior
    nodes of its bilinear geometry moved off the grid."""
    base = unit_square(n, degree=2)
    cp = base.geom_coeffs
    bump = 0.2 / n * np.sin(np.pi * cp) * np.sin(np.pi * cp[:, ::-1])
    return MeshPatch(base.field_spec, base.geom_spec, cp + bump, grid_lines=base.grid_lines)


def trilinear_cube(n=6):
    return build_structured([(0.0, 1.0)] * 3, [n] * 3, 1)


@pytest.mark.parametrize("make, kappa_d", [
    (alternating_line_patch, 1.0),
    (lambda: graded_square(12, 2), 0.0),
    (lambda: graded_square(12, 2), 1.0),
    (lambda: graded_square(12, 2), 10.0),
    (trilinear_cube, 1.0),
], ids=["1d-alternating", "2d-graded-q2-k0", "2d-graded-q2-k1", "2d-graded-q2-k10",
        "3d-trilinear"])
def test_kronecker_inverse_vs_dense_oracle(make, kappa_d):
    patch = make()
    op = ProjectionOperator(patch, kappa_d)
    system = assembled_projection(patch, kappa_d, projection_rhs)
    assert isinstance(op.kept.lu, KroneckerInverse)
    oracle = np.linalg.solve(system.matrix.toarray(), system.rhs)
    assert rel_error(op.kept.lu.solve(system.rhs), oracle) <= 1e-12


@pytest.mark.parametrize("make, kappa_d", [
    (alternating_line_patch, 1.0),
    (lambda: graded_square(12, 2), 0.0),
    (lambda: graded_square(12, 2), 1.0),
    (lambda: graded_square(12, 2), 10.0),
    (lambda: trilinear_cube(4), 1.0),
], ids=["1d-alternating", "2d-graded-q2-k0", "2d-graded-q2-k1", "2d-graded-q2-k10",
        "3d-trilinear"])
def test_kronecker_sum_is_the_assembled_matrix(make, kappa_d, rng):
    # a separable operator's matrix applies and diagonalizes as the
    # assembled one, and CG runs on it alone: no factor is passed, so the
    # solve is Krylov with its Jacobi diagonal
    patch = make()
    system = ProjectionOperator(patch, kappa_d).system(projection_rhs)
    assert isinstance(system.matrix, KroneckerInverse) and system._banded is None
    oracle = assembled_projection(patch, kappa_d, projection_rhs)
    a = oracle.matrix.toarray()
    assert system.matrix.shape == a.shape
    for x in rng.standard_normal((3, system.n)):
        assert rel_error(system.matrix @ x, a @ x) <= 1e-13
    assert rel_error(system.matrix.diagonal(), a.diagonal()) <= 1e-13
    dense = np.linalg.solve(a, oracle.rhs)
    assert rel_error(solve_spd(system, rel_tol=1e-13), dense) <= 1e-10


def test_separable_projection_assembles_nothing(monkeypatch):
    # the 1D factors are assembled once per patch, with its eigenpairs;
    # an operator then builds no pattern, no element matrices and no nD
    # assembly, for any kappa_d
    patch = graded_square(12, 2)
    patch.kronecker_eigenpairs()
    calls = []
    monkeypatch.setattr(ProjectionOperator, "element_matrices",
                        lambda self: calls.append("element_matrices"))
    monkeypatch.setattr(CsrPattern, "assemble",
                        lambda self, values, rhs: calls.append("assemble"))
    for kappa_d in (0.0, 1.0, 10.0):
        op = ProjectionOperator(patch, kappa_d)
        op.solve(projection_rhs)
        assert op.pattern is None and op.kept.krylov_fallbacks == 0
    assert calls == []
    assert not hasattr(patch, "_csr")


@pytest.mark.parametrize("make", [lambda: graded_square(12, 2), trilinear_cube],
                         ids=["2d-direct-pattern", "3d-krylov-pattern"])
def test_solve_spd_on_separable_projection_is_the_kept_inverse(make):
    # bitwise the inverse's result, warm start or not: CG did not run
    op = ProjectionOperator(make(), 1.0)
    system = op.system(projection_rhs)
    exact = op.kept.lu.solve(system.rhs)
    assert np.array_equal(solve_spd(system, kept=op.kept), exact)
    assert np.array_equal(solve_spd(system, x0=np.ones(system.n), kept=op.kept), exact)


@pytest.mark.parametrize("make", [nurbs_square, bumped_square,
                                  lambda: triangulate(unit_square(6))],
                         ids=["nurbs", "bumped", "triangles"])
def test_non_separable_patches_keep_no_kronecker_inverse(make):
    patch = make()
    assert patch.kronecker_eigenpairs() is None
    op = ProjectionOperator(patch, 1.0)
    assert not isinstance(op.kept.lu, KroneckerInverse)
    system = op.system(projection_rhs)
    oracle = np.linalg.solve(system.matrix.toarray(), system.rhs)
    assert rel_error(op.solve(projection_rhs), oracle) <= 1e-12


def test_import_leaves_scipy_solvers_unloaded():
    # each of scipy.linalg and scipy.sparse.linalg adds 7-8 MB of resident
    # memory on import, more than the 5% peak-RSS bound (about 3 MB) of the
    # 61 MB vortex2d-q2 benchmark run; the direct path is numpy-only for this
    # reason
    import os
    import subprocess
    import sys

    import levelset

    src = os.path.dirname(os.path.dirname(os.path.abspath(levelset.__file__)))
    code = ("import sys, levelset; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
