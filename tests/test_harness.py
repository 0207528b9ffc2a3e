import filecmp
import gc
import os
import re
import warnings
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import graded_square, unit_square
import levelset.benchmarks as bm
from levelset.benchmarks import (
    CaseConfig,
    convergence_rate,
    heaviside_area_mismatch,
    heaviside_edge_jump,
    interface_drift,
    run_convergence,
    run_distortion,
    run_monotone1d,
    signed_distance_to_sphere,
    vortex2d_field,
    vortex3d_field,
    vortex_time_factor,
)
import levelset.cli as cli
import levelset.transport as transport
from levelset.cli import build_parser, config_from_args, main
from levelset.fields import AnalyticField, HeavisideParams, regularized_heaviside
from levelset.io import (
    emit_csv,
    emit_vtk,
    read_config,
    read_csv,
    read_vtk_points_and_scalars,
    vtk_nodes,
    write_manifest,
)
from levelset.linalg import IterationLimitError
from levelset.redistance import RedistanceParams, project_function, redistance_field


# ----------------------------------------------------------------------
# analytic velocity fields: each vortex field times its time factor, of
# period 8 in 2D and 3 in 3D


def u_2d(x, t):
    return vortex_time_factor(t, 8.0) * vortex2d_field(x)


def u_3d(x, t):
    return vortex_time_factor(t, 3.0) * vortex3d_field(x)


def test_vortex2d_pointwise_values():
    v = u_2d(np.array([[0.5, 0.75]]), 0.0)
    assert v[0, 0] == -1.0
    assert abs(v[0, 1]) < 1e-15


def test_vortex2d_zero_at_reversal(rng):
    x = rng.uniform(0, 1, size=(50, 2))
    assert np.all(u_2d(x, 4.0) == 0.0)


def test_vortex2d_reverses_sign(rng):
    x = rng.uniform(0, 1, size=(50, 2))
    assert np.array_equal(u_2d(x, 8.0), -u_2d(x, 0.0))


def test_vortex2d_vanishes_on_boundary(rng):
    edge = rng.uniform(0, 1, size=20)
    pts = np.concatenate([
        np.stack([np.zeros(20), edge], axis=-1),
        np.stack([np.ones(20), edge], axis=-1),
        np.stack([edge, np.zeros(20)], axis=-1),
        np.stack([edge, np.ones(20)], axis=-1),
    ])
    assert np.abs(u_2d(pts, 1.3)).max() < 1e-15


def test_vortex3d_zero_at_half_period(rng):
    x = rng.uniform(0, 1, size=(40, 3))
    assert np.all(u_3d(x, 1.5) == 0.0)


def test_vortex3d_vanishes_on_boundary(rng):
    base = rng.uniform(0, 1, size=(30, 3))
    for d in range(3):
        for val in (0.0, 1.0):
            pts = base.copy()
            pts[:, d] = val
            assert np.abs(u_3d(pts, 0.7)).max() < 1e-14


def test_vortex3d_reverses_sign(rng):
    x = rng.uniform(0, 1, size=(20, 3))
    assert np.array_equal(u_3d(x, 3.0), -u_3d(x, 0.0))


def test_signed_distance_sphere():
    fn, grad = signed_distance_to_sphere((0.5, 0.75), 0.15)
    assert fn(np.array([0.5, 0.75])) == pytest.approx(0.15)
    assert fn(np.array([0.5, 0.9])) == pytest.approx(0.0, abs=1e-15)
    g = grad(np.array([[0.5, 1.0]]))
    assert np.allclose(g, [[0.0, -1.0]])


# ----------------------------------------------------------------------
# emitters


def test_emit_csv_empty_and_roundtrip(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(path, ["a", "b"], [])
    assert path.read_text() == "a,b\n"
    path2 = tmp_path / "rows.csv"
    emit_csv(path2, ["x", "value"], [(0.1, 1.0 / 3.0), (0.2, 2.0)])
    header, rows = read_csv(path2)
    assert header == ["x", "value"]
    assert rows[0][1] == 1.0 / 3.0  # 17 significant digits round-trip exactly
    assert "0.33333333333333331" in path2.read_text()


def test_emit_vtk_roundtrip_1d_two_points(tmp_path):
    from levelset.mesh import build_structured

    patch = build_structured([(0.0, 1.0)], [1], 1)  # two grid nodes
    path = tmp_path / "line.vtk"
    emit_vtk(path, vtk_nodes(patch), {"phi": np.array([0.25, 0.75])})
    pts, scalars = read_vtk_points_and_scalars(path)
    assert len(pts) == 2
    assert np.allclose(pts[:, 0], [0.0, 1.0])
    assert np.allclose(scalars["phi"], [0.25, 0.75])


def test_emit_vtk_heaviside_in_unit_range(tmp_path):
    patch = unit_square(16)
    fn, _ = signed_distance_to_sphere((0.5, 0.75), 0.15)
    phi = project_function(patch, fn)
    sd = redistance_field(phi, RedistanceParams(kappa_d=0.0))
    hv = HeavisideParams(2.0)
    path = tmp_path / "snapshot.vtk"
    emit_vtk(path, vtk_nodes(patch), {
        "phi": phi.eval_values,
        "heaviside": lambda at: regularized_heaviside(sd.eval_values(at), hv),
    })
    _, scalars = read_vtk_points_and_scalars(path)
    h = scalars["heaviside"]
    assert np.all((h >= 0.0) & (h <= 1.0))
    assert h.max() > 0.9 and h.min() < 0.1


def test_emit_vtk_unstructured_triangles(tmp_path):
    from levelset.mesh import triangulate

    tri = triangulate(unit_square(4))
    path = tmp_path / "tri.vtk"
    emit_vtk(path, vtk_nodes(tri), {"phi": np.arange(tri.n_dofs, dtype=float)})
    text = path.read_text()
    assert "UNSTRUCTURED_GRID" in text
    assert f"CELLS {tri.n_elements}" in text
    pts, scalars = read_vtk_points_and_scalars(path)
    assert len(pts) == tri.n_dofs
    assert np.array_equal(pts[:, :2], tri.geom_coeffs) and not pts[:, 2].any()
    assert np.allclose(scalars["phi"], np.arange(tri.n_dofs))


def test_write_manifest_sorted(tmp_path):
    path = tmp_path / "manifest.txt"
    write_manifest(path, {"zeta": 1, "alpha": 0.5, "flag": True})
    assert path.read_text() == "alpha=0.5\nflag=true\nzeta=1\n"


# ----------------------------------------------------------------------
# config handling


def test_read_config(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text("# a comment\ncase=vortex2d\nmesh=20\nalpha = 2.5\n\nalt=proj-scale\n")
    mapping = read_config(path)
    assert mapping == {"case": "vortex2d", "mesh": "20", "alpha": "2.5",
                       "alt": "proj-scale"}
    cfg = CaseConfig.from_mapping(mapping)
    assert cfg.case == "vortex2d"
    assert cfg.mesh_n == 20
    assert cfg.alpha == 2.5
    assert cfg.alternative == "proj-scale"


def test_config_unknown_key():
    with pytest.raises(ValueError):
        CaseConfig.from_mapping({"case": "vortex2d", "bogus": "1"})


def test_config_validation():
    with pytest.raises(ValueError):
        CaseConfig("nonsense")
    with pytest.raises(ValueError):
        CaseConfig("vortex2d", mesh_n=2)
    with pytest.raises(ValueError):
        CaseConfig("vortex2d", t_end=-1.0)


@pytest.mark.parametrize("field, value", [("cfl", 0.0), ("cfl", -0.5), ("dt", 0.0)])
def test_config_rejects_nonpositive_time_step(field, value):
    # such runs used to die with ZeroDivisionError in the vortex set-up
    with pytest.raises(ValueError, match=field):
        CaseConfig("vortex2d", mesh_n=4, **{field: value})
    args = build_parser().parse_args(["vortex2d", "--mesh", "4", f"--{field}", str(value)])
    with pytest.raises(ValueError, match=field):
        config_from_args(args)


def test_config_resolved_defaults():
    cfg = CaseConfig("distortion").resolved()
    assert cfg.degree == 2 and cfg.alpha == 3.0 and cfg.kappa_d == 0.0
    assert cfg.mesh_n == 40
    cfg = CaseConfig("vortex2d", family="tri").resolved()
    assert cfg.degree == 1 and cfg.alpha == 2.0 and cfg.kappa_d == 10.0
    assert cfg.mesh_n == 40
    cfg = CaseConfig("monotone1d").resolved()
    assert cfg.kappa_d == 1.0 and cfg.alpha == 3.0
    assert cfg.mesh_n == 10
    assert CaseConfig("monotone1d", mesh_n=40).resolved().mesh_n == 40
    # triangles are linear, so the manifest of a triangle distortion run
    # records the degree it ran
    assert CaseConfig("distortion", family="tri").resolved().degree == 1


def test_cli_flag_overrides_config(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("case=monotone1d\nmesh=12\nalpha=4.0\n")
    args = build_parser().parse_args(
        ["monotone1d", "--config", str(cfg_file), "--alpha", "2.5"])
    cfg = config_from_args(args)
    assert cfg.mesh_n == 12      # from config file
    assert cfg.alpha == 2.5      # flag wins


def test_cli_config_naming_another_case_fails(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("case=distortion\nmesh=12\n")
    args = build_parser().parse_args(["monotone1d", "--config", str(cfg_file)])
    with pytest.raises(ValueError, match="distortion.*monotone1d"):
        config_from_args(args)
    cfg_file.write_text("case=monotone1d\nmesh=12\n")
    assert config_from_args(args).case == "monotone1d"


def test_cli_dt_cfl_mutually_exclusive():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["vortex2d", "--dt", "0.1", "--cfl", "0.5"])


def _no_run(config):
    pytest.fail("the case started although its config is bad")


def test_cli_bad_setting_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_case", _no_run)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["vortex2d", "--mesh", "4", "--cfl", "0", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "cfl must be finite and positive, got 0" in err
    assert not out.exists()


# settings a run used to reject only after building its patch, or to ignore
BAD_SETTINGS = [
    ("vortex2d", {"alpha": 0.0}, "alpha"),
    ("vortex2d", {"alpha": -1.0}, "alpha"),
    ("distortion", {"kappa_d": -1.0}, "kappa_d"),
    ("vortex2d", {"capturing_c": -0.5}, "capturing_c"),
    ("vortex2d", {"cfl": float("inf")}, "cfl"),
    ("vortex2d", {"picard_tol": 0.0}, "picard_tol"),
    ("vortex2d", {"picard_max": 0}, "picard_max"),
    ("vortex2d", {"tau_form": "bogus"}, "tau_form"),
    ("distortion", {"grading_x": 0.0}, "grading_x"),
    ("vortex2d", {"dt": 0.3}, "dt must divide"),
    ("vortex2d", {"dt": 0.01, "cfl": 0.25}, "cfl"),
    ("vortex3d", {"family": "tri"}, "two-dimensional"),
    ("monotone1d", {"mesh_n": 11}, "even element count"),
    ("monotone1d", {"degree": 2}, "degree 1"),
    ("vortex2d", {"family": "tri", "degree": 2}, "degree 1"),
    ("converge", {"mesh_n": 12}, "mesh_n cannot be set"),
    ("converge", {"degree": 2}, "degree cannot be set"),
    ("converge", {"family": "tri"}, "family cannot be set"),
    ("converge", {"alternative": "proj-scale"}, "alternative cannot be set"),
    ("distortion", {"dt": 0.1}, "dt cannot be set"),
    ("distortion", {"tau_form": "conventional"}, "tau_form cannot be set"),
    ("distortion", {"capturing_c": 0.5}, "capturing_c cannot be set"),
    ("monotone1d", {"t_end": 2.0}, "t_end cannot be set"),
    ("monotone1d", {"cfl": 0.25}, "cfl cannot be set"),
    ("monotone1d", {"picard_tol": 1e-6}, "picard_tol cannot be set"),
    ("vortex2d", {"grading_x": 3.0}, "grading_x cannot be set"),
    ("monotone1d", {"grading_y": 1.2}, "grading_y cannot be set"),
    ("converge", {"grading_x": 2.5}, "grading_x cannot be set"),
    ("vortex2d", {"with_80": True}, "with_80 cannot be set"),
    ("monotone1d", {"with_triangles": True}, "with_triangles cannot be set"),
    ("distortion", {"with_triangles": True}, "with_triangles cannot be set"),
]


@pytest.mark.parametrize("case, settings, match", BAD_SETTINGS,
                         ids=[f"{c}-" + "-".join(f"{k}={v}" for k, v in s.items())
                              for c, s, _ in BAD_SETTINGS])
def test_bad_setting_rejected_before_the_run(case, settings, match, tmp_path, capsys,
                                             monkeypatch):
    with pytest.raises(ValueError, match=match):
        CaseConfig(case, **settings)
    monkeypatch.setattr(cli, "run_case", _no_run)
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("".join(f"{key}={val}\n" for key, val in settings.items()))
    with pytest.raises(SystemExit) as exc:
        main([case, "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert re.search(match, err)
    assert not (tmp_path / "out").exists()


def test_cli_converge_mesh_is_usage_error(tmp_path, capsys, monkeypatch):
    # the sweep runs its own meshes; --mesh used to be ignored and recorded
    monkeypatch.setattr(cli, "run_case", _no_run)
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--mesh", "12", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "mesh_n cannot be set" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_time_step_of_a_redistance_case_is_usage_error(tmp_path, capsys, monkeypatch):
    # distortion used to run, ignore the step and record dt, t_end and
    # tau_form in its manifest
    monkeypatch.setattr(cli, "run_case", _no_run)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["distortion", "--mesh", "4", "--degree", "1", "--dt", "0.1",
              "--tau-form", "conventional", "--out", str(out)])
    assert exc.value.code == 2
    assert "dt cannot be set" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["distortion", "monotone1d"])
def test_redistance_case_manifest_omits_transport_settings(case, tmp_path):
    out = tmp_path / case
    assert main([case, "--mesh", "4", "--degree", "1", "--no-vtk", "--out", str(out)]) == 0
    manifest = dict(line.split("=", 1) for line in
                    (out / "manifest.txt").read_text().splitlines())
    assert manifest["case"] == case and manifest["mesh_n"] == "4"
    assert not manifest.keys() & set(CaseConfig._TRANSPORT)


def test_vortex_manifest_omits_settings_it_does_not_read(tmp_path):
    # grading_x=3 and with_80=true used to run and be recorded
    out = tmp_path / "vortex2d"
    assert main(["vortex2d", "--mesh", "4", "--degree", "1", "--t-end", "0.5", "--no-vtk",
                 "--out", str(out)]) == 0
    manifest = dict(line.split("=", 1) for line in
                    (out / "manifest.txt").read_text().splitlines())
    assert manifest["t_end"] == "0.5" and manifest["tau_form"] == "printed"
    assert not manifest.keys() & {"grading_x", "grading_y", "with_80", "with_triangles"}


def test_cli_dt_flag_with_cfl_in_file_is_usage_error(tmp_path, capsys, monkeypatch):
    # the fixed step used to win silently while the manifest recorded the cfl
    monkeypatch.setattr(cli, "run_case", _no_run)
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("cfl=0.25\n")
    with pytest.raises(SystemExit) as exc:
        main(["vortex2d", "--config", str(cfg_file), "--dt", "0.01",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "cfl cannot be set" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_alt_accepts_what_config_files_accept(tmp_path, capsys, monkeypatch):
    out = tmp_path / "long"
    assert main(["monotone1d", "--alt", "projected-inverse-scaling", "--out", str(out)]) == 0
    manifest = dict(line.split("=", 1) for line in
                    (out / "manifest.txt").read_text().splitlines())
    assert manifest["alternative"] == "proj-inv-scale"
    monkeypatch.setattr(cli, "run_case", _no_run)
    with pytest.raises(SystemExit) as exc:
        main(["monotone1d", "--alt", "bogus", "--out", str(tmp_path / "bogus")])
    assert exc.value.code == 2
    assert "unknown redistancing alternative 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "bogus").exists()


@pytest.mark.parametrize("key, val", [("cfl", "none"), ("capturing_c", ""),
                                      ("vtk", "ture"), ("vtk", ""), ("with_80", "2"),
                                      ("mesh", "abc"), ("alpha", "wide")])
def test_config_value_must_mean_something(key, val):
    # before, cfl=none died with a TypeError in the vortex set-up and
    # vtk=ture silently turned the VTK output off
    with pytest.raises(ValueError, match=f"'{key}'"):
        CaseConfig.from_mapping({"case": "vortex2d", key: val})


def test_config_value_spellings():
    cfg = CaseConfig.from_mapping({"case": "converge", "mesh": "none", "alpha": "",
                                   "vtk": "Off", "with_80": "YES", "dt": "None"})
    assert cfg.mesh_n is None and cfg.alpha is None and cfg.dt is None
    assert cfg.vtk is False and cfg.with_80 is True


# ----------------------------------------------------------------------
# runners


def test_convergence_rate_matches_printed_table():
    # recomputing the rate from the reported errors reproduces the reported
    # rate: log2(1.03e-1 / 5.37e-2) = 0.94 (the reported errors carry three
    # digits, so the recomputed rates match to about a percent)
    assert convergence_rate(1.03e-1, 5.37e-2) == pytest.approx(0.94, abs=5e-3)
    assert convergence_rate(6.19e-2, 1.89e-2) == pytest.approx(1.72, abs=1e-2)


def test_mismatch_norms_zero_for_identical_fields():
    patch = unit_square(6)
    fn, _ = signed_distance_to_sphere((0.5, 0.75), 0.15)
    phi = project_function(patch, fn)
    sd = redistance_field(phi, RedistanceParams(kappa_d=0.0))
    hv = HeavisideParams(2.0)
    assert heaviside_area_mismatch(patch, sd, sd, hv) == 0.0
    assert np.abs(phi.quadrature_values() - phi.quadrature_values()).max() == 0.0


def test_converge_manifest_records_what_ran(tmp_path, monkeypatch):
    ran = []

    def fake_run(config, dim):
        ran.append((config.family, config.degree, config.mesh_n, config.alternative))
        return SimpleNamespace(l1_heaviside=1.0 / config.mesh_n, linf_phi=2.0 / config.mesh_n)

    monkeypatch.setattr(bm, "_run_vortex", fake_run)
    run_convergence(CaseConfig("converge", with_triangles=True, vtk=False,
                               out_dir=str(tmp_path)))
    assert ran == [(family, degree, n, "proj-inv-scale")
                   for family, degree in (("quad", 1), ("quad", 2), ("tri", 1))
                   for n in (10, 20, 40)]
    manifest = dict(line.split("=", 1) for line in
                    (tmp_path / "manifest.txt").read_text().splitlines())
    assert manifest["levels"] == "10,20,40"
    assert manifest["families"] == "quad-p1,quad-p2,tri-p1"
    assert not manifest.keys() & {"mesh_n", "degree", "family", "alternative"}


def test_run_monotone1d_verdicts(tmp_path):
    cfg = CaseConfig("monotone1d", mesh_n=10, out_dir=str(tmp_path))
    report = run_monotone1d(cfg)
    assert report.curves["naive_uniform"].monotone
    assert not report.curves["naive_graded"].monotone
    assert report.curves["scaled_graded"].monotone
    assert (tmp_path / "monotone1d_curves.csv").exists()
    assert (tmp_path / "monotone1d_verdicts.csv").exists()
    assert (tmp_path / "manifest.txt").exists()


def test_run_distortion_small(tmp_path):
    cfg = CaseConfig("distortion", mesh_n=12, out_dir=str(tmp_path), vtk=False)
    report = run_distortion(cfg)
    by_key = {(e.alternative, e.kappa_d): e for e in report.entries}
    assert by_key[("direct", 0.0)].max_jump > 1e-3
    for alt in ("proj-redist", "proj-scale", "proj-inv-scale"):
        for kd in (0.0, 1.0):
            assert by_key[(alt, kd)].max_jump < 1e-8
    # the scaling alternatives pin the interface
    assert by_key[("proj-inv-scale", 10.0)].drift < 1e-10
    assert (tmp_path / "distortion_summary.csv").exists()


# run_distortion entries (max_jump, drift) at mesh_n=16, q2, gradings
# (2.0, 1.6), as computed with full basis evaluations and einsum projection
# matrices; the direct drift, a roundoff-level value, with Jacobians from
# batched matmul
DISTORTION_16 = {
    ("direct", 0.0): ("0x1.bd2ce43d7a0b8p-4", "0x1.4b54ca5c37002p-49"),
    ("direct", 1.0): ("0x1.bd2ce43d7a0b8p-4", "0x1.4b54ca5c37002p-49"),
    ("direct", 10.0): ("0x1.bd2ce43d7a0b8p-4", "0x1.4b54ca5c37002p-49"),
    ("proj-redist", 0.0): ("0x1.0000000000000p-52", "0x1.f3ade274e80c4p-7"),
    ("proj-redist", 1.0): ("0x1.0000000000000p-52", "0x1.1cde84b69404ep-3"),
    ("proj-redist", 10.0): ("0x1.0000000000000p-53", "0x1.39c3c26ff074bp-2"),
    ("proj-scale", 0.0): ("0x1.0000000000000p-53", "0x1.4bb33ba8b6a27p-49"),
    ("proj-scale", 1.0): ("0x1.0000000000000p-53", "0x1.4e60fa2e76427p-49"),
    ("proj-scale", 10.0): ("0x1.0000000000000p-52", "0x1.6e429bed952c2p-49"),
    ("proj-inv-scale", 0.0): ("0x1.0000000000000p-53", "0x1.4bb733817eccap-49"),
    ("proj-inv-scale", 1.0): ("0x1.0000000000000p-52", "0x1.4d6e0467c546dp-49"),
    ("proj-inv-scale", 10.0): ("0x1.0000000000000p-52", "0x1.66972995de152p-49"),
}


def test_run_distortion_reproduces_recorded_entries():
    cfg = CaseConfig("distortion", mesh_n=16, degree=2, grading_x=2.0, grading_y=1.6,
                     vtk=False)
    entries = run_distortion(cfg).entries
    assert [(e.alternative, e.kappa_d) for e in entries] == list(DISTORTION_16)
    for e in entries:
        jump, drift = (float.fromhex(v) for v in DISTORTION_16[(e.alternative, e.kappa_d)])
        if e.alternative == "direct":
            assert (e.max_jump, e.drift) == (jump, drift)
        else:
            assert e.max_jump < 1e-8
            assert abs(e.drift - drift) <= 1e-12 * drift


def test_run_distortion_reused_direct_entries_are_exact(monkeypatch):
    # direct ignores kappa_d, so the case measures it once, yet builds all 12
    # fields; a direct field built here at kappa_d = 10 on a fresh patch must
    # measure bitwise the same as the reused entries
    built, measured = [], []
    monkeypatch.setattr(bm, "redistance_field",
                        lambda phi, params, op: built.append(params)
                        or redistance_field(phi, params, op))
    monkeypatch.setattr(bm, "heaviside_edge_jump",
                        lambda sd, left, right, alpha: measured.append(built[-1])
                        or heaviside_edge_jump(sd, left, right, alpha))
    cfg = CaseConfig("distortion", mesh_n=16, degree=2, grading_x=2.0, grading_y=1.6,
                     vtk=False)
    entries = run_distortion(cfg).entries
    assert [(p.alternative, p.kappa_d) for p in built] == list(DISTORTION_16)
    assert [(p.alternative, p.kappa_d) for p in measured] == [
        (alt, kd) for alt, kd in DISTORTION_16 if alt != "direct" or kd == 0.0]
    patch = graded_square(16, 2, (2.0, 1.6))
    phi = AnalyticField(patch, lambda x: x[..., 0] - x[..., 1],
                        lambda x: np.broadcast_to(np.array([1.0, -1.0]), np.shape(x)).copy())
    sd = redistance_field(phi, RedistanceParams("direct", kappa_d=10.0))
    diag = np.linspace(0.02, 0.98, 300)
    oracle = (heaviside_edge_jump(sd, *patch.interior_edge_samples(), cfg.resolved().alpha).hex(),
              interface_drift(sd, patch.locate(np.stack([diag, diag], axis=-1))).hex())
    for e in entries:
        if e.alternative == "direct" and e.kappa_d in (1.0, 10.0):
            assert (e.max_jump.hex(), e.drift.hex()) == oracle


def test_edge_jump_on_the_band_is_the_full_max():
    # the regularized step evaluated at every edge sample, against the jump
    # that skips the samples beyond the band on the same side at both sides
    patch = graded_square(16, 2, (2.0, 1.6))
    phi = AnalyticField(patch, lambda x: x[..., 0] - x[..., 1],
                        lambda x: np.broadcast_to(np.array([1.0, -1.0]), np.shape(x)).copy())
    left, right = patch.interior_edge_samples()
    alpha = CaseConfig("distortion").resolved().alpha
    hv = HeavisideParams(alpha)
    for alt in ("direct", "proj-redist", "proj-scale", "proj-inv-scale"):
        sd = redistance_field(phi, RedistanceParams(alt, kappa_d=1.0))
        full = np.abs(regularized_heaviside(sd.eval_values(left), hv)
                      - regularized_heaviside(sd.eval_values(right), hv)).max()
        assert heaviside_edge_jump(sd, left, right, alpha).hex() == float(full).hex()
    # every sample beyond the band, above it and below it
    for offset in (2.0 * alpha, -2.0 * alpha):
        beyond = SimpleNamespace(eval_values=lambda at, c=offset: np.full(len(at.pts), c))
        assert heaviside_edge_jump(beyond, left, right, alpha) == 0.0


@pytest.mark.parametrize("config", [
    CaseConfig("vortex2d", mesh_n=6, t_end=0.5, vtk=False),
    CaseConfig("distortion", mesh_n=8, vtk=False),
], ids=["vortex2d", "distortion"])
def test_finished_case_frees_its_patch_without_cyclic_gc(config):
    # a reference cycle through the patch would hold every cached array of a
    # finished case until the cyclic collector ran
    gc.disable()
    try:
        result = bm.run_case(config)
        patch = weakref.ref(result.patch)
        del result
        assert patch() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("config", [
    CaseConfig("vortex2d", mesh_n=6, t_end=0.5),
    CaseConfig("distortion", mesh_n=8),
], ids=["vortex2d", "distortion"])
def test_finished_case_keeps_only_tabulation_pattern_and_eigenpairs(config, tmp_path):
    # evaluations at sample points are kept by the SamplePoints that hold
    # them; a per-call cache on the patch would show up here
    patch = bm.run_case(replace(config, out_dir=str(tmp_path))).patch
    built = vars(unit_square(4))
    assert set(vars(patch)) - set(built) <= {"_tab", "_csr", "_kron"}


def test_distortion_case_projects_by_kronecker_sums_alone(monkeypatch):
    # the graded patch is separable: its three operators (kappa_d 0, 1 and
    # 10) keep Kronecker sums, so the case builds no CSR pattern, and every
    # solve meets the tolerance on the exact inverse without Krylov
    fields = []
    real = bm.redistance_field
    monkeypatch.setattr(bm, "redistance_field",
                        lambda phi, params, op=None: fields.append(real(phi, params, op))
                        or fields[-1])
    patch = bm.run_case(CaseConfig("distortion", mesh_n=16, vtk=False)).patch
    assert set(vars(patch)) - set(vars(unit_square(4))) == {"_tab", "_kron"}
    ops = list({id(sd.op): sd.op for sd in fields if sd.op is not None}.values())
    assert [op.kappa_d for op in ops] == [0.0, 1.0, 10.0]
    assert [op.kept.krylov_fallbacks for op in ops] == [0, 0, 0]


def test_run_distortion_locates_and_evaluates_its_points_once(monkeypatch):
    # the edge pair and the 300 zero-set points serve all 12 entries: one
    # search for the zero-set elements, and per sample set one evaluation
    # of the field basis (degree 2) and of the geometry (degree 1) for x,
    # plus one of the geometry for the direct entry's J. The zero set
    # evaluates point by point; each edge set tabulates each basis once per
    # block and direction, on the 15 interior knots and the 16 * 4 points
    # along them, and never point by point. The 1D rows of the quadrature
    # lattice, 16 elements times 3 Gauss points per direction, come from the
    # same tabulator: once for the patch and once for each direction's 1D
    # patch of the Kronecker eigenpairs
    import levelset.mesh as lm

    located, evaluated, tabulated = [], [], []
    element_of_param, batched = lm.MeshPatch.element_of_param, lm.eval_tensor_batched
    ders = lm._ders_basis_batched
    monkeypatch.setattr(lm.MeshPatch, "element_of_param",
                        lambda self, pts: located.append(len(pts))
                        or element_of_param(self, pts))
    monkeypatch.setattr(lm, "eval_tensor_batched",
                        lambda spec, pts, **kw: evaluated.append((spec.degrees, len(pts)))
                        or batched(spec, pts, **kw))
    monkeypatch.setattr(lm, "_ders_basis_batched",
                        lambda knots, p, u, **kw: tabulated.append((p, len(u)))
                        or ders(knots, p, u, **kw))
    run_distortion(CaseConfig("distortion", mesh_n=16, vtk=False))
    assert located == [300]
    assert sorted(evaluated) == [((1, 1), 300), ((1, 1), 300), ((2, 2), 300)]
    edges = [(p, n) for p in (1, 2) for n in (15, 64)] * 4
    lattice = [(p, 48) for p in (1, 2)] * 4
    assert sorted(tabulated) == sorted(edges + lattice)


def test_run_distortion_edge_sets_hold_no_basis_table(monkeypatch):
    # every field's values on the edges come from the sets' 1D tables: after
    # the 12 entries neither set holds the per-point field-basis table
    import levelset.mesh as lm

    pairs = []
    samples = lm.MeshPatch.interior_edge_samples
    monkeypatch.setattr(lm.MeshPatch, "interior_edge_samples",
                        lambda self, *a: pairs.append(samples(self, *a)) or pairs[-1])
    run_distortion(CaseConfig("distortion", mesh_n=16, vtk=False))
    assert len(pairs) == 1
    for at in pairs[0]:
        assert at.blocks and "x" in vars(at)
        assert "basis" not in vars(at)


def test_run_distortion_evaluates_no_edge_point_per_point(monkeypatch):
    # x and J on the edges, which the direct entry reads, come from the sets'
    # 1D geometry rows as field values do: the per-point evaluations of a
    # 16^2 case serve the 300 zero-set points alone
    import levelset.mesh as lm

    rows = []
    batched = lm.eval_tensor_batched
    monkeypatch.setattr(lm, "eval_tensor_batched",
                        lambda spec, pts, **kw: rows.append(len(pts)) or batched(spec, pts, **kw))
    run_distortion(CaseConfig("distortion", mesh_n=16, vtk=False))
    assert rows and set(rows) == {300}


def test_vtk_nodes_are_located_once_per_case(monkeypatch, tmp_path):
    # every VTK file of a case shares one node set: a 16^2 distortion case
    # locates its 300 zero-set points and its 17^2 nodes, once each, for 12
    # files, and a vortex2d run its 7^2 nodes once for 3 snapshots
    import levelset.mesh as lm

    located = []
    element_of_param = lm.MeshPatch.element_of_param
    monkeypatch.setattr(lm.MeshPatch, "element_of_param",
                        lambda self, pts: located.append(len(pts))
                        or element_of_param(self, pts))
    run_distortion(CaseConfig("distortion", mesh_n=16, out_dir=str(tmp_path / "d")))
    assert len(list((tmp_path / "d").glob("*.vtk"))) == 12
    assert located == [300, 17 * 17]
    located.clear()
    bm.run_vortex2d(CaseConfig("vortex2d", mesh_n=6, t_end=0.5, out_dir=str(tmp_path / "v")))
    assert len(list((tmp_path / "v").glob("*.vtk"))) == 3
    assert located == [7 * 7]


def test_vortex_snapshots_are_named_after_the_step_they_write(tmp_path):
    # with four steps the mid-cycle snapshot is step 2, at t = T/2; with
    # three it is step 2 as well (the nearest to 1.5), at t = 2/3, and its
    # name says so
    for dt, mid in ((0.25, "0p5"), (1 / 3, "0p666667")):
        out = tmp_path / f"dt{dt:.3f}"
        result = bm.run_vortex2d(CaseConfig("vortex2d", mesh_n=4, degree=1, dt=dt, t_end=1.0,
                                            out_dir=str(out)))
        assert f"{result.times[2]:g}".replace(".", "p") == mid
        assert sorted(p.name for p in out.glob("*.vtk")) == [
            "vortex2d_t0.vtk", f"vortex2d_t{mid}.vtk", "vortex2d_t1.vtk"]


def test_run_distortion_builds_one_operator_per_kappa(monkeypatch):
    import levelset.benchmarks as bm
    import levelset.redistance as rd

    built = []

    class Counted(rd.ProjectionOperator):
        def __init__(self, patch, kappa_d, rel_tol=1e-10):
            built.append(kappa_d)
            super().__init__(patch, kappa_d, rel_tol)

    cfg = CaseConfig("distortion", mesh_n=8, vtk=False)
    monkeypatch.setattr(rd, "ProjectionOperator", Counted)
    shared = run_distortion(cfg).entries
    assert built == [0.0, 1.0, 10.0]
    # one operator per entry gives bitwise the same entries: the kept exact
    # inverse does not use the warm start
    monkeypatch.setattr(bm, "redistance_field",
                        lambda phi, params, op=None: redistance_field(phi, params))
    assert run_distortion(cfg).entries == shared


def test_run_outputs_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_monotone1d(CaseConfig("monotone1d", mesh_n=10, out_dir=str(d1)))
    run_monotone1d(CaseConfig("monotone1d", mesh_n=10, out_dir=str(d2)))
    for name in ("monotone1d_curves.csv", "monotone1d_verdicts.csv", "manifest.txt"):
        assert filecmp.cmp(d1 / name, d2 / name, shallow=False)
    # triangles evaluate point by point, quads on their edges by sum
    # factorization
    for family in ("tri", "quad"):
        t1, t2 = tmp_path / f"{family}_a", tmp_path / f"{family}_b"
        for out in (t1, t2):
            run_distortion(CaseConfig("distortion", family=family, mesh_n=16, out_dir=str(out)))
        names = sorted(os.listdir(t1))
        assert names == sorted(os.listdir(t2))
        assert len([n for n in names if n.endswith(".vtk")]) == 12
        assert {"distortion_summary.csv", "manifest.txt"} <= set(names)
        for name in names:
            assert filecmp.cmp(t1 / name, t2 / name, shallow=False)
    # a tensor vortex run loops over the basis groups in a fixed order
    v1, v2 = tmp_path / "vortex_a", tmp_path / "vortex_b"
    for out in (v1, v2):
        bm.run_vortex2d(CaseConfig("vortex2d", mesh_n=6, degree=2, t_end=0.5, out_dir=str(out)))
    names = sorted(os.listdir(v1))
    assert names == sorted(os.listdir(v2))
    assert len([n for n in names if n.endswith(".vtk")]) == 3
    assert {"vortex2d_trace.csv", "vortex2d_final.csv", "manifest.txt"} <= set(names)
    for name in names:
        assert filecmp.cmp(v1 / name, v2 / name, shallow=False)


def test_monotone1d_runs_the_mesh_it_records(tmp_path):
    default, forty = tmp_path / "default", tmp_path / "forty"
    assert main(["monotone1d", "--out", str(default)]) == 0
    assert main(["monotone1d", "--mesh", "40", "--out", str(forty)]) == 0
    for out, n in ((default, "10"), (forty, "40")):
        manifest = dict(line.split("=", 1) for line in
                        (out / "manifest.txt").read_text().splitlines())
        assert manifest["mesh_n"] == n
    assert not filecmp.cmp(default / "monotone1d_curves.csv",
                           forty / "monotone1d_curves.csv", shallow=False)


def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "cli_run"
    code = main(["monotone1d", "--mesh", "10", "--out", str(out)])
    assert code == 0
    assert (out / "manifest.txt").exists()
    captured = capsys.readouterr()
    assert "monotone" in captured.out
    manifest = dict(line.split("=", 1) for line in
                    (out / "manifest.txt").read_text().splitlines())
    assert manifest["mesh_n"] == "10"
    assert manifest["case"] == "monotone1d"


def test_cli_reports_a_failed_step_in_one_line(tmp_path, capsys):
    # one Picard iteration cannot reach 1e-9 in the first step: the run
    # fails, and the CLI says so on one line of stderr, with no traceback
    config = tmp_path / "c.txt"
    config.write_text("picard_max=1\npicard_tol=1e-9\n")
    code = main(["vortex2d", "--mesh", "10", "--degree", "1", "--config", str(config),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("levelset vortex2d: PicardError: Picard iteration did not "
                               "converge in step 1 from t=0 ")
    assert "Traceback" not in captured.err


def manifest_of(out):
    return dict(line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines())


def assert_failed_runs_leave_their_record(tmp_path, argv, before_each):
    """Run ``argv`` twice through the CLI, calling ``before_each`` first;
    both exit 1 and leave byte-identical trace CSVs and manifests. Returns
    the first run's output directory and manifest."""
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        before_each()
        assert main([*argv, "--out", str(out)]) == 1
    for name in ("vortex2d_trace.csv", "manifest.txt"):
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)
    manifest = manifest_of(outs[0])
    # the completed steps' rows, and no final errors
    header, rows = read_csv(outs[0] / "vortex2d_trace.csv")
    assert header[0] == "step"
    assert [int(row[0]) for row in rows] == list(range(int(manifest["failed_step"])))
    assert not (outs[0] / "vortex2d_final.csv").exists()
    return outs[0], manifest


def test_failed_picard_run_leaves_its_record(tmp_path, capsys):
    # one Picard iteration cannot reach 1e-9: the run fails in its first step
    config = tmp_path / "c.txt"
    config.write_text("picard_max = 1\npicard_tol = 1e-9\n")
    argv = ["vortex2d", "--mesh", "10", "--degree", "1", "--config", str(config)]
    out, manifest = assert_failed_runs_leave_their_record(tmp_path, argv, lambda: None)
    assert manifest["error_class"] == "PicardError"
    assert manifest["failed_step"] == "1"
    assert manifest["error_message"].startswith(
        "Picard iteration did not converge in step 1 from t=0 ")
    assert manifest["picard_max"] == "1" and manifest["n_steps"] == "160"
    # the CLI's one line carries the recorded message
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1] == f"levelset vortex2d: PicardError: {manifest['error_message']}"


def test_failed_krylov_run_leaves_its_record(tmp_path, monkeypatch):
    # the fifth solve of the run gives up, as a Krylov solve that runs out of
    # iterations does
    solve = transport.solve_nonsymmetric
    solves = []

    def giving_up(*args, **kwargs):
        solves.append(None)
        if len(solves) == 5:
            raise IterationLimitError("BiCGStab did not converge", 0.5, 7)
        return solve(*args, **kwargs)

    monkeypatch.setattr(transport, "solve_nonsymmetric", giving_up)
    argv = ["vortex2d", "--mesh", "6", "--degree", "1", "--t-end", "0.5"]
    out, manifest = assert_failed_runs_leave_their_record(tmp_path, argv, solves.clear)
    step = int(manifest["failed_step"])
    assert manifest["error_class"] == "IterationLimitError"
    assert step > 1
    assert manifest["error_message"].startswith("BiCGStab did not converge (rel residual "
                                                "5.000e-01 after 7 iterations), in step "
                                                f"{step} from t=")
    # the initial snapshot was written before the failure
    assert (out / "vortex2d_t0.vtk").exists()


def test_cli_vortex_summary_reports_solver_totals(tmp_path, capsys):
    out = tmp_path / "vortex"
    assert main(["vortex2d", "--mesh", "6", "--t-end", "0.5", "--no-vtk",
                 "--out", str(out)]) == 0
    line = re.search(r"Picard solves (\d+), block-LU factors (\d+), refinement sweeps (\d+), "
                     r"refactors (\d+), Krylov fallbacks (\d+), BiCGStab restarts (\d+); "
                     r"steps accepting the predictor with no solve (\d+)",
                     capsys.readouterr().out)
    assert line is not None
    solves, factors, sweeps, refactors, fallbacks, restarts, unsolved = map(int, line.groups())
    # the 6x6 p1 pattern takes the direct path: the first step factors its
    # first system, every later solve refines against the factor carried
    # across steps and refactors only when refinement stops contracting, and
    # none reaches BiCGStab
    assert solves > 0 and sweeps > 0 and fallbacks == 0 and restarts == 0
    assert factors == 1 + refactors and factors < solves
    manifest = dict(line.split("=", 1) for line in
                    (out / "manifest.txt").read_text().splitlines())
    assert 0 <= unsolved < int(manifest["n_steps"])


def test_cli_vortex_summary_reports_volume_shift_totals(tmp_path, capsys):
    out = tmp_path / "vortex"
    assert main(["vortex2d", "--mesh", "6", "--t-end", "0.5", "--no-vtk",
                 "--out", str(out)]) == 0
    line = re.search(r"volume shift: evaluations (\d+), bracket fallbacks (\d+), "
                     r"band widenings (\d+)", capsys.readouterr().out)
    assert line is not None
    evals, brackets, widenings = map(int, line.groups())
    manifest = dict(line.split("=", 1) for line in
                    (out / "manifest.txt").read_text().splitlines())
    # each step evaluates the volume at zero shift and once more at its root
    assert evals >= 2 * int(manifest["n_steps"]) and brackets == 0 and widenings == 0


# ----------------------------------------------------------------------
# test configuration


def test_unregistered_marker_fails_collection(pytestconfig):
    # a misspelt "slow" must not quietly run in the -m 'not slow' tier
    assert pytestconfig.getini("strict_markers") is True


def test_every_warning_fails_the_run():
    # not only a RuntimeWarning: a deprecation is raised as an error too
    with pytest.raises(DeprecationWarning):
        warnings.warn("retired", DeprecationWarning)
