"""Benchmark workloads: inputs made from a seed, one case run, output checks.

Each workload runs one public case of ``levelset.benchmarks`` end to end.
An *operation* is one transport time step (vortex workloads) or one
(alternative, kappa_d) entry (distortion). Seed 0 is the configuration
named in ``WHY``; other seeds change only the generated inputs: the disc or
sphere centre for the vortex workloads, the grading powers for distortion.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace

import numpy as np

import levelset.benchmarks as bm
from levelset.fields import HeavisideParams, regularized_heaviside
from levelset.io import read_csv, read_vtk_points_and_scalars
from levelset.linalg import IterationLimitError
from levelset.redistance import PositivityError
from levelset.transport import ConservationError, PicardError, TransportIntegrator
from spans import Patches

# failures a case may raise that count against its operations; any other
# exception is a defect of the benchmark or the program and ends the run
COUNTED_FAILURES = (PicardError, IterationLimitError, ConservationError, PositivityError)

# largest relative volume drift per step: the c05 (2D) and c08 (3D) bounds
VOLUME_BOUND = {2: 1e-10, 3: 1e-6}

# c02 qualitative bounds of the distortion test
DIRECT_JUMP_MIN = 1e-3
PROJECTED_JUMP_MAX = 1e-8
DRIFT_RATIO_MIN = 2.0

ALTERNATIVES = ("direct", "proj-redist", "proj-scale", "proj-inv-scale")
KAPPAS = (0.0, 1.0, 10.0)
MATCHING_KAPPAS = (0.0, 1.0)   # projections should stay jump-free and near `direct`

WHY = {
    "vortex2d-q2": "Krylov/Picard-bound: 2D vortex, 20x20 C1 quadratics, kappa_d=0, "
                   "full T=8 cycle (320 steps) with VTK/CSV/manifest output; "
                   "seeds >0 move the disc centre by <=0.0025",
    "vortex3d-16": "assembly- and memory-bound: 3D vortex, 16^3 trilinear hexes, "
                   "kappa_d=0, full cycle of period T=0.8 (52 steps), no VTK; "
                   "seeds >0 move the sphere centre by <=0.0025",
    "distortion-q2": "redistance only, no transport: graded 120x120 quadratic mesh, "
                     "4 alternatives x kappa_d in {0,1,10}, no VTK; "
                     "seeds >0 move the grading powers by <=0.01",
}


class SetupDone(Exception):
    """Raised at the first operation to end a set-up-only case."""


@dataclass
class Inputs:
    config: bm.CaseConfig
    dim: int                     # 2 or 3 for vortex workloads, 0 for distortion
    centre_offset: np.ndarray | None = None

    @property
    def planned(self):
        if not self.dim:
            return len(ALTERNATIVES) * len(KAPPAS)
        cfg = self.config.resolved()
        patch_h = 1.0 / cfg.mesh_n  # uniform unit cube/square: h_min = 1/n
        speed = bm.VORTEX2D_MAX_SPEED if self.dim == 2 else bm.VORTEX3D_MAX_SPEED
        return int(np.ceil(cfg.t_end / (cfg.cfl * patch_h / speed) - 1e-12))


def make_inputs(workload, seed, tiny=False):
    """The case inputs for ``workload`` at ``seed``; ``tiny`` shrinks them for smoke tests."""
    rng = np.random.default_rng(seed)
    if workload == "vortex2d-q2":
        cfg = bm.CaseConfig("vortex2d", mesh_n=20, degree=2, kappa_d=0.0,
                            alternative="proj-inv-scale", t_end=8.0)
        if tiny:
            cfg = replace(cfg, mesh_n=6, t_end=0.5)
        return Inputs(cfg, 2, rng.uniform(-0.0025, 0.0025, 2) if seed else None)
    if workload == "vortex3d-16":
        cfg = bm.CaseConfig("vortex3d", mesh_n=16, degree=1, kappa_d=0.0,
                            alternative="proj-inv-scale", t_end=0.8, vtk=False)
        if tiny:
            cfg = replace(cfg, mesh_n=4, t_end=0.25)
        return Inputs(cfg, 3, rng.uniform(-0.0025, 0.0025, 3) if seed else None)
    if workload == "distortion-q2":
        gx, gy = 2.0, 1.6
        if seed:
            gx, gy = gx + rng.uniform(-0.01, 0.01), gy + rng.uniform(-0.01, 0.01)
        cfg = bm.CaseConfig("distortion", mesh_n=16 if tiny else 120, degree=2,
                            grading_x=gx, grading_y=gy, vtk=False)
        return Inputs(cfg, 0)
    raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")


@dataclass
class CaseRun:
    wall_s: float
    setup_s: float
    op_s: list
    planned: int
    ok: np.ndarray = field(repr=False)
    started: float = 0.0   # clock time of the case call
    op_at: list = field(default_factory=list)   # clock time each operation began
    l1_heaviside: float = float("nan")
    problems: list = field(default_factory=list)

    @property
    def failed(self):
        return int(np.count_nonzero(~self.ok))


def _finite(*values):
    return all(np.all(np.isfinite(np.asarray(v, dtype=np.float64))) for v in values)


def run_case(inputs, scratch, instrument=None, setup_only=False, probe=None):
    """Run one case start to finish (or only to its first operation).

    ``instrument(patches)`` installs tracing before the operation hook, so
    the hook's timestamps enclose the traced calls. Every patch is undone
    before the outputs are checked. A :class:`hostspeed.HostProbe` given as
    ``probe`` runs between operations; its time is left out of every time
    the case reports.
    """
    clock = time.perf_counter
    out_dir = tempfile.mkdtemp(dir=scratch)
    cfg = replace(inputs.config, out_dir=out_dir)
    starts, ends, results = [], [], []
    paused = []   # probe time before each operation
    keep_results = not inputs.dim   # distortion's scaled distances feed its L1 figure

    def op_hook(func):
        def hooked(*args, **kwargs):
            # set-up ends at the first operation, so no probe runs before it
            paused.append(probe.pause() if probe is not None and starts else 0.0)
            starts.append(clock())
            if setup_only:
                raise SetupDone
            out = func(*args, **kwargs)
            ends.append(clock())
            if keep_results:
                results.append(out)
            return out

        return hooked

    try:
        with Patches() as patches:
            if instrument is not None:
                instrument(patches)
            if inputs.dim:
                patches.wrap_method(TransportIntegrator, "step", op_hook)
                runner = bm.run_vortex2d if inputs.dim == 2 else bm.run_vortex3d
                if inputs.centre_offset is not None:
                    # the case fixes its centre, so the seed's offset enters
                    # through the signed-distance factory it looks up
                    sphere = bm.signed_distance_to_sphere
                    offset = inputs.centre_offset
                    patches.set(bm, "signed_distance_to_sphere",
                                lambda c, r: sphere(np.asarray(c) + offset, r))
            else:
                patches.set(bm, "redistance_field", op_hook(bm.redistance_field))
                runner = bm.run_distortion
            result, error = None, None
            t0 = clock()
            try:
                result = runner(cfg)
            except SetupDone:
                pass
            except COUNTED_FAILURES as exc:
                error = exc
            t1 = clock()
        planned = inputs.planned
        setup_s = (starts[0] if starts else t1) - t0
        wall_s = t1 - t0 - sum(paused)
        if setup_only:
            return CaseRun(wall_s, setup_s, [], planned, np.ones(planned, bool), t0)
        if inputs.dim:
            # a step that raised lasts until the case gave up
            op_s = [b - a for a, b in zip(starts, ends + [t1])]
        else:
            op_s = list(np.diff(starts + [t1]) - np.array(paused[1:] + [0.0]))
        ok = np.ones(planned, dtype=bool)
        run = CaseRun(wall_s, setup_s, op_s, planned, ok, t0, starts[:len(op_s)])
        if error is not None:
            # the operation in progress failed; later ones were never attempted
            ok[max(len(starts) - 1, 0):] = False
            run.problems.append(f"{type(error).__name__}: {error}")
            return run
        if inputs.dim:
            _check_vortex(inputs, result, out_dir, run)
        else:
            _check_distortion(result, results, cfg, out_dir, run)
        return run
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _check_vortex(inputs, result, out_dir, run):
    dim = inputs.dim
    ok = run.ok
    vols = np.asarray(result.volumes[1:], dtype=np.float64)
    if len(vols) != run.planned or len(run.op_s) != run.planned:
        run.problems.append(f"{len(vols)} volumes and {len(run.op_s)} steps "
                            f"for {run.planned} planned")
        ok[:] = False
        return
    rel = np.abs(vols - result.v1_initial) / result.v1_initial
    bad = ~(rel <= VOLUME_BOUND[dim]) | ~np.isfinite(result.corrections[1:])
    if bad.any():
        run.problems.append(f"{int(bad.sum())} steps drift beyond "
                            f"{VOLUME_BOUND[dim]:g} or are not finite "
                            f"(max {np.nanmax(rel):.3e})")
    ok &= ~bad
    run.l1_heaviside = float(result.l1_heaviside)
    problem = _vortex_output_problem(inputs, result, out_dir)
    if problem:
        run.problems.append(problem)
        ok[-1] = False


def _vortex_output_problem(inputs, result, out_dir):
    dim = inputs.dim
    if not _finite(result.l1_heaviside, result.linf_phi, result.v1_initial):
        return "final error norms are not finite"
    files = [f"vortex{dim}d_trace.csv", f"vortex{dim}d_final.csv", "manifest.txt"]
    cfg = inputs.config.resolved()
    if cfg.vtk:
        labels = (f"{t:g}".replace(".", "p") for t in (0.0, 0.5 * cfg.t_end, cfg.t_end))
        files += [f"vortex{dim}d_t{label}.vtk" for label in labels]
    for name in files:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            return f"missing output {name}"
        if name.endswith(".csv"):
            _, rows = read_csv(path)
            if not _finite(rows):
                return f"non-finite values in {name}"
        elif name.endswith(".vtk"):
            points, scalars = read_vtk_points_and_scalars(path)
            if not scalars or not _finite(points, *scalars.values()):
                return f"non-finite or missing fields in {name}"
    return None


def _check_distortion(report, fields, cfg, out_dir, run):
    ok = run.ok
    entries = report.entries
    if len(entries) != run.planned or len(fields) != run.planned:
        run.problems.append(f"{len(entries)} entries for {run.planned} planned")
        ok[:] = False
        return
    by_key = {(e.alternative, e.kappa_d): i for i, e in enumerate(entries)}
    for i, e in enumerate(entries):
        if not _finite(e.max_jump, e.drift):
            ok[i] = False
        elif e.alternative == "direct" and not e.max_jump > DIRECT_JUMP_MIN:
            ok[i] = False
        elif e.alternative != "direct" and e.kappa_d in MATCHING_KAPPAS \
                and not e.max_jump < PROJECTED_JUMP_MAX:
            ok[i] = False
    i10 = by_key[("proj-redist", 10.0)]
    ratio = entries[i10].drift / entries[by_key[("proj-redist", 1.0)]].drift
    if not ratio >= DRIFT_RATIO_MIN:
        ok[i10] = False
        run.problems.append(f"proj-redist drift ratio {ratio:.3g} < {DRIFT_RATIO_MIN:g}")
    if not ok.all():
        run.problems.append(f"{int((~ok).sum())} entries miss the c02 checks")
    # L1(H) distance from the pointwise field of each projected alternative
    # that should match it; at kappa_d=10 the c02 check wants them apart
    wdet = report.patch.tabulation().wdet
    hv = HeavisideParams(cfg.resolved().alpha)
    h_direct = regularized_heaviside(fields[by_key[("direct", 0.0)]].quadrature_values(), hv)
    run.l1_heaviside = float(sum(
        np.sum(wdet * np.abs(regularized_heaviside(sd.quadrature_values(), hv) - h_direct))
        for e, sd in zip(entries, fields)
        if e.alternative != "direct" and e.kappa_d in MATCHING_KAPPAS))
    path = os.path.join(out_dir, "distortion_summary.csv")
    if not os.path.isfile(path) or not os.path.isfile(os.path.join(out_dir, "manifest.txt")):
        run.problems.append("missing distortion outputs")
        ok[-1] = False
    else:
        _, rows = read_csv(path)
        if len(rows) != run.planned or not _finite([r[1:] for r in rows]):
            run.problems.append("distortion_summary.csv rows missing or not finite")
            ok[-1] = False
