"""Time to solution of the levelset cases, with a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload vortex2d-q2 --seed 0 --seconds 40 --trace 0

One invocation is one process running one workload in a closed loop: the
case is run start to finish, one case at a time, as long as the next case
is expected to end within ``--seconds`` (at least once). Before and after
those cases it is set up repeatedly and stopped at its first operation.

``--trace 0`` reports the end-to-end metrics. Their times are scaled to a
reference host: each is divided by the host factor of its case or block of
set-ups, measured by a fixed probe kernel run between operations and left
out of every time (see ``hostspeed``). The raw medians are printed beside.

* ``setup_s``: median time from the case call to its first operation
  (mesh, tabulation, CSR pattern, projection operator, initial projection)
  over every set-up-only case of the run.
* ``wall_s``: median time from the case call to its return, outputs included.
* ``step_ms_p50``, ``step_ms_p90``: nearest-rank percentiles of the
  per-operation wall time over every operation of the run.
* ``peak_rss_mb``: peak resident memory of this process.
* ``l1_heaviside``: L1 area mismatch of the regularized step. Vortex: final
  against initial after the reversal cycle. Distortion: every projected
  alternative at ``kappa_d`` 0 and 1, where it should match the pointwise
  (``direct``) field, against that field, summed.

Failed plus never-attempted operations go into the result's ``failed`` and
``attempted`` fields; their ratio is the failed fraction.

``--trace 1`` runs one untraced and then one traced case and reports the
per-layer metrics in ``PER_LAYER``, taken from spans recorded around the
public entry points of ``mesh``, ``linalg``, ``redistance``, ``transport``
and ``io``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SHARE = 0.1   # of --seconds, spent on set-up-only cases
MIN_SETUPS = 4      # set-ups in each block, however long they take

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("l1_heaviside", "area"),
)

# span name -> the totals reported for it
SPAN_FIELDS = {
    "transport.step": ("calls", "busy_s", "self_s", "matvecs"),
    "linalg.solve_nonsymmetric": ("calls", "busy_s", "matvecs"),
    "linalg.solve_spd": ("calls", "busy_s", "matvecs"),
    "linalg.assemble": ("calls", "busy_s"),
    "linalg.scalar_newton": ("calls", "busy_s"),
    "redistance.redistance_field": ("calls", "self_s"),
    "redistance.operator_init": ("calls", "busy_s"),
    "mesh.tabulation": ("calls", "busy_s"),
    "mesh.csr_pattern": ("calls", "busy_s"),
    "mesh.field_basis_eval": ("calls", "busy_s"),
    "io.emit_vtk": ("calls", "busy_s"),
    "io.emit_csv": ("calls", "busy_s"),
    "io.write_manifest": ("calls", "busy_s"),
}
LAYERS = ("transport", "linalg", "redistance", "mesh", "io")
PICARD_BUCKETS = 10   # steps with 0..9 nonsymmetric solves, then "10plus"

_UNITS = {"calls": "count", "matvecs": "count", "busy_s": "s", "self_s": "s"}
PER_LAYER = tuple(
    [(f"{span}.{f}", _UNITS[f]) for span, fields in SPAN_FIELDS.items() for f in fields]
    + [("transport.picard_solves", "count")]
    + [(f"transport.picard_solves.steps_with_{k}", "count") for k in range(PICARD_BUCKETS)]
    + [(f"transport.picard_solves.steps_with_{PICARD_BUCKETS}plus", "count"),
       ("transport.volume_fallbacks", "count"),
       ("redistance.clamp_fired", "count"),
       ("io.bytes_written", "bytes"),
       ("trace.wall_s", "s"),
       ("trace.overhead_s", "s"),
       ("trace.spans", "count")]
    + [(f"share.{layer}", "frac") for layer in LAYERS + ("case",)]
)


def percentile(values, q):
    """Nearest-rank ``q``-th percentile and the number of samples above its rank."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(math.ceil(q / 100.0 * len(xs)), 1)
    return xs[rank - 1], len(xs) - rank


def import_levelset():
    """Import ``levelset`` from this checkout's sources, and no other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import levelset
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import levelset from {SRC}: {exc}") from None
    if Path(levelset.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: levelset resolved to {levelset.__file__}, not {SRC}")


def _git_commit():
    # a checkout without git history records no commit; the source hash stays
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "levelset").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_times(inputs, scratch, budget_s, probe):
    """Set-up-only cases for ``budget_s`` (at least ``MIN_SETUPS``): raw and scaled times."""
    from workloads import run_case

    cases = []
    stop = probe.clock() + budget_s
    while len(cases) < MIN_SETUPS or probe.clock() < stop:
        cases.append(run_case(inputs, scratch, setup_only=True))
        probe.pause()
    probe.close()
    return [(c.setup_s, c.setup_s / probe.factor(c.started, c.setup_s)) for c in cases]


def timed_run(inputs, scratch, seconds):
    """Whole cases until the next would overrun, between two blocks of set-ups.

    The set-ups take ``SETUP_SHARE`` of ``seconds``, half before the cases
    and half after, so their median samples the host across the whole run.
    Every time is scaled to the reference host speed (see ``hostspeed``);
    the raw medians are printed beside.
    """
    from hostspeed import HostProbe
    from workloads import run_case

    probe = HostProbe()
    setup_budget = SETUP_SHARE * seconds / 2
    setups = setup_times(inputs, scratch, setup_budget, probe)
    cases, walls, ops = [], [], []
    begin = probe.clock()
    while True:
        since = probe.clock()
        cases.append(run_case(inputs, scratch, probe=probe))
        probe.close()
        wall, case_ops = probe.scale(cases[-1])
        walls.append(wall)
        # a case that failed before its first operation leaves only its wall time
        ops += case_ops or [wall]
        now = probe.clock()
        if now - begin + (now - since) > seconds - 2 * setup_budget:
            break
    setups += setup_times(inputs, scratch, setup_budget, probe)
    l1 = [c.l1_heaviside for c in cases if math.isfinite(c.l1_heaviside)]
    p50, _ = percentile(ops, 50)
    p90, beyond = percentile(ops, 90)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "wall_s": statistics.median(walls),
        "step_ms_p50": 1e3 * p50,
        "step_ms_p90": 1e3 * p90,
        "peak_rss_mb": _peak_rss_mb(),
        # with no finished case, every point of the unit domain counts as mismatched
        "l1_heaviside": statistics.median(l1) if l1 else 1.0,
    }
    raw_setup = statistics.median(raw for raw, _ in setups)
    raw_wall = statistics.median(c.wall_s for c in cases)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; raw {raw_setup:.6g} s",
        "wall_s": f"median of {len(cases)} cases; raw {raw_wall:.6g} s",
        "step_ms_p50": f"{len(ops)} operations",
        "step_ms_p90": f"{len(ops)} operations, {beyond} above",
    }
    return metrics, notes, cases


class LayerTrace:
    """Spans plus the counters that are read off returned objects."""

    def __init__(self):
        from spans import Tracer

        self.tracer = Tracer()
        self.clamp_fired = 0
        self.bytes_written = 0

    def _io(self, name):
        def wrapper(func):
            traced = self.tracer.wrap(name, func)

            def emitting(path, *args, **kwargs):
                out = traced(path, *args, **kwargs)
                self.bytes_written += os.path.getsize(path)
                return out

            return emitting

        return wrapper

    def _redistance(self, func):
        traced = self.tracer.wrap("redistance.redistance_field", func)

        def counting(*args, **kwargs):
            sd = traced(*args, **kwargs)
            eps = getattr(sd, "epsilon", None)
            if eps is not None:
                self.tracer.muted = True
                try:
                    self.clamp_fired += int(eps.quadrature_values().min() < sd.delta)
                finally:
                    self.tracer.muted = False
            return sd

        return counting

    def install(self, patches):
        """Wrap every public entry point the per-layer metrics name."""
        import levelset.io as lio
        import levelset.linalg as la
        import levelset.mesh as lm
        import levelset.redistance as rd
        import levelset.transport as tr
        from spans import count_matvecs

        span = lambda name: (lambda func: self.tracer.wrap(name, func))
        count_matvecs(patches, self.tracer)
        patches.wrap_method(tr.TransportIntegrator, "step", span("transport.step"))
        for name in ("solve_nonsymmetric", "solve_spd", "scalar_newton"):
            patches.wrap_everywhere(getattr(la, name), span(f"linalg.{name}"))
        patches.wrap_method(la.CsrPattern, "assemble", span("linalg.assemble"))
        patches.wrap_everywhere(rd.redistance_field, self._redistance)
        patches.wrap_method(rd.ProjectionOperator, "__init__",
                            span("redistance.operator_init"))
        for name in ("tabulation", "csr_pattern", "field_basis_eval"):
            patches.wrap_method(lm.MeshPatch, name, span(f"mesh.{name}"))
        for name in ("emit_vtk", "emit_csv", "write_manifest"):
            patches.wrap_everywhere(getattr(lio, name), self._io(f"io.{name}"))

    def metrics(self, wall_s, untraced_wall_s):
        from spans import descendants_per, summarize

        spans = self.tracer.spans
        totals = summarize(spans)
        out = {}
        for span, fields in SPAN_FIELDS.items():
            tot = totals.get(span)
            for f in fields:
                out[f"{span}.{f}"] = getattr(tot, f) if tot else 0
        per_step = descendants_per(spans, "transport.step", "linalg.solve_nonsymmetric")
        out["transport.picard_solves"] = sum(per_step)
        for k in range(PICARD_BUCKETS):
            out[f"transport.picard_solves.steps_with_{k}"] = per_step.count(k)
        out[f"transport.picard_solves.steps_with_{PICARD_BUCKETS}plus"] = \
            sum(n >= PICARD_BUCKETS for n in per_step)
        newton_in_steps = descendants_per(spans, "transport.step", "linalg.scalar_newton")
        out["transport.volume_fallbacks"] = sum(newton_in_steps) - len(newton_in_steps)
        out["redistance.clamp_fired"] = self.clamp_fired
        out["io.bytes_written"] = self.bytes_written
        out["trace.wall_s"] = wall_s
        out["trace.overhead_s"] = wall_s - untraced_wall_s
        out["trace.spans"] = len(spans)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, tot in totals.items():
            layer_self[name.split(".", 1)[0]] += tot.self_s
        for layer, own in layer_self.items():
            out[f"share.{layer}"] = own / wall_s
        out["share.case"] = 1.0 - sum(layer_self.values()) / wall_s
        return out


def traced_run(inputs, scratch):
    """One untraced case, then the same case traced."""
    from workloads import run_case

    run_case(inputs, scratch, setup_only=True)   # warm-up: the plain case is not the first
    plain = run_case(inputs, scratch)
    layer = LayerTrace()
    traced = run_case(inputs, scratch, instrument=layer.install)
    metrics = layer.metrics(traced.wall_s, plain.wall_s)
    return metrics, {}, [plain, traced]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_levelset()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WHY, make_inputs

    if args.workload not in WHY:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WHY)}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    result = run_workload(make_inputs(args.workload, args.seed), args.seconds, args.trace)
    print(json.dumps(result))
    return 0


def run_workload(inputs, seconds, trace):
    """Measure ``inputs``, print each metric with its unit, and return the result."""
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp")
    try:
        if trace:
            metrics, notes, cases = traced_run(inputs, scratch)
            units = dict(PER_LAYER)
        else:
            metrics, notes, cases = timed_run(inputs, scratch, seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass  # another run still uses it
    attempted = sum(c.planned for c in cases)
    failed = sum(c.failed for c in cases)
    for c in cases:
        for problem in c.problems:
            print(f"check failed: {problem}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{note}")
    print(f"failed_frac = {failed / attempted:.6g}  ({failed} of {attempted} operations)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
