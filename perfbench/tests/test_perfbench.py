"""Tests of the benchmark itself: spans, percentiles, patches, smoke runs.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for p in (ROOT / "src", BENCH):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import levelset.linalg as la  # noqa: E402
import levelset.redistance as rd  # noqa: E402
import scipy.sparse as sps  # noqa: E402
from levelset.transport import PicardError, TransportIntegrator  # noqa: E402
from hostspeed import REFERENCE_S, WINDOW_S, HostProbe, trimmed_mean  # noqa: E402
from run import END_TO_END, PER_LAYER, percentile, run_workload  # noqa: E402
from spans import (  # noqa: E402
    Patches,
    Span,
    Tracer,
    count_matvecs,
    covered_length,
    descendants_per,
    matvec_owner,
    self_times,
    summarize,
)
from sweep import EXACT  # noqa: E402
from workloads import WHY, CaseRun, make_inputs, run_case  # noqa: E402


def test_self_time_on_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),   # overlaps a: children cover [1, 6] and [7, 8]
        Span("c", 2.0, 3.0, parent=1),
        Span("a", 7.0, 8.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])
    totals = summarize(spans)
    assert totals["a"].calls == 2
    assert totals["a"].busy_s == pytest.approx(4.0)
    assert totals["a"].self_s == pytest.approx(3.0)
    assert descendants_per(spans, "root", "c") == [1]


def test_covered_length_clips_to_parent():
    assert covered_length([(-1.0, 2.0), (1.5, 3.0), (9.0, 12.0)], 0.0, 10.0) == 4.0
    assert covered_length([], 0.0, 1.0) == 0.0


def test_tracer_records_parents_and_order():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 5.0, None), ("inner", 1.0, 2.0, 0), ("inner", 3.0, 4.0, 0)]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


@pytest.mark.parametrize("n, q, value, above", [
    (320, 90, 288, 32),   # vortex2d-q2: one case
    (104, 90, 94, 10),    # vortex3d-16: two cases
    (10, 50, 5, 5),
    (1, 90, 1, 0),
])
def test_percentile_rule_and_sample_count(n, q, value, above):
    rng = np.random.default_rng(n)
    values = list(rng.permutation(np.arange(1, n + 1)))
    assert percentile(values, q) == (value, above)


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 90)


def test_matvec_counter_attributes_to_innermost_span_and_restores():
    owner = matvec_owner()
    original = vars(owner)["_matmul_vector"]
    a = sps.csr_matrix(np.eye(3))
    x = np.ones(3)
    tracer = Tracer()
    with Patches() as patches:
        count_matvecs(patches, tracer)
        inner = tracer.wrap("inner", lambda: [a @ x for _ in range(3)])
        outer = tracer.wrap("outer", lambda: (a @ x, inner()))
        outer()
        a @ x
        assert vars(owner)["_matmul_vector"] is not original
    assert vars(owner)["_matmul_vector"] is original
    assert [(s.name, s.matvecs) for s in tracer.spans] == [("outer", 1), ("inner", 3)]
    assert tracer.unattributed_matvecs == 1
    a @ x
    assert tracer.unattributed_matvecs == 1


def test_wrap_everywhere_reaches_by_name_imports_and_restores():
    original = la.solve_spd
    calls = []

    def wrapper(func):
        def wrapped(*args, **kwargs):
            calls.append(func)
            return func(*args, **kwargs)
        return wrapped

    with Patches() as patches:
        patches.wrap_everywhere(original, wrapper)
        assert rd.solve_spd is not original and la.solve_spd is not original
        rd.solve_spd(la.SparseSystem.from_dense(np.eye(2), np.ones(2)))
    assert calls == [original]
    assert rd.solve_spd is original and la.solve_spd is original


def test_trimmed_mean_drops_both_ends():
    assert trimmed_mean([1.0, 2.0, 3.0, 4.0, 100.0], trim=0.2) == pytest.approx(3.0)
    assert trimmed_mean([5.0]) == 5.0
    with pytest.raises(ValueError):
        trimmed_mean([])


def test_probe_pauses_only_when_due():
    ticks = iter(np.arange(0.0, 100.0, 0.01))
    probe = HostProbe(every_s=1.0, clock=lambda: float(next(ticks)))
    assert probe.pause() > 0 and len(probe.samples) == 3
    assert probe.pause() == 0.0 and len(probe.samples) == 3


def test_host_factor_is_local_and_scales_each_operation():
    probe = HostProbe()
    probe.samples = [(0.0, REFERENCE_S), (10.0, 2 * REFERENCE_S)]
    assert WINDOW_S < 1.0
    assert probe.factor(0.0, 0.1) == pytest.approx(1.0)
    assert probe.factor(9.0, 1.0) == pytest.approx(2.0)
    assert probe.factor(5.0, 0.1) == pytest.approx(1.5)   # none near: all
    case = CaseRun(wall_s=12.0, setup_s=0.5, op_s=[1.0, 4.0], planned=2,
                   ok=np.ones(2, bool), started=-0.5, op_at=[0.0, 9.0])
    wall, ops = probe.scale(case)
    assert ops == pytest.approx([1.0, 2.0])
    assert wall == pytest.approx(1.0 + 2.0 + 7.0 / 1.5)


def test_probe_time_is_left_out_of_the_case(tmp_path):
    inputs = make_inputs("distortion-q2", 0, tiny=True)
    probe = HostProbe(every_s=0.0)
    spent = []
    pause = probe.pause
    probe.pause = lambda: spent.append(pause()) or spent[-1]
    run = run_case(inputs, str(tmp_path), probe=probe)
    assert run.failed == 0 and len(spent) == run.planned - 1
    assert run.wall_s == pytest.approx(run.setup_s + sum(run.op_s))


def test_raised_failure_counts_remaining_operations(tmp_path):
    inputs = make_inputs("vortex2d-q2", 0, tiny=True)
    original = vars(TransportIntegrator)["step"]
    seen = []

    def failing_third_step(patches):
        def wrapper(step):
            def wrapped(self, *args, **kwargs):
                seen.append(1)
                if len(seen) == 3:
                    raise PicardError([1.0])
                return step(self, *args, **kwargs)
            return wrapped
        patches.wrap_method(TransportIntegrator, "step", wrapper)

    run = run_case(inputs, str(tmp_path), instrument=failing_third_step)
    assert run.planned == 6
    assert run.failed == run.planned - 2
    assert len(run.op_s) == 3   # two steps done, the third timed until it raised
    assert "PicardError" in run.problems[0]
    assert vars(TransportIntegrator)["step"] is original


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WHY)
    assert [w["why"] for w in bench["workloads"]] == list(WHY.values())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER)


def _run(workload, trace, seed=1):
    result = run_workload(make_inputs(workload, seed, tiny=True), 1, trace)
    json.dumps(result)   # the result line must serialize
    return result


@pytest.mark.parametrize("workload", list(WHY))
def test_tiny_smoke_run(workload):
    for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
        result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(names)
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exact_counters_repeat():
    first, second = (_run("vortex2d-q2", 1, seed=3)["metrics"] for _ in range(2))
    assert {n: first[n]["value"] for n in EXACT} == {n: second[n]["value"] for n in EXACT}
    assert first["linalg.solve_nonsymmetric.matvecs"]["value"] > 0


def test_run_without_sources_fails(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vortex2d-q2", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
