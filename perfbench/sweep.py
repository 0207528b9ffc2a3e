"""Repeat ``run.py`` over seeds and report run-to-run spread or counter drift.

    python3 perfbench/sweep.py --seeds 1-10                 # spread of end-to-end metrics
    python3 perfbench/sweep.py --seeds 0 --trace --baseline perfbench/baseline.json

Workloads are interleaved and their order alternates from one seed to the
next, so a drifting host speed lands on every workload alike. Without
``--trace`` it prints, per workload and end-to-end metric, the median and
the quartile spread (Q3 - Q1) / median of the runs, against a third of the
metric's bound in BENCHMARK.json. With ``--trace`` each seed runs twice and
every exact counter must repeat. ``--baseline`` merges the results into a
JSON file: end-to-end medians and spreads, or the traced counters and each
layer's share of the traced wall time, plus the environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import PER_LAYER  # noqa: E402

EXACT_SUFFIXES = (".calls", ".matvecs", "picard_solves", "volume_fallbacks",
                  "clamp_fired", "bytes_written", "trace.spans")
EXACT = tuple(name for name, _ in PER_LAYER
              if name.endswith(EXACT_SUFFIXES) or ".steps_with_" in name)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return env, result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--baseline", help="write traced counters and shares here")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    repeats = 2 if args.trace else 1
    runs = {w: [] for w in workloads}
    env = None
    for i, seed in enumerate(seeds):
        for _ in range(repeats):
            for w in (workloads if i % 2 == 0 else workloads[::-1]):
                env, result = run_once(w, seed, args.seconds, args.trace)
                runs[w].append((seed, result))
                print(f"{w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
    ok = True
    path = Path(args.baseline) if args.baseline else None
    baseline = json.loads(path.read_text()) if path and path.is_file() else {}
    baseline["environment"] = env
    if not args.trace:
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        for w in workloads:
            for name, bound in bounds.items():
                values = [r["metrics"][name]["value"] for _, r in runs[w]]
                med, sp = spread(values) if len(values) > 1 else (values[0], 0.0)
                flag = "" if sp < bound / 3 else "  <-- above bound/3"
                print(f"{w:14s} {name:13s} median {med:12.6g}  spread {sp:7.2%}"
                      f"  bound {bound:.0%}{flag}  [{' '.join(f'{v:.4g}' for v in values)}]")
                baseline.setdefault("end_to_end", {}).setdefault(w, {})[name] = {
                    "seeds": args.seeds, "median": med, "spread": round(sp, 4)}
    for w in workloads if args.trace else ():
        for seed in seeds:
            pair = [r["metrics"] for s, r in runs[w] if s == seed]
            drift = [n for n in EXACT if pair[0][n]["value"] != pair[1][n]["value"]]
            if drift:
                ok = False
                print(f"{w} seed {seed}: counters differ between runs: {drift}")
            baseline.setdefault("traced", {}).setdefault(w, {})[str(seed)] = {
                "counters": {n: pair[0][n]["value"] for n in EXACT},
                "share_of_wall": {n: round(pair[0][n]["value"], 4)
                                  for n, _ in PER_LAYER if n.startswith("share.")},
                "trace_wall_s": round(pair[0]["trace.wall_s"]["value"], 3),
            }
    if args.trace:
        print("exact counters repeat" if ok else "exact counters DRIFT")
    if path:
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
