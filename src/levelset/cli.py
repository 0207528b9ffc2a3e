"""Command-line benchmark runner.

One subcommand per case; precedence of settings is
case defaults < config file (--config, flat key=value) < command-line flags.
All resolved parameters but the output directory itself are echoed into
<out>/manifest.txt. Flags and config files accept the same values: a setting
that cannot be read or that the case would reject is a usage error (exit
status 2), reported before any work starts. A run that fails in a transport
step (:class:`levelset.linalg.StepError`) is reported in one line, the
error's class and message, with exit status 1.
"""

from __future__ import annotations

import argparse
import sys

from .benchmarks import CASES, CaseConfig, run_case
from .io import read_config
from .linalg import StepError


def _add_common_flags(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--mesh", type=int, dest="mesh_n",
                     help="elements per direction")
    sub.add_argument("--family", choices=("quad", "tri"))
    sub.add_argument("--degree", type=int, choices=(1, 2))
    sub.add_argument("--alpha", type=float,
                     help="interface half-width in element lengths")
    sub.add_argument("--kappa-d", type=float, dest="kappa_d",
                     help="redistancing smoothing weight")
    sub.add_argument("--alt", dest="alternative",
                     help="redistancing alternative: direct, proj-redist (projected-"
                          "redistance), proj-scale (projected-scaling) or proj-inv-scale "
                          "(projected-inverse-scaling)")
    sub.add_argument("--capturing-c", type=float, dest="capturing_c",
                     help="discontinuity-capturing constant")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--dt", type=float, help="fixed time step")
    group.add_argument("--cfl", type=float, help="advective Courant number")
    sub.add_argument("--t-end", type=float, dest="t_end")
    sub.add_argument("--tau-form", dest="tau_form",
                     choices=("printed", "conventional"))
    sub.add_argument("--grading-x", type=float, dest="grading_x")
    sub.add_argument("--grading-y", type=float, dest="grading_y")
    sub.add_argument("--with-80", action="store_true", dest="with_80",
                     default=None, help="include the 80-element level")
    sub.add_argument("--with-triangles", action="store_true", dest="with_triangles",
                     default=None, help="include the triangle family")
    sub.add_argument("--no-vtk", action="store_false", dest="vtk", default=None)
    sub.add_argument("--out", dest="out_dir", help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="levelset",
        description="Level-set benchmark cases: distortion, monotone1d, "
                    "vortex2d, vortex3d, converge.",
    )
    subs = parser.add_subparsers(dest="case", required=True)
    for case in CASES:
        _add_common_flags(subs.add_parser(case, help=f"run the {case} case"))
    return parser


def config_from_args(args):
    """The case config of parsed arguments: the config file's settings, then
    the flags, checked once by :meth:`CaseConfig.from_mapping`."""
    from_file = read_config(args.config) if args.config else {}
    flags = {
        key: val
        for key, val in vars(args).items()
        if key not in ("case", "config") and val is not None
    }
    # flags come last, so each wins over a file key of any spelling
    mapping = {key: val for key, val in from_file.items() if key not in flags} | flags
    return CaseConfig.from_mapping(mapping, case=args.case)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except (OSError, ValueError) as exc:
        # a bad setting is a usage error, reported before any work starts
        parser.error(f"{args.case}: {exc}")
    if config.out_dir is None:
        config.out_dir = f"levelset_{config.case}_out"
    try:
        result = run_case(config)
    except StepError as exc:
        print(f"levelset {config.case}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _summarize(config, result)
    return 0


def _summarize(config, result):
    print(f"case {config.case}: outputs in {config.out_dir}")
    if config.case == "distortion":
        for e in result.entries:
            print(f"  {e.alternative:<15} kappa_d={e.kappa_d:<4g} "
                  f"jump={e.max_jump:.3e} drift={e.drift:.3e}")
    elif config.case == "monotone1d":
        for name, curve in result.curves.items():
            print(f"  {name:<16} monotone={curve.monotone}")
    elif config.case in ("vortex2d", "vortex3d"):
        rel = abs(result.volumes - result.v1_initial).max() / result.v1_initial
        print(f"  L1(H)={result.l1_heaviside:.4e}  Linf(phi)={result.linf_phi:.4e}")
        print(f"  max |V1 - V1_0|/V1_0 = {rel:.3e}; "
              f"max |correction| = {abs(result.corrections).max():.3e}")
        steps = result.steps
        # a step that accepted its predictor has a Picard trace but no solve
        print(f"  Picard solves {sum(len(s.inner_tols) for s in steps)}, block-LU factors "
              f"{sum(s.factors for s in steps)}, refinement "
              f"sweeps {sum(sum(s.refine_sweeps) for s in steps)}, refactors "
              f"{sum(s.refactors for s in steps)}, Krylov fallbacks "
              f"{sum(s.krylov_fallbacks for s in steps)}, BiCGStab restarts "
              f"{sum(s.krylov_restarts for s in steps)}; steps accepting the predictor "
              f"with no solve {sum(bool(s.picard_trace and not s.inner_tols) for s in steps)}")
        print(f"  volume shift: evaluations {sum(s.shift_evals for s in steps)}, bracket "
              f"fallbacks {sum(s.shift_bracketed for s in steps)}, band widenings "
              f"{sum(s.shift_widenings for s in steps)}")
        print(f"  positivity clamps: {sum(s.clamped for s in steps)} quadrature points "
              f"in {sum(s.clamped > 0 for s in steps)} steps")
    elif config.case == "converge":
        for table in result:
            print(f"  {table.family} degree {table.degree}:")
            for row in table.rows:
                print(f"    n={row.elements:<4d} L1(H)={row.l1_h:.4e} "
                      f"rate={row.rate_l1:.2f}  Linf={row.linf_phi:.4e} "
                      f"rate={row.rate_linf:.2f}")


if __name__ == "__main__":
    sys.exit(main())
