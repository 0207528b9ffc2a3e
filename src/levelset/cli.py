"""Command-line benchmark runner.

One subcommand per case; precedence of settings is
case defaults < config file (--config, flat key=value) < command-line flags.
All resolved parameters but the output directory itself are echoed into
<out>/manifest.txt.
"""

from __future__ import annotations

import argparse
import sys

from .benchmarks import CASES, CaseConfig, run_case
from .io import read_config
from .redistance import ALTERNATIVES


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
    sub.add_argument("--alt", dest="alternative", choices=ALTERNATIVES,
                     help="redistancing alternative")
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
    mapping = {}
    if args.config:
        mapping.update(read_config(args.config))
    overrides = {
        key: val
        for key, val in vars(args).items()
        if key not in ("case", "config") and val is not None
    }
    base = CaseConfig.from_mapping(mapping, case=args.case) if mapping else \
        CaseConfig(case=args.case)
    for key, val in overrides.items():
        setattr(base, key, val)
    base.__post_init__()
    return base


def main(argv=None):
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    if config.out_dir is None:
        config.out_dir = f"levelset_{config.case}_out"
    result = run_case(config)
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
    elif config.case == "converge":
        for table in result:
            print(f"  {table.family} degree {table.degree}:")
            for row in table.rows:
                print(f"    n={row.elements:<4d} L1(H)={row.l1_h:.4e} "
                      f"rate={row.rate_l1:.2f}  Linf={row.linf_phi:.4e} "
                      f"rate={row.rate_linf:.2f}")


if __name__ == "__main__":
    sys.exit(main())
