"""Command-line interface: generate paths, run sweeps, rank schemes, plot.

Exit codes: 0 success, 2 usage or configuration error, 3 runtime failure.
All file outputs land under the --out directory.
"""

import argparse
import sys
from pathlib import Path

from .paths import ConfigurationError, SchemeConfig, generate_paths, paths_to_csv
from .sweep import (RESULT_HEADER, SCHEME_NAMES, SweepResult, SweepSpec, parse_schemes,
                    rank_schemes, run_sweep)
from .svgplot import NoFiniteValues, condition_svg, trajectory_svg

PATHS_CSV = "paths_{scheme}.csv"
TRAJECTORY_SVG = "trajectories.svg"
SWEEP_CSV = "sweep.csv"
CONDITION_SVG = "cond_{scheme}.svg"

# Sweep flag -> the config key it sets, which is also its argparse dest.
SWEEP_FLAGS = {
    "--scheme": "scheme", "--b": "b", "--m": "m", "--gamma": "gamma", "--p": "p",
    "--iters": "iters", "--seed": "seed", "--noise-sigma": "noise_sigma",
    "--unaware": "aware", "--no-reconstruct": "reconstruct",
}


def cmd_paths(args) -> int:
    configs = [
        SchemeConfig(scheme=scheme, m=args.m, b=args.b, gamma=args.gamma,
                     p=args.p, seed=args.seed)
        for scheme in parse_schemes(args.scheme)
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    groups = []
    for config in configs:
        paths = generate_paths(config)
        paths_to_csv(paths, out / PATHS_CSV.format(scheme=config.scheme.value))
        groups.append((config.scheme.value, paths))
    if not args.no_svg:
        (out / TRAJECTORY_SVG).write_text(trajectory_svg(groups))
    print(f"wrote {len(groups)} path set(s) to {out}")
    return 0


def _sweep_spec(args) -> SweepSpec:
    """The config file's lines (or CI-scale defaults), then one `key = value`
    line per sweep flag given, all read by the config parser: flags win."""
    overrides = [(flag, f"{key} = {getattr(args, key)}")
                 for flag, key in SWEEP_FLAGS.items() if getattr(args, key) is not None]
    if args.config:
        return SweepSpec.from_file(args.config, overrides)
    return SweepSpec.from_text("iterations = 10", "defaults", overrides)


def cmd_sweep(args) -> int:
    spec = _sweep_spec(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = run_sweep(spec)
    result.to_csv(out / SWEEP_CSV)

    header = f"{'scheme':>22} {'b':>3} {'m':>6} {'gamma':>8} {'aware':>6} " \
             f"{'mean_cond':>12} {'std_cond':>12} {'mean_rel_err':>12} {'excl':>5}"
    print(header)
    for c in result.cells:
        print(f"{c.scheme.value:>22} {c.b:>3} {c.m:>6} {c.gamma:>8g} "
              f"{str(c.aware).lower():>6} {c.mean_cond:>12.4g} {c.std_cond:>12.4g} "
              f"{c.mean_rel_err:>12.4g} {c.excluded:>5}")
    for c in [cell for cell in result.cells if cell.excluded]:
        what = ("had only singular draws" if c.excluded == spec.iterations
                else f"excluded {c.excluded} singular draw(s)")
        print(f"warning: cell ({c.scheme.value}, b={c.b}, m={c.m}, gamma={c.gamma:g}"
              f"{'' if c.aware else ', unaware'}) {what}", file=sys.stderr)
    print(f"wrote {out / SWEEP_CSV}")
    return 0


def cmd_rank(args) -> int:
    result = SweepResult.from_csv(args.results)
    ranking = rank_schemes(result, m=args.m, gamma=args.gamma,
                           b=args.b, aware=not args.unaware)
    print(f"ranking at m={args.m}, gamma={args.gamma:g} (ascending mean condition number)")
    for place, (scheme, cond) in enumerate(ranking, start=1):
        print(f"{place}. {scheme.value:>22}  {cond:.4g}")
    return 0


def cmd_plot(args) -> int:
    result = SweepResult.from_csv(args.results)
    by_scheme = {}
    for (scheme, b, gamma, aware), cells in result.curves().items():
        n = (2 * b + 1) ** 2
        label = f"b={b}, gamma={gamma:g}" + ("" if aware else ", unaware")
        by_scheme.setdefault(scheme, []).append(
            ((b, gamma, aware), label, [c.m / n for c in cells], [c.mean_cond for c in cells]))
    charts = {}
    for scheme, curves in by_scheme.items():
        try:
            charts[scheme] = condition_svg(f"scheme: {scheme.value}",
                                           [curve[1:] for curve in sorted(curves)])
        except NoFiniteValues:
            print(f"warning: skipped {scheme.value}: every draw was singular", file=sys.stderr)
    if not charts:
        raise NoFiniteValues("no scheme has a finite condition number to plot")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for scheme, svg in charts.items():
        (out / CONDITION_SVG.format(scheme=scheme.value)).write_text(svg)
    print(f"wrote {len(charts)} plot(s) to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathfield",
        description="Random-path mobile sensing simulator for 2D bandlimited fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_paths = sub.add_parser(
        "paths", help="generate sampling paths, write CSV (path_id,t,x,y) and an SVG",
    )
    p_paths.add_argument("--scheme", default="all",
                         help=f"comma-separated scheme names or 'all' ({', '.join(SCHEME_NAMES)})")
    p_paths.add_argument("--m", type=int, default=20, help="paths (or points) to generate")
    p_paths.add_argument("--b", type=int, default=3, help="bandwidth parameter")
    p_paths.add_argument("--gamma", type=float, default=0.05, help="step-size upper bound")
    p_paths.add_argument("--p", type=int, default=25, help="points per directed walk")
    p_paths.add_argument("--seed", type=int, default=0)
    p_paths.add_argument("--out", default="out")
    p_paths.add_argument("--no-svg", action="store_true", help="skip the SVG rendering")
    p_paths.set_defaults(func=cmd_paths)

    p_sweep = sub.add_parser(
        "sweep", help="Monte Carlo condition-number sweep; writes sweep.csv "
                      f"(columns {','.join(RESULT_HEADER)})",
    )
    p_sweep.add_argument("--config", help="sweep config file (key = value lines, '#' comments)")
    p_sweep.add_argument("--scheme", help="override: comma-separated schemes or 'all'")
    p_sweep.add_argument("--b", help="override: comma-separated bandwidths")
    p_sweep.add_argument("--m", help="override: comma-separated m multiples of n=(2b+1)^2")
    p_sweep.add_argument("--gamma", help="override: comma-separated step-size bounds")
    p_sweep.add_argument("--p", help="override: points per directed walk")
    p_sweep.add_argument("--iters", help="override: trials per cell")
    p_sweep.add_argument("--seed", help="override: base seed")
    p_sweep.add_argument("--noise-sigma", help="override: measurement noise std dev")
    p_sweep.add_argument("--unaware", dest="aware", action="store_const", const="false",
                         help="run the location-unaware variants instead of location-aware")
    p_sweep.add_argument("--no-reconstruct", dest="reconstruct", action="store_const",
                         const="false",
                         help="skip least-squares reconstruction (condition numbers only)")
    p_sweep.add_argument("--out", default="out")
    p_sweep.set_defaults(func=cmd_sweep)

    p_rank = sub.add_parser("rank", help="order schemes by mean condition number at one cell")
    p_rank.add_argument("--results", required=True, help="sweep.csv produced by the sweep command")
    p_rank.add_argument("--m", type=int, required=True, help="cell sample/path count")
    p_rank.add_argument("--gamma", type=float, required=True, help="cell step-size bound")
    p_rank.add_argument("--b", type=int, help="cell bandwidth (when the sweep had several)")
    p_rank.add_argument("--unaware", action="store_true", help="rank the unaware cells")
    p_rank.set_defaults(func=cmd_rank)

    p_plot = sub.add_parser("plot", help="render per-scheme condition-number SVG charts")
    p_plot.add_argument("--results", required=True, help="sweep.csv produced by the sweep command")
    p_plot.add_argument("--out", default="out")
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
