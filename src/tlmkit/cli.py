"""Command line front end.

Exit codes: 0 all requested checks passed (or a plain computation
succeeded), 1 at least one check failed, 2 usage or parameter errors,
3 I/O problems (unreadable input, refused overwrite, a missing,
unreadable, malformed or stale baseline file, the bundled one included,
an --out that is empty, whose directory is missing or which is a
directory: each refused before any work, the baseline with one line
naming its file).
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys

from . import __version__
from .errors import BandCoverageError, BaselineError, ParameterError, QuadratureError
from .grid import GridFunction, GridSpec, random_bandlimited, read_binary, read_csv
from .interp import build_analytic_family, make_setup
from .lpaley import FLAVORS, build_family, top_band
from .morrey import WINDOW_SHAPES, LebesguePair, WindowSampler, morrey_norm
from .report import BaselineStore, report_payload, write_json
from .spaces import (
    SpaceParams,
    diamond_criterion,
    persistent_block_function,
    tlm_norm,
)
from .suites import (
    HOLDER_SETUPS,
    SuiteConfig,
    anchor_report,
    calibrate_constants,
    growth_report,
    holomorphy_report,
    lipschitz_report,
    oracle_radii,
    reconstruction_report,
    run_maximal_suite,
    run_scalar_empirical_suite,
    run_scalar_exact_suite,
    unit_ball_indicator,
    verify_all,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

_DEMO_SEED_OFFSET = 17


def _radii_list(text: str) -> tuple:
    try:
        return tuple(sorted(float(x) for x in text.split(",") if x.strip()))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad radii list {text!r}: {exc}")


def _parse_seed(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


# every shared option once; each command adds the ones its code reads
_OPTIONS = {
    "--grid-dim": dict(type=int, default=1, help="spatial dimension (default 1)"),
    "--grid-points": dict(type=int, default=SuiteConfig.points,
                          help="points per axis, power of two (default %(default)s)"),
    "--grid-length": dict(type=float, default=SuiteConfig.length,
                          help="torus side length (default 2*pi)"),
    "--jmax": dict(type=int, default=None,
                   help="top dyadic band (default 6, or the largest band the grid "
                        "admits if that is smaller)"),
    "--seed": dict(type=_parse_seed, default=SuiteConfig.seed,
                   help="corpus seed (non-negative)"),
    "--windows": dict(choices=WINDOW_SHAPES, default=SuiteConfig.window_shape,
                      help="window shape for Morrey sups (default %(default)s)"),
    "--radii": dict(type=_radii_list, default=None,
                    help="comma separated window radii (default dyadic)"),
    "--input": dict(default=None, help=".bin or .csv sample file"),
    "--baseline": dict(default="bundled",
                       help="'bundled', 'none', or a path to a calibrated baseline"),
    "--out": dict(default=None, help="write a JSON report here"),
    "-p": dict(type=float, default=4.0),
    "-q": dict(type=float, default=2.0),
    "-r": dict(type=float, default=2.0, help="block aggregate ('inf' allowed)"),
    "-s": dict(type=float, default=0.5, help="smoothness weight"),
}

# the commands that take one field: its grid, seeded demo draw and windows
_FIELD_OPTIONS = ("--grid-dim", "--grid-points", "--grid-length", "--jmax", "--seed",
                  "--windows", "--radii", "--input")


def _add_options(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(name, **_OPTIONS[name])


def _spec_from_args(args) -> GridSpec:
    return GridSpec(args.grid_dim, args.grid_points, args.grid_length)


def _sampler_from_args(args, spec: GridSpec) -> WindowSampler:
    if args.radii is None:
        return WindowSampler.dyadic(spec, args.windows)
    return WindowSampler(args.radii, args.windows)


_CONFIG_FLAGS = {"seed": "seed", "points": "grid_points", "length": "grid_length",
                 "window_shape": "windows"}


def _config_from_args(args) -> SuiteConfig:
    """The suite config from the command's flags, the others keeping their
    defaults; a command that takes --jmax gets _band_count's on its grid."""
    cfg = SuiteConfig(**{field: getattr(args, flag) for field, flag in _CONFIG_FLAGS.items()
                         if getattr(args, flag, None) is not None})
    if "jmax" not in vars(args):
        return cfg
    return dataclasses.replace(cfg, j_max=_band_count(args, cfg.spec()))


def _band_count(args, spec: GridSpec) -> int:
    """--jmax, else the suites' default or the grid's top band if that is smaller."""
    if args.jmax is not None:
        return args.jmax
    # each command builds its family before it draws or reads a function, so a
    # grid with no band is refused by build_family, naming the grid flags
    return min(SuiteConfig.j_max, top_band(spec))


def _resolve_baseline(token: str):
    if token == "none":
        return None
    if token == "bundled":
        return BaselineStore.bundled()
    return BaselineStore.load(token)


def _load_input(args, spec: GridSpec) -> GridFunction:
    """Samples on the flag grid: a .bin header must name that same grid."""
    if args.input.endswith(".csv"):
        return read_csv(args.input, spec)
    f = read_binary(args.input)
    if f.spec != spec:
        raise ParameterError(f"{args.input}: header grid {f.spec} differs from "
                             f"the --grid-* flags' {spec}")
    return f


def _input_or_demo(args, spec: GridSpec, j_max: int) -> GridFunction:
    """The --input samples, else the seeded band-limited demo function."""
    if args.input:
        return _load_input(args, spec)
    return random_bandlimited(spec, min(4, j_max - 1), args.seed + _DEMO_SEED_OFFSET)


def _print_reports(reports) -> int:
    n_failed = 0
    for rep in reports:
        mark = f"[{rep.verdict}]"
        print(f"{mark:<14} {rep.check:<42} lhs={rep.lhs:.6g} rhs={rep.rhs:.6g} "
              f"ratio={rep.ratio:.6g} ({rep.runtime:.2f}s)")
        if rep.verdict == "fail":
            n_failed += 1
    n_open = sum(1 for r in reports if r.verdict == "not-decided")
    print(f"-- {len(reports)} checks: {len(reports) - n_failed - n_open} passed, "
          f"{n_failed} failed, {n_open} not decided")
    return n_failed


def _check_out(path: str) -> None:
    """Refuse, before any work, an --out that write_json could not write:
    the same OSError, naming the given path, that the write would raise."""
    parent = os.path.dirname(os.path.abspath(path))
    if not path:
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _finish(args, reports, meta: dict) -> int:
    n_failed = _print_reports(reports)
    if args.out:
        write_json(args.out, report_payload(reports, meta))
        print(f"report written to {args.out}")
    return EXIT_CHECK_FAILED if n_failed else EXIT_OK


# ------------------------------------------------------------------ commands

def cmd_suite(args) -> int:
    """Run args.suite; the report's config holds the args.meta fields (all when None)."""
    cfg = _config_from_args(args)
    reports = args.suite(cfg, _resolve_baseline(args.baseline))
    return _finish(args, reports, cfg.meta(args.meta))


def cmd_calibrate(args) -> int:
    if os.path.exists(args.out) and not args.force:
        # refuse before spending time on the sweep
        raise BaselineError(f"{args.out} exists; pass --force to overwrite")
    cfg = _config_from_args(args)
    store = calibrate_constants(cfg)
    store.save(args.out, force=args.force)
    print(f"calibrated {len(store.constants)} constants -> {args.out}")
    return EXIT_OK


def cmd_morrey_norm(args) -> int:
    spec = _spec_from_args(args)
    if args.input:
        f = _load_input(args, spec)
    else:
        # demo input: indicator of the unit ball around the origin
        if args.radii is None:
            args.radii = oracle_radii(spec, "raise --grid-length to at least 3 or pass --radii")
        f = unit_ball_indicator(spec)
    sampler = _sampler_from_args(args, spec)
    pq = LebesguePair(args.p, args.q)
    value = morrey_norm(f, pq, sampler)
    print(f"morrey-norm p={args.p:g} q={args.q:g} windows={args.windows}: {value:.12g}")
    if args.out:
        write_json(args.out, {"norm": value, "p": args.p, "q": args.q,
                              "windows": args.windows, "radii": list(sampler.radii)})
    return EXIT_OK


def cmd_tlm_norm(args) -> int:
    spec = _spec_from_args(args)
    j_max = _band_count(args, spec)
    family = build_family(spec, j_max, args.flavor)
    params = SpaceParams(args.p, args.q, args.r, args.s)
    f = _input_or_demo(args, spec, j_max)
    sampler = _sampler_from_args(args, spec)
    value = tlm_norm(f, family, params, sampler)
    print(f"tlm-norm p={args.p:g} q={args.q:g} r={args.r:g} s={args.s:g}: {value:.12g}")
    if args.out:
        write_json(args.out, {"norm": value, "p": args.p, "q": args.q,
                              "r": args.r, "s": args.s, "j_max": j_max,
                              "flavor": args.flavor})
    return EXIT_OK


def cmd_diamond_check(args) -> int:
    spec = _spec_from_args(args)
    j_max = _band_count(args, spec)
    family = build_family(spec, j_max, "plain")
    params = SpaceParams(args.p, args.q, args.r, args.s)
    if args.profile == "persistent" and not args.input:
        f = persistent_block_function(spec, family, s=args.s)
    else:
        f = _input_or_demo(args, spec, j_max)
    sampler = _sampler_from_args(args, spec)
    rep = diamond_criterion(f, family, params, sampler)
    code = _finish(args, [rep], {"profile": args.profile})
    if args.expect and rep.verdict != args.expect:
        print(f"expected verdict {args.expect!r}, got {rep.verdict!r}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return code


def cmd_interp_demo(args) -> int:
    spec = _spec_from_args(args)
    setup = make_setup(args.theta,
                       SpaceParams(args.p0, args.q0, args.r0, args.s0),
                       SpaceParams(args.p1, args.q1, args.r1, args.s1))
    j_max = _band_count(args, spec)
    family = build_family(spec, j_max, "square_root")
    f = _input_or_demo(args, spec, j_max)
    sampler = _sampler_from_args(args, spec)
    fam = build_analytic_family(setup, f, family, sampler)

    reports = [reconstruction_report([fam]), anchor_report([fam]),
               holomorphy_report(fam, args.seed)]
    pairs = [(0.0, t) for t in (0.05, 0.2, 0.5, 1.0)]
    reports += [lipschitz_report([fam], side, pairs, sampler, None) for side in (0, 1)]
    zs = [setup.theta + 1j * t for t in (-2.0, -0.5, 0.5, 2.0)]
    reports.append(growth_report(fam, zs, sampler, None))
    return _finish(args, reports, {"theta": setup.theta,
                                   "end0": vars(setup.end0), "end1": vars(setup.end1),
                                   "mid": vars(setup.mid)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlmkit",
        description="Windowed smoothness-space norms and their verification suites.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-all", help="run every suite against the baseline")
    _add_options(p, "--grid-points", "--grid-length", "--jmax", "--seed", "--windows",
                 "--baseline", "--out")
    p.set_defaults(func=cmd_suite, suite=verify_all, meta=None)

    p = sub.add_parser("calibrate", help="measure empirical constants on the seeded corpus")
    _add_options(p, "--grid-points", "--grid-length", "--jmax", "--seed", "--windows")
    p.add_argument("--out", default="baseline.json", help="where to store the baseline")
    p.add_argument("--force", action="store_true", help="overwrite an existing file")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("morrey-norm", help="windowed norm of a sampled function")
    _add_options(p, "--grid-dim", "--grid-points", "--grid-length", "--windows", "--radii",
                 "--input", "-p", "-q", "--out")
    p.set_defaults(func=cmd_morrey_norm)

    p = sub.add_parser("tlm-norm", help="smoothness-space norm of a sampled function")
    _add_options(p, *_FIELD_OPTIONS, "-p", "-q", "-r", "-s", "--out")
    p.add_argument("--flavor", choices=FLAVORS, default="plain")
    p.set_defaults(func=cmd_tlm_norm)

    p = sub.add_parser("diamond-check", help="vanishing-tail criterion for a function")
    _add_options(p, *_FIELD_OPTIONS, "-p", "-q", "-r", "-s", "--out")
    p.add_argument("--profile", choices=("bandlimited", "persistent"),
                   default="bandlimited", help="demo input when no file is given")
    p.add_argument("--expect", choices=("pass", "not-decided"), default=None,
                   help="fail unless the verdict matches")
    p.set_defaults(func=cmd_diamond_check)

    p = sub.add_parser("interp-demo", help="analytic family diagnostics on one function")
    _add_options(p, *_FIELD_OPTIONS, "--out")
    theta, *ends = HOLDER_SETUPS[0]
    p.add_argument("--theta", type=float, default=theta)
    for i, end in enumerate(ends):
        for name, value in zip("pqrs", end):
            p.add_argument(f"--{name}{i}", type=float, default=value)
    p.set_defaults(func=cmd_interp_demo)

    p = sub.add_parser("scalar-suite", help="exact and empirical scalar inequalities")
    _add_options(p, "--seed", "--baseline", "--out")
    p.set_defaults(func=cmd_suite, meta=("seed",), suite=lambda cfg, baseline:
                   run_scalar_exact_suite(cfg) + run_scalar_empirical_suite(cfg, baseline))

    p = sub.add_parser("maximal-suite", help="window maximal operator checks")
    _add_options(p, "--grid-points", "--grid-length", "--seed", "--windows",
                 "--baseline", "--out")
    p.set_defaults(func=cmd_suite, suite=run_maximal_suite,
                   meta=("seed", "points", "length", "window_shape"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None:  # every command takes --out
            _check_out(args.out)
        return args.func(args)
    except (ParameterError, BandCoverageError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BaselineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
