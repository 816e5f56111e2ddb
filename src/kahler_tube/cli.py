"""Command-line certification harness.

Two subcommands:

* ``verify`` runs the full identity battery and emits a JSON report
  (stdout, or ``--report PATH``).
* ``sweep`` tabulates holomorphic sectional curvature over sampled points
  and directions as CSV (stdout, or ``--out PATH``).

Exit codes: 0 all checks passed, 1 at least one check failed, 2 invalid
configuration, a non-finite value in the output, or an unwritable output
path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .base_geometry import DomainError, ModelParams
from .checks import ConfigError, RunConfig, run_sweep, run_verify
from .report import NonFiniteError


def _parse_tolerance(text: str) -> tuple[str, float]:
    name, sep, raw = text.partition("=")
    if not sep or not name or not raw:
        raise argparse.ArgumentTypeError(
            f"expected <check>=<value>, got {text!r}"
        )
    try:
        value = float(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid tolerance value {raw!r}") from exc
    return name, value


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=int, default=3, help="base manifold dimension (default 3)")
    parser.add_argument(
        "--curvature", type=float, default=1.0, help="base sectional curvature c (default 1.0)"
    )
    parser.add_argument(
        "--lift-const", type=float, default=1.0, help="lift constant A (default 1.0)"
    )
    parser.add_argument(
        "--points", type=int, default=10, help="number of sampled tube points (default 10)"
    )
    parser.add_argument(
        "--directions",
        type=int,
        default=100,
        help="number of sampled tangent directions (default 100)",
    )
    parser.add_argument("--seed", type=int, default=7, help="sampling seed (default 7)")
    parser.add_argument(
        "--custom-v-offset",
        type=float,
        default=None,
        metavar="REAL",
        help="offset added to the integrable vertical weight (negative testing)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kahler-tube",
        description="Certify the lifted Kähler–Einstein structure numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the full identity check suite")
    _add_model_arguments(verify)
    verify.add_argument(
        "--tol",
        action="append",
        type=_parse_tolerance,
        default=[],
        metavar="CHECK=VALUE",
        help="override one check tolerance (repeatable); see README for names",
    )
    verify.add_argument(
        "--report",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the JSON report to PATH instead of stdout",
    )

    sweep = sub.add_parser(
        "sweep", help="tabulate holomorphic sectional curvature as CSV"
    )
    _add_model_arguments(sweep)
    sweep.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the CSV table to PATH instead of stdout",
    )

    return parser


def _build_config(args: argparse.Namespace) -> RunConfig:
    overrides = dict(getattr(args, "tol", []) or [])
    try:
        params = ModelParams(args.dim, args.curvature, args.lift_const)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(
        params=params,
        num_points=args.points,
        num_directions=args.directions,
        seed=args.seed,
        custom_v_offset=args.custom_v_offset,
        tolerance_overrides=overrides,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.command == "verify":
            report = run_verify(cfg)
            text, path, code = report.to_json(), args.report, 0 if report.all_passed else 1
            note = f"verdict {report.verdict}"
        else:
            result = run_sweep(cfg)
            text, path, code, note = result.to_csv(), args.out, 0, f"{result.values.size} rows"
    except (ConfigError, DomainError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if path is None:
        sys.stdout.write(text)
        return code
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    print(f"wrote {path} ({note})", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
