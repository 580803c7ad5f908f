"""Command-line entry point.

Subcommands::

    embed      --spec F --point F --out F
    verify     --spec F [--samples N] [--seed S] [--tol T]
               [--suites a,b,c] --report F
    enumerate  --source-dim N --max-g G --out F
    cayley     --point F --direction to-bounded|to-siegel --out F

Exit codes: 0 on success (``verify``: all suites pass), 1 on a
mathematical or domain failure (point not interior, suite failure,
over-budget spec passed to ``embed``), 2 on usage or schema errors and
on output files that cannot be written.
The environment variable ``BSDE_TOL`` overrides the default equality
tolerance; an explicit ``--tol`` takes precedence.
"""

from __future__ import annotations

import argparse
import os
import sys

from .domains import cayley, membership
from .embeddings import direct_sum_embed, enumerate_specs
from .errors import (
    BudgetExceeded,
    MembershipViolation,
    SiegelmapsError,
)
from .harness import run_verification
from .linalg import DEFAULT_TOLERANCE, Tolerance
from .report import SUITE_NAMES, HarnessConfig
from .serialize import (
    SchemaError,
    ball_point_from_json,
    dump_json,
    load_json,
    point_from_json,
    point_to_json,
    spec_from_json,
    spec_to_json,
)

__all__ = ["main"]

_USAGE_EXIT = 2
_DOMAIN_EXIT = 1


def _tolerance(tol_arg: float | None) -> Tolerance:
    eq_tol = tol_arg
    if eq_tol is None:
        env = os.environ.get("BSDE_TOL")
        if env is not None:
            try:
                eq_tol = float(env)
            except ValueError:
                raise ValueError(f"BSDE_TOL must be a number, got {env!r}") from None
    if eq_tol is None:
        return Tolerance()
    margin = DEFAULT_TOLERANCE.psd_margin
    if eq_tol <= margin:
        raise ValueError(f"--tol/BSDE_TOL must exceed the fixed psd_margin of {margin!r}, got {eq_tol!r}")
    return Tolerance(eq_tol=eq_tol)


def _output(path: str, action) -> int:
    """Run ``action`` on an output file: 0, or the usage exit code after an
    error line when the file cannot be written."""
    try:
        action()
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    return 0


def _write(path: str, payload: object) -> int:
    return _output(path, lambda: dump_json(path, payload))


def _check_writable(path: str) -> int:
    """Open an output file for appending, which creates a missing file and
    keeps an existing one's contents: a check before long work."""
    return _output(path, lambda: open(path, "a").close())


def _cmd_embed(args: argparse.Namespace) -> int:
    try:
        spec = spec_from_json(load_json(args.spec))
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except BudgetExceeded as exc:
        print(f"error: BudgetExceeded: {exc}", file=sys.stderr)
        return _DOMAIN_EXIT
    try:
        point = ball_point_from_json(load_json(args.point))
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except MembershipViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DOMAIN_EXIT
    try:
        tol = _tolerance(args.tol)
        image = direct_sum_embed(spec, point, tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except SiegelmapsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DOMAIN_EXIT
    return _write(args.out, point_to_json(image))


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        spec = spec_from_json(load_json(args.spec))
        suites = tuple(args.suites.split(",")) if args.suites else SUITE_NAMES
        config = HarnessConfig(
            seed=args.seed,
            samples=args.samples,
            radius_cap=args.radius_cap,
            tol=_tolerance(args.tol),
            suites=suites,
        )
    except (SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except BudgetExceeded as exc:
        print(f"error: BudgetExceeded: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    if _check_writable(args.report):
        return _USAGE_EXIT
    try:
        report = run_verification(spec, config)
    except (ValueError, MemoryError) as exc:
        # numpy refuses an array too big to allocate, as for a target_g
        # far beyond the spec's cost.
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    if _write(args.report, report.to_dict()):
        return _USAGE_EXIT
    for suite in report.suites:
        residual = "n/a" if suite.max_residual is None else f"{suite.max_residual:.3e}"
        print(f"{suite.name}: {'pass' if suite.passed else 'FAIL'} (max residual {residual})")
    print(f"overall: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else _DOMAIN_EXIT


def _cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        specs, minimal_g = enumerate_specs(args.source_dim, args.max_g)
    except SiegelmapsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    payload = {
        "schema": 1,
        "source_dim": args.source_dim,
        "max_g": args.max_g,
        "minimal_g": minimal_g,
        "specs": [spec_to_json(s) for s in specs],
    }
    if _write(args.out, payload):
        return _USAGE_EXIT
    print(f"{len(specs)} specs within budget {args.max_g}; minimal genus {minimal_g}")
    return 0


def _cmd_cayley(args: argparse.Namespace) -> int:
    try:
        point = point_from_json(load_json(args.point))
        tol = _tolerance(args.tol)
    except (SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    result = membership(point, tol)
    if not result:
        reason = result.reason or f"margin {result.margin:.3e}"
        print(f"error: point is not interior: {reason}", file=sys.stderr)
        return _DOMAIN_EXIT
    try:
        image = cayley(point, args.direction, tol)
    except SiegelmapsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DOMAIN_EXIT
    return _write(args.out, point_to_json(image))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siegelmaps",
        description="Build ball-to-Siegel embeddings, retract them, and verify the claimed identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    embed = sub.add_parser("embed", help="evaluate a direct-sum embedding on a ball point")
    embed.add_argument("--spec", required=True, help="embedding spec JSON file")
    embed.add_argument("--point", required=True, help="ball point JSON file (type I column)")
    embed.add_argument("--out", required=True, help="output point JSON file")
    embed.add_argument("--tol", type=float, default=None, help="equality tolerance override")
    embed.set_defaults(func=_cmd_embed)

    verify = sub.add_parser("verify", help="run the property suites against a spec")
    verify.add_argument("--spec", required=True, help="embedding spec JSON file")
    verify.add_argument("--report", required=True, help="output report JSON file")
    verify.add_argument("--samples", type=int, default=200)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--radius-cap", type=float, default=0.95)
    verify.add_argument("--tol", type=float, default=None, help="equality tolerance override")
    verify.add_argument(
        "--suites",
        default=None,
        help=f"comma-separated subset of: {','.join(SUITE_NAMES)}",
    )
    verify.set_defaults(func=_cmd_verify)

    enum = sub.add_parser("enumerate", help="list admissible embedding specs under a genus budget")
    enum.add_argument("--source-dim", type=int, required=True)
    enum.add_argument("--max-g", type=int, required=True)
    enum.add_argument("--out", required=True, help="output JSON file")
    enum.set_defaults(func=_cmd_enumerate)

    cay = sub.add_parser("cayley", help="apply the Cayley transform to a point file")
    cay.add_argument("--point", required=True, help="input point JSON file")
    cay.add_argument("--direction", required=True, choices=["to-bounded", "to-siegel"])
    cay.add_argument("--out", required=True, help="output point JSON file")
    cay.add_argument("--tol", type=float, default=None, help="equality tolerance override")
    cay.set_defaults(func=_cmd_cayley)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
