"""Command-line entry point.

Subcommands::

    embed      --spec F --point F [--tol T] --out F
    verify     --spec F [--samples N] [--seed S] [--radius-cap R] [--tol T]
               [--suites a,b,c] --report F
    enumerate  --source-dim N --max-g G --out F
    cayley     --point F --direction to-bounded|to-siegel [--tol T] --out F

Exit codes:

| case | exit |
| --- | --- |
| success (`verify`: every suite passes) | 0 |
| a failed suite, a point that is not interior, or another package error | 1 |
| `embed` on a spec over its genus budget | 1 |
| `verify` on a spec over its genus budget | 2 |
| `enumerate` with bad arguments | 2 |
| `enumerate` on a budget that admits more than 1,000,000 specs (`_ENUMERATE_LIMIT`), refused before any is built | 2 |
| an image numpy cannot allocate, for every command | 2 |
| a usage or schema error, non-finite matrix entries, or an output path that cannot be written | 2 |

``enumerate`` streams: its memory does not grow with the spec count, and a failure mid-stream leaves a partial file.

The environment variable ``BSDE_TOL`` overrides the default equality
tolerance; an explicit ``--tol`` takes precedence.
"""

from __future__ import annotations

import argparse
import os
import sys

from .domains import cayley
from .embeddings import _spec_tables, _spec_walk, direct_sum_embed
from .errors import BudgetExceeded, SiegelmapsError
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

# The most specs enumerate lists: N = 1 at --max-g 40 (37,190 specs) runs,
# --max-g 100 (1,194,725) is refused.
_ENUMERATE_LIMIT = 1_000_000


class _Unwritable(Exception):
    """An output file cannot be written."""


# Errors that exit with _USAGE_EXIT from every command.  numpy raises a
# ValueError ("array is too big") or a MemoryError for an image it cannot
# allocate, as for a target_g far beyond the spec's cost.
_USAGE_ERRORS = (SchemaError, ValueError, MemoryError, _Unwritable)


def _tolerance(tol_arg: float | None) -> Tolerance:
    env = os.environ.get("BSDE_TOL")
    if tol_arg is None and env is None:
        return Tolerance()
    try:
        eq_tol = float(env) if tol_arg is None else tol_arg
    except ValueError:
        raise ValueError(f"BSDE_TOL must be a number, got {env!r}") from None
    margin = DEFAULT_TOLERANCE.psd_margin
    if eq_tol <= margin:
        raise ValueError(f"--tol/BSDE_TOL must exceed the fixed psd_margin of {margin!r}, got {eq_tol!r}")
    return Tolerance(eq_tol=eq_tol)


def _output(path: str, action) -> None:
    """Run ``action`` on an output file.  An ``OSError`` may not name the
    file (a full disk does not), so it is re-raised naming the path."""
    try:
        action()
    except OSError as exc:
        raise _Unwritable(f"cannot write {path}: {exc}") from exc


def _write(path: str, payload: object) -> None:
    _output(path, lambda: dump_json(path, payload))


def _cmd_embed(args: argparse.Namespace) -> int:
    spec = spec_from_json(load_json(args.spec))
    point = ball_point_from_json(load_json(args.point))
    image = direct_sum_embed(spec, point, _tolerance(args.tol))
    _write(args.out, point_to_json(image))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = spec_from_json(load_json(args.spec))
    config = HarnessConfig(
        seed=args.seed,
        samples=args.samples,
        radius_cap=args.radius_cap,
        tol=_tolerance(args.tol),
        suites=tuple(args.suites.split(",")) if args.suites else SUITE_NAMES,
    )
    # Appending creates a missing report and keeps an existing one's
    # contents: a check before long work.
    _output(args.report, lambda: open(args.report, "a").close())
    report = run_verification(spec, config)
    _write(args.report, report.to_dict())
    for suite in report.suites:
        residual = "n/a" if suite.max_residual is None else f"{suite.max_residual:.3e}"
        print(f"{suite.name}: {'pass' if suite.passed else 'FAIL'} (max residual {residual})")
    print(f"overall: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else _DOMAIN_EXIT


def _cmd_enumerate(args: argparse.Namespace) -> int:
    catalog, tables, count, exact = _spec_tables(args.source_dim, args.max_g, _ENUMERATE_LIMIT)
    if count > _ENUMERATE_LIMIT:
        raise ValueError(
            f"--source-dim {args.source_dim} --max-g {args.max_g} admits {'' if exact else 'at least '}"
            f"{count:,} specs, more than the limit of {_ENUMERATE_LIMIT:,}"
        )
    specs, minimal_g = _spec_walk(args.source_dim, catalog, tables)
    payload = {
        "schema": 1,
        "source_dim": args.source_dim,
        "max_g": args.max_g,
        "minimal_g": minimal_g,
        "specs": [],
    }
    _output(args.out, lambda: dump_json(args.out, payload, map(spec_to_json, specs)))
    print(f"{count} specs within budget {args.max_g}; minimal genus {minimal_g}")
    return 0


def _cmd_cayley(args: argparse.Namespace) -> int:
    point = point_from_json(load_json(args.point))
    _write(args.out, point_to_json(cayley(point, args.direction, _tolerance(args.tol))))
    return 0


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
    embed.set_defaults(func=_cmd_embed, usage_errors=())

    verify = sub.add_parser("verify", help="run the property suites against a spec")
    verify.add_argument("--spec", required=True, help="embedding spec JSON file")
    verify.add_argument("--report", required=True, help="output report JSON file")
    verify.add_argument("--samples", type=int, default=200)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--radius-cap", type=float, default=0.95)
    verify.add_argument("--tol", type=float, default=None, help="equality tolerance override")
    verify.add_argument("--suites", default=None, help=f"comma-separated subset of: {','.join(SUITE_NAMES)}")
    # usage_errors: the package errors a command reports as usage errors, on
    # top of _USAGE_ERRORS.  An over-budget spec is a bad argument to verify
    # but a domain failure of embed.
    verify.set_defaults(func=_cmd_verify, usage_errors=(BudgetExceeded,))

    enum = sub.add_parser("enumerate", help="list admissible embedding specs under a genus budget")
    enum.add_argument("--source-dim", type=int, required=True)
    enum.add_argument("--max-g", type=int, required=True)
    enum.add_argument("--out", required=True, help="output JSON file")
    enum.set_defaults(func=_cmd_enumerate, usage_errors=(SiegelmapsError,))

    cay = sub.add_parser("cayley", help="apply the Cayley transform to a point file")
    cay.add_argument("--point", required=True, help="input point JSON file")
    cay.add_argument("--direction", required=True, choices=["to-bounded", "to-siegel"])
    cay.add_argument("--out", required=True, help="output point JSON file")
    cay.add_argument("--tol", type=float, default=None, help="equality tolerance override")
    cay.set_defaults(func=_cmd_cayley, usage_errors=())

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run a subcommand; a package error, a ``ValueError`` or a
    ``MemoryError`` it raises ends in one error line and exit code 1 or 2."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SiegelmapsError, *_USAGE_ERRORS) as exc:
        prefix = "BudgetExceeded: " if isinstance(exc, BudgetExceeded) else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return _USAGE_EXIT if isinstance(exc, (*_USAGE_ERRORS, *args.usage_errors)) else _DOMAIN_EXIT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
