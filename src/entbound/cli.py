"""Command-line front end: verify campaigns, evaluate single instances,
print the normalization-coefficient table.

Exit codes: 0 pass, 1 inequality/check violation, 2 input error,
3 precondition error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from .bounds import _exact_n_squared
from .errors import (
    DegenerateStateError,
    DomainError,
    EntboundError,
    PreconditionError,
    SchemaError,
)
from .report import (
    VARIANTS,
    bound_report_to_json,
    evaluate_variant,
    run_campaign,
    summary_to_json,
)
from .serialize import config_from_json, dumps, loads, spec_from_json

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


# Exit code and message prefix of the package errors `_fail` names; any
# other package error, which `main` also sends through it, is EXIT_INPUT.
_EXIT_CODES = {
    SchemaError: (EXIT_INPUT, ""),
    DomainError: (EXIT_INPUT, ""),
    PreconditionError: (EXIT_PRECONDITION, "precondition failed: "),
    DegenerateStateError: (EXIT_PRECONDITION, "precondition failed: "),
}
_REPORTED = tuple(_EXIT_CODES)


def _fail(exc: EntboundError) -> int:
    code, prefix = _EXIT_CODES.get(type(exc), (EXIT_INPUT, ""))
    print(f"entbound: {prefix}{exc}", file=sys.stderr)
    return code


def _read_json(path: str, what: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{what}: cannot read {path}: {exc}") from exc
    return loads(text, what)


def cmd_verify(args: argparse.Namespace) -> int:
    config = config_from_json(_read_json(args.config, "config"))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    try:
        summary = run_campaign(config, args.variant, args.trials, args.out, csv_path=args.csv)
    except OSError as exc:  # an unwritable --out or --csv path is an input error
        raise SchemaError(f"cannot write the campaign output: {exc}") from exc
    print(dumps(summary_to_json(summary)))
    return EXIT_OK if summary.violations == 0 else EXIT_VIOLATION


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        spec = spec_from_json(_read_json(args.state_file, "state"))
        rep = evaluate_variant(spec, args.variant)
        out = {
            **bound_report_to_json(rep),
            "squared_norm": rep.squared_norm,
            "superposition_entanglement": rep.superposition_entanglement,
        }
        if rep.permutation is not None:
            out["permutation"] = list(rep.permutation)
        if rep.checks:
            out["checks"] = rep.checks
    except _REPORTED as exc:  # reported here too: the benchmark calls cmd_eval without main
        return _fail(exc)
    print(dumps(out))
    return EXIT_OK


def cmd_coeffs(args: argparse.Namespace) -> int:
    nsq = _exact_n_squared(args.n)  # an n out of range goes to main as EXIT_INPUT
    # sum_i 1/N_i^2 is identically 1 by the telescoping product
    residual = abs(math.fsum(1 / v for v in nsq) - 1.0)
    print(dumps({"n": args.n, "n_squared": nsq, "sum_inverse_residual": residual}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entbound",
        description="Entanglement bounds for multi-component superpositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a seeded verification campaign")
    p_verify.add_argument("--config", required=True, help="ensemble config JSON path")
    p_verify.add_argument("--trials", type=int, required=True, help="number of trials")
    p_verify.add_argument("--seed", type=int, default=None, help="override config seed")
    p_verify.add_argument("--variant", choices=VARIANTS, default="constrained")
    p_verify.add_argument("--out", required=True, help="JSON-lines output path")
    p_verify.add_argument("--csv", default=None, help="optional CSV export path")
    p_verify.set_defaults(func=cmd_verify)

    p_eval = sub.add_parser("eval", help="evaluate one serialized superposition")
    p_eval.add_argument("state_file", help="superposition spec JSON path")
    p_eval.add_argument("--variant", choices=VARIANTS, default="unconstrained")
    p_eval.set_defaults(func=cmd_eval)

    p_coeffs = sub.add_parser("coeffs", help="print the normalization table")
    p_coeffs.add_argument("n", type=int, help="number of components (2..16)")
    p_coeffs.set_defaults(func=cmd_coeffs)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EntboundError as exc:  # anything not reported above is an input problem
        return _fail(exc)


if __name__ == "__main__":
    raise SystemExit(main())
