"""Command-line front end.

Subcommands: build, show, sturm-bound, check, congruent, witness, verify.
Exit codes: 0 for pass/true, 1 for a mathematical failure (congruence
violated, rank deficient), 2 for usage or data errors, and 141, as for a
writer ended by SIGPIPE, when the reader of stdout has closed it.  All
output is exact; coefficients print as ``numerator/denominator`` with the
denominator suppressed when it is 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from .errors import FormatError, PrecisionError
from .generators import GENERATOR_NAMES, GeneratorRegistry
from .qformat import decode, dump_siegel, parse_siegel
from .rationals import PrimePower
from .verify import (
    SUITES,
    check_congruence,
    check_vanishing,
    sharpness_witness,
    sturm_bound,
    verify_identities,
)

def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _load_file(path: str):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    try:
        return parse_siegel(decode(data))
    except FormatError as exc:
        raise FormatError(exc.lineno, exc.message, path) from None


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a failed write of help to stdout
    raises, where argparse drops it, so a closed stdout reaches ``main``."""

    def _print_message(self, message, file=None):
        if file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cache-dir",
        default=None,
        help="generator cache directory (default: $SIEGEL2_CACHE or ./cache)",
    )
    parser = _Parser(
        prog="siegel2",
        description="Exact degree-2 Siegel modular form expansions, "
        "congruence checks, and truncation-bound certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", parents=[common], help="build and cache a generator")
    p_build.add_argument("--name", required=True, choices=GENERATOR_NAMES)
    p_build.add_argument("--prec", type=int, default=8)

    p_show = sub.add_parser("show", parents=[common], help="print a generator expansion")
    p_show.add_argument("--name", required=True, choices=GENERATOR_NAMES)
    p_show.add_argument("--prec", type=int, default=8)
    p_show.add_argument("--at", default=None, metavar="m,r,n", help="print one coefficient")

    p_bound = sub.add_parser("sturm-bound", parents=[common], help="print the truncation bound")
    p_bound.add_argument("--weight", type=int, required=True)

    p_check = sub.add_parser(
        "check", parents=[common], help="check mod-p^nu vanishing of a file on a box"
    )
    p_check.add_argument("--file", required=True)
    p_check.add_argument("--prime", type=int, required=True)
    p_check.add_argument("--nu", type=int, default=1)
    p_check.add_argument("--bound", type=int, default=None, help="box size (default b_k)")

    p_cong = sub.add_parser(
        "congruent", parents=[common], help="check two files agree mod p^nu"
    )
    p_cong.add_argument("--a", required=True)
    p_cong.add_argument("--b", required=True)
    p_cong.add_argument("--prime", type=int, required=True)
    p_cong.add_argument("--nu", type=int, default=1)

    p_wit = sub.add_parser(
        "witness", parents=[common], help="sharpness witness for a weight and prime"
    )
    p_wit.add_argument("--weight", type=int, required=True)
    p_wit.add_argument("--prime", type=int, required=True)

    p_ver = sub.add_parser("verify", parents=[common], help="run an identity suite")
    p_ver.add_argument("--suite", required=True, choices=SUITES + ("all",))
    p_ver.add_argument("--prime", type=int, default=None)
    p_ver.add_argument("--prec", type=int, default=None)
    p_ver.add_argument(
        "--output",
        choices=("text", "summary"),
        default="text",
        help="text prints every sub-check, summary only the RESULT lines",
    )
    return parser


def _print_report(report, output: str) -> None:
    text = report.render()
    if output == "summary":
        lines = [l for l in text.split("\n") if l.startswith("RESULT")]
        text = "\n".join(lines) if lines else text
    print(text)


def _run(args) -> int:
    registry = GeneratorRegistry(args.cache_dir)

    if args.command == "build":
        exp = registry.generator(args.name, args.prec)
        print(
            f"{args.name} precision {exp.precision}: {len(exp.coeffs)} entries, "
            f"cached under {registry.cache_dir}"
        )
        return 0

    if args.command == "show":
        exp = registry.generator(args.name, args.prec)
        if args.at is None:
            sys.stdout.write(dump_siegel(exp, args.name))
            return 0
        try:
            m, r, n = (int(part) for part in args.at.split(","))
        except ValueError:
            raise ValueError(f"bad index {args.at!r}; use m,r,n") from None
        print(_fmt(exp.coeff(m, r, n)))
        return 0

    if args.command == "sturm-bound":
        print(sturm_bound(args.weight))
        return 0

    if args.command == "check":
        name, exp = _load_file(args.file)
        pp = PrimePower(args.prime, args.nu)
        bound = sturm_bound(exp.weight) if args.bound is None else args.bound
        report = check_vanishing(exp, pp, bound)
        print(f"{name}: {report.render()}")
        if report.exceeds_precision:
            return 2
        return 0 if report.verdict else 1

    if args.command == "congruent":
        name_a, exp_a = _load_file(args.a)
        name_b, exp_b = _load_file(args.b)
        pp = PrimePower(args.prime, args.nu)
        report = check_congruence(exp_a, exp_b, pp)
        print(f"{name_a} vs {name_b}: {report.render()}")
        if report.exceeds_precision:
            return 2
        return 0 if report.verdict else 1

    if args.command == "witness":
        spec, report = sharpness_witness(args.weight, args.prime, registry)
        print(f"witness {spec} (weight {args.weight}, mod {args.prime})")
        print(report.render())
        return 0 if report.verdict else 1

    if args.command == "verify":
        suites = list(SUITES) if args.suite == "all" else [args.suite]
        ok = True
        for suite in suites:
            report = verify_identities(suite, args.prime, args.prec, registry)
            _print_report(report, args.output)
            ok = ok and report.passed
        return 0 if ok else 1

    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        finally:
            # --help writes to stdout, then exits: flush it inside the try.
            sys.stdout.flush()
        code = _run(args)
        # Output held in the buffer meets a closed stdout here, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout is gone.  With fd 1 on the null device the
        # interpreter's last flush is silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 141
    except FormatError as exc:
        print(f"error: malformed file: {exc}", file=sys.stderr)
        return 2
    except (ValueError, PrecisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
