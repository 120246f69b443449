"""Command line front end.

Subcommands: classify, factor, divisors, index, search, verify, mersenne.
Exit codes: 0 success (an empty search is a success), 1 a verification
assertion failed, 2 bad arguments or unparsable input, 3 ledger or checkpoint
I/O failure.  QP_WORKERS caps the process pool used by searches.
A command with --json builds its result once, as a JSON payload and as text
lines, and _emit prints the payload under --json and the lines otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time

from .abundancy import InternalInconsistency, delta_n, index_n
from .elemtext import ElementParseError, parse_element
from .factorize import divisors_up_to_associates, factor_element
from .prospect import (
    Check,
    SearchReport,
    append_record,
    congruence_identities,
    inert_residues,
    mersenne_perfects,
    read_records,
    search_powerfully,
    search_t_perfect,
    verify_bounds,
)
from .ring import QuadInt, ring
from .splitting import SplitClass, classify_prime, prime_above

LEDGER_KINDS = ("t-perfect", "n-powerful", "mersenne")
LEDGER_FIELDS = ("ts", "d", "kind", "n", "t", "elem", "norm")

# Text argparse takes as a value rather than an unknown option: what a
# negative number or an element with a leading minus sign starts with.
_MINUS_VALUE = re.compile(r"^-[\d.si]")


def append_ledger(path: str, *, d: int, kind: str, n: int, t: int, z: QuadInt) -> None:
    """Append one result line: key=value fields joined by ';' (see append_record)."""
    if kind not in LEDGER_KINDS:
        raise ValueError(f"unknown ledger kind {kind!r}")
    line = (
        f"ts={int(time.time())};d={d};kind={kind};n={n};t={t};"
        f"elem={z};norm={z.norm()}"
    )
    append_record(path, line)


def _parse_ledger_line(line: str) -> dict:
    chunks = line.strip().split(";")
    fields = dict(chunk.split("=", 1) for chunk in chunks)
    # Exactly the seven fields: a record glued onto a torn line repeats keys.
    if len(fields) != len(chunks) or set(fields) != set(LEDGER_FIELDS):
        raise ValueError(f"ledger line must hold each of {', '.join(LEDGER_FIELDS)} once")
    for key in ("ts", "d", "n", "t", "norm"):
        fields[key] = int(fields[key])
    return fields


def read_ledger(path: str) -> list[dict]:
    """Every complete record of the ledger; an unterminated last line is skipped.

    Reading never cuts the file: the last line may be another process's
    append in progress.  The next append_record cuts a torn tail.
    """
    return read_records(path, _parse_ledger_line, "ledger")


def _fmt_part(pi: QuadInt, e: int) -> str:
    base = str(pi)
    if pi.y != 0 and not base.startswith("("):
        base = f"({base})"
    if e > 1:
        if "/" in base:
            base = f"({base})"
        base = f"{base}^{e}"
    return base


def _emit(args, payload: dict, lines) -> None:
    """Print a command's result: payload as one JSON line under --json, else the text lines."""
    print(json.dumps(payload) if args.json else "\n".join(lines))


def _print_report(args, report: SearchReport) -> None:
    cross = {True: "yes", False: "MISMATCH", None: "n/a"}[report.cross_checked]
    _emit(args, {
        "d": report.d,
        "n": report.n,
        "t": report.t,
        "bound": report.bound,
        "method": report.method,
        "cross_checked": report.cross_checked,
        "hits": [{"elem": str(z), "norm": z.norm()} for z in report.hits],
    }, [
        f"d={report.d} n={report.n} t={report.t} bound={report.bound} "
        f"method={report.method} cross_checked={cross} hits={len(report.hits)}",
        *(f"{z} (norm {z.norm()})" for z in report.hits),
    ])


def _ledger_hits(args, report: SearchReport, kind: str) -> None:
    if getattr(args, "ledger", None):
        for z in report.hits:
            append_ledger(
                args.ledger, d=report.d, kind=kind, n=report.n, t=report.t, z=z
            )


def cmd_classify(args) -> int:
    ctx = ring(args.d)
    cls = classify_prime(ctx, args.p)
    if cls is SplitClass.INERT:
        print("inert")
    else:
        print(f"{cls.value} {prime_above(ctx, args.p)}")
    return 0


def cmd_factor(args) -> int:
    ctx = ring(args.d)
    z = parse_element(args.d, args.elem)
    f = factor_element(ctx, z)
    body = " * ".join(_fmt_part(pi, e) for pi, e in f.parts)
    _emit(args, {
        "d": args.d,
        "elem": str(z),
        "unit": str(f.unit),
        "parts": [{"prime": str(pi), "exp": e} for pi, e in f.parts],
    }, [f"unit={f.unit}" + (f"; {body}" if body else "")])
    return 0


def cmd_divisors(args) -> int:
    ctx = ring(args.d)
    z = parse_element(args.d, args.elem)
    divs = divisors_up_to_associates(factor_element(ctx, z))
    _emit(args, {
        "d": args.d,
        "elem": str(z),
        "divisors": [{"elem": str(w), "norm": w.norm()} for w in divs],
    }, map(str, divs))
    return 0


def cmd_index(args) -> int:
    ctx = ring(args.d)
    if args.n == 0:
        raise ValueError("n must be nonzero")
    z = parse_element(args.d, args.elem)
    if args.delta:
        value = delta_n(ctx, z, args.n)
    else:
        value = index_n(ctx, z, args.n).value
    try:
        approx = float(value)
    except OverflowError:  # past the float range; the exact value still prints
        approx = math.inf
    _emit(args, {
        "d": args.d,
        "elem": str(z),
        "n": args.n,
        "kind": "delta" if args.delta else "index",
        "exact": str(value),
        "terms": [[r, str(c)] for r, c in sorted(value.terms.items())],
        "float": approx if math.isfinite(approx) else None,
    }, [str(value), f"~ {approx:.12g}"])
    return 0


def cmd_search(args) -> int:
    ctx = ring(args.d)
    if args.n == 1:
        report = search_t_perfect(
            ctx, args.t, args.bound, checkpoint=args.checkpoint
        )
        kind = "t-perfect"
    else:
        report = search_powerfully(
            ctx, args.n, args.t, args.bound, checkpoint=args.checkpoint
        )
        kind = "n-powerful"
    _print_report(args, report)
    if report.cross_checked is False:
        print(
            "error: the integer reduction and the direct scan disagree", file=sys.stderr
        )
        return 1
    _ledger_hits(args, report, kind)
    return 0


def cmd_mersenne(args) -> int:
    ctx = ring(args.d)
    report = mersenne_perfects(ctx, args.p_max)
    _print_report(args, report)
    _ledger_hits(args, report, "mersenne")
    return 0


def _bound_samples() -> list:
    from .ring import UFD_DS

    samples = []
    for d in UFD_DS:
        ctx = ring(d)
        samples.append((ctx, QuadInt.from_int(d, 210)))
        samples.append((ctx, QuadInt.from_int(d, 864)))
        for p in (2, 3, 5, 7, 11, 13):
            if classify_prime(ctx, p) is not SplitClass.INERT:
                samples.append((ctx, prime_above(ctx, p) ** 3 * QuadInt.from_int(d, 6)))
                break
    return samples


def _print_verification(checks) -> int:
    for check in checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    return 0 if all(check.passed for check in checks) else 1


def cmd_verify(args) -> int:
    if args.suite == "bounds":
        samples = _bound_samples()
        checks = {}
        for n in (3, 4, 5):  # each n repeats the constant checks: keep each name's first
            for check in verify_bounds(n, samples).checks:
                checks.setdefault(check.name, check)
        return _print_verification(checks.values())
    if args.suite == "congruences":
        return _print_verification(congruence_identities().checks)
    if args.suite == "residues":
        expected = {
            -1: (4, frozenset({3})),
            -3: (3, frozenset({2})),
            -11: (11, frozenset({2, 6, 7, 8, 10})),
        }
        checks = []
        for d, (modulus, want) in expected.items():
            got = inert_residues(ring(d), modulus)
            listing = ",".join(str(r) for r in sorted(got))
            print(f"d={d}: {{{listing}}} mod {modulus}")
            checks.append(
                Check(
                    name=f"inert residues d={d} mod {modulus}",
                    passed=got == want,
                    detail=f"{{{listing}}}",
                )
            )
        return _print_verification(checks)
    # absence
    checks = []
    for d in (-1, -3):
        report = search_t_perfect(ring(d), 2, args.bound)
        checks.append(
            Check(
                name=f"no 2-perfect elements in d={d} up to {args.bound}",
                passed=not report.hits and report.cross_checked,
                detail=f"hits={len(report.hits)} cross_checked={report.cross_checked}",
            )
        )
    return _print_verification(checks)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quadperfect",
        description="Exact divisor sums, abundancy indices, and perfect-number "
        "searches in the nine imaginary quadratic UFDs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def with_d(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--d", type=int, required=True, help="ring: one of -1,-2,-3,-7,-11,-19,-43,-67,-163")
        # Element text such as -3s reaches the positional, not the option parser.
        p._negative_number_matcher = _MINUS_VALUE
        return p

    p = with_d(sub.add_parser("classify", help="inert/ramified/split behavior of a prime"))
    p.add_argument("p", type=int)
    p.set_defaults(func=cmd_classify)

    p = with_d(sub.add_parser("factor", help="factor an element into canonical primes"))
    p.add_argument("elem")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_factor)

    p = with_d(sub.add_parser("divisors", help="divisors up to associates"))
    p.add_argument("elem")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_divisors)

    p = with_d(sub.add_parser("index", help="exact abundancy index (or divisor sum)"))
    p.add_argument("elem")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", action="store_true", help="print the divisor sum instead")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_index)

    p = with_d(sub.add_parser("search", help="norm-bounded search for index-t elements"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--ledger", metavar="PATH")
    p.add_argument("--checkpoint", metavar="PATH")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = with_d(sub.add_parser("mersenne", help="even perfect integers that stay perfect"))
    p.add_argument("--p-max", type=int, required=True, dest="p_max")
    p.add_argument("--ledger", metavar="PATH")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_mersenne)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("bounds", "congruences", "residues", "absence"))
    p.add_argument("--bound", type=int, default=10**6, help="norm bound for the absence suite")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInconsistency as exc:
        print(f"FALSIFICATION: {exc}", file=sys.stderr)
        return 1
    except (ElementParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
