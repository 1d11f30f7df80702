"""Command-line surface: enumerate the families, verify claims at
selectable depth, emit machine-readable tables, print the errata audit.
It only parses, guards inputs and prints: the checks and the verify
suites live in families (set route), oracle (matrix route) and
crosscheck (the two compared).

Importing this module loads families, with the set route under it, and
nothing more of the package: crosscheck, with oracle and gf under it, is
imported by the commands that run the matrix route (code --oracle,
verify --level rank-oracle), gf alone by their budget check, errata by
the errata command, and json by --format json.  A set-route command thus
never loads the matrix route.

Output is deterministic: identical invocations produce byte-identical
output (no timestamps).  Data goes to stdout, diagnostics to stderr.
Exit codes: 0 success, 1 invariant violation, internal fault or stdout
closed early, 2 usage error (a UsageError from an input guard).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple

from . import families
from .cosets import CycContext, all_cosets
from .eaqecc import eaqmds_status
from .exceptions import UsageError, VerificationError

# above this the matrix oracle gets slow; larger q must be asked for explicitly
ORACLE_Q_CAP = 32

# largest modulus n a command may work over: cosets, sweeps and codes take
# O(n) memory, and --q/--qmax are held to it through n = (q^2+1)/5
MAX_MODULUS = 200_000


class CodeRecord(
    NamedTuple(
        "CodeRecord",
        [("family_id", str), ("q", int), ("p", int), ("e", int), ("n", int), ("m", int),
         ("k", int), ("d", int), ("c", int), ("singleton_equality", bool),
         ("distance_precondition_ok", bool), ("rank_oracle_checked", bool),
         ("errata_flags", tuple[str, ...])],
    )
):
    """Flat, serialization-stable view of one verified code."""

    __slots__ = ()

    @classmethod
    def from_family_code(
        cls, fc: families.FamilyCode, rank_oracle_checked: bool = False
    ) -> "CodeRecord":
        v = fc.verified
        return cls(
            family_id=fc.spec.family_id,
            q=fc.spec.q.q,
            p=fc.spec.q.p,
            e=fc.spec.q.e,
            n=v.n,
            m=fc.m,
            k=v.k,
            d=v.d,
            c=v.c,
            singleton_equality=v.singleton_equality,
            distance_precondition_ok=v.distance_precondition_ok,
            rank_oracle_checked=rank_oracle_checked,
            errata_flags=fc.errata_flags,
        )

    def cells(self) -> list[str]:
        """The field values as CSV and text print them: booleans in lower
        case, the errata flags joined by |."""
        return [
            "|".join(v) if isinstance(v, tuple) else str(v).lower() if isinstance(v, bool)
            else str(v)
            for v in self
        ]


CSV_HEADER = ",".join(CodeRecord._fields)


def _print_json(value: object) -> None:
    import json  # loaded by --format json alone

    print(json.dumps(value, indent=2))


def _print_record_text(rec: CodeRecord) -> None:
    # the fields in record order: nine numbers, three flags, the errata flags
    pairs = [f"{k}={v}" for k, v in zip(CSV_HEADER.split(","), rec.cells())]
    print(f"[[{rec.n},{rec.k},{rec.d};{rec.c}]]_{rec.q}")
    print(" ".join(pairs[:9]))
    print(" ".join(pairs[9:12]))
    print(pairs[12])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _check_budget(flag: str, value: int, n: int | None = None, oracle: bool = False) -> None:
    """Reject, before any work, an input whose modulus n (by default the
    family length (q^2+1)/5 of q = value) exceeds MAX_MODULUS, or a
    matrix-oracle run up to q = value whose alphabet F_(q^2) is larger
    than the extension fields gf builds."""
    n = (value * value + 1) // 5 if n is None else n
    if n > MAX_MODULUS:
        raise UsageError(
            f"{flag} {value} is out of budget: it needs modulus n = {n}, "
            f"above the limit {MAX_MODULUS}"
        )
    if not oracle:
        return
    from .gf import MAX_EXTENSION_ORDER

    if value * value > MAX_EXTENSION_ORDER:
        raise UsageError(
            f"{flag} {value} is out of budget for the matrix oracle: F_(q^2) has "
            f"order {value * value}, above the limit {MAX_EXTENSION_ORDER}"
        )


def cmd_cosets(args: argparse.Namespace) -> int:
    q = args.q
    if args.n is not None:
        _check_budget("--n", args.n, args.n)
        ctx = CycContext(args.n, q)
    else:
        _check_budget("--q", q)
        ctx = CycContext.for_family(q)
    cs = all_cosets(ctx)
    if args.format == "json":
        _print_json({
            "q": q,
            "n": ctx.n,
            "cosets": [{"rep": c[0], "elements": list(c)} for c in cs],
        })
    else:
        print(f"q={q} n={ctx.n} count={len(cs)}")
        for c in cs:
            print(f"C_{c[0]} = {{{', '.join(str(x) for x in c)}}}")
    return 0


def cmd_code(args: argparse.Namespace) -> int:
    _check_budget("--q", args.q, oracle=args.oracle)
    if args.oracle and args.q > ORACLE_Q_CAP and not args.allow_large_oracle:
        raise UsageError(
            f"the matrix oracle is capped at q <= {ORACLE_Q_CAP} by default; "
            f"pass --allow-large-oracle to run q={args.q}"
        )
    spec = families.classify(args.q)
    fc = families.verify_family_code(spec, args.m, allow_degenerate=args.allow_degenerate)
    if args.oracle:
        from . import crosscheck

        crosscheck.confirm_ebits(fc)
    rec = CodeRecord.from_family_code(fc, rank_oracle_checked=args.oracle)
    if args.format == "json":
        _print_json(rec._asdict())
    else:
        _print_record_text(rec)
        print(f"eaqmds_status={eaqmds_status(fc.verified)}")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    _check_budget("--qmax", args.qmax)
    codes = families.enumerate_family(args.family, args.qmax)
    records = [CodeRecord.from_family_code(fc) for fc in codes]
    if args.format == "json":
        _print_json([r._asdict() for r in records])
    elif args.format == "csv":
        print(CSV_HEADER)
        for r in records:
            print(",".join(r.cells()))
    else:
        header = CSV_HEADER.split(",")
        rows = [r.cells() for r in records]
        widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
                  for i, h in enumerate(header)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
        for row in rows:
            print("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return 0


def cmd_errata(args: argparse.Namespace) -> int:
    _check_budget("--qmax", args.qmax)
    from . import errata

    entries = errata.errata_report(args.qmax)
    if args.format == "json":
        _print_json(errata.render_json(entries))
    else:
        sys.stdout.write(errata.render_text(entries))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    qmax = args.qmax
    if args.level == "rank-oracle" and not args.allow_large_oracle:
        qmax = min(qmax, ORACLE_Q_CAP)
    _check_budget("--qmax", qmax, oracle=args.level == "rank-oracle")
    # looked up per call, so a suite replaced on its module is the one run
    if args.level == "rank-oracle":
        from . import crosscheck

        suite = crosscheck.verify_rank_oracle
    else:
        suite = {
            "coset": families.verify_cosets,
            "lemma": families.verify_lemmas,
            "theorem": families.verify_theorem,
        }[args.level]
    try:
        counts = suite(qmax)
        summary = ", ".join(f"{v} {k}" for k, v in counts.items())
        print(f"verify level={args.level} qmax={qmax}: PASS ({summary})")
    except VerificationError as exc:
        print(f"verify level={args.level}: FAIL", file=sys.stderr)
        print(f"counterexample: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eaqmds",
        description="Construct, classify and independently verify "
        "entanglement-assisted MDS codes of length (q^2+1)/5.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cosets", help="list the cyclotomic cosets modulo n")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, default=None,
                   help="modulus (default: (q^2+1)/5 when divisible)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_cosets)

    p = sub.add_parser("code", help="verify one (q, m) code")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="also confirm the ebit count via rank(HH^dagger)")
    p.add_argument("--allow-degenerate", action="store_true",
                   help="accept m=1 (the trivial [[n, n-1, 2; 1]] code)")
    p.add_argument("--allow-large-oracle", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("enumerate", help="all verified codes of one family")
    p.add_argument("--family", choices=families.FAMILY_IDS, required=True)
    p.add_argument("--qmax", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv", "table"), default="table")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("errata", help="print the audit of the published tables")
    p.add_argument("--qmax", type=int, default=200)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_errata)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("--level", choices=("coset", "lemma", "theorem", "rank-oracle"),
                   required=True)
    p.add_argument("--qmax", type=int, default=200)
    p.add_argument("--allow-large-oracle", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here at the latest
        return status
    except BrokenPipeError:
        # stdout on devnull, so that the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # past the input guards a ValueError is a fault, not bad input
        print(f"internal error in {args.command}: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
