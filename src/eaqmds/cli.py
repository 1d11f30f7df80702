"""Command-line surface: enumerate the families, verify claims at
selectable depth, emit machine-readable tables, print the errata audit.

Output is deterministic: identical invocations produce byte-identical
output (no timestamps).  Data goes to stdout, diagnostics to stderr.
Exit codes: 0 success, 1 invariant violation, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

from . import errata as errata_mod
from . import families, oracle
from .cosets import (
    CycContext,
    DefiningSet,
    all_cosets,
    coset_product_identity,
    coset_product_identity_inverse,
    identity_windows,
    inverse_identity_windows,
)
from .eaqecc import eaqmds_status, ebits
from .exceptions import VerificationError
from .gf import field_tower

# above this the matrix oracle gets slow; larger q must be asked for explicitly
ORACLE_Q_CAP = 32

# largest modulus n a command may work over: cosets, sweeps and codes take
# O(n) memory, and --q/--qmax are held to it through n = (q^2+1)/5
MAX_MODULUS = 200_000

_RANDOM_SEED = 20250808
_RANDOM_SETS_PER_Q = 50


@dataclass(frozen=True)
class CodeRecord:
    """Flat, serialization-stable view of one verified code."""

    family_id: str
    q: int
    p: int
    e: int
    n: int
    m: int
    k: int
    d: int
    c: int
    singleton_equality: bool
    distance_precondition_ok: bool
    rank_oracle_checked: bool
    errata_flags: tuple[str, ...]

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

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if f.name == "errata_flags" else v
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "CodeRecord":
        d = dict(d)
        d["errata_flags"] = tuple(d["errata_flags"])
        return cls(**d)

    def csv_row(self) -> str:
        vals = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                vals.append("true" if v else "false")
            elif f.name == "errata_flags":
                vals.append("|".join(v))
            else:
                vals.append(str(v))
        return ",".join(vals)


CSV_HEADER = ",".join(f.name for f in fields(CodeRecord))


def _print_record_text(rec: CodeRecord) -> None:
    print(f"[[{rec.n},{rec.k},{rec.d};{rec.c}]]_{rec.q}")
    print(
        f"family_id={rec.family_id} q={rec.q} p={rec.p} e={rec.e} "
        f"n={rec.n} m={rec.m} k={rec.k} d={rec.d} c={rec.c}"
    )
    print(
        f"singleton_equality={str(rec.singleton_equality).lower()} "
        f"distance_precondition_ok={str(rec.distance_precondition_ok).lower()} "
        f"rank_oracle_checked={str(rec.rank_oracle_checked).lower()}"
    )
    print(f"errata_flags={'|'.join(rec.errata_flags)}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _check_budget(flag: str, value: int, n: int | None = None) -> None:
    """Reject, before any work, an input whose modulus n (by default the
    family length (q^2+1)/5 of q = value) exceeds MAX_MODULUS."""
    n = (value * value + 1) // 5 if n is None else n
    if n > MAX_MODULUS:
        raise ValueError(
            f"{flag} {value} is out of budget: it needs modulus n = {n}, "
            f"above the limit {MAX_MODULUS}"
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
        payload = {
            "q": q,
            "n": ctx.n,
            "cosets": [{"rep": c.rep, "elements": list(c.elements)} for c in cs],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"q={q} n={ctx.n} count={len(cs)}")
        for c in cs:
            print(f"C_{c.rep} = {{{', '.join(str(x) for x in c.elements)}}}")
    return 0


def _verify_code(
    q: int, m: int, allow_degenerate: bool, run_oracle: bool
) -> tuple[families.FamilyCode, bool]:
    """The verified code, and whether the matrix oracle confirmed its ebits."""
    spec = families.classify(q)
    if spec is None:
        raise ValueError(families.explain_rejection(q))
    fc = families.verify_family_code(spec, m, allow_degenerate=allow_degenerate)
    checked = False
    if run_oracle:
        tower = field_tower(q, spec.n)
        _g, h = oracle.code_matrices(fc.defining_set, tower)
        got = oracle.rank_hh_dagger(h)
        if got != fc.verified.c:
            raise VerificationError(
                f"rank(HH^dagger) = {got} but the set overlap has size {fc.verified.c} "
                f"at q={q}, m={m}"
            )
        checked = True
    return fc, checked


def cmd_code(args: argparse.Namespace) -> int:
    _check_budget("--q", args.q)
    if args.oracle and args.q > ORACLE_Q_CAP and not args.allow_large_oracle:
        raise ValueError(
            f"the matrix oracle is capped at q <= {ORACLE_Q_CAP} by default; "
            f"pass --allow-large-oracle to run q={args.q}"
        )
    fc, checked = _verify_code(args.q, args.m, args.allow_degenerate, args.oracle)
    rec = CodeRecord.from_family_code(fc, rank_oracle_checked=checked)
    if args.format == "json":
        print(json.dumps(rec.to_dict(), indent=2))
    else:
        _print_record_text(rec)
        print(f"eaqmds_status={eaqmds_status(fc.verified)}")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    _check_budget("--qmax", args.qmax)
    codes = families.enumerate_family(args.family, args.qmax)
    records = [CodeRecord.from_family_code(fc) for fc in codes]
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in records], indent=2))
    elif args.format == "csv":
        print(CSV_HEADER)
        for r in records:
            print(r.csv_row())
    else:
        header = CSV_HEADER.split(",")
        rows = [r.csv_row().split(",") for r in records]
        widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
                  for i, h in enumerate(header)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
        for row in rows:
            print("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return 0


def cmd_errata(args: argparse.Namespace) -> int:
    _check_budget("--qmax", args.qmax)
    entries = errata_mod.errata_report(args.qmax)
    if args.format == "json":
        print(json.dumps(errata_mod.render_json(entries), indent=2))
    else:
        sys.stdout.write(errata_mod.render_text(entries))
    return 0


# -- verify suites -----------------------------------------------------------


def _verify_coset(q_max: int) -> str:
    sizes = families.iter_family_sizes(q_max)
    checked = 0
    for spec in sizes:
        ctx = spec.context()
        cs = all_cosets(ctx)
        total = sum(len(c) for c in cs)
        seen = set()
        for c in cs:
            for x in c.elements:
                if x in seen:
                    raise VerificationError(f"cosets overlap at q={spec.q.q}: {x}")
                seen.add(x)
            expected = {c.rep, (ctx.n - c.rep) % ctx.n}
            if set(c.elements) != expected:
                raise VerificationError(
                    f"coset of {c.rep} at q={spec.q.q} is not {{i, n-i}}"
                )
            z = DefiningSet(ctx, c.elements)
            img = z.neg_q()
            if len(img) != len(z):
                raise VerificationError(f"-q map not injective at q={spec.q.q}")
            if img.neg_q() != z:
                raise VerificationError(f"-q map not an involution at q={spec.q.q}")
        if total != ctx.n or len(seen) != ctx.n:
            raise VerificationError(f"cosets do not partition Z_{ctx.n} at q={spec.q.q}")
        checked += len(cs)
    return f"{len(sizes)} field sizes, {checked} cosets"


def _verify_lemma(q_max: int) -> str:
    sizes = families.iter_family_sizes(q_max)
    identities = 0
    windows = 0
    for spec in sizes:
        ctx = spec.context()
        q = spec.q.q
        for s, i in identity_windows(q):
            if not coset_product_identity(ctx, s, i):
                raise VerificationError(f"reflection identity fails at q={q}, s={s}, i={i}")
            identities += 1
        for with_offset in (False, True):
            for t, j in inverse_identity_windows(q, with_offset):
                if not coset_product_identity_inverse(ctx, t, j):
                    raise VerificationError(
                        f"inverse identity fails at q={q}, t={t}, j={j} "
                        f"(offset={with_offset})"
                    )
                identities += 1
        for m in range(2, spec.m_max + 1):
            families.check_window_lemmas(spec, m, families.family_defining_set(spec, m))
            windows += 1
    return f"{len(sizes)} field sizes, {identities} identity checks, {windows} window sets"


def _verify_theorem(q_max: int) -> str:
    points = 0
    for spec, m in families.family_grid(q_max):
        fc = families.verify_family_code(spec, m)
        c = fc.verified.c
        if c != 20 * (m - 1) ** 2 + 1:
            raise VerificationError(
                f"ebit count {c} != 20(m-1)^2+1 at q={spec.q.q}, m={m}"
            )
        points += 1
    return f"{points} (q, m) points"


def _random_closed_sets(ctx: CycContext, count: int, seed: int) -> list[DefiningSet]:
    import random

    rng = random.Random(seed)
    reps = [c.rep for c in all_cosets(ctx)]
    out = []
    while len(out) < count:
        chosen = [r for r in reps if rng.random() < 0.5]
        z = DefiningSet.from_cosets(ctx, chosen)
        if z.is_empty() or len(z) >= ctx.n:
            continue
        out.append(z)
    return out


def _verify_rank_oracle(q_max: int, allow_large: bool) -> str:
    specs = families.iter_family_sizes(q_max)
    if not allow_large:
        specs = [s for s in specs if s.q.q in (23, 27, 32)]
    checked = 0
    for spec in specs:
        q = spec.q.q
        tower = field_tower(q, spec.n)
        for m in range(2, spec.m_max + 1):
            fc = families.verify_family_code(spec, m)
            _g, h = oracle.code_matrices(fc.defining_set, tower)
            got = oracle.rank_hh_dagger(h)
            if got != fc.verified.c:
                raise VerificationError(
                    f"rank(HH^dagger) = {got} != overlap size {fc.verified.c} "
                    f"at q={q}, m={m}"
                )
            checked += 1
    for q in (7, 23):
        if q > q_max:
            continue
        ctx = CycContext.for_family(q)
        tower = field_tower(q, ctx.n)
        for z in _random_closed_sets(ctx, _RANDOM_SETS_PER_Q, _RANDOM_SEED + q):
            h = oracle.build_parity_check_matrix(z, tower)
            got = oracle.rank_hh_dagger(h)
            want = ebits(z)
            if got != want:
                raise VerificationError(
                    f"rank(HH^dagger) = {got} != overlap size {want} for a random "
                    f"set of size {len(z)} at q={q}"
                )
            checked += 1
    return f"{checked} codes"


_VERIFY_LEVELS = {
    "coset": _verify_coset,
    "lemma": _verify_lemma,
    "theorem": _verify_theorem,
}


def cmd_verify(args: argparse.Namespace) -> int:
    qmax = args.qmax
    if args.level == "rank-oracle" and not args.allow_large_oracle:
        qmax = min(qmax, ORACLE_Q_CAP)
    _check_budget("--qmax", qmax)
    try:
        if args.level == "rank-oracle":
            summary = _verify_rank_oracle(qmax, args.allow_large_oracle)
        else:
            summary = _VERIFY_LEVELS[args.level](qmax)
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
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
