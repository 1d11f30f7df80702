"""Audit of the published parameter tables for these code families.

The published presentation of the four families carries a handful of
arithmetic slips: a missing +c in the general dimension statement, a
sign error in the closed-form dimension, example tables computed with
that wrong form, and optimality claims in a distance regime where the
certifying bound does not apply.  The printed values are pinned here as
a static fixture - they are data, not code - and every corrected value
is read from families.verify_family_code, the one derivation that the
code, enumerate and verify commands share.  Each example row prints the
logical dimension by two routes:

    route A:  k = 2(n - |Z|) - n + c   with c from the set overlap
    route B:  k = n + c - 2(d - 1)     with d from the consecutive run

They differ by 2(run - |Z|), which the one-run check there requires to
be 0.  If the construction engine ever drifted, the audit would fail
loudly rather than reprint stale numbers.
"""

from __future__ import annotations

from typing import NamedTuple

from .codes import dimension
from .exceptions import UsageError, VerificationError
from .families import (
    PRINTED_EXAMPLE_DIMENSIONS,
    FamilySpec,
    classify,
    family_grid,
    verify_family_code,
)

ENTRY_IDS = ("E1", "E2", "E3", "E4", "E5", "E6", "E7")

# fixed order of the published example tables audited by E3..E6
_EXAMPLE_QS = (37, 47, 32, 128)

# notes attached to specific example tables
_EXAMPLE_NOTES = {
    128: "the printed q=128 table is introduced with e=5, but q=2^7 has e=7",
}


class ErrataEntry(
    NamedTuple(
        "ErrataEntry",
        [("entry_id", str), ("title", str), ("lines", tuple[str, ...]), ("data", dict)],
    )
):
    __slots__ = ()


def _spec(q: int) -> FamilySpec:
    """The family of a published example's field size."""
    try:
        return classify(q)
    except UsageError as exc:
        raise VerificationError(f"published example q={q} is in no family: {exc}") from None


def _corrected_dimensions(q: int) -> list[dict]:
    """Every printed code for one field size, as verified, by both routes."""
    spec = _spec(q)
    out = []
    printed_ms = sorted(m for (qq, m) in PRINTED_EXAMPLE_DIMENSIONS if qq == q)
    for m in printed_ms:
        v = verify_family_code(spec, m).verified
        out.append(
            {
                "q": q,
                "m": m,
                "n": v.n,
                "d": v.d,
                "c": v.c,
                "printed_k": PRINTED_EXAMPLE_DIMENSIONS[(q, m)],
                "computed_k": v.k,
                "k_via_2k_minus_n_plus_c": v.k,
                "k_via_singleton_equality": v.n + v.c - 2 * (v.d - 1),
            }
        )
    return out


def _entry_e1() -> ErrataEntry:
    fc = verify_family_code(_spec(23), 2)
    k_classical = dimension(fc.defining_set)
    c, corrected = fc.verified.c, fc.verified.k
    stated = 2 * k_classical - fc.spec.n
    data = {
        "stated_formula": "2k - n",
        "corrected_formula": "2k - n + c",
        "witness": {
            "q": 23,
            "m": 2,
            "classical_k": k_classical,
            "c": c,
            "stated_value": stated,
            "corrected_value": corrected,
        },
    }
    return ErrataEntry(
        "E1",
        "general construction prints logical dimension 2k-n; "
        "the example codes and the Singleton equality require 2k-n+c",
        (
            f"witness q=23, m=2: classical k={k_classical}, c={c}; "
            f"2k-n = {stated} but the printed code has k = {corrected}",
        ),
        data,
    )


def _entry_e2() -> ErrataEntry:
    q, m = 23, 2
    fc = verify_family_code(_spec(q), m)  # checks the corrected form against k
    n, corrected = fc.spec.n, fc.verified.k
    stated = n - 4 * (m - 1) * (5 * m - q - 5) - 1
    data = {
        "stated_formula": "n - 4(m-1)(5m-q-5) - 1",
        "corrected_formula": "n - 4(m-1)(q-5(m-1)) - 1",
        "witness": {"q": q, "m": m, "stated_value": stated, "corrected_value": corrected},
    }
    return ErrataEntry(
        "E2",
        "closed-form dimension in the family statements has a sign slip",
        (
            f"witness q={q}, m={m}: stated form gives {stated}, "
            f"corrected form gives {corrected} (= first-principles value)",
        ),
        data,
    )


def _example_entry(entry_id: str, q: int) -> ErrataEntry:
    rows = _corrected_dimensions(q)
    lines = [
        "q={q} m={m}: printed [[{n},{printed_k},{d};{c}]] -> "
        "computed [[{n},{computed_k},{d};{c}]] (2k-n+c = {k_via_2k_minus_n_plus_c}; "
        "n+c-2(d-1) = {k_via_singleton_equality})".format(**r)
        for r in rows
    ]
    note = _EXAMPLE_NOTES.get(q)
    if note:
        lines.append(f"note: {note}")
    data = {"q": q, "codes": rows}
    if note:
        data["note"] = note
    return ErrataEntry(
        entry_id,
        f"printed example dimensions at q={q} follow the sign-slipped form",
        tuple(lines),
        data,
    )


def _entry_e7(q_max: int) -> ErrataEntry:
    hits = []
    for spec, m in family_grid(q_max):
        v = verify_family_code(spec, m).verified
        if not v.distance_precondition_ok:
            hits.append({"q": spec.q.q, "m": m, "n": v.n, "d": v.d, "threshold_2d_le": v.n + 2})
    # (n+2)/2 printed from integers: one decimal place, .0 or .5
    lines = tuple(
        f"q={h['q']} m={h['m']}: d={h['d']} exceeds (n+2)/2 = "
        f"{h['threshold_2d_le'] // 2}.{5 * (h['threshold_2d_le'] % 2)}"
        for h in hits
    )
    return ErrataEntry(
        "E7",
        f"codes claimed optimal whose distance exceeds (n+2)/2, the regime the "
        f"certifying bound covers (scan of all families, q <= {q_max})",
        lines,
        {"q_max": q_max, "violations": hits},
    )


def errata_report(q_max: int = 200) -> tuple[ErrataEntry, ...]:
    """The fixed audit: entries E1..E7, deterministic order and content."""
    entries = [_entry_e1(), _entry_e2()]
    entries += [_example_entry(entry_id, q) for entry_id, q in zip(ENTRY_IDS[2:6], _EXAMPLE_QS)]
    entries.append(_entry_e7(q_max))
    return tuple(entries)


def render_text(entries: tuple[ErrataEntry, ...]) -> str:
    out = []
    for e in entries:
        out.append(f"{e.entry_id}: {e.title}")
        out.extend(f"  {line}" for line in e.lines)
    return "\n".join(out) + "\n"


def render_json(entries: tuple[ErrataEntry, ...]) -> list[dict]:
    return [
        {"entry_id": e.entry_id, "title": e.title, "details": list(e.lines), "data": e.data}
        for e in entries
    ]
