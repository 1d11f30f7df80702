"""Audit of the published parameter tables for these code families.

The published presentation of the four families carries a handful of
arithmetic slips: a missing +c in the general dimension statement, a
sign error in the closed-form dimension, example tables computed with
that wrong form, and optimality claims in a distance regime where the
certifying bound does not apply.  The printed values are pinned here as
a static fixture - they are data, not code - and every corrected value
is re-derived two independent ways that must agree:

    route A:  k = 2(n - |Z|) - n + c   with c from the set overlap
    route B:  k = n + c - 2(d - 1)     with d from the consecutive run

The report is therefore regression-tested: if the construction engine
ever drifted, the audit would fail loudly rather than reprint stale
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import bch_bound, dimension
from .eaqecc import ebits
from .exceptions import VerificationError
from .families import (
    PRINTED_EXAMPLE_DIMENSIONS,
    FamilySpec,
    classify,
    family_defining_set,
    family_grid,
)

ENTRY_IDS = ("E1", "E2", "E3", "E4", "E5", "E6", "E7")

# fixed order of the published example tables audited by E3..E6
_EXAMPLE_QS = (37, 47, 32, 128)

# notes attached to specific example tables
_EXAMPLE_NOTES = {
    128: "the printed q=128 table is introduced with e=5, but q=2^7 has e=7",
}


@dataclass(frozen=True)
class ErrataEntry:
    entry_id: str
    title: str
    lines: tuple[str, ...]
    data: dict


def _spec(q: int) -> FamilySpec:
    """The family of a published example's field size."""
    try:
        return classify(q)
    except ValueError as exc:
        raise VerificationError(f"published example q={q} is in no family: {exc}") from None


def _corrected_dimensions(q: int) -> list[dict]:
    """Recompute every printed code for one field size, both routes."""
    spec = _spec(q)
    out = []
    printed_ms = sorted(m for (qq, m) in PRINTED_EXAMPLE_DIMENSIONS if qq == q)
    for m in printed_ms:
        z = family_defining_set(spec, m)
        n = spec.n
        c = ebits(z)
        d = bch_bound(z)
        route_a = 2 * dimension(z) - n + c
        route_b = n + c - 2 * (d - 1)
        if route_a != route_b:
            raise VerificationError(
                f"independent dimension derivations disagree at q={q}, m={m}: "
                f"{route_a} vs {route_b}"
            )
        printed = PRINTED_EXAMPLE_DIMENSIONS[(q, m)]
        out.append(
            {
                "q": q,
                "m": m,
                "n": n,
                "d": d,
                "c": c,
                "printed_k": printed,
                "computed_k": route_a,
                "k_via_2k_minus_n_plus_c": route_a,
                "k_via_singleton_equality": route_b,
            }
        )
    return out


def _entry_e1() -> ErrataEntry:
    spec = _spec(23)
    z = family_defining_set(spec, 2)
    k_classical = dimension(z)
    c = ebits(z)
    stated = 2 * k_classical - spec.n
    corrected = stated + c
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
    spec = _spec(23)
    q, n, m = 23, spec.n, 2
    stated = n - 4 * (m - 1) * (5 * m - q - 5) - 1
    corrected = n - 4 * (m - 1) * (q - 5 * (m - 1)) - 1
    z = family_defining_set(spec, m)
    first_principles = 2 * dimension(z) - n + ebits(z)
    if corrected != first_principles:
        raise VerificationError("corrected closed form fails its own witness")
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
    lines = []
    for r in rows:
        lines.append(
            "q={q} m={m}: printed [[{n},{pk},{d};{c}]] -> computed [[{n},{ck},{d};{c}]] "
            "(2k-n+c = {ra}; n+c-2(d-1) = {rb})".format(
                q=r["q"],
                m=r["m"],
                n=r["n"],
                pk=r["printed_k"],
                ck=r["computed_k"],
                d=r["d"],
                c=r["c"],
                ra=r["k_via_2k_minus_n_plus_c"],
                rb=r["k_via_singleton_equality"],
            )
        )
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
        n, q = spec.n, spec.q.q
        d = bch_bound(family_defining_set(spec, m))
        if 2 * d > n + 2:
            hits.append({"q": q, "m": m, "n": n, "d": d, "threshold_2d_le": n + 2})
    hits.sort(key=lambda h: (h["q"], h["m"]))
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
    for entry_id, q in zip(("E3", "E4", "E5", "E6"), _EXAMPLE_QS):
        entries.append(_example_entry(entry_id, q))
    entries.append(_entry_e7(q_max))
    ids = tuple(e.entry_id for e in entries)
    if ids != ENTRY_IDS:
        raise VerificationError(f"errata entries {ids} are not {ENTRY_IDS}")
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
