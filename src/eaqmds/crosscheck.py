"""The two routes compared: the ebit count c of the set route against
rank(HH^dagger) of the matrix route, the only module that imports both."""

from __future__ import annotations

import random

from .cosets import CycContext, DefiningSet, all_cosets
from .eaqecc import decompose
from .families import FamilyCode, family_grid, verify_family_code
from .gf import field_tower
from .oracle import check_ebits


def confirm_ebits(fc: FamilyCode) -> None:
    """Compare rank(HH^dagger) of a verified family code, over its tower,
    with the code's ebit count."""
    tower = field_tower(fc.spec.q.q, fc.spec.n)
    check_ebits(fc.defining_set.members, tower, fc.verified.c, f"at q={fc.spec.q.q}, m={fc.m}")


# ---------------------------------------------------------------------------
# the rank-oracle suite
# ---------------------------------------------------------------------------

_RANDOM_SEED = 20250808
_RANDOM_SETS_PER_Q = 50


def _random_closed_sets(ctx: CycContext, count: int, seed: int) -> list[DefiningSet]:
    """count coset-closed sets, neither empty nor full, each coset drawn
    with probability 1/2."""
    rng = random.Random(seed)
    reps = [c[0] for c in all_cosets(ctx)]
    out = []
    while len(out) < count:
        z = DefiningSet.from_runs(ctx, [(r, 1, 1, 1) for r in reps if rng.random() < 0.5])
        if 0 < len(z) < ctx.n:
            out.append(z)
    return out


def verify_rank_oracle(q_max: int) -> dict[str, int]:
    """rank(HH^dagger) against the set-route ebit count: every family code
    with q <= q_max, then random coset-closed sets at q = 7 and 23."""
    checked = 0
    for spec, m in family_grid(q_max):
        confirm_ebits(verify_family_code(spec, m))
        checked += 1
    for q in (7, 23):
        if q > q_max:
            continue
        ctx = CycContext.for_family(q)
        tower = field_tower(q, ctx.n)
        for z in _random_closed_sets(ctx, _RANDOM_SETS_PER_Q, _RANDOM_SEED + q):
            where = f"for a random set of size {len(z)} at q={q}"
            check_ebits(z.members, tower, len(decompose(z)), where)
            checked += 1
    return {"codes": checked}
