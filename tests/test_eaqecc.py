import random

import pytest

from eaqmds.cosets import CycContext, all_cosets
from eaqmds.eaqecc import (
    EAQMDS,
    EQUALITY_WITHOUT_PRECONDITION,
    NOT_EAQMDS,
    check_split,
    decompose,
    eaqecc_params,
    eaqmds_status,
)
from eaqmds.exceptions import VerificationError
from eaqmds.families import (
    classify,
    entangled_window_set,
    family_defining_set,
    free_window_set,
    iter_family_sizes,
)

import coderef
from cosetref import defining_set, from_cosets


def _params(z):
    """The parameters of the code with defining set z, c from decompose(z)."""
    return eaqecc_params(z, len(decompose(z)))


def test_decompose_empty(ctx23):
    assert len(decompose(defining_set(ctx23, ()))) == 0


def test_decompose_toy(ctx7):
    # Z = {0,1,9}; -7Z = {0,3,7} mod 10, so the overlap is {0}
    z = from_cosets(ctx7, [0, 1])
    overlap = decompose(z)
    assert overlap.members == (0,)
    assert z.difference(overlap).members == (1, 9)


def test_decompose_family_overlap_size(spec23):
    z = family_defining_set(spec23, 2)
    assert len(decompose(z)) == 21


def _random_closed_sets(q, count, seed):
    ctx = CycContext.for_family(q)
    rng = random.Random(seed)
    reps = [c[0] for c in all_cosets(ctx)]
    for _ in range(count):
        yield from_cosets(ctx, [r for r in reps if rng.random() < 0.5])


@pytest.mark.parametrize("q", [7, 23, 32])
def test_decompose_invariants_fuzzed(q):
    # decompose() checks its own invariant on every call; this drives it
    # across 500 random coset-closed sets per field size and adds the
    # cross-module consistency checks on top
    for z in _random_closed_sets(q, 500, seed=q * 1001):
        c = len(decompose(z))
        # no ebits exactly when Z avoids -qZ: the code contains its Hermitian dual
        assert (c == 0) == z.isdisjoint(z.neg_q())
        assert len(decompose(z.neg_q())) == c
        if 0 < len(z) < z.ctx.n:
            assert eaqecc_params(z, c).k >= 0


def test_ebits_examples(ctx23, spec43):
    assert len(decompose(from_cosets(ctx23, [0]))) == 1
    assert len(decompose(family_defining_set(spec43, 2))) == 21
    assert len(decompose(family_defining_set(spec43, 4))) == 181


def test_eaqecc_params_golden(spec23, spec43):
    p = _params(family_defining_set(spec23, 2))
    assert (p.n, p.k, p.d, p.c) == (106, 33, 48, 21)
    assert p.singleton_equality and p.distance_precondition_ok

    p = _params(family_defining_set(spec43, 3))
    assert (p.n, p.k, p.d, p.c) == (370, 105, 174, 81)
    assert p.singleton_equality


def test_eaqecc_params_corrects_printed_q37_example():
    spec = classify(37)
    p = _params(family_defining_set(spec, 2))
    # two independent routes to the dimension: 2k-n+c and n+c-2(d-1)
    assert p.k == 2 * 199 - 274 + 21 == 274 + 21 - 2 * 75 == 145


def test_eaqmds_statuses(spec23, spec43, ctx23):
    good = _params(family_defining_set(spec23, 2))
    assert eaqmds_status(good) == EAQMDS

    beyond = _params(family_defining_set(spec43, 4))
    assert (beyond.n, beyond.k, beyond.d, beyond.c) == (370, 33, 260, 181)
    assert beyond.singleton_equality and not beyond.distance_precondition_ok
    assert eaqmds_status(beyond) == EQUALITY_WITHOUT_PRECONDITION

    # a lone pair coset gives strict inequality: n + c - k = 4 > 2 = 2(d-1)
    strict = _params(from_cosets(ctx23, [2]))
    assert not strict.singleton_equality
    assert eaqmds_status(strict) == NOT_EAQMDS


def test_single_coset_c0_gives_trivial_eaqmds(ctx7, ctx23):
    for ctx in (ctx7, ctx23):
        p = _params(from_cosets(ctx, [0]))
        assert (p.n, p.k, p.d, p.c) == (ctx.n, ctx.n - 1, 2, 1)
        assert eaqmds_status(p) == EAQMDS


def _split_verdict(check, whole, free, entangled):
    """None where check passes the split, else its message."""
    try:
        check(whole, free, entangled, "split")
    except VerificationError as exc:
        return str(exc)
    return None


def test_one_image_split_check_agrees_with_the_two_image_one():
    # at every family (q, m) with q <= 200, m >= 2: the window split, and
    # the split with C_1 alone or with its image C_q moved from the
    # entangled part to the free one, with the least free coset moved the
    # other way, and with C_0 dropped from the entangled part
    verdicts = set()
    for spec in iter_family_sizes(200):
        ctx = spec.context()
        c0, c1 = from_cosets(ctx, [0]), from_cosets(ctx, [1])
        pair = c1.union(c1.neg_q())
        for m in range(2, spec.m_max + 1):
            z = family_defining_set(spec, m)
            free, ent = free_window_set(spec, m), entangled_window_set(spec, m)
            least = from_cosets(ctx, free.members[:1])
            splits = [
                (free, ent),
                (free.union(c1), ent.difference(c1)),
                (free.union(pair), ent.difference(pair)),
                (free.difference(least), ent.union(least)),
                (free, ent.difference(c0)),
            ]
            for f, e in splits:
                want = _split_verdict(coderef.check_split, z, f, e)
                assert _split_verdict(check_split, z, f, e) == want, (spec.q.q, m)
                verdicts.add(want and want.rsplit(" ", 1)[1])
    # each outcome is met: a pass, and the partition, invariance and free checks failing
    assert verdicts == {None, "set", "-q-invariant", "image"}
