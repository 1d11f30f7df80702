import random
from itertools import compress, count, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqmds.cosets import (
    CycContext,
    DefiningSet,
    all_cosets,
    identity_windows,
    neg_q_map,
    neg_q_misses,
)
from eaqmds import cosets, families
from eaqmds.families import (
    entangled_window_set,
    family_defining_set,
    free_window_set,
    iter_family_sizes,
)
from cosetref import (
    block_by_runs,
    coset,
    coset_product_identity,
    cosets_one_by_one,
    defining_set,
    expand,
    from_cosets,
    identity_pairs,
    inverse_identity_pairs,
    neg_q_maps,
    window_union_by_runs,
)


def test_context_validation():
    with pytest.raises(ValueError):
        CycContext(10, 5)  # gcd != 1
    with pytest.raises(ValueError):
        CycContext.for_family(11)  # 122 is not divisible by 5
    ctx = CycContext.for_family(23)
    assert ctx.n == 106
    assert ctx.q * ctx.q % ctx.n == ctx.n - 1


def test_cosets_q23(ctx23):
    cs = all_cosets(ctx23)
    assert cs[0] == (0,)
    assert cs[1] == (1, 105)
    assert cs[53] == (53,)  # the midpoint (q^2+1)/10
    assert next(c for c in cs if 105 in c)[0] == 1


def _random_contexts(count):
    """count seeded coprime (n, q) with n <= 500, most of them off the
    family moduli, where orbits can be longer than 2."""
    rng, out = random.Random(2718), []
    while len(out) < count:
        n, q = rng.randrange(1, 501), rng.randrange(2, 100)
        if gcd(n, q) == 1:
            out.append(CycContext(n, q))
    return out


# every family modulus with q <= 60, 4 of order 5 mod 31, 9 = 1 mod 8 (all
# singletons), n = 1 (where q^2 = 0 mod n), 9 = 1 mod 2, 4 mod 35 (a fixed
# point and orbits of length 2, 3 and 6 in one modulus), and random moduli
SCALAR_CONTEXTS = [
    *(spec.context() for spec in iter_family_sizes(60)),
    CycContext(31, 2),
    CycContext(8, 3),
    CycContext(1, 2),
    CycContext(2, 3),
    CycContext(35, 2),
    *_random_contexts(30),
]


def test_all_cosets_matches_the_scalar_orbit_walk():
    # all_cosets walks every orbit through one list of images; the
    # reference walks one orbit per residue by arithmetic
    longer = 0
    for ctx in SCALAR_CONTEXTS:
        got = all_cosets(ctx)
        assert got == cosets_one_by_one(ctx), ctx
        longer += max(map(len, got)) > 2
    assert longer >= 20


def test_neg_q_map_matches_the_elementwise_images():
    for ctx in SCALAR_CONTEXTS:
        assert neg_q_map(ctx) == [-ctx.q * x % ctx.n for x in range(ctx.n)], ctx


def _times_by_path(monkeypatch, cases):
    """Each (n, a) of cases with its table by cosets._times and the path
    that built it: "map" where it counted through count(0, a), else
    "slices"."""
    counted = []
    monkeypatch.setattr(cosets, "count", lambda *args: counted.append(args) or count(*args))
    out = []
    for n, a in cases:
        before = len(counted)
        out.append((n, a, cosets._times(n, a), "map" if len(counted) > before else "slices"))
    return out


def test_times_matches_the_elementwise_products_for_every_small_modulus(monkeypatch):
    rng = random.Random(1414)
    cases = [
        (n, a)
        for n in range(1, 301)
        for a in {0, 1, -1, 2, -2, n, -n, n // 2, -(n // 2), n // 24, -(n // 24),
                  *(rng.randrange(-3 * n, 3 * n + 1) for _ in range(6))}
    ]
    paths = set()
    for n, a, table, path in _times_by_path(monkeypatch, cases):
        assert table == [a * x % n for x in range(n)], (n, a)
        paths.add(path)
    assert paths == {"map", "slices"}


def test_times_matches_the_elementwise_products_across_the_crossover(monkeypatch):
    # a multiplier of about +-n/run makes runs of about run residues: runs
    # of 2 and of 1000 take one path each, and the path changes at 24; then
    # the q^2 and -q tables of three family moduli (q = 8, 23 and 293)
    cases = [(n, s * (n // run + d)) for n in (18_001, 200_000) for run in (2, 24, 1000)
             for d in (-1, 0, 1) for s in (1, -1)]
    cases += [(n, a) for n, q in ((13, 8), (106, 23), (17_170, 293)) for a in (q * q, -q)]
    seen = {}
    for n, a, table, path in _times_by_path(monkeypatch, cases):
        assert table == [a * x % n for x in range(n)], (n, a)
        seen.setdefault(n, set()).add(path)
    assert seen[18_001] == seen[200_000] == {"map", "slices"}


def test_all_cosets_partition_counts(ctx7, ctx23, ctx32):
    cs23 = all_cosets(ctx23)
    assert len(cs23) == 54
    assert sorted(len(c) for c in cs23).count(1) == 2  # {0} and {53}
    assert sum(len(c) for c in cs23) == 106

    cs7 = all_cosets(ctx7)
    assert len(cs7) == 6
    assert {c for c in cs7 if len(c) == 1} == {(0,), (5,)}

    cs32 = all_cosets(ctx32)  # n = 205 odd: no midpoint singleton
    assert len(cs32) == 103
    assert sum(1 for c in cs32 if len(c) == 1) == 1


def test_every_coset_is_a_conjugate_pair(ctx23, ctx32):
    for ctx in (ctx23, ctx32):
        for c in all_cosets(ctx):
            assert set(c) == {c[0], (ctx.n - c[0]) % ctx.n}


def test_neg_q_map_examples(ctx23):
    assert from_cosets(ctx23, [0]).neg_q().members == (0,)
    # -23*2 = 60, -23*104 = 46 (mod 106)
    assert from_cosets(ctx23, [2]).neg_q().members == (46, 60)


def coset_closed_sets(ctx):
    reps = sorted({c[0] for c in all_cosets(ctx)})
    return st.sets(st.sampled_from(reps)).map(
        lambda chosen: from_cosets(ctx, chosen)
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_neg_q_is_a_cardinality_preserving_involution(data):
    ctx = CycContext.for_family(23)
    z = data.draw(coset_closed_sets(ctx))
    img = z.neg_q()  # construction itself revalidates coset closure
    assert len(img) == len(z)
    assert img.neg_q() == z


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_set_algebra_preserves_closure(data):
    ctx = CycContext.for_family(23)
    a = data.draw(coset_closed_sets(ctx))
    b = data.draw(coset_closed_sets(ctx))
    assert a.overlap().neg_q() == a.overlap()
    assert len(a.difference(a)) == 0
    for combined in (a.union(b), a.overlap(), a.difference(b)):
        defining_set(ctx, combined.members)  # would raise if closure broke


# the family contexts at q = 7, 23, 32, 43: every coset is {i, n-i}, so
# sets close by reflection and -q maps by strided slices
KERNEL_CONTEXTS = {
    "q7": CycContext.for_family(7),
    "q23": CycContext.for_family(23),
    "q32": CycContext.for_family(32),
    "q43": CycContext.for_family(43),
}


def naive_union_of_cosets(ctx, reps):
    out = set()
    for r in reps:
        out.update(coset(ctx, r))
    return out


@pytest.mark.parametrize("name", sorted(KERNEL_CONTEXTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_set_kernels_match_naive_reference(name, data):
    ctx = KERNEL_CONTEXTS[name]
    n, q = ctx.n, ctx.q
    reps = st.lists(st.integers(-2 * n, 2 * n), max_size=n)
    reps_a, reps_b = data.draw(reps), data.draw(reps)
    a, b = from_cosets(ctx, reps_a), from_cosets(ctx, reps_b)
    ra, rb = naive_union_of_cosets(ctx, reps_a), naive_union_of_cosets(ctx, reps_b)
    # a range of representatives, even one that leaves 0..n-1, is marked
    # element by element like any other iterable
    ends = st.integers(-n, 2 * n)
    run = range(data.draw(ends), data.draw(ends), data.draw(st.integers(1, 3)))
    everything = set(range(n))
    full = defining_set(ctx, everything)
    cases = (
        (a, ra),
        (a.union(b), ra | rb),
        (a.overlap(), ra & {(-q * x) % n for x in ra}),
        (a.difference(b), ra - rb),
        (full.difference(a), everything - ra),
        (a.neg_q(), {(-q * x) % n for x in ra}),
        (full.difference(a).neg_q(), {(-q * x) % n for x in everything - ra}),
        (from_cosets(ctx, run, reps_b), naive_union_of_cosets(ctx, [*run, *reps_b])),
        (defining_set(ctx, ()), set()),
        (defining_set(ctx, range(n)), everything),
    )
    for got, want in cases:
        assert got.members == tuple(sorted(want))
        assert len(got) == len(want)
        assert defining_set(ctx, got.members) == got  # the checked reference agrees


@st.composite
def run_families(draw, n):
    """One (start, length, period, count) inside 0..n-1 without overlaps,
    empty families included: length <= period when count > 1, and start
    drawn up to the largest that keeps last = n - 1."""
    period = draw(st.integers(1, n))
    count = draw(st.integers(0, max(1, n // period)))
    length = draw(st.integers(0, period if count > 1 else n))
    span = (count - 1) * period + length if length and count else 0
    start = draw(st.sampled_from([0, n - span]) | st.integers(0, n - span))
    return start, length, period, count


@pytest.mark.parametrize("name", sorted(KERNEL_CONTEXTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_from_runs_matches_naive_reference(name, data):
    ctx = KERNEL_CONTEXTS[name]
    runs = data.draw(st.lists(run_families(ctx.n), max_size=4))
    reps = [
        start + k * period + j
        for start, length, period, count in runs
        for k in range(count)
        for j in range(length)
    ]
    z = DefiningSet.from_runs(ctx, runs)
    assert z.members == tuple(sorted(naive_union_of_cosets(ctx, reps)))
    assert defining_set(ctx, z.members) == z  # the checked reference agrees


@pytest.mark.parametrize("name", sorted(KERNEL_CONTEXTS))
def test_from_runs_edge_families(name):
    # start 0 (whose reflection lands on bit n), last = n - 1, touching runs
    # (length = period), one run, the whole of Z_n and empty families
    ctx = KERNEL_CONTEXTS[name]
    n, q = ctx.n, ctx.q
    for runs in (
        [(0, 1, 1, 1)],
        [(0, q, q, n // q)],
        [(n - 3, 3, 5, 1)],
        [(n % q, q, q, n // q)],
        [(2, 1, q, 1)],
        [(0, n, 1, 1)],
        [(0, 0, 1, 1), (5, 3, 4, 0), (n - 1, -2, 1, 1)],
        [],
    ):
        reps = [s + k * p + j for s, length, p, c in runs for k in range(c) for j in range(length)]
        want = tuple(sorted(naive_union_of_cosets(ctx, reps)))
        assert DefiningSet.from_runs(ctx, runs).members == want, runs


@pytest.mark.parametrize(
    "runs",
    [
        [(0, 4, 3, 2)],  # runs of length 4 every 3 overlap
        [(0, 2, 1, 2)],
        [(100, 7, 1, 1)],  # last = 106 = n
        [(0, 2, 53, 3)],  # last = 107
        [(-1, 2, 3, 1)],  # start < 0
        [(1, 1, 1, 1), (-5, 1, 1, 1)],  # a later family refused
    ],
)
def test_from_runs_refuses_overlaps_and_families_outside_z_n(ctx23, runs):
    with pytest.raises(ValueError, match=r"overlap or leave Z_106"):
        DefiningSet.from_runs(ctx23, runs)


def test_window_sets_and_blocks_match_the_per_run_unions(monkeypatch):
    # each window family by one multiply, against one range of
    # representatives per window and s or t, united by from_cosets
    points = [(spec, m) for spec in iter_family_sizes(200) for m in range(1, spec.m_max + 1)]
    got = {}
    for spec, m in points:
        got[spec.q.q, m] = family_defining_set(spec, m)
        if m >= 2:
            got[spec.q.q, m, "free"] = free_window_set(spec, m)
            got[spec.q.q, m, "entangled"] = entangled_window_set(spec, m)
    monkeypatch.setattr(families, "_window_union", window_union_by_runs)
    for spec, m in points:
        assert got[spec.q.q, m] == block_by_runs(spec, m), (spec.q.q, m)
        if m >= 2:
            assert got[spec.q.q, m, "free"] == free_window_set(spec, m), (spec.q.q, m)
            assert got[spec.q.q, m, "entangled"] == entangled_window_set(spec, m), (spec.q.q, m)
    assert len(got) == 623  # 23 blocks at m = 1, and 3 sets at each of the 200 points


@pytest.mark.parametrize("name", ["q7", "q23", "q32"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_plus_q_equals_minus_q_on_family_contexts(name, data):
    # q*{i, n-i} = {qi, -qi} = -q*{i, n-i}: on a family context no check
    # can tell the two maps apart
    ctx = KERNEL_CONTEXTS[name]
    z = data.draw(coset_closed_sets(ctx))
    assert set(z.neg_q().members) == {ctx.q * x % ctx.n for x in z.members}


def test_neg_q_of_family_blocks_and_their_parts_matches_elementwise():
    # the block, its overlap with its -q image and its free part, mapped by
    # strided slices, against -q element by element
    for spec in iter_family_sizes(200):
        ctx, q = spec.context(), spec.q.q
        for m in range(1, spec.m_max + 1):
            z = family_defining_set(spec, m)
            overlap = z.overlap()
            for part in (z, overlap, z.difference(overlap)):
                want = tuple(sorted(-q * x % ctx.n for x in part.members))
                assert part.neg_q().members == want, (q, m, len(part))


def test_overlap_reads_the_rows_of_every_family_set():
    # overlap reads only the image rows that hold members; on the block at
    # every m, m = 1 included, and both window sets at every m >= 2, it must
    # give the mask of the whole image ANDed with the set
    checked = 0
    for spec in iter_family_sizes(400):
        for m in range(1, spec.m_max + 1):
            sets = [family_defining_set(spec, m)]
            if m >= 2:
                sets += [free_window_set(spec, m), entangled_window_set(spec, m)]
            for z in sets:
                assert z.overlap().mask == z.mask & z.neg_q().mask, (spec.q.q, m, len(z))
                checked += 1
    assert checked == 2395  # 827 blocks (43 at m = 1; q = 8 has no m) and 2 window sets at 784 points


@pytest.mark.parametrize("q", [7, 8, 23, 32, 43])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_overlap_matches_the_whole_image_on_closed_sets(q, data):
    z = data.draw(coset_closed_sets(CycContext.for_family(q)))
    assert z.overlap().mask == z.mask & z.neg_q().mask


def test_overlap_is_exact_on_unclosed_masks():
    # masks wrapped by _closed without being closed: the spans come from
    # the mask itself, so the read must be exact on these too.  The low
    # span ends at row t//q for t the largest member <= n//2, put at
    # k*q - 1 and k*q; the high span starts at row u//q for u the least
    # member above n//2, put the same way; n/2 itself is low when n is even
    for q in (7, 8, 23, 27, 32, 43, 197):
        ctx = CycContext.for_family(q)
        n, half = ctx.n, ctx.n // 2
        full = (1 << n) - 1
        above = full >> half + 1 << half + 1
        masks = [0, 1, full, full ^ 1, above, 1 << half + 1, 1 << n - 1]
        for x in {k * q + d for k in range(n // q + 1) for d in (-1, 0)} & set(range(n)):
            masks += [1 << x, 1 << x | 1, 1 << x | 1 << n - 1, 1 << x | above, 1 << x | full >> n - x]
        if n % 2 == 0:
            masks += [1 << half, 1 << half | 1 << half + 1, 1 << half | above]
        for mask in masks:
            z = DefiningSet._closed(ctx, mask)
            assert z.overlap().mask == mask & z.neg_q().mask, (q, mask)


def test_neg_q_matches_elementwise_on_random_sets_of_every_modulus():
    # every modulus n > 2 of a context with q^2 = -1 (mod n), q < 60, three
    # random closed sets each, and one at each family modulus with
    # 60 <= q <= 997, against -q element by element
    rng = random.Random(997)
    points = [
        (CycContext(n, q), 3)
        for q in range(2, 60)
        for n in range(3, q * q + 2)
        if (q * q + 1) % n == 0 and gcd(n, q) == 1
    ]
    points += [(spec.context(), 1) for spec in iter_family_sizes(997) if spec.q.q >= 60]
    coin = bytes(b < 64 for b in range(256))  # a random byte to a bit set 1 time in 4
    checked = 0
    for ctx, sets in points:
        n, q = ctx.n, ctx.q
        for _ in range(sets):
            z = from_cosets(ctx, compress(range(n), rng.randbytes(n).translate(coin)))
            assert z.neg_q() == from_cosets(ctx, [-q * x for x in z.members]), ctx
            assert z.overlap().mask == z.mask & z.neg_q().mask, ctx
            checked += 1
    assert checked == 686  # 3 at each of 201 moduli with q < 60, 1 at each of 83 family moduli


def test_set_algebra_examples(ctx7, ctx23):
    c2, c3 = from_cosets(ctx23, [2]), from_cosets(ctx23, [3])
    assert len(c2.union(c3)) == 4
    z = from_cosets(ctx7, [0, 1])  # {0, 1, 9}
    assert z.overlap().members == (0,)  # -7*{0,1,9} = {0,3,7} mod 10


def test_mismatched_contexts_raise(ctx7, ctx23):
    with pytest.raises(ValueError):
        DefiningSet.from_runs(ctx7, ()).union(DefiningSet.from_runs(ctx23, ()))


def test_closure_is_validated(ctx23):
    # the checked reference constructor, which the set kernels are compared with
    with pytest.raises(ValueError, match=r"1 in, 105 out"):
        defining_set(ctx23, [1])  # orbit of 1 also contains 105


def test_defining_sets_need_q_squared_minus_one():
    # off the family moduli cosets are longer than {i, n-i}, so closing by
    # reflection and mapping -q by strided slices would be wrong: no set is
    # made there.  4 has order 5 mod 31; every coset mod 8 is a singleton
    with pytest.raises(ValueError, match=r"n=31, q=2"):
        DefiningSet.from_runs(CycContext(31, 2), ())
    with pytest.raises(ValueError, match=r"n=8, q=3"):
        DefiningSet.from_runs(CycContext(8, 3), [(0, 1, 1, 1)])


def test_from_cosets_unites_whole_cosets(ctx23):
    z = from_cosets(ctx23, [0, 1, 105, 2])
    assert z.members == (0, 1, 2, 104, 105)
    full = defining_set(ctx23, range(ctx23.n))
    rest = full.difference(z)
    assert len(rest) == 106 - 5
    assert z.union(rest) == full and z.isdisjoint(rest)


# -- the reflection identity -q C_{sq+i} = C_{iq-s} ------------------------------


def test_identity_examples(ctx23):
    # (s, i) = (0, 2): -q C_2 = C_46; (1, 3): -q C_26 = C_68 = {38, 68}
    assert neg_q_misses(ctx23, [2, 26], [46, 68]) == []
    assert coset_product_identity(ctx23, 0, 2) and coset_product_identity(ctx23, 1, 3)
    assert all_cosets(ctx23)[38] == (38, 68)
    ctx37 = CycContext.for_family(37)
    assert neg_q_misses(ctx37, [1], [37]) == [] and coset_product_identity(ctx37, 0, 1)
    # a target moved by one is a miss, named by its position
    assert neg_q_misses(ctx23, [2, 26], [46, 69]) == [1]


@pytest.mark.parametrize("q", [23, 43, 37, 47, 32, 128])
def test_identity_holds_on_all_stated_windows(q):
    ctx = CycContext.for_family(q)
    pairs = expand(identity_windows(q))
    assert all(coset_product_identity(ctx, s, i) for s, i in pairs), q
    assert neg_q_misses(ctx, [s * q + i for s, i in pairs], [i * q - s for s, i in pairs]) == []
    assert len(pairs) > 0


def _stated_inverse_windows(q, with_offset):
    """The (t, j) windows of the q = 3, 8 (mod 10) shape written out from
    their stated bounds, the middle window 2 higher in the offset reading."""
    hi1 = (3 * q - 9) // 10
    lo2 = (2 * q + 4) // 5 + (2 if with_offset else 0)
    hi2 = (3 * q - 4) // 5
    jmax = (q - 3) // 10
    ts = [*range(1, hi1 + 1), *range(lo2, hi2 + 1)]
    return [(t, j) for j in range(jmax) for t in ts] + [(t, jmax) for t in range(1, hi1 + 1)]


def _lemma_passes(monkeypatch, q):
    """The (src, dst) pairs that verify_lemmas hands neg_q_misses at q alone
    (none where q is in no family), split into its three passes over the
    same rows: forward, inverse as stated, inverse with the offset."""
    specs = [spec for spec in iter_family_sizes(q) if spec.q.q == q]
    honest, calls = families.neg_q_misses, []

    def recording(ctx, src, dst):
        calls.append(list(zip(src, dst)))
        return honest(ctx, src, dst)

    monkeypatch.setattr(families, "iter_family_sizes", lambda q_max: specs)
    monkeypatch.setattr(families, "neg_q_misses", recording)
    families.verify_lemmas(q)
    third = len(calls) // 3
    assert len(calls) == 3 * third, q
    return [[pair for call in calls[k * third:(k + 1) * third] for pair in call] for k in range(3)]


@pytest.mark.parametrize("q", [23, 43, 37, 32, 128])
@pytest.mark.parametrize("with_offset", [False, True])
def test_inverse_identity_holds_on_both_window_readings(monkeypatch, q, with_offset):
    # the two circulating window readings differ by an offset of 2 in one
    # bound; the identity holds on both, so neither is flagged as wrong
    ctx = CycContext.for_family(q)
    pairs = _lemma_passes(monkeypatch, q)[1 + with_offset]
    assert pairs == [(t * q - j, j * q + t) for t, j in inverse_identity_pairs(q, with_offset)]
    assert all(neg_q_maps(ctx, src, dst) for src, dst in pairs)
    assert neg_q_misses(ctx, *zip(*pairs)) == []


@pytest.mark.parametrize("q", [3, 8, 23, 43, 128, 293, 983])
@pytest.mark.parametrize("with_offset", [False, True])
def test_inverse_windows_follow_the_stated_bounds(monkeypatch, q, with_offset):
    # the inverse passes of verify_lemmas read the forward windows backward;
    # both readings must still give the stated windows, in the same order
    # (none at q = 3, which is in no family and whose stated windows are empty)
    got = _lemma_passes(monkeypatch, q)[1 + with_offset]
    assert got == [(t * q - j, j * q + t) for t, j in _stated_inverse_windows(q, with_offset)]


def test_window_rows_expand_to_the_scalar_window_pairs(monkeypatch):
    # verify_lemmas walks identity_windows three times: the forward identity
    # (src = s*q + i, dst = i*q - s), then the inverse identity (src =
    # t*q - j, dst = j*q + t) as stated and with the middle window of the
    # q = 3, 8 (mod 10) shape 2 higher; every pair it hands the real check
    # is recorded, in order, per q, and each row stands for its scalar pairs
    honest, passed = families.neg_q_misses, {}

    def recording(ctx, src, dst):
        passed.setdefault(ctx.q, []).extend(zip(src, dst))
        return honest(ctx, src, dst)

    monkeypatch.setattr(families, "neg_q_misses", recording)
    counts = families.verify_lemmas(300)
    total = 0
    for spec in iter_family_sizes(300):
        q = spec.q.q
        forward = [(s * q + i, i * q - s) for s, i in identity_pairs(q)]
        plain, offset = (
            [(t * q - j, j * q + t) for t, j in inverse_identity_pairs(q, with_offset)]
            for with_offset in (False, True)
        )
        got = passed.pop(q)
        assert got == forward + plain + offset, q
        if q % 10 in (3, 8):
            for with_offset, pairs in ((False, plain), (True, offset)):
                stated = _stated_inverse_windows(q, with_offset)
                assert pairs == [(t * q - j, j * q + t) for t, j in stated], (q, with_offset)
        total += len(got)
    assert passed == {}
    assert total == counts["identity checks"] == 134_351


def test_identity_window_membership_q23():
    wins = set(expand(identity_windows(23)))
    assert (0, 2) in wins and (1, 3) in wins and (2, 6) in wins
    assert (0, 7) not in wins  # in the gap between the stated ranges
    assert (2, 10) not in wins  # the last s value only allows the low range


def test_one_orbit_reflection_check_matches_two_orbits():
    # every forward and inverse window pair of the family q <= 120, with the
    # target moved by -1, 0 and +1: the reflection check (the +-dst test on
    # these moduli) must give the two-orbit answer, and some moved target
    # must fail at every q
    pairs = 0
    for spec in iter_family_sizes(120):
        q = spec.q.q
        ctx = CycContext.for_family(q)
        forward = [(s * q + i, i * q - s) for s, i in expand(identity_windows(q))]
        inverse = [(dst, src) for src, dst in forward]
        moved = [(src, dst + d) for src, dst in forward + inverse for d in (-1, 0, 1)]
        src, dst = zip(*moved)
        misses = [k for k, (a, b) in enumerate(moved) if not neg_q_maps(ctx, a, b)]
        assert neg_q_misses(ctx, src, dst) == misses, q
        assert misses, q
        pairs += len(moved)
    assert pairs == 21_372


def _misses_by_comprehension(ctx, src, dst):
    """neg_q_misses as one comprehension over the zipped residues."""
    n, q = ctx.n, ctx.q
    return [k for k, a, b in zip(count(), src, dst) if (b - q * a) % n and (b + q * a) % n]


# each argument of neg_q_misses as a range, where it is one, and as a list,
# a tuple and a one-shot generator
FORMS = {
    "range": lambda xs: xs if isinstance(xs, range) else None,
    "list": list,
    "tuple": tuple,
    "generator": lambda xs: (x for x in xs),
}


def _windows(ctx, rng):
    """(src, dst) windows of one family context: the forward identity
    windows as ranges (src of step 1), swapped (src of step q, as in the
    inverse identity), reversed to negative steps and moved off target;
    residues that hit by both branches, or by either or neither; empty
    windows; and random residues."""
    n, q = ctx.n, ctx.q
    out = []
    for s, row in identity_windows(q):
        for lo, hi in row:
            src, dst = range(s * q + lo, s * q + hi + 1), range(lo * q - s, hi * q - s + 1, q)
            out += [(src, dst), (dst, src), (src[::-1], dst[::-1]), (src, [b + 1 for b in dst])]
    mixed = [rng.randrange(-n, 2 * n) for _ in range(40)]
    out.append((mixed, [q * a * rng.choice((1, -1)) for a in mixed]))
    moved = [q * a * rng.choice((1, -1)) + rng.choice((0, 0, 1)) for a in mixed]
    out += [(mixed, moved), (range(0), range(0)), ([], [])]
    out += [([rng.randrange(-2 * n, 2 * n) for _ in range(60)],
             [rng.randrange(-2 * n, 2 * n) for _ in range(60)]) for _ in range(3)]
    return out


@pytest.mark.parametrize("q", [8, 23, 27, 32, 43])
def test_neg_q_misses_matches_the_comprehension_and_two_orbits(q):
    ctx, rng = CycContext.for_family(q), random.Random(q)
    for src, dst in _windows(ctx, rng):
        want = _misses_by_comprehension(ctx, src, dst)
        assert want == [k for k, ab in enumerate(zip(src, dst)) if not neg_q_maps(ctx, *ab)]
        for (fs, to_src), (fd, to_dst) in product(FORMS.items(), repeat=2):
            a, b = to_src(src), to_dst(dst)
            if a is not None and b is not None:
                assert neg_q_misses(ctx, a, b) == want, (q, fs, fd, src, dst)


@pytest.mark.parametrize(
    ("src", "dst"), [(range(5), range(0)), ([1, 2, 3], [1]), (range(2), [46, 68, 70])]
)
def test_neg_q_misses_refuses_windows_of_different_lengths(ctx23, src, dst):
    # read in step, the longer window would keep residues that nothing checks
    with pytest.raises(ValueError, match=f"differ in length: {len(src)} != {len(dst)}"):
        neg_q_misses(ctx23, src, dst)


@pytest.mark.parametrize("ctx", [CycContext.for_family(23)], ids=["q23"])
def test_both_reflection_branches_match_two_orbits_on_every_pair(ctx):
    # q^2 = -1 (mod 106): the +-dst comparison against the two orbits
    every = list(product(range(ctx.n), repeat=2))
    maps = [neg_q_maps(ctx, src, dst) for src, dst in every]
    src, dst = zip(*every)
    assert neg_q_misses(ctx, src, dst) == [k for k, hit in enumerate(maps) if not hit]
    # each src maps onto the |C| members of one coset C: sum of |C|^2
    assert sum(maps) == sum(len(c) ** 2 for c in all_cosets(ctx))
