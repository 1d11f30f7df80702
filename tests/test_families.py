import pytest

from eaqmds.eaqecc import decompose
from eaqmds.exceptions import UsageError
from eaqmds.families import (
    FAMILY_IDS,
    classify,
    entangled_window_set,
    enumerate_family,
    family_defining_set,
    family_grid,
    free_window_set,
    iter_family_sizes,
    predicted_code,
    verify_family_code,
)

from cosetref import from_cosets


def test_classify_examples():
    spec = classify(23)
    assert (spec.family_id, spec.n, spec.m_max) == ("q10k3", 106, 2)
    spec = classify(128)
    assert (spec.family_id, spec.q.e, spec.m_max) == ("e3mod4", 7, 12)
    spec = classify(27)
    assert (spec.family_id, spec.q.p, spec.m_max) == ("q10k7", 3, 2)
    spec = classify(32)
    assert (spec.family_id, spec.m_max) == ("e1mod4", 3)
    assert classify(8).m_max == 0  # admissible shape but no valid m
    spec = classify(343)  # non-prime prime powers are admitted: 343 = 7^3
    assert (spec.family_id, spec.q.p, spec.q.e, spec.m_max) == ("q10k3", 7, 3, 34)


@pytest.mark.parametrize("q", [11, 33, 13, 17, 7, 2, 16])
def test_classify_rejections(q):
    with pytest.raises(ValueError, match=f"q={q}"):
        classify(q)


def test_rejection_reasons_name_the_cause():
    with pytest.raises(ValueError, match="divisible by 5"):
        classify(11)
    with pytest.raises(ValueError, match="not a prime power"):
        classify(33)
    with pytest.raises(ValueError, match="below the family minimum"):
        classify(13)
    with pytest.raises(ValueError, match="divisible by 5"):
        classify(16)  # e even forces q != +-2 mod 5
    with pytest.raises(ValueError, match="odd exponent"):
        classify(2)  # e=1 mod 4 requires e > 1


def test_family_defining_set_sizes(spec23, spec43):
    assert len(family_defining_set(spec23, 2)) == 47
    assert len(family_defining_set(spec43, 4)) == 1 + 2 * 3 * 43
    assert family_defining_set(spec43, 1).members == (0,)


def test_family_defining_set_range_errors(spec23):
    with pytest.raises(ValueError, match="valid m: 2..2"):
        family_defining_set(spec23, 3)
    with pytest.raises(ValueError):
        free_window_set(spec23, 1)  # windows need m >= 2


# -- the published window lists -------------------------------------------------


def test_free_windows_q23_m2_match_published_list(spec23):
    want = from_cosets(
        spec23.context(), [2, 3, 6, 7, 8, 11, 12, 15, 16, 17, 20, 21, 22]
    )
    assert free_window_set(spec23, 2) == want


def test_free_windows_q32_m2_match_published_list():
    spec = classify(32)
    reps = [*range(2, 6), *range(8, 12), *range(14, 19), *range(21, 25), *range(27, 32)]
    assert free_window_set(spec, 2) == from_cosets(spec.context(), reps)


def test_free_windows_q43_follow_the_stated_ranges(spec43):
    ctx = spec43.context()
    m2 = [*range(2, 8), *range(10, 17), *range(19, 25), *range(27, 34), *range(36, 43)]
    assert free_window_set(spec43, 2) == from_cosets(ctx, m2)
    m3 = []
    for s in (0, 1):
        m3 += [s * 43 + i for i in (*range(3, 7), *range(11, 16), *range(20, 24))]
    for t in (1, 2):
        m3 += [t * 43 - j for j in (*range(11, 16), *range(2, 7))]
    assert free_window_set(spec43, 3) == from_cosets(ctx, m3)


def test_free_windows_q37_m3_follow_the_stated_ranges():
    # the displayed q=37, m=3 list extends one j window to 13 where the
    # stated range ends at 12; with 13 included the free and entangled
    # windows would overlap, so the stated range governs here
    spec = classify(37)
    ctx = spec.context()
    reps = []
    for s in (0, 1):
        reps += [s * 37 + i for i in (*range(3, 6), *range(10, 13), *range(17, 21))]
    for t in (1, 2):
        reps += [t * 37 - j for j in (*range(10, 13), *range(2, 6))]
    free = free_window_set(spec, 3)
    assert free == from_cosets(ctx, reps)
    ent = entangled_window_set(spec, 3)
    z = family_defining_set(spec, 3)
    assert free.union(ent) == z and free.isdisjoint(ent)
    bad = from_cosets(ctx, list(reps) + [37 - 13, 2 * 37 - 13])
    assert not bad.isdisjoint(ent)


def test_entangled_windows_q23_m2(spec23):
    ent = entangled_window_set(spec23, 2)
    reps = [x for x in ent.members if 2 * x <= ent.ctx.n]
    assert reps == [0, 1, 4, 5, 9, 10, 13, 14, 18, 19, 23]
    assert len(ent) == 21
    assert ent == family_defining_set(spec23, 2).difference(free_window_set(spec23, 2))


def test_entangled_windows_sizes_and_invariance(spec43):
    assert len(entangled_window_set(spec43, 3)) == 81
    spec47 = classify(47)
    ent = entangled_window_set(spec47, 4)
    assert ent.neg_q() == ent


# -- predicted parameters ---------------------------------------------------------


def test_predicted_params_golden(spec43):
    p = predicted_code(spec43, 2)
    assert (p.n, p.k, p.d, p.c) == (370, 217, 88, 21)
    p = predicted_code(classify(47), 3)
    assert (p.n, p.k, p.d, p.c) == (442, 145, 190, 81)
    p = predicted_code(classify(128), 2)
    assert (p.n, p.k, p.d, p.c) == (3277, 2784, 258, 21)


def test_verify_family_code_golden(spec23):
    fc = verify_family_code(spec23, 2)
    assert fc.verified == predicted_code(spec23, 2)
    assert (fc.verified.n, fc.verified.k, fc.verified.d, fc.verified.c) == (106, 33, 48, 21)
    assert fc.errata_flags == ()


def test_verify_family_code_flags():
    fc = verify_family_code(classify(37), 2)
    assert "printed-dimension-mismatch(401)" in fc.errata_flags
    fc = verify_family_code(classify(128), 8)
    assert "distance-precondition-violated" in fc.errata_flags


def test_degenerate_m1():
    spec = classify(23)
    fc = verify_family_code(spec, 1, allow_degenerate=True)
    assert (fc.verified.n, fc.verified.k, fc.verified.d, fc.verified.c) == (106, 105, 2, 1)
    assert "degenerate-m1" in fc.errata_flags
    with pytest.raises(ValueError):
        verify_family_code(spec, 1)


def test_entangled_part_equals_window_complement_everywhere_small():
    # the checked windows that verify_family_code takes as its split must be
    # exactly Z \ -qZ and Z n -qZ, computed directly by decompose
    for spec, m in family_grid(200):
        fc = verify_family_code(spec, m)
        z = fc.defining_set
        overlap = decompose(z)
        assert entangled_window_set(spec, m) == overlap, (spec.q.q, m)
        assert free_window_set(spec, m) == z.difference(overlap), (spec.q.q, m)
        assert fc.verified.c == 20 * (m - 1) ** 2 + 1 == len(overlap)


def test_enumerate_family_grids():
    grid = enumerate_family("q10k3", 43)
    assert [(fc.spec.q.q, fc.m) for fc in grid] == [(23, 2), (43, 2), (43, 3), (43, 4)]
    assert [(fc.spec.q.q, fc.m) for fc in enumerate_family("e1mod4", 32)] == [(32, 2), (32, 3)]
    assert [(fc.spec.q.q, fc.m) for fc in enumerate_family("q10k7", 27)] == [(27, 2)]
    e3 = enumerate_family("e3mod4", 128)  # q=8 has m_max=0 and is skipped
    assert [(fc.spec.q.q, fc.m) for fc in e3] == [(128, m) for m in range(2, 13)]
    with pytest.raises(ValueError):
        enumerate_family("nope", 100)


def test_iter_family_sizes_is_one_ascending_pass():
    every = iter_family_sizes(200)
    qs = [spec.q.q for spec in every]
    assert qs == sorted(qs) and len(set(qs)) == len(qs)
    assert {s.family_id for s in every} == set(FAMILY_IDS)
    # it skips the q with 5 not dividing q^2 + 1 unclassified; classify,
    # tried on every q, accepts the same ones
    accepted = []
    for q in range(2, 1001):
        try:
            accepted.append(classify(q))
        except UsageError:
            pass
    assert iter_family_sizes(1000) == accepted
    # enumerate_family filters the one grid by family
    for fid in FAMILY_IDS:
        got = [(fc.spec, fc.m) for fc in enumerate_family(fid, 60)]
        assert got == [(s, m) for s, m in family_grid(60) if s.family_id == fid]


def test_family_grid_covers_all_families():
    pts = family_grid(50)
    qs = {spec.q.q for spec, _ in pts}
    assert qs == {23, 43, 27, 37, 47, 32}
    assert all(2 <= m <= spec.m_max for spec, m in pts)
