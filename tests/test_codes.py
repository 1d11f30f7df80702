import random

from hypothesis import given, settings
from hypothesis import strategies as st

from eaqmds.codes import bch_bound, dimension, longest_circular_run
from eaqmds.families import family_defining_set, free_window_set

import coderef
from cosetref import defining_set, from_cosets


def run_of(members, n):
    """longest_circular_run of any residues, written out as its bitmask."""
    return longest_circular_run(sum({1 << x % n for x in members}), n)


def test_dimension_examples(ctx23, spec23, spec43):
    assert dimension(defining_set(ctx23, ())) == 106
    assert dimension(family_defining_set(spec23, 2)) == 106 - 47
    assert dimension(family_defining_set(spec43, 2)) == 370 - 87


def test_bch_bound_examples(ctx23, spec23):
    assert bch_bound(from_cosets(ctx23, [0])) == 2
    # the family block {83..105, 0..23} is one circular run of 47
    z = family_defining_set(spec23, 2)
    assert bch_bound(z) == 48
    # non-adjacent cosets {2, 104} and {4, 102}: no run longer than 1
    assert bch_bound(from_cosets(ctx23, [2, 4])) == 2


def test_bch_bound_conventions(ctx23):
    assert bch_bound(defining_set(ctx23, ())) == 1
    assert bch_bound(defining_set(ctx23, range(ctx23.n))) == 107


@settings(max_examples=80, deadline=None)
@given(
    members=st.sets(st.integers(0, 59), max_size=25),
    shift=st.integers(0, 59),
)
def test_run_length_invariant_under_shift_and_negation(members, shift):
    n = 60
    base = run_of(members, n)
    assert run_of({(x + shift) % n for x in members}, n) == base
    assert run_of({(-x) % n for x in members}, n) == base


def naive_longest_run(members, n):
    residues = {x % n for x in members}
    best = 0
    for start in residues:
        length = 0
        while length < n and (start + length) % n in residues:
            length += 1
        best = max(best, length)
    return best


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_longest_run_matches_naive_loop(data):
    n = data.draw(st.integers(1, 60))
    members = data.draw(st.lists(st.integers(-3 * n, 3 * n), max_size=2 * n))
    assert run_of(members, n) == naive_longest_run(members, n)


def test_longest_run_edge_cases():
    for n in range(1, 61):
        assert run_of([], n) == 0
        assert run_of(range(n), n) == n
        assert run_of(range(-n, 2 * n), n) == n  # repeated residues
        for k in range(n + 1):
            # an arc of length k across 0 wraps around for 2 <= k < n
            arc = [n - k // 2 + j for j in range(k)]
            assert run_of(arc, n) == k == naive_longest_run(arc, n)
        if n >= 2:
            assert run_of(range(1, n), n) == n - 1


def test_longest_run_matches_the_string_reference():
    # random masks of densities 1/8, 1/2, 7/8 and 31/32, the empty and the
    # full mask, and the full mask less one bit, whose run wraps around
    rng = random.Random(7450)
    for n in [*range(1, 71), 106, 370, 7450, 7762]:
        full = (1 << n) - 1
        masks = [0, full, full ^ 1 << rng.randrange(n)]
        for _ in range(8):
            a, b, c = (rng.getrandbits(n) for _ in range(3))
            masks += [a & b & c, a, a | b | c, a | b | c | rng.getrandbits(n) | rng.getrandbits(n)]
        for mask in masks:
            want = coderef.longest_circular_run(mask, n)
            assert longest_circular_run(mask, n) == want, (n, mask)


def test_single_runs_match_the_string_reference():
    # one run is answered by its popcount: every run of 1 .. n-1 residues at
    # every start for n <= 40, those through bit n-1 and bit 0 included, and
    # random ones at the family lengths of q = 23, 43 and 197
    rng = random.Random(7762)
    cases = [(n, length, start) for n in range(2, 41) for length in range(1, n) for start in range(n)]
    cases += [(n, rng.randrange(1, n), rng.randrange(n)) for n in (106, 370, 7762) for _ in range(40)]
    for n, length, start in cases:
        arc = ((1 << length) - 1) << start
        mask = (arc | arc >> n) & ((1 << n) - 1)
        want = coderef.longest_circular_run(mask, n)
        assert longest_circular_run(mask, n) == length == want, (n, length, start)


def test_longest_run_on_either_side_of_the_one_run_test():
    # the empty and the full set, two runs of equal length (alone, and one
    # of them through bit n-1 and bit 0), and a run through bit n-1 and
    # bit 0 beside a shorter one; up to n = 198,802, the largest family
    # modulus (q = 997)
    for n in (13, 106, 370, 7762, 198802):
        k = n // 5
        two = (1 << k) - 1 << 1 | (1 << k) - 1 << n // 2
        wrap = (1 << k) - 1 << n - k // 2 & (1 << n) - 1 | (1 << k - k // 2) - 1
        for mask in (0, (1 << n) - 1, two, wrap, wrap | 1 << n // 2, wrap | (1 << k) - 1 << n // 2):
            want = coderef.longest_circular_run(mask, n)
            assert longest_circular_run(mask, n) == want, (n, mask)


def _mds_certificate(z):
    """(n, k, designed distance, whether it meets Singleton: d = n - k + 1)."""
    n, k, d = z.ctx.n, dimension(z), bch_bound(z)
    return n, k, d, d == n - k + 1


def _hermitian_dual_containing(z):
    """The code contains its Hermitian dual iff Z and -qZ are disjoint."""
    return not z.mask & z.neg_q().mask


def test_mds_certificates(ctx23, spec23, spec43):
    assert _mds_certificate(family_defining_set(spec23, 2)) == (106, 59, 48, True)
    assert _mds_certificate(family_defining_set(spec43, 3)) == (370, 197, 174, True)
    _n, _k, d, is_mds = _mds_certificate(from_cosets(ctx23, [0, 2]))
    assert not is_mds and d == 2


def test_hermitian_dual_containing(ctx23, spec23):
    assert _hermitian_dual_containing(defining_set(ctx23, ()))
    # the five-window free set really avoids its -q image
    assert _hermitian_dual_containing(free_window_set(spec23, 2))
    # the full family block does not (its overlap is the 21 ebits)
    assert not _hermitian_dual_containing(family_defining_set(spec23, 2))


def test_dual_containment_matches_zero_ebits(ctx7):
    # cross-module consistency spot check; the fuzz version lives with the
    # decompose tests
    from eaqmds.eaqecc import decompose

    for reps in ([], [1], [1, 2], [0, 1]):
        z = from_cosets(ctx7, reps)
        assert _hermitian_dual_containing(z) == (len(decompose(z)) == 0)
