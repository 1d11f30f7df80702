import functools
import hashlib
import inspect
import itertools
import random
import textwrap
from collections import Counter
from math import isqrt
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqmds import crosscheck, gf, oracle
from eaqmds.cli import main
from eaqmds.codes import dimension
from eaqmds.cosets import CycContext, all_cosets
from eaqmds.eaqecc import decompose
from eaqmds.exceptions import VerificationError
from eaqmds.families import family_defining_set, verify_family_code
from eaqmds.gf import FieldTower, field_tower
from eaqmds.primes import is_prime
from eaqmds.oracle import (
    check_ebits,
    code_polynomials,
    convolve,
    generator_polynomial,
    hh_dagger,
    toeplitz_rank,
)
from cosetref import coset, defining_set, from_cosets
from matref import (
    BUDGET_EXCEEDED,
    TABLE_FIELDS,
    MatrixGF,
    PrimeField,
    _min_weight_by_codewords,
    _min_weight_by_supports,
    conjugate_transpose,
    exhaustive_min_distance,
    field,
    matmul,
    rank,
    rowspace_defining_set,
    square_and_multiply,
    toeplitz_matrix,
)
from polyref import poly_divmod, poly_mul, shift_rows, slot_digits


def _is_zero(m):
    return not any(map(any, m.data))


def _parity_check_matrix(f, h, n):
    """H written out: the shifts of h reversed and conjugated by the q-th
    power."""
    q = isqrt(f.order)
    return MatrixGF(f, shift_rows([f.pow(v, q) for v in reversed(h)], n))


def _code_matrices(f, g, h, n):
    """G and H written out."""
    return MatrixGF(f, shift_rows(g, n)), _parity_check_matrix(f, h, n)


def _complement(z):
    """The residues outside the defining set z, ascending."""
    return defining_set(z.ctx, range(z.ctx.n)).difference(z).members


def _generator_matrix(z, tower):
    return MatrixGF(tower.fq2, shift_rows(code_polynomials(z.members, tower)[0], z.ctx.n))


def _euclidean_parity_check(z, tower):
    # shifts of the reversed check polynomial, built entry by entry
    hc = reversed(generator_polynomial(_complement(z), tower))
    return MatrixGF(tower.fq2, shift_rows(hc, z.ctx.n))


@pytest.fixture(scope="module")
def toy(ctx7, tower7):
    z = from_cosets(ctx7, [0, 1])  # {0, 1, 9}
    g, h = code_polynomials(z.members, tower7)
    return (z, *_code_matrices(tower7.fq2, g, h, 10), h)


def test_matrix_shapes_and_ranks(toy):
    _z, g, h, _hpoly = toy
    assert (g.rows, g.cols) == (7, 10)
    assert (h.rows, h.cols) == (3, 10)
    assert rank(g) == 7 and rank(h) == 3


def test_euclidean_duality(toy, tower7):
    # H is the Euclidean parity check conjugated entry-wise
    z, g, h, _hpoly = toy
    he = _euclidean_parity_check(z, tower7)
    assert _is_zero(matmul(g, MatrixGF(he.field, tuple(zip(*he.data)))))
    assert rank(he) == 3
    f = tower7.fq2
    assert h.data == tuple(tuple(f.pow(v, 7) for v in row) for row in he.data)


def test_hermitian_duality(toy, tower7):
    _z, g, h, _hpoly = toy
    # G H^dagger = 0, equivalently every H row is Hermitian-orthogonal to
    # every G row
    assert _is_zero(matmul(g, conjugate_transpose(h, 7)))
    f = h.field
    for hrow in h.data:
        for grow in g.data:
            assert _dot(f, [f.pow(v, 7) for v in hrow], grow) == 0


def test_parity_rows_span_the_hermitian_dual_code(toy, tower7):
    # the code spanned by H has defining set {z : -qz mod n not in Z}
    z, _g, h, _hpoly = toy
    got = rowspace_defining_set(h, tower7)
    assert got == {x for x in range(10) if (-7 * x) % 10 not in z.members}


def test_zero_matrix_rank():
    f = field_tower(7, 10).fq2
    assert rank(MatrixGF(f, ((0, 0), (0, 0)))) == 0


def test_rank_hh_dagger_toy(toy, tower7):
    z, _g, _h, hpoly = toy
    assert toeplitz_rank(tower7.fq2, hh_dagger(tower7.fq2, hpoly, 10)) == len(decompose(z)) == 1
    check_ebits(z.members, tower7, 1, "for the toy")
    with pytest.raises(VerificationError, match=r"= 1 but the set overlap has size 2 for the toy"):
        check_ebits(z.members, tower7, 2, "for the toy")


def test_rank_hh_dagger_equals_euclidean_variant(toy, tower7):
    # conjugating the parity check does not change rank(H H^dagger)
    z, _g, _h, hpoly = toy
    he = _euclidean_parity_check(z, tower7)
    want = toeplitz_rank(tower7.fq2, hh_dagger(tower7.fq2, hpoly, 10))
    assert rank(matmul(he, conjugate_transpose(he, 7))) == want


def test_rank_hh_dagger_family_q23(tower23, spec23):
    fc = verify_family_code(spec23, 2)
    _g, h = code_polynomials(fc.defining_set.members, tower23)
    assert toeplitz_rank(tower23.fq2, hh_dagger(tower23.fq2, h, 106)) == 21


def test_rank_oracle_on_random_sets_q7(ctx7, tower7):
    rng = random.Random(42)
    reps = [c[0] for c in all_cosets(ctx7)]
    done = 0
    while done < 25:
        z = from_cosets(ctx7, [r for r in reps if rng.random() < 0.5])
        if not 0 < len(z) < ctx7.n:
            continue
        h = code_polynomials(z.members, tower7)[1]
        assert toeplitz_rank(tower7.fq2, hh_dagger(tower7.fq2, h, 10)) == len(decompose(z)), z.members
        done += 1


def test_generator_matrix_rejects_full_set(ctx7, tower7):
    with pytest.raises(ValueError, match="covers everything"):
        code_polynomials(tuple(range(ctx7.n)), tower7)


def test_parity_check_rejects_empty_set(ctx7, tower7):
    with pytest.raises(ValueError, match="empty defining set"):
        code_polynomials((), tower7)


# -- the generator and check polynomials ---------------------------------------


def _x_pow_n_minus_1(f, n):
    return (f.neg(1),) + (0,) * (n - 1) + (1,)


def test_generator_polynomial_of_c0_is_x_minus_1(tower7, ctx7):
    g = generator_polynomial(from_cosets(ctx7, [0]).members, tower7)
    assert g == (tower7.fq2.neg(1), 1)


def test_generator_polynomial_divides_xn_minus_1(tower7, ctx7):
    z = from_cosets(ctx7, [0, 1])
    f = tower7.fq2
    g = generator_polynomial(z.members, tower7)
    assert len(g) - 1 == len(z) == 3
    full = _x_pow_n_minus_1(f, 10)
    q, r = poly_divmod(f, full, g)
    assert r == () and poly_mul(f, q, g) == full


def test_generator_times_complement_generator_is_xn_minus_1(tower7, ctx7):
    z = from_cosets(ctx7, [0, 1])
    f = tower7.fq2
    g = generator_polynomial(z.members, tower7)
    gc = generator_polynomial(_complement(z), tower7)
    assert poly_mul(f, g, gc) == _x_pow_n_minus_1(f, 10)


def test_check_polynomial_degree(tower7, ctx7):
    z = from_cosets(ctx7, [0, 1])
    assert len(generator_polynomial(_complement(z), tower7)) - 1 == dimension(z)


def test_generator_degree_always_matches_set_size(tower23, ctx23):
    for reps in ([0], [1], [0, 1, 2], [53]):
        z = from_cosets(ctx23, reps)
        assert len(generator_polynomial(z.members, tower23)) - 1 == len(z)


def test_rank_oracle_random_sets_are_pinned():
    # verify --level rank-oracle prints only a count, so the 100 random
    # sets it ranks, 2,814 residues in all, are pinned by their digest
    sets = [
        z.members
        for q in (7, 23)
        for z in crosscheck._random_closed_sets(
            CycContext.for_family(q), crosscheck._RANDOM_SETS_PER_Q, crosscheck._RANDOM_SEED + q
        )
    ]
    assert (len(sets), sum(map(len, sets))) == (100, 2814)
    digest = hashlib.sha256(repr(sets).encode()).hexdigest()
    assert digest == "0b412f03b3f6a0cd97fde3e0643b8150a50a93428aae4f31cc952c88a67332a5"


def test_tree_built_polynomials_match_scalar_reference(monkeypatch):
    # every code of the rank-oracle suite at q <= 32: g against the scalar
    # product of its minimal polynomials taken in turn, h against the
    # scalar quotient of x^n - 1 by g
    honest = oracle.code_polynomials
    codes = []

    def recorded(z, tower):
        codes.append((z, tower))
        return honest(z, tower)

    monkeypatch.setattr(oracle, "code_polynomials", recorded)
    assert crosscheck.verify_rank_oracle(32) == {"codes": 104}
    assert len(codes) == 104
    for z, tower in codes:
        f, n = tower.fq2, tower.n
        reference = (1,)
        for rep in (x for x in z if 2 * x <= n):
            reference = poly_mul(f, reference, tower.minimal_polynomial(rep))
        g = generator_polynomial(z, tower)
        assert g == reference
        quotient, remainder = poly_divmod(f, _x_pow_n_minus_1(f, n), g)
        assert remainder == ()
        assert generator_polynomial(sorted(set(range(n)) - set(z)), tower) == quotient


# the alphabets F_(7^2), F_(23^2), F_(3^6) and F_(2^10), the last two with
# the mod f folds of the packed tree
@pytest.mark.parametrize("q", [7, 23, 27, 32])
def test_packed_tree_matches_the_scalar_product(q):
    # random sets closed under x -> n-x, from none of the cosets {x, n-x}
    # to all of them, and their complements: each polynomial against the
    # product of its minimal polynomials taken in turn by poly_mul
    n = (q * q + 1) // 5
    tower = field_tower(q, n)
    rng = random.Random(q)
    reps = range(n // 2 + 1)
    for size in (0, 1, 2, 5, *(rng.randrange(len(reps)) for _ in range(6)), len(reps)):
        chosen = set(rng.sample(reps, size))
        for side in (chosen, set(reps) - chosen):
            z = sorted({x for r in side for x in (r, (n - r) % n)})
            reference = functools.reduce(
                lambda a, r: poly_mul(tower.fq2, a, tower.minimal_polynomial(r)), sorted(side), (1,)
            )
            assert generator_polynomial(z, tower) == reference


# trees of 0, 1, 2, 3 and 5 leaves: no product, one leaf, one pair, a pair
# and an odd tail, and two levels with a tail at each.  Where n is even the
# first set holds both cosets of one member, {0} and {n/2}, whose leaves
# have degree 1.
@pytest.mark.parametrize("q", [7, 23, 27, 32])
@pytest.mark.parametrize("leaves", [0, 1, 2, 3, 5])
def test_tree_of_few_leaves_matches_a_poly_mul_chain(q, leaves):
    n = (q * q + 1) // 5
    tower = field_tower(q, n)
    rng = random.Random(10 * q + leaves)
    reps = range(n // 2 + 1)
    singles = [0, n // 2] if n % 2 == 0 else [0]
    firsts = singles[:leaves] + rng.sample(reps[1 : n // 2], max(leaves - len(singles), 0))
    for chosen in (firsts, *(rng.sample(reps, leaves) for _ in range(4))):
        z = sorted({x for r in chosen for x in (r, (n - r) % n)})
        want = (1,)
        for r in chosen:
            want = poly_mul(tower.fq2, want, tower.minimal_polynomial(r))
        assert generator_polynomial(z, tower) == want, chosen


# at (43, 3), n = 370: the trees of g and h share the bound of the tower,
# inner dimension n/2 + 1 = 186, which takes 20-bit sums, so 32-bit slots.
# At 15 bits the sums of this code's digits carry into the next slot.
@pytest.mark.parametrize("which", [0, 1])
def test_tree_narrower_than_its_bound_is_caught(capsys, monkeypatch, which):
    honest = oracle._slot_width
    inners = []

    def narrowed(inner, d, p):
        inners.append(inner)
        return 15 if len(inners) == which + 1 else honest(inner, d, p)

    monkeypatch.setattr(oracle, "_slot_width", narrowed)
    assert main("code --q 43 --m 3 --oracle --allow-large-oracle".split()) == 1
    assert inners[: which + 1] == [186, 186][: which + 1]
    assert honest(inners[which], 2, 43) == 32
    err = capsys.readouterr().err
    assert err.endswith(": g * h != x^n - 1\n") or ": generator polynomial has degree" in err


# -- exhaustive minimum distance -----------------------------------------------


def test_min_distance_single_root(ctx7, tower7):
    # Z = {0}: codewords are exactly the vectors with coordinate sum zero
    g = _generator_matrix(from_cosets(ctx7, [0]), tower7)
    assert exhaustive_min_distance(g) == 2


def test_min_distance_confirms_mds_toy(toy):
    # k = 7, designed distance 4 = n-k+1; the support scan must find no
    # lighter codeword and certify exactly 4
    assert exhaustive_min_distance(toy[1]) == 4


def test_min_distance_budget_sentinel(toy):
    assert exhaustive_min_distance(toy[1], budget=3) == BUDGET_EXCEEDED


def test_min_distance_modes_agree(ctx7, tower7):
    # small dimension: both the dumb codeword enumeration and the support
    # scan are feasible and must agree exactly
    z = from_cosets(ctx7, [0, 1, 2, 3])  # k = 3
    g = _generator_matrix(z, tower7)
    by_words = _min_weight_by_codewords(g)
    by_supports = _min_weight_by_supports(g, budget=10_000)
    assert by_words == by_supports
    assert exhaustive_min_distance(g, budget=200_000) == by_words
    # a repeated row spans the same code: both routes must skip the zero
    # codeword of a nonzero message and compare against rank(G), not the
    # row count
    f = g.field
    pair = MatrixGF(f, g.data[:2])
    repeated = MatrixGF(f, g.data[:2] + g.data[:1])
    want = _min_weight_by_codewords(pair)
    assert _min_weight_by_supports(pair, budget=10_000) == want
    assert _min_weight_by_codewords(repeated) == want
    assert _min_weight_by_supports(repeated, budget=10_000) == want
    assert exhaustive_min_distance(MatrixGF(f, ((1, 2, 0), (2, 4, 0)))) == 2


def test_min_distance_of_the_zero_code_raises(tower7):
    f = tower7.fq2
    for g in (MatrixGF(f, ()), MatrixGF(f, ((0, 0, 0),))):
        with pytest.raises(ValueError, match="the zero code has no nonzero codeword"):
            exhaustive_min_distance(g)


def test_weight_two_oracle_against_direct_vectors(ctx7, tower7):
    # independent dumbest-possible route for d=2: no weight-1 vector is a
    # codeword, but some weight-2 vector is (checked by raw syndrome)
    z = from_cosets(ctx7, [0])
    g = _generator_matrix(z, tower7)
    h = _euclidean_parity_check(z, tower7)
    f = h.field
    n = g.cols

    def in_code(vec):
        return all(_dot(f, row, vec) == 0 for row in h.data)

    assert not any(
        in_code([a if k == i else 0 for k in range(n)])
        for i in range(n)
        for a in range(1, f.order)
    )
    weight_two = [
        [a if k == 0 else (b if k == 1 else 0) for k in range(n)]
        for a in range(1, f.order)
        for b in range(1, f.order)
    ]
    assert any(in_code(v) for v in weight_two)
    assert exhaustive_min_distance(g) == 2


def _dot(f, row, vec):
    acc = 0
    for x, y in zip(row, vec):
        if x and y:
            acc = f.add(acc, f.mul(x, y))
    return acc


# -- kernels against a reference built on the raw field arithmetic -------------


class RawArithmetic:
    """Digit-wise addition and schoolbook multiplication: no lookup tables."""

    def __init__(self, f):
        self.f = f
        self.mul = gf._raw_product(f)

    def add(self, a, b):
        f = self.f
        return f.encode((x + y) % f.p for x, y in zip(f.decode(a), f.decode(b)))

    def neg(self, a):
        f = self.f
        return f.encode((-x) % f.p for x in f.decode(a))

    def inv(self, a):
        return self.pow(a, self.f.order - 2)

    def pow(self, a, e):
        return square_and_multiply(self.mul, a, e)

    def convolve(self, a, b):
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for s, x in enumerate(a):
            for t, y in enumerate(b):
                out[s + t] = self.add(out[s + t], self.mul(x, y))
        return out

    def matmul(self, a, b):
        out = []
        for row in a:
            orow = []
            for col in zip(*b):
                acc = 0
                for x, y in zip(row, col):
                    acc = self.add(acc, self.mul(x, y))
                orow.append(acc)
            out.append(tuple(orow))
        return tuple(out)

    def rank(self, m):
        # each row is held as d planes of F_p digits; adding fac times a row
        # maps the digits of every entry by multiplication by fac, which is
        # F_p-linear: digit j of fac * y is sum_k y_k * (digit j of fac * x^k)
        f, p, d = self.f, self.f.p, self.f.degree
        rows = [[list(plane) for plane in zip(*map(f.decode, row))] for row in m]
        r = 0
        for c in range(len(m[0]) if m else 0):
            piv = next((i for i in range(r, len(rows)) if any(pl[c] for pl in rows[i])), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = self.inv(f.encode(pl[c] for pl in rows[r]))
            for i in range(r + 1, len(rows)):
                a = f.encode(pl[c] for pl in rows[i])
                if not a:
                    continue
                fac = self.neg(self.mul(a, inv))
                images = [f.decode(self.mul(fac, p**k)) for k in range(d)]
                for j, plane in enumerate(rows[i]):
                    # columns before c are zero in both rows
                    acc = plane[c:]
                    for image, pivot_plane in zip(images, rows[r]):
                        if image[j]:
                            acc = [x + image[j] * y for x, y in zip(acc, pivot_plane[c:])]
                    plane[c:] = [x % p for x in acc]
            r += 1
        return r


def _random_matrix(f, rng, rows, cols):
    zeros = rng.choice((0.0, 0.3, 0.7))
    return tuple(
        tuple(0 if rng.random() < zeros else rng.randrange(1, f.order) for _ in range(cols))
        for _ in range(rows)
    )


# (43, 2) is the field of `code --q 43`, (3, 8) has the most digits of the odd
# characteristic fields here, and the slots of (2^61 - 1, 1) are wider than 64 bits
@pytest.mark.parametrize("p,deg", [(23, 2), (3, 6), (2, 10), (43, 2), (3, 8), (2**61 - 1, 1)])
def test_kernels_match_raw_arithmetic(p, deg):
    f = field(p, deg)
    raw = RawArithmetic(f)
    rng = random.Random(1000 * p + deg)
    for _ in range(40):
        rows, inner, cols = rng.randrange(1, 13), rng.randrange(1, 9), rng.randrange(1, 13)
        a = _random_matrix(f, rng, rows, inner)
        b = _random_matrix(f, rng, inner, cols)
        ab = matmul(MatrixGF(f, a), MatrixGF(f, b))
        assert ab.data == raw.matmul(a, b)
        # the product has rank at most inner: rank-deficient cases included
        for m in (a, b, ab.data, ((0,) * cols,) * rows):
            want = raw.rank(m)
            assert rank(MatrixGF(f, m)) == want, m


# slot widths of 16, 32 and 64 bits (machine words) and of 128 (shifts)
@pytest.mark.parametrize(
    "p,deg,width", [(43, 2, 16), (2039, 1, 32), (2**31 - 1, 1, 64), (2**61 - 1, 1, 128)]
)
def test_matmul_slot_sums_reach_the_width_bound(monkeypatch, p, deg, width):
    # every digit p - 1 and the longest inner dimension the width allows: the
    # middle slot of each entry sums inner * deg * (p-1)^2 >= 2^(width-1)
    f = field(p, deg)
    inner = (2**width - 1) // (deg * (p - 1) ** 2)
    assert inner * deg * (p - 1) ** 2 >= 2 ** (width - 1)
    assert oracle._slot_width(inner, deg, p) == width
    a = ((f.order - 1,) * inner,) * 2
    b = ((f.order - 1,) * 3,) * inner
    want = RawArithmetic(f).matmul(a, b)
    assert matmul(MatrixGF(f, a), MatrixGF(f, b)).data == want
    honest = oracle._slot_width
    monkeypatch.setattr(oracle, "_slot_width", lambda *args: honest(*args) - 1)
    assert matmul(MatrixGF(f, a), MatrixGF(f, b)).data != want


# -- rank on packed rows --------------------------------------------------------


def _rank_cases(f, raw, rng):
    """Matrices whose elimination loses rank part way, with zero rows and
    columns, in every shape from 0 x 0 to tall and wide."""
    for rows, cols in [(0, 0), (1, 9), (9, 1), (12, 4), (4, 12), (9, 9), (13, 11)]:
        yield _random_matrix(f, rng, rows, cols)
        if rows and cols:
            inner = rng.randrange(1, min(rows, cols) + 1)
            a, b = _random_matrix(f, rng, rows, inner), _random_matrix(f, rng, inner, cols)
            low = raw.matmul(a, b)
            # a zero row and a zero column inserted at random places
            i, j = rng.randrange(rows + 1), rng.randrange(cols + 1)
            low = [r[:j] + (0,) + r[j:] for r in low]
            yield tuple(low[:i] + [(0,) * (cols + 1)] + low[i:])
    # rows 1 .. 4 are multiples of row 0 and the last row is row 0 + row 5:
    # each entry of rows 1 .. 4 is zero after the first update, though its
    # slots are not
    u = _random_matrix(f, rng, 1, 8)[0]
    scaled = [tuple(raw.mul(rng.randrange(1, f.order), v) for v in u) for _ in range(4)]
    other = _random_matrix(f, rng, 1, 8)[0]
    yield (u, *scaled, other, tuple(raw.add(a, b) for a, b in zip(u, other)))


# (43, 2) is the field of `code --q 43`, (3, 8) has the most digits of the odd
# characteristic fields here, and the slots of (2^61 - 1, 1) are wider than 64 bits
@pytest.mark.parametrize("p,deg", [(23, 2), (43, 2), (3, 6), (2, 10), (3, 8), (2**61 - 1, 1)])
def test_rank_matches_raw_arithmetic(p, deg):
    f = field(p, deg)
    raw = RawArithmetic(f)
    rng = random.Random(1000 * p + deg)
    for _ in range(6):
        for m in _rank_cases(f, raw, rng):
            assert rank(MatrixGF(f, m)) == raw.rank(m), m


# slot widths of 16, 32 and 64 bits (machine words) and of 128 (shifts)
@pytest.mark.parametrize(
    "p,deg,width", [(43, 2, 16), (2039, 1, 32), (2**31 - 1, 1, 64), (2**61 - 1, 1, 128)]
)
def test_rank_slot_sums_reach_the_width_bound(monkeypatch, p, deg, width):
    # rows 0 .. n-2 hold 1 on the diagonal and the top element t (every
    # digit p - 1) in the last column; the last row holds -t in columns
    # 0 .. n-2, so each of its n - 1 updates has the multiplier t and adds
    # t * t to its last entry, whose middle slot reaches
    # (n - 1) * deg * (p-1)^2 >= 2^(width-1).  That entry starts at
    # -(n - 1) * t^2, so the last row ends as zero: the rank is n - 1.
    f = field(p, deg)
    n = (2**width - 1) // (deg * (p - 1) ** 2)
    assert (n - 1) * deg * (p - 1) ** 2 >= 2 ** (width - 1)
    assert oracle._slot_width(n, deg, p) == width
    raw = RawArithmetic(f)
    t = f.order - 1
    square = raw.mul(t, t)
    last = raw.neg(f.encode((n - 1) * c % p for c in f.decode(square)))
    m = MatrixGF(
        f,
        tuple((0,) * i + (1,) + (0,) * (n - 2 - i) + (t,) for i in range(n - 1))
        + ((raw.neg(t),) * (n - 1) + (last,),),
    )
    assert rank(m) == n - 1
    honest = oracle._slot_width
    monkeypatch.setattr(oracle, "_slot_width", lambda *args: honest(*args) - 1)
    assert rank(m) != n - 1


# -- rank of a Toeplitz matrix from its diagonals -------------------------------


def _recurrent(f, rng, length, count):
    """count terms of a random linear recurrence of the given length from
    random initial terms: linear complexity at most length."""
    taps = [rng.randrange(f.order) for _ in range(length)]
    s = [rng.randrange(f.order) for _ in range(length)]
    while len(s) < count:
        acc = 0
        for c, x in zip(taps, s[-length:]):
            acc = f.add(acc, f.mul(c, x))
        s.append(acc)
    return tuple(s[:count])


def _toeplitz_cases(f, rng):
    """Vectors of diagonals: r = 1, all zero, constant, and random ones,
    rank-deficient ones included; t[0] = 1 before a random rest, whose
    first discrepancy meets B = 1 one entry below t; recurrences of linear
    complexity below r, and of r or more with one entry changed; runs of
    leading zeros; r up to 30."""
    yield (0,)
    yield (rng.randrange(1, f.order),)
    for r in (2, 5, 9):
        yield (0,) * (2 * r - 1)
        yield (rng.randrange(1, f.order),) * (2 * r - 1)  # every entry equal: rank 1
    for r in range(1, 12):
        yield _random_matrix(f, rng, 1, 2 * r - 1)[0]
    for r in (2, 3, 7, 16, 30):
        n = 2 * r - 1
        yield (1,) + _random_matrix(f, rng, 1, n - 1)[0]
        length = rng.randrange(1, r)
        t = _recurrent(f, rng, length, n)
        yield t
        # the recurrence first fails at k, which takes the linear
        # complexity to k + 1 - length >= r
        k = rng.randrange(r + length - 1, n)
        yield t[:k] + (f.add(t[k], 1),) + t[k + 1 :]
        zeros = rng.randrange(1, n)
        yield (0,) * zeros + _random_matrix(f, rng, 1, n - zeros)[0]


# (43, 2) is the field of `code --q 43`, (3, 8) has the most digits of the odd
# characteristic fields here, and the slots of (2^61 - 1, 1) are wider than 64 bits
@pytest.mark.parametrize("p,deg", [(23, 2), (43, 2), (3, 6), (2, 10), (3, 8), (2**61 - 1, 1)])
def test_toeplitz_rank_matches_raw_arithmetic(p, deg):
    f = field(p, deg)
    raw = RawArithmetic(f)
    rng = random.Random(1000 * p + deg)
    for t in _toeplitz_cases(f, rng):
        assert toeplitz_rank(f, t) == raw.rank(toeplitz_matrix(f, t).data), t
    # a single nonzero at index k is the diagonal j - i = k - (r - 1), with
    # r - |k - (r - 1)| entries in distinct rows and columns: a row window
    # off by one stride would move it
    for r in (1, 2, 5, 9):
        for k in range(2 * r - 1):
            t = (0,) * k + (rng.randrange(1, f.order),) + (0,) * (2 * r - 2 - k)
            assert toeplitz_rank(f, t) == r - abs(k - (r - 1)), t


# the alphabets of q = 32, 23, 43 and 27.  A 16-bit slot of toeplitz_rank
# has room for 6553, 67, 18 and 2730 unreduced updates over them.
LAZY_FIELDS = [(2, 10), (23, 2), (43, 2), (3, 6)]


@st.composite
def _diagonals(draw, f):
    """Diagonals of an r x r Toeplitz matrix, r <= 24: a run of leading
    zeros, after which L jumps and as many steps pass with no length
    change, then random entries or the terms of a random recurrence (rank
    deficient where it is shorter than r)."""
    r = draw(st.integers(1, 24))
    n = 2 * r - 1
    zeros = draw(st.integers(0, n))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        return (0,) * zeros + _recurrent(f, rng, draw(st.integers(1, r)), n - zeros)
    return (0,) * zeros + tuple(rng.randrange(f.order) for _ in range(n - zeros))


@pytest.mark.parametrize("p,deg", LAZY_FIELDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lazy_toeplitz_rank_matches_the_dense_reference(p, deg, data):
    f = field(p, deg)
    t = data.draw(_diagonals(f))
    assert toeplitz_rank(f, t) == rank(toeplitz_matrix(f, t)), t


def _rewritten_rank(width, old, new, **names):
    """toeplitz_rank with old in its source replaced by new, the names
    given added to its globals, and its slots narrowed to width bits if
    width is given."""
    source = textwrap.dedent(inspect.getsource(oracle.toeplitz_rank))
    assert source.count(old) == 1
    namespace = dict(vars(oracle), **names)
    if width:
        namespace["_slot_width"] = lambda inner, d, p: width
    exec(source.replace(old, new), namespace)
    return namespace["toeplitz_rank"]


# z leading zeros take L to z + 1 at step z, and the next z steps or so
# change no length, so that more than room updates pile up where z exceeds
# the room: 18 at (43, 2) and 67 at (23, 2) with 16-bit slots, and 1 and
# 2 with the slots narrowed to 12 and 11 bits (the reducer stays exact).
# After the zeros come random entries, or the terms of a recurrence of
# length 3, whose Toeplitz matrix is rank deficient: there, a C * t whose
# slots outgrew their width shows as discrepancies that should be zero.
@pytest.mark.parametrize(
    "p,deg,zeros,width", [(43, 2, 30, None), (23, 2, 80, None), (43, 2, 4, 12), (23, 2, 4, 11)]
)
def test_lazy_toeplitz_rank_reduces_once_room_updates_pile_up(p, deg, zeros, width):
    f = field(p, deg)
    rng = random.Random(zeros)
    steps = []
    recorded = _rewritten_rank(
        width, "pending == room", "pending == room and not steps.append(k)", steps=steps
    )
    unbounded = _rewritten_rank(width, "(change or pending == room)", "change")
    wrong = 0
    for r in (zeros + 10, zeros + 25):
        n = 2 * r - 1
        random_rest = tuple(rng.randrange(f.order) for _ in range(n - zeros))
        for t in ((0,) * zeros + random_rest, (0,) * zeros + _recurrent(f, rng, 3, n - zeros)):
            steps.clear()
            want = rank(toeplitz_matrix(f, t))
            assert recorded(f, t) == want, t
            assert steps, t
            wrong += unbounded(f, t) != want
    if width:
        # with no room bound, the narrowed slots outgrow their width
        assert wrong


def test_discrepancy_lookup_holds_only_reduced_packings(monkeypatch):
    # toeplitz_rank reads each discrepancy through its packer's elements
    # dict, filled by reduce on a miss.  Entry 0 of C * t is reduced before
    # it is looked up, also where the rest of C * t is not, so after every
    # rank of the q <= 53 sweep each key is the packing of its element, and
    # no packer holds more keys than its field has elements
    honest = oracle._packer
    honest.cache_clear()
    packers = {}

    def recorded(f, width):
        packed = honest(f, width)
        packers[id(packed)] = packed
        return packed

    monkeypatch.setattr(oracle, "_packer", recorded)
    assert crosscheck.verify_rank_oracle(53) == {"codes": 116}
    read = [p for p in packers.values() if p.elements]
    assert len(read) == 8  # F_(q^2) for q = 7, 23, 27, 32, 37, 43, 47, 53
    for packed in read:
        assert len(packed.elements) <= packed.f.order
        assert all(packed[d] == e for e, d in packed.elements.items())


def test_rank_oracle_suite_ranks_match_raw_arithmetic(monkeypatch):
    # every rank of the rank-oracle suite at q <= 27, of the family codes
    # and of the random sets at q = 7 and 23: the smaller Gram matrix,
    # against raw arithmetic; then HH^dagger of every code, ranked here
    # (by raw arithmetic too where the suite took GG^dagger), against the
    # rank the suite took plus 2|Z| - n on the GG^dagger side
    honest = oracle.toeplitz_rank
    honest_polynomials = oracle.code_polynomials
    family, ranked = [], []
    seen = Counter()

    def recorded(z, tower):
        g, h = honest_polynomials(z, tower)
        family.append((tower.fq2, g, h, tower.n))
        return g, h

    def checked(f, t):
        got = honest(f, t)
        assert got == RawArithmetic(f).rank(toeplitz_matrix(f, t).data), len(t)
        # HH^dagger has |Z| = deg g rows, GG^dagger n - |Z|
        side = "HH" if (len(t) + 1) // 2 == len(family[-1][1]) - 1 else "GG"
        seen[side] += 1
        ranked.append((side, got))
        return got

    monkeypatch.setattr(oracle, "toeplitz_rank", checked)
    monkeypatch.setattr(oracle, "code_polynomials", recorded)
    assert crosscheck.verify_rank_oracle(27) == {"codes": 102}
    assert seen == {"GG": 35, "HH": 67}
    assert len(family) == len(ranked) == 102
    for (f, g, h, n), (side, got) in zip(family, ranked):
        excess = 2 * (len(g) - 1) - n
        assert (side == "GG") == (excess > 0)
        t = hh_dagger(f, h, n)
        direct = RawArithmetic(f).rank(toeplitz_matrix(f, t).data) if side == "GG" else got
        assert honest(f, t) == direct == got + max(excess, 0)
    # every code reaches code_polynomials, the two family codes first;
    # their wide G and H at q = 23 and 27, written out: the rank kernel
    # agrees with raw arithmetic, and each rank is the row count that
    # code_polynomials certifies from g * h = x^n - 1
    assert [f.order for f, *_ in family[:2]] == [23**2, 27**2]
    for code in family[:2]:
        for m in _code_matrices(*code):
            assert rank(m) == RawArithmetic(m.field).rank(m.data) == m.rows


# -- shift-structured products -------------------------------------------------


def _raw_dagger(raw, a, b, q):
    return raw.matmul(a, tuple(zip(*((raw.pow(v, q) for v in row) for row in b))))


# F_{2^10} and F_{3^6} are the alphabets of q = 32 and q = 27; the slots of
# (2^61 - 1, 1) are wider than 64 bits, and its order is no square
@pytest.mark.parametrize("p,deg", [(23, 2), (2, 10), (3, 6), (2**61 - 1, 1)])
def test_convolve_matches_raw_arithmetic(p, deg):
    f = field(p, deg)
    raw = RawArithmetic(f)
    rng = random.Random(1000 * p + deg)
    for _ in range(30):
        a = _random_matrix(f, rng, 1, rng.randrange(0, 12))[0]
        b = _random_matrix(f, rng, 1, rng.randrange(0, 12))[0]
        assert convolve(f, a, b) == raw.convolve(a, b)


@pytest.mark.parametrize("p,deg", [(23, 2), (2, 10), (3, 6)])
def test_dagger_product_matches_raw_arithmetic(p, deg):
    # H * H^dagger from one convolution of h against the dense product of
    # the written-out H, the shifts of h reversed and raised to the q-th power
    f = field(p, deg)
    q = isqrt(f.order)
    raw = RawArithmetic(f)
    rng = random.Random(1000 * p + deg)
    for n, size in [
        (8, 2),  # lags outside c: more rows than len(h) + 1
        (9, 9),  # a 1-row matrix
        (9, 3),
        (10, 4),
        (10, 6),
        (6, 1),  # h = a constant: H is n x n, diagonal
    ]:
        # a nonzero last entry: a check polynomial has no trailing zeros
        h = _random_matrix(f, rng, 1, size - 1)[0] + (rng.randrange(1, f.order),)
        u = tuple(raw.pow(v, q) for v in reversed(h))
        dense = shift_rows(u, n)
        got = hh_dagger(f, h, n)
        assert len(got) == 2 * (n - size + 1) - 1
        assert toeplitz_matrix(f, got).data == _raw_dagger(raw, dense, dense, q)


def test_hh_dagger_needs_a_square_order():
    with pytest.raises(ValueError, match="is not a square"):
        hh_dagger(PrimeField(7), (1, 1), 4)


# slot widths of 16, 32 and 64 bits (machine words) and of 128 (shifts)
@pytest.mark.parametrize(
    "p,deg,width", [(43, 2, 16), (2039, 1, 32), (2**31 - 1, 1, 64), (2**61 - 1, 1, 128)]
)
def test_convolve_slot_sums_reach_the_width_bound(monkeypatch, p, deg, width):
    # every digit p - 1 and the longest vectors the width allows: the middle
    # slot of the middle coefficient sums inner * deg * (p-1)^2 >= 2^(width-1)
    f = field(p, deg)
    inner = (2**width - 1) // (deg * (p - 1) ** 2)
    assert inner * deg * (p - 1) ** 2 >= 2 ** (width - 1)
    assert oracle._slot_width(inner, deg, p) == width
    a = (f.order - 1,) * inner
    # c_e is the square of the top element times the number of overlapping
    # terms, min(e + 1, 2 * inner - 1 - e): an integer multiple, digit by digit
    square = RawArithmetic(f).mul(f.order - 1, f.order - 1)
    want = [
        f.encode(min(e + 1, 2 * inner - 1 - e) * c % p for c in f.decode(square))
        for e in range(2 * inner - 1)
    ]
    assert convolve(f, a, a) == want
    honest = oracle._slot_width
    monkeypatch.setattr(oracle, "_slot_width", lambda *args: honest(*args) - 1)
    assert convolve(f, a, a) != want


# -- the slot reducer -----------------------------------------------------------

# the alphabets of q = 128, 32, 27, 7, 43 and 173: d up to 14, p = 2 and odd,
# and in F_{173^2} the widest digits of the tabled fields
REDUCER_FIELDS = [(2, 14), (2, 10), (3, 6), (7, 2), (43, 2), (173, 2)]


def _slot_entries(f, width, rng):
    """Entries of 2d - 1 slot values below 2^width, in counts 0, 1 and
    several hundred: every slot at the top 2^width - 1; every slot p - 1
    but slot 0, which takes each value below p, so that after the fold mod
    f slot 0 meets every residue at its largest; random values; and a mix
    of these with 0."""
    span, top = 2 * f.degree - 1, (1 << width) - 1
    yield []
    yield [[top] * span]
    yield [[v] + [f.p - 1] * (span - 1) for v in range(f.p)]
    yield [[rng.randrange(top + 1) for _ in range(span)] for _ in range(300)]
    choices = (0, f.p - 1, top)
    yield [[rng.choice(choices) or rng.randrange(top + 1) for _ in range(span)] for _ in range(40)]


# 15 bits is a width that no memoryview cast reads, and the one that the
# width-bound tests narrow 16 to
@pytest.mark.parametrize("width", [15, 16, 32, 64])
@pytest.mark.parametrize("p,deg", REDUCER_FIELDS)
def test_slot_reducer_matches_scalar_reference(p, deg, width):
    # a fresh packer, whose masks grow to 300 entries and then serve 40
    f = gf.build_field(p, deg)
    packed = oracle._Packer(f, width)
    rng = random.Random(1000 * p + width)
    for entries in _slot_entries(f, width, rng):
        whole = oracle._pack([oracle._pack(e, width) for e in entries], packed.stride)
        want = [f.encode(slot_digits(p, f.modulus, e)) for e in entries]
        assert packed.reduce(whole, len(entries)) == want
        assert packed.digits(whole, len(entries)) == packed.vector(want)


def _multiplier_one_too_small(honest):
    def barrett(p, bound):
        s, m = honest(p, bound)
        return s, m - 1

    return barrett


def test_slot_reducer_refuses_a_multiplier_one_too_small(capsys, monkeypatch):
    # with m = floor(2^s / p) the quotient can come out one short, leaving
    # a slot at p or above; the bounds checked at construction refuse it
    monkeypatch.setattr(oracle, "_barrett", _multiplier_one_too_small(oracle._barrett))
    for p, deg in REDUCER_FIELDS[2:]:
        for width in (16, 32, 64):
            with pytest.raises(ValueError, match="slot reducer is not exact"):
                oracle._Packer(gf.build_field(p, deg), width)
    monkeypatch.setattr(oracle, "_packer", functools.lru_cache(maxsize=None)(oracle._Packer))
    assert main("code --q 43 --m 3 --oracle --allow-large-oracle".split()) == 1
    assert "slot reducer is not exact at 32 bits" in capsys.readouterr().err


def test_slot_widths_pass_the_packer_checks_on_every_tabled_field():
    # every F_{p^d}, d >= 2, of order up to the cap, at the widths of inner
    # dimensions 1, 2, 3, p^d / 5 and 2^15; a stand-in with p, degree and
    # the modulus build_field picks is all the constructor reads
    fields = [
        (p, d)
        for p in range(2, isqrt(gf.MAX_EXTENSION_ORDER) + 1)
        if is_prime(p)
        for d in range(2, gf.MAX_EXTENSION_ORDER.bit_length())
        if p**d <= gf.MAX_EXTENSION_ORDER
    ]
    built = 0
    for p, d in fields:
        f = SimpleNamespace(p=p, degree=d, modulus=gf._smallest_irreducible(p, d))
        for inner in (1, 2, 3, p**d // 5, 2**15):
            oracle._Packer(f, oracle._slot_width(inner, d, p))
            built += 1
    assert built == 390


# past the cap of build_field, the reducer of 16-bit slots is not exact
# over F_{7^6} or F_{2^18}, and _packer widens those slots to 32 bits
@functools.lru_cache(maxsize=None)
def _uncapped_field(p, deg):
    return gf.Field(p, deg, gf._smallest_irreducible(p, deg))


@pytest.mark.parametrize("p,deg", [(7, 6), (2, 18)])
def test_kernels_past_the_cap_widen_a_refused_slot(p, deg):
    f = _uncapped_field(p, deg)
    with pytest.raises(ValueError, match="slot reducer is not exact at 16 bits"):
        oracle._Packer(f, 16)
    assert oracle._slot_width(2, deg, p) == 16
    raw = RawArithmetic(f)
    rng = random.Random(1000 * p + deg)
    for _ in range(10):
        a = _random_matrix(f, rng, 1, rng.randrange(0, 8))[0]
        b = _random_matrix(f, rng, 1, rng.randrange(0, 8))[0]
        assert convolve(f, a, b) == raw.convolve(a, b)
    for r in (1, 2, 3, 5):
        n = 2 * r - 1
        for t in (_random_matrix(f, rng, 1, n)[0], _recurrent(f, rng, max(r - 1, 1), n)):
            assert toeplitz_rank(f, t) == raw.rank(toeplitz_matrix(f, t).data), t
    # the refused width maps to the one packer of the width accepted
    assert oracle._packer(f, 16) is oracle._packer(f, 32)
    assert oracle._packer(f, 16).width == 32


# an element packs by shifts of its base-p digits, as _pack packs them from
# decode, over every field of TABLE_FIELDS and over prime fields whose
# slots reach 16 to 128 bits
@pytest.mark.parametrize("p,deg", TABLE_FIELDS)
def test_shift_packing_matches_the_digit_packing(p, deg):
    f = gf.build_field(p, deg)
    for width in (16, 32, 64):
        packed = oracle._Packer(f, width)
        want = [oracle._pack(f.decode(v), width) for v in range(f.order)]
        assert [packed[v] for v in range(f.order)] == want


@pytest.mark.parametrize(
    "p,width",
    [(2, 16), (2039, 16), (2039, 32), (2039, 64), (2**31 - 1, 64), (2**61 - 1, 128)],
)
def test_shift_packing_on_prime_fields(p, width):
    f = PrimeField(p)
    packed = oracle._Packer(f, width)
    rng = random.Random(p)
    for v in {0, 1, p - 1, *(rng.randrange(p) for _ in range(300))}:
        assert packed[v] == oracle._pack(f.decode(v), width) == v


def test_slot_reducer_with_its_last_fold_dropped_is_caught(capsys, monkeypatch):
    # over F_{3^6}, the alphabet of q = 27, one fold by x^6 mod f takes the
    # degree of every entry below 6; without it the entries are not reduced
    def dropped(f, width):
        packed = oracle._Packer(f, width)
        packed.folds -= 1
        return packed

    monkeypatch.setattr(oracle, "_packer", functools.lru_cache(maxsize=None)(dropped))
    assert main("code --q 27 --m 2 --oracle".split()) == 1
    assert capsys.readouterr().err.endswith(": g * h != x^n - 1\n")


def _int_bits(obj):
    """The bit lengths of the ints in obj, through tuples, lists and dicts."""
    if isinstance(obj, int):
        return obj.bit_length()
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return sum(_int_bits(x) for x in obj)
    return 0


@pytest.mark.parametrize("p,deg", [(23, 2), (2, 10)])
def test_slot_reducer_state_stays_within_the_largest_count(p, deg):
    # reduced at every count up to 200 in random order, a packer holds one
    # set of masks, each 200 entries long: a set kept per count would hold
    # about 100 times as many bits
    packed = oracle._Packer(gf.build_field(p, deg), 16)
    counts = list(range(1, 201))
    random.Random(p).shuffle(counts)
    for count in counts:
        packed.reduce((1 << (count * packed.stride)) - 1, count)
    state = {k: v for k, v in vars(packed).items() if k != "f"}
    assert _int_bits(state) <= (len(packed.masks) + 1) * 200 * packed.stride


def test_structured_products_match_dense_matmul(monkeypatch):
    # every code of the rank-oracle suite at q <= 32, its G and H written
    # out: G * H^dagger = 0, which code_polynomials proves from g * h, and
    # the Gram matrix of the smaller side, H * H^dagger from h or
    # G * G^dagger from g, from hh_dagger, both against the dense matmul
    honest_polynomials, honest_hh = oracle.code_polynomials, oracle.hh_dagger
    seen = Counter()
    written = {}

    def checked_polynomials(z, tower):
        g, h = honest_polynomials(z, tower)
        G, H = _code_matrices(tower.fq2, g, h, tower.n)
        assert _is_zero(matmul(G, conjugate_transpose(H, tower.q)))
        written["H"], written["G"] = (h, H), (g, G)
        seen["G", "H"] += 1
        return g, h

    def checked_hh(f, u, n):
        got = honest_hh(f, u, n)
        side = next(side for side in "HG" if written[side][0] == tuple(u))
        m = written[side][1]
        assert toeplitz_matrix(f, got) == matmul(m, conjugate_transpose(m, isqrt(f.order)))
        seen[side, side] += 1
        return got

    monkeypatch.setattr(oracle, "code_polynomials", checked_polynomials)
    monkeypatch.setattr(oracle, "hh_dagger", checked_hh)
    assert crosscheck.verify_rank_oracle(32) == {"codes": 104}
    assert seen == {("G", "H"): 104, ("G", "G"): 36, ("H", "H"): 68}


def _zero_constant(honest, z, tower):
    """The polynomial with its constant term zeroed: for g, the first entry
    of G's row vector."""
    return (0,) + honest(z, tower)[1:]


def _zero_leading(honest, z, tower):
    """The polynomial with its leading coefficient zeroed: for h, the
    conjugate of the first entry of H's row vector."""
    return honest(z, tower)[:-1] + (0,)


def _break_call(which, broken):
    """A generator_polynomial that answers call number which (0 for g, 1
    for h, as code_polynomials builds g first) with broken(honest, z, tower)."""
    honest = oracle.generator_polynomial
    calls = itertools.count()

    def stand_in(z, tower):
        if next(calls) == which:
            return broken(honest, z, tower)
        return honest(z, tower)

    return stand_in


def _bumped(honest, z, tower):
    """The polynomial with coefficient 1 raised by one."""
    h = honest(z, tower)
    return (h[0], tower.fq2.add(h[1], 1)) + h[2:]


def _wrong_orbit(honest, z, tower):
    """The product over Z with one coset traded for one of the same size
    outside Z: monic of degree |Z|, and still a divisor of x^n - 1."""
    ctx = CycContext(tower.n, tower.q)
    inside = [x for x in z if 2 * x <= ctx.n]
    outside = [x for x in range(ctx.n // 2 + 1) if x not in inside]
    size = {r: len(coset(ctx, r)) for r in inside + outside}
    a, b = next((a, b) for a in inside for b in outside if size[a] == size[b])
    return honest(from_cosets(ctx, [r for r in inside if r != a] + [b]).members, tower)


def _fresh_leaves(monkeypatch):
    """An empty table of packed leaves for the rest of the test: leaves
    packed from patched minimal polynomials are neither taken from the
    table that the other tests share nor left in it."""
    fresh = functools.lru_cache(maxsize=None)(oracle._leaves.__wrapped__)
    monkeypatch.setattr(oracle, "_leaves", fresh)


def _roots_scaled():
    """A minimal_polynomial whose roots are scaled by a generator lam of
    F_(q^2): lam^deg * m(x / lam), monic and over F_(q^2), but its roots
    are not n-th roots of unity."""
    honest = FieldTower.minimal_polynomial

    def scaled(tower, i):
        m = honest(tower, i)
        f = tower.fq2
        lam = f.generator
        return tuple(f.mul(c, f.pow(lam, len(m) - 1 - k)) for k, c in enumerate(m))

    return scaled


# faults on the row-0 vectors of G and H and on the polynomials behind them;
# a family code reaches code_polynomials through both commands, and each
# fault breaks g * h = x^n - 1:
# - a row vector that starts with 0 (g's constant term, or the conjugate of
#   h's leading coefficient) would break the echelon certificate of the ranks;
# - a bumped coefficient of h breaks G * H^dagger = 0;
# - a g over the wrong orbits still divides x^n - 1, but h is built on its
#   own, so g * h has a double root;
# - roots scaled off the n-th roots of unity give g * h = x^n - lam^n
@pytest.mark.parametrize(
    "invocation", ["code --q 23 --m 2 --oracle", "verify --level rank-oracle --qmax 23"]
)
@pytest.mark.parametrize(
    "fault",
    [
        "G-first-entry-zero",
        "H-first-entry-zero",
        "h-coefficient-bumped",
        "wrong-orbit",
        "roots-scaled",
    ],
)
def test_broken_row_vector_is_caught(capsys, monkeypatch, invocation, fault):
    if fault == "roots-scaled":
        _fresh_leaves(monkeypatch)
        monkeypatch.setattr(FieldTower, "minimal_polynomial", _roots_scaled())
    else:
        which, broken = {
            "G-first-entry-zero": (0, _zero_constant),
            "H-first-entry-zero": (1, _zero_leading),
            "h-coefficient-bumped": (1, _bumped),
            "wrong-orbit": (0, _wrong_orbit),
        }[fault]
        monkeypatch.setattr(oracle, "generator_polynomial", _break_call(which, broken))
    rc = main(invocation.split())
    assert rc == 1
    assert capsys.readouterr().err.endswith(": g * h != x^n - 1\n")


def test_packed_leaves_follow_the_minimal_polynomials(capsys, monkeypatch):
    # the packed leaves of the product trees are one table per tower and
    # slot width, built from the tower's minimal polynomials on first use:
    # after an honest run each entry is its coset's minimal polynomial,
    # packed, with its degree, and a table built while the minimal
    # polynomials are wrong carries the fault into both trees
    assert main("code --q 23 --m 2 --oracle".split()) == 0
    capsys.readouterr()
    tower = field_tower(23, 106)
    width = oracle._slot_width(54, 2, 23)
    packed = oracle._packer(tower.fq2, width)
    polys = [tower.minimal_polynomial(x) for x in range(54)]
    assert oracle._leaves(tower, width) == [(packed.vector(m), len(m) - 1) for m in polys]
    _fresh_leaves(monkeypatch)
    monkeypatch.setattr(FieldTower, "minimal_polynomial", _roots_scaled())
    assert main("code --q 23 --m 2 --oracle".split()) == 1
    assert capsys.readouterr().err.endswith(": g * h != x^n - 1\n")


# at n = 106 the cosets {1, 105} and {53} trade minimal polynomials: Z
# builds g on {53} for {1, 105} and its complement builds h on {1, 105} for
# {53}, so g * h = x^n - 1 still holds and only the degree check of g sees it
def test_generator_of_the_wrong_degree_is_caught(capsys, monkeypatch):
    honest = FieldTower.minimal_polynomial

    def traded(tower, i):
        return honest(tower, {1: 53, 53: 1}.get(i, i) if tower.n == 106 else i)

    _fresh_leaves(monkeypatch)
    monkeypatch.setattr(FieldTower, "minimal_polynomial", traded)
    assert main("code --q 23 --m 2 --oracle".split()) == 1
    assert capsys.readouterr().err.endswith(
        ": generator polynomial has degree 46 and leading coefficient 1: "
        "expected monic of degree |Z| = 47\n"
    )


# Z comes to the matrix route as plain residues; one that is not closed
# under x -> n-x meets a coset {x, n-x} in one member, whose minimal
# polynomial still has degree 2, so g has a degree above |Z|.  Dropping 1
# and 104 = n - 2 together keeps the count of members x with 2x <= n whole,
# but not the count of the cosets met.
@pytest.mark.parametrize("dropped", [(1,), (105,), (1, 104)])
def test_residues_not_closed_fail_the_degree_check(spec23, tower23, dropped):
    z = tuple(x for x in family_defining_set(spec23, 2).members if x not in dropped)
    assert len(z) == 47 - len(dropped)
    with pytest.raises(
        VerificationError,
        match=rf"^generator polynomial has degree 47 and leading coefficient 1: "
        rf"expected monic of degree \|Z\| = {len(z)}$",
    ):
        oracle.check_ebits(z, tower23, 21, "at q=23, m=2")


def test_code_oracle_ranks_hh_dagger_alone(capsys, monkeypatch):
    # the ranks of G (197 x 370) and H (173 x 370) are read off their echelon
    # shape, so the one rank of a code is the one of HH^dagger
    honest = oracle.toeplitz_rank
    sizes = []

    def recorded(f, t):
        sizes.append(len(t))
        return honest(f, t)

    monkeypatch.setattr(oracle, "toeplitz_rank", recorded)
    assert main("code --q 43 --m 3 --oracle --allow-large-oracle".split()) == 0
    capsys.readouterr()
    assert sizes == [2 * 173 - 1]


def test_code_oracle_ranks_the_smaller_gram_matrix(capsys, monkeypatch):
    # at (32, 3), |Z| = 129 of n = 205: GG^dagger (76 x 76) is ranked, not
    # HH^dagger (129 x 129)
    honest = oracle.toeplitz_rank
    sizes = []

    def recorded(f, t):
        sizes.append(len(t))
        return honest(f, t)

    monkeypatch.setattr(oracle, "toeplitz_rank", recorded)
    assert main("code --q 32 --m 3 --oracle".split()) == 0
    capsys.readouterr()
    assert sizes == [2 * 76 - 1]
