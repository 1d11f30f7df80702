import functools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eaqmds import crosscheck, gf
from eaqmds.cli import main
from eaqmds.cosets import CycContext, all_cosets
from eaqmds.exceptions import VerificationError
from eaqmds.gf import Field, FieldTower, build_field, field_tower
from eaqmds.primes import PrimePower, factorize, is_prime
from cosetref import coset
from matref import (
    TABLE_FIELDS,
    MatrixGF,
    QuadraticExtension,
    evaluate,
    matmul,
    orbit_product,
    quartic,
    reference_tables,
    square_and_multiply,
    tower_root,
)
from polyref import poly_divmod, poly_mul


# -- independent oracle: exhaustive irreducibility scan for quadratics --------


def scan_smallest_irreducible_quadratic(p):
    """Brute force over all monic quadratics x^2 + b x + a, smallest tail
    encoding a + b*p first; irreducible over F_p iff it has no root."""
    for t in range(p * p):
        a, b = t % p, t // p
        if all((x * x + b * x + a) % p != 0 for x in range(p)):
            return (a, b, 1)
    raise AssertionError


@pytest.mark.parametrize("p", [7, 23])
def test_modulus_matches_exhaustive_scan(p):
    assert build_field(p, 2).modulus == scan_smallest_irreducible_quadratic(p)


def test_f49_modulus_is_x2_plus_1():
    # -1 is a non-residue mod 7, so x^2+1 is the smallest irreducible
    assert build_field(7, 2).modulus == (1, 0, 1)


# moduli recorded while the search still ran on plain coefficient lists;
# F_{2^20}, F_{3^12}, F_{23^4} and F_{43^4} lie above the bound on extension
# fields, so their moduli are checked through the search alone
PINNED_MODULI = {
    (7, 2): (1, 0, 1),
    (23, 2): (1, 0, 1),
    (43, 2): (1, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 14): (1, 0, 0, 0, 0, 1) + (0,) * 8 + (1,),
    (23, 4): (2, 1, 0, 0, 1),
    (43, 4): (3, 1, 0, 0, 1),
    (2, 20): (1, 0, 0, 1) + (0,) * 16 + (1,),
    (3, 12): (2, 0, 1) + (0,) * 9 + (1,),
}


@pytest.mark.parametrize("p,deg", sorted(PINNED_MODULI))
def test_build_field_moduli_are_pinned(p, deg):
    assert gf._smallest_irreducible(p, deg) == PINNED_MODULI[p, deg]
    if p**deg <= gf.MAX_EXTENSION_ORDER:
        assert build_field(p, deg).modulus == PINNED_MODULI[p, deg]


def _mobius(k):
    exponents = factorize(k).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


@pytest.mark.parametrize(
    "p,deg",
    [(2, d) for d in range(2, 9)] + [(3, d) for d in range(2, 6)] + [(5, 2), (5, 3), (7, 2)],
)
def test_rabin_test_passes_exactly_the_irreducibles(p, deg):
    # Gauss: there are (1/d) * sum_{k | d} mu(k) p^(d/k) monic irreducibles
    # of degree d over F_p; Rabin's test must pass that many of all p^d tails
    passed = sum(gf._is_irreducible([*gf._digits(t, p, deg), 1], p) for t in range(p**deg))
    gauss = sum(_mobius(k) * p ** (deg // k) for k in range(1, deg + 1) if deg % k == 0)
    assert passed * deg == gauss


def test_build_field_rejects_bad_input():
    with pytest.raises(ValueError):
        build_field(6, 2)
    with pytest.raises(ValueError):
        build_field(7, 0)
    # build_field makes extension fields only
    with pytest.raises(ValueError, match="degree must be >= 2, got 1"):
        build_field(7, 1)
    # an extension field above the bound on its tables
    assert gf.MAX_EXTENSION_ORDER == 2**15
    with pytest.raises(ValueError, match="2\\^16 exceeds 32768"):
        build_field(2, 16)


# -- ring axioms on 1000 seeded random triples ---------------------------------


@pytest.mark.parametrize("p,deg", [(7, 2), (23, 2), (2, 10), (3, 6)])
def test_field_laws_random_triples(p, deg):
    f = build_field(p, deg)
    rng = random.Random(1234 + p * deg)
    for _ in range(1000):
        a, b, c = (rng.randrange(f.order) for _ in range(3))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, f.neg(a)) == 0


@given(a=st.integers(0, 48), b=st.integers(0, 48))
def test_frobenius_is_additive_and_multiplicative(a, b):
    f = build_field(7, 2)
    fa, fb = f.pow(a, 7), f.pow(b, 7)
    assert f.pow(f.add(a, b), 7) == f.add(fa, fb)
    assert f.pow(f.mul(a, b), 7) == f.mul(fa, fb)


def test_inverse_law_and_lagrange():
    f = build_field(7, 2)
    for a in range(1, f.order):
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, 48) == 1  # group order
        assert f.pow(a, f.order) == a  # full Frobenius power fixes everything
    assert f.pow(0, f.order) == 0


def test_zero_inverse_and_mixed_fields_raise():
    f = build_field(7, 2)
    g = build_field(23, 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ValueError, match="different fields"):
        matmul(MatrixGF(f, ((1,),)), MatrixGF(g, ((1,),)))


def test_index_arithmetic_on_f49():
    f = build_field(7, 2)
    a = 10
    assert f.mul(a, f.inv(a)) == 1
    assert f.sub(a, a) == 0
    assert f.add(f.neg(a), a) == 0
    assert f.pow(a, 49) == a
    assert f.decode(a) == (3, 1)


def _digitwise_add(f, a, b):
    return f.encode((x + y) % f.p for x, y in zip(f.decode(a), f.decode(b)))


def _digitwise_neg(f, a):
    return f.encode((-x) % f.p for x in f.decode(a))


def _addition_mismatches(f, pairs):
    """(op, a, b) for every pair where add, sub or neg disagrees with the
    coefficient-by-coefficient definition over F_p."""
    bad = []
    for a, b in pairs:
        if f.add(a, b) != _digitwise_add(f, a, b):
            bad.append(("add", a, b))
        if f.sub(a, b) != _digitwise_add(f, a, _digitwise_neg(f, b)):
            bad.append(("sub", a, b))
        if f.neg(a) != _digitwise_neg(f, a):
            bad.append(("neg", a, b))
    return bad


def _random_pairs(f, count, seed):
    rng = random.Random(seed)
    return [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(count)]


@pytest.mark.parametrize("p,deg", [(2, 10), (23, 2), (3, 6), (43, 2)])
def test_lookup_tables_agree_with_raw_arithmetic(p, deg):
    # build_field gives every extension field these tables, and polynomials
    # and the tower compute with them; they must reproduce the table-free
    # arithmetic exactly
    f = build_field(p, deg)
    raw_mul = gf._raw_product(f)
    assert len(f._exp) == 2 * (f.order - 1) and len(f._log) == f.order
    # p = 2 adds by xor and has no Zech table
    assert hasattr(f, "_zech") == (p != 2)
    rng = random.Random(p * deg)
    for _ in range(300):
        a, b = rng.randrange(f.order), rng.randrange(f.order)
        assert f.mul(a, b) == raw_mul(a, b)
    assert all(f.pow(a, 3) == f.mul(a, f.mul(a, a)) for a in range(0, f.order, 7))
    assert _addition_mismatches(f, _random_pairs(f, 2000, p * deg)) == []


# the generators that the tables were built on before the constructor built
# them; each is the smallest index of multiplicative order order - 1
PINNED_GENERATORS = {
    (7, 2): 9, (43, 2): 45, (173, 2): 174, (3, 6): 3, (5, 6): 5, (2, 10): 2, (2, 12): 3, (2, 14): 7,
}


@pytest.mark.parametrize("p,deg", sorted(PINNED_GENERATORS))
def test_generators_are_pinned(p, deg):
    f = build_field(p, deg)
    g = f.generator
    assert g == PINNED_GENERATORS[p, deg] and _order(f, g) == f.order - 1
    assert all(_order(f, a) < f.order - 1 for a in range(1, g))
    # build_field returns the field whole: no attribute is left to fill in
    assert None not in vars(f).values()


# pow and inv are log lookups; square-and-multiply on the table-free product
# is their reference, on every element of F_49 and F_(2^10) and on 0, 1 and
# 150 random elements of F_(173^2)
@pytest.mark.parametrize("p,deg,sample", [(7, 2, None), (2, 10, None), (173, 2, 150)])
def test_pow_and_inv_by_logs_match_square_and_multiply(p, deg, sample):
    f = build_field(p, deg)
    raw_mul = gf._raw_product(f)
    q, n1 = p ** (deg // 2), f.order - 1
    elements = range(f.order)
    if sample:
        elements = [0, 1, *random.Random(p).sample(range(2, f.order), sample)]
    for a in elements:
        for e in (0, 1, q, n1 - 1, n1, n1 + 1):
            assert f.pow(a, e) == square_and_multiply(raw_mul, a, e), (a, e)
        if a:
            assert f.inv(a) == square_and_multiply(raw_mul, a, n1 - 1), a
    assert f.pow(0, 0) == 1 and f.pow(0, n1) == 0
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("p,deg", [(7, 2), (3, 4)])
def test_zech_addition_on_all_pairs(p, deg):
    f = build_field(p, deg)
    assert f._zech
    pairs = [(a, b) for a in range(f.order) for b in range(f.order)]
    assert _addition_mismatches(f, pairs) == []


def test_quartic_negation_is_table_free():
    f = QuadraticExtension(build_field(23, 2))
    rng = random.Random(234)
    for _ in range(200):
        a = rng.randrange(f.order)
        assert f.neg(a) == _digitwise_neg(f, a)
        assert f.add(a, f.neg(a)) == 0
    # no lookup table of any kind was built for this field
    assert not [k for k, v in vars(f).items() if isinstance(v, list) and len(v) >= f.order]


def test_zech_check_detects_an_entry_off_by_one():
    # a private copy of F_49, so the cached field stays intact
    good = build_field(7, 2)
    f = Field(7, 2, good.modulus)
    log, zech = f._log, f._zech
    pairs = [(a, b) for a in range(f.order) for b in range(f.order)]
    assert _addition_mismatches(f, pairs) == []
    zech[5] += 1
    bad = _addition_mismatches(f, pairs)
    assert any(op == "add" for op, _a, _b in bad)
    # add(a, b) reads zech[(log b - log a) mod (order - 1)]: only those
    # pairs may be hit
    assert all((log[b] - log[a]) % (f.order - 1) == 5 for op, a, b in bad if op == "add")
    # the one None entry, k = (order - 1)/2, is where 1 + g^k = 0; made an
    # int, it breaks add(a, -a) for every nonzero a, and no other sum
    f = Field(7, 2, good.modulus)
    half = (f.order - 1) // 2
    assert [k for k, z in enumerate(f._zech) if z is None] == [half]
    f._zech[half] = 0
    hit = {(a, b) for op, a, b in _addition_mismatches(f, pairs) if op == "add"}
    assert hit == {(a, f.neg(a)) for a in range(1, f.order)}


@pytest.mark.parametrize("p,deg", TABLE_FIELDS)
def test_tables_match_the_per_element_reference(p, deg):
    # the walk of "times g" by integer arithmetic gives the very tables of
    # the per-element walk it replaced, with the same modulus and generator
    f = build_field(p, deg)
    modulus, g, exp, log, zech = reference_tables(p, deg)
    assert (f.modulus, f.generator) == (modulus, g)
    assert f._exp == exp and f._log == log
    assert getattr(f, "_zech", None) == zech


def _swapped_step(honest):
    # digits 0 and 1 of g, the first column of the step matrix, traded
    def walk(columns, p, steps):
        (g0, g1, *rest), *others = columns
        assert g0 != g1
        return honest([(g1, g0, *rest), *others], p, steps)

    return walk


def _short_walk(honest):
    return lambda columns, p, steps: honest(columns, p, steps - 1)


# F_(23^2), the alphabet of q = 23, built anew under a faulty walk: a step
# matrix with two entries swapped walks the powers of another element, and
# exp[1] is not g; a walk one step short leaves g^527 without a log.  The
# certificate of the constructor must stop the command at either
@pytest.mark.parametrize("fault,bad", [(_swapped_step, 1), (_short_walk, 527)])
def test_tables_that_are_not_the_powers_of_g_are_caught(capsys, monkeypatch, fault, bad):
    monkeypatch.setattr(gf, "_walk", fault(gf._walk))
    uncached = functools.lru_cache(maxsize=None)
    monkeypatch.setattr(gf, "build_field", uncached(gf.build_field.__wrapped__))
    monkeypatch.setattr(crosscheck, "field_tower", uncached(FieldTower))
    assert main("code --q 23 --m 2 --oracle".split()) == 1
    want = f": the tables of F_(23^2) are not the powers of g = 25: first bad k = {bad}\n"
    assert capsys.readouterr().err.endswith(want)


def _order(f, a):
    """The multiplicative order of a: the least divisor k of order - 1
    with a^k = 1."""
    n1 = f.order - 1
    return next(k for k in range(1, n1 + 1) if n1 % k == 0 and f.pow(a, k) == 1)


# -- conjugation a -> a^q on the field of order q^2 ------------------------------


def test_conjugate_fixes_prime_subfield_and_involutes():
    f = build_field(7, 2)
    assert f.pow(0, 7) == 0
    assert f.pow(1, 7) == 1
    rng = random.Random(7)
    for _ in range(50):
        a = rng.randrange(f.order)
        assert f.pow(f.pow(a, 7), 7) == a


def test_conjugate_of_norm_one_element_is_inverse():
    # an element of order q+1 satisfies a^(q+1) = 1, so a^q = a^(-1)
    f = build_field(7, 2)
    a = f.pow(f.generator, 6)
    assert _order(f, a) == 8
    assert f.pow(a, 7) == f.inv(a)


# -- the root of unity beta, given by its trace a = V_1 ---------------------------


def test_primitive_tenth_root_in_f7_quartic(tower7):
    # beta, a root of x^2 - a x + 1 in the reference F_(7^4), has order 10
    f4, lam = quartic(7), tower_root(tower7)
    assert f4.pow(lam, 10) == 1
    assert f4.pow(lam, 5) != 1
    assert f4.pow(lam, 2) != 1


def test_primitive_106th_root_in_f23_quartic(tower23):
    f4, lam = quartic(23), tower_root(tower23)
    assert f4.pow(lam, 106) == 1
    for r in (2, 53):
        assert f4.pow(lam, 106 // r) != 1


def test_order_one_element_is_identity():
    # a = 2 is the trace of beta = 1, the double root of x^2 - 2x + 1:
    # V_k = 2 at every k, so the search never takes it for n > 1
    f = build_field(7, 2)
    assert all(gf._lucas(f, 2, k) == 2 for k in range(1, 60))


def test_order_must_divide_group_order():
    # a root of x^2 - a x + 1 over F_49 lies in F_(7^4), whose group order
    # 2400 is no multiple of 11: no trace has order 11
    assert gf._primitive_trace(build_field(7, 2), 11) is None
    assert gf._primitive_trace(build_field(7, 2), 5) is not None


def test_lucas_ladder_matches_the_recurrence(tower23):
    f, traces = tower23.fq2, tower23.traces
    assert all(gf._lucas(f, traces[1], k) == traces[k] for k in range(1, 54))
    assert gf._lucas(f, traces[1], 106) == 2


def test_candidate_of_the_wrong_order_is_caught(monkeypatch):
    # a ladder that always answers V_k = 2 makes every beta look like 1:
    # no candidate has order exactly n, and the search must say so
    monkeypatch.setattr(gf, "_lucas", lambda f, a, k: f.add(1, 1))
    with pytest.raises(
        VerificationError,
        match=r"no element of F_\(q\^2\) at q=7 is the trace of a root of unity of order n=10",
    ):
        FieldTower(7, 10)


def test_unity_root_lies_outside_subfield(tower7):
    # order 10 does not divide 48, so x^2 - a x + 1 has no root in F_49
    f, a = tower7.fq2, tower7.traces[1]
    assert all(f.add(f.mul(x, f.sub(x, a)), 1) for x in range(f.order))
    lam = tower_root(tower7)
    assert lam >= f.order
    assert quartic(7).pow(lam, 49) != lam


def test_tower_requires_n_dividing_q2_plus_1():
    # 16 divides 7^4 - 1 but not 7^2 + 1; 2 divides 50 but beta = -1
    # has no quadratic minimal polynomial
    for n in (16, 11, 2):
        with pytest.raises(ValueError, match=f"n={n} must exceed 2 and divide q\\^2\\+1 for q=7"):
            FieldTower(7, n)
    assert field_tower(7, 25).minimal_polynomial(1)[-1] == 1


# -- minimal polynomials over F_(q^2) ----------------------------------------------


def test_minimal_polynomial_of_unity_is_x_minus_1(tower7):
    mp = tower7.minimal_polynomial(0)
    assert mp == (tower7.fq2.neg(1), 1)


def test_minimal_polynomial_divides_xn_minus_1(tower7):
    mp = tower7.minimal_polynomial(1)
    assert len(mp) == 3 and mp[-1] == 1
    f = tower7.fq2
    full = (f.neg(1),) + (0,) * 9 + (1,)  # x^10 - 1
    q, r = poly_divmod(f, full, mp)
    assert r == ()
    assert poly_mul(f, q, mp) == full


def test_minimal_polynomial_degree_is_orbit_size(tower23):
    for i in (0, 1, 2, 53):
        assert len(tower23.minimal_polynomial(i)) - 1 == len(coset(CycContext(106, 23), i))


def test_minimal_polynomial_vanishes_exactly_on_its_coset(tower7, tower23):
    for tower in (tower7, tower23):
        f4, beta = quartic(tower.q), tower_root(tower)
        roots = [f4.pow(beta, j) for j in range(tower.n)]
        for orbit in all_cosets(CycContext(tower.n, tower.q)):
            mp = tower.minimal_polynomial(orbit[0])
            zeros = tuple(j for j, x in enumerate(roots) if not evaluate(f4, mp, x))
            assert zeros == orbit, orbit[0]


@pytest.mark.parametrize("q", [7, 23, 27, 32, 43])
def test_lucas_quadratic_is_the_orbit_product(q):
    # beta is a root of x^2 - a x + 1 in the reference F_(q^4); each
    # minimal polynomial, from the traces alone, must be the product of
    # (x - beta^j) over its coset, taken in F_(q^4)
    ctx = CycContext.for_family(q)
    tower = field_tower(q, ctx.n)
    f4, beta = quartic(q), tower_root(tower)
    assert f4.pow(beta, ctx.n) == 1
    assert all(f4.pow(beta, ctx.n // r) != 1 for r in factorize(ctx.n))
    for orbit in all_cosets(ctx):
        want = orbit_product(f4, beta, orbit)
        assert all(tower.minimal_polynomial(j) == want for j in orbit), orbit


# faults in the traces behind the minimal polynomials, on an uncached tower
# at q = 23, n = 106: a bumped V_1, and an a whose beta has order n/2 = 53.
# Each breaks the product of all minimal polynomials, x^n - 1, so both
# commands must see g * h != x^n - 1
@pytest.mark.parametrize(
    "invocation", ["code --q 23 --m 2 --oracle", "verify --level rank-oracle --qmax 23"]
)
@pytest.mark.parametrize("fault", ["bumped-trace", "order-n-over-2"])
def test_minimal_polynomial_from_a_wrong_trace_is_caught(capsys, monkeypatch, invocation, fault):
    honest, search = crosscheck.field_tower, gf._primitive_trace

    def faulty(q, n):
        if q != 23:
            return honest(q, n)
        with monkeypatch.context() as m:
            if fault == "order-n-over-2":
                m.setattr(gf, "_primitive_trace", lambda f, n: search(f, n // 2))
            tower = FieldTower(q, n)
        if fault == "bumped-trace":
            tower.traces[1] = tower.fq2.add(tower.traces[1], 1)
        return tower

    monkeypatch.setattr(crosscheck, "field_tower", faulty)
    assert main(invocation.split()) == 1
    assert capsys.readouterr().err.endswith(": g * h != x^n - 1\n")


# -- F_(q^2) inside the reference F_(q^4) = F_(q^2)[y] / (y^2 - y - b) ---------------


@pytest.mark.parametrize("q", [7, 23, 27, 32])
def test_embedding_is_a_field_homomorphism(q):
    # F_{q^2} sits in F_{q^4} as the indices below q^2, so the embedding is
    # the identity on indices: the quartic field must reproduce F_{q^2}'s
    # sums, differences, negatives and products there, and fix them under
    # the q^2 power map
    f4 = quartic(q)
    f2 = f4.base
    rng = random.Random(q)
    for _ in range(200):
        a, b = rng.randrange(f2.order), rng.randrange(f2.order)
        assert f4.add(a, b) == f2.add(a, b)
        assert f4.sub(a, b) == f2.sub(a, b)
        assert f4.neg(a) == f2.neg(a)
        assert f4.mul(a, b) == f2.mul(a, b)
        assert f4.pow(a, f2.order) == a


@pytest.mark.parametrize("q", [7, 23, 27, 32])
def test_quartic_field_is_a_field(q):
    f4 = quartic(q)
    f2 = f4.base
    assert f4.order == q**4 and f4.p == f2.p
    # y^2 - y - b has no root in F_{q^2}, so it is irreducible there
    assert all(f2.sub(f2.sub(f2.mul(x, x), x), f4.b) for x in range(f2.order))
    g = f4.generator
    assert g >= f2.order and _order(f4, g) == f4.order - 1
    rng = random.Random(q + 1)
    for _ in range(200):
        a, b, c = (rng.randrange(f4.order) for _ in range(3))
        assert f4.mul(f4.mul(a, b), c) == f4.mul(a, f4.mul(b, c))
        assert f4.mul(a, f4.add(b, c)) == f4.add(f4.mul(a, b), f4.mul(a, c))
        assert f4.add(a, f4.neg(a)) == 0
        if a:
            assert f4.mul(a, f4.inv(a)) == 1


# -- assorted number theory helpers ----------------------------------------------


def test_is_prime_spot_checks():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2**13 - 1)
    assert not is_prime(2**11 - 1)


def test_factorize():
    assert factorize(2400) == {2: 5, 3: 1, 5: 2}
    assert factorize(1) == {}


def test_prime_power_parsing():
    pp = PrimePower.from_int(27)
    assert (pp.p, pp.e, pp.q) == (3, 3, 27)
    assert PrimePower.from_int(128).e == 7
    with pytest.raises(ValueError):
        PrimePower.from_int(12)
    with pytest.raises(ValueError):
        PrimePower(4, 1, 4)
