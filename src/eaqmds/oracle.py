"""Independent first-principles verification through linear algebra
over F_{q^2}: the generator and check polynomials of the cyclic code,
and the exact rank of H * H^dagger, which must equal the ebit count
computed from the defining-set overlap.

Everything here is explicit linear algebra, so that it shares no
machinery with the set-algebra route it checks.  convolve and
toeplitz_rank pack F_p digits into big integers (Kronecker substitution),
so that one big-integer operation adds up many field products, and
reduce mod p and the modulus only where a value is read, multiplied or
about to outgrow its slot, every slot of a packed integer at once in a
few big-integer operations (word-parallel, _Packer): to the reduced
digits still packed, or to the element of each entry.  One function
builds both polynomials of a code: generator_polynomial multiplies
minimal polynomials up a tree of packed products, one reduction per
level, g over the cosets of Z and the check polynomial h over those of
its complement.  code_polynomials proves g * h = x^n - 1 with one packed
product, which is all that the generator matrix G (the shifts of g) and
the parity-check matrix H (the shifts of h reversed and conjugated) need:
G * H^dagger = 0 and both have full rank.  No matrix is written out:
H * H^dagger is Toeplitz, hh_dagger reads the vector t of its diagonals
off one convolution of h, and toeplitz_rank takes the rank from the
linear complexity of t, by Berlekamp-Massey on the packed products of t
with its two connection polynomials: 2r - 1 steps of one packed
multiply-add each for r rows, and nothing eliminated.  check_ebits ranks
the smaller of the two Gram matrices: H * H^dagger when 2|Z| <= n, else
G * G^dagger, which hh_dagger builds from g and whose rank plus
2|Z| - n is that of H * H^dagger.  The packed digits and the reducer's
constants and masks of a field, and the packed minimal polynomials of a
tower, are kept across calls, one set per slot width.  Z comes in as
plain residues, an ascending tuple such as DefiningSet.members, and n
and q from the FieldTower, so this module imports nothing of the set
route; crosscheck compares the two routes.
"""

from __future__ import annotations

import functools
import sys
from math import isqrt
from typing import Sequence

from .exceptions import VerificationError
from .gf import Field, FieldTower


# convolve and toeplitz_rank pack F_p digit vectors into integers, one slot
# of _slot_width bits per digit (Kronecker substitution), so that a
# big-integer product adds up the digit convolutions of many field products
# at once.  On a little-endian host a slot as wide as a machine word is read
# back through a memoryview cast.
_WORD_CODES = (
    {memoryview(bytes(8)).cast(c).itemsize * 8: c for c in "HIQ"}
    if sys.byteorder == "little"
    else {}
)


def _slot_width(inner: int, d: int, p: int) -> int:
    """Bits per slot for a product with the given inner dimension over
    F_{p^d}: a slot sums at most inner * d products of two digits below p,
    so it holds every sum once 2^width > inner * d * (p-1)^2, and it holds
    one product even for an empty matrix.  Rounded up to 16, 32 or 64 bits
    where one of them is wide enough.  Every width so chosen for a field of
    build_field, so of order at most gf.MAX_EXTENSION_ORDER, or of degree 1
    passes the checks of _Packer: it is at least 16 bits or about twice as
    wide as p, which leaves the reducer room.  Where _Packer refuses one,
    as over F_{7^6}, F_{17^4}, F_{19^4} and F_{2^18} at 16 bits, _packer
    takes the next."""
    bits = (max(inner, 1) * d * (p - 1) ** 2).bit_length()
    return next((w for w in (16, 32, 64) if bits <= w), bits)


def _pack(parts, stride: int) -> int:
    """sum(part_i << (i * stride)) for parts below 2^stride: joined as
    bytes when the stride is a whole number of bytes, else shifted in."""
    if stride % 8:
        return sum(x << (stride * i) for i, x in enumerate(parts) if x)
    size = stride // 8
    return int.from_bytes(b"".join([x.to_bytes(size, "little") for x in parts]), "little")


def _unpack(x: int, count: int, stride: int) -> list[int]:
    """The count parts of x, stride bits each, lowest first: _pack undone."""
    if stride % 8:
        return [(x >> (stride * i)) & ((1 << stride) - 1) for i in range(count)]
    b, size = x.to_bytes(count * stride // 8, "little"), stride // 8
    return [int.from_bytes(b[i : i + size], "little") for i in range(0, len(b), size)]


def _repeat(unit: int, step: int, times: int) -> int:
    """unit repeated times, step bits apart, for unit below 2^step."""
    return unit * (((1 << (step * times)) - 1) // ((1 << step) - 1))


def _barrett(p: int, bound: int) -> tuple[int, int]:
    """(s, m) with m = ceil(2^s / p), for which (x * m) >> s = x // p for
    every 0 <= x <= bound: s = bits(bound) + bits(p), so that
    x * (m * p - 2^s) < bound * p < 2^s."""
    s = bound.bit_length() + p.bit_length()
    return s, -((-1 << s) // p)


class _Packer(dict):
    """element -> its F_p digits packed one to a slot of width bits, built
    on first use straight from the index, one base-p digit a shift (no
    digit tuple, no join); vector packs elements 2d-1 slots apart, the
    first lowest.  A pure memo table of the field, filled only with the
    elements read: _packer keeps one per (field, width) across calls.

    digits and reduce read back count such entries, whose slot k holds
    coefficient k of a polynomial of degree below 2d-1 over the integers,
    any value below 2^width, by a few big-integer operations on the whole
    of packed, all slots at once:
      - mod p: for p = 2 an AND with the low bit of every slot.  For odd
        p, each slot's bits from h up are folded into its low ones,
        x -> (x mod 2^h) + (x >> h) * (2^h mod p), which leaves it at
        most fbound.  Then the even and the odd slots, each in a lane of
        2 * width bits, take the quotient (x * m) >> s of their lane, and
        the remainder is x - p * quotient.  m = ceil(2^s / p) gives the
        exact floor(x / p) for every x <= fbound, as
        x * (m * p - 2^s) < 2^s, and fbound * m < 2^(2 * width) keeps the
        product in its lane;
      - mod f: the high slots d .. 2d-2 of every entry, moved down to its
        slot 0, times x^d mod f packed, of degree a, are added into the
        low d slots; repeated while the degree (2d-2 at first, lowered by
        d - a each time) reaches d, then mod p again.  That is digits:
        the entries packed as vector packs their elements.  With no fold
        (d = 1), the second mod p leaves reduced slots as they are;
      - index: digits times the packing of (p^(d-1), ..., p, 1) holds in
        slot d-1 of each entry the element sum(digit_k * p^k): every slot
        of that product sums at most p^d - 1 < 2^width, so none carries.
        reduce reads that one slot per entry.
    The constructor raises ValueError unless every bound above holds, and
    the slots after mod f stay below 2^width.  The masks of these steps
    cover the largest count seen, one set per packer: an AND with a
    longer mask costs only the shorter operand.  elements maps the reduced
    packing of each discrepancy toeplitz_rank has read to its element."""

    def __init__(self, f: Field, width: int):
        super().__init__()
        p, d = f.p, f.degree
        self.f, self.width, self.stride = f, width, (2 * d - 1) * width
        xd = [-c % p for c in f.modulus[:d]]  # x^d mod f
        a = max((k for k, c in enumerate(xd) if c), default=0)
        self.folds, deg, bound = 0, 2 * d - 2, p - 1
        while deg >= d:
            self.folds, deg, bound = self.folds + 1, deg - d + a, bound * (1 + (a + 1) * (p - 1))
        ok = p**d <= 1 << width and bound < 1 << width
        if p != 2 and ok:
            h = (width + p.bit_length() + 1) // 2
            c = pow(2, h, p)
            fbound = (1 << h) - 1 + ((1 << (width - h)) - 1) * c
            s, m = _barrett(p, fbound)
            excess = m * p - (1 << s)
            ok = fbound < 1 << width and fbound * m < 1 << (2 * width)
            ok = ok and 0 <= excess and fbound * excess < 1 << s
            # a slot x folds to x - (x >> h) * self.c
            self.h, self.c, self.s, self.m = h, (1 << h) - c, s, m
        if not ok:
            raise ValueError(f"the slot reducer is not exact at {width} bits over {f!r}")
        self.xd = _pack(xd, width)
        self.horner = _pack([p**k for k in range(d - 1, -1, -1)], width)
        self.elements: dict[int, int] = {}
        self._grow(1)

    def __missing__(self, v: int) -> int:
        # the base-p digits of v, lowest first, one to a slot
        p, width, packed, shift, rest = self.f.p, self.width, 0, 0, v
        while rest:
            rest, digit = divmod(rest, p)
            packed |= digit << shift
            shift += width
        self[v] = packed
        return packed

    def vector(self, elements: Sequence[int]) -> int:
        return _pack([self[v] for v in elements], self.stride)

    def _grow(self, count: int) -> None:
        """The masks for count entries, each one pattern repeated: per slot,
        its low bit (p = 2) or its low width - h bits; per lane of two
        slots, its even slot, its odd slot and the quotient bits of each;
        per entry, its low d slots and its low d - 1 slots."""
        w, d, stride = self.width, self.f.degree, self.stride
        slots = count * (2 * d - 1)
        if self.f.p == 2:
            per_slot = (_repeat(1, w, slots),)
        else:
            lanes = (slots + 1) // 2
            even = _repeat((1 << w) - 1, 2 * w, lanes)
            quotient = _repeat((1 << (2 * w - self.s)) - 1, 2 * w, lanes)
            high = _repeat((1 << (w - self.h)) - 1, w, slots)
            per_slot = (high, even, even << w, quotient, quotient << w)
        self.masks = (
            *per_slot,
            _repeat((1 << (d * w)) - 1, stride, count),
            _repeat((1 << ((d - 1) * w)) - 1, stride, count),
        )
        self.capacity = count

    def _mod_p(self, x: int) -> int:
        if self.f.p == 2:
            return x & self.masks[0]
        high, even, odd, quotient_even, quotient_odd = self.masks[:5]
        m, s = self.m, self.s
        x -= ((x >> self.h) & high) * self.c
        q = ((x & even) * m >> s) & quotient_even
        return x - (q + (((x & odd) * m >> s) & quotient_odd)) * self.f.p

    def digits(self, packed: int, count: int) -> int:
        """The count entries of packed, each reduced mod p and mod f to the
        d digits of its element in its low slots, 0 above: the packing of
        those elements by vector."""
        if count > self.capacity:
            self._grow(count)
        r = self._mod_p(packed)
        low, high = self.masks[-2:]
        shift, xd = self.f.degree * self.width, self.xd
        for _ in range(self.folds):
            r = (r & low) + ((r >> shift) & high) * xd
        return self._mod_p(r)

    def reduce(self, packed: int, count: int) -> list[int]:
        """The elements of the count entries of packed, lowest first."""
        u = self.digits(packed, count) * self.horner
        w, first, span = self.width, self.f.degree - 1, 2 * self.f.degree - 1
        code = _WORD_CODES.get(w)
        if code is None:
            mask = (1 << w) - 1
            return [(u >> (self.stride * e + first * w)) & mask for e in range(count)]
        slots = memoryview(u.to_bytes(count * self.stride // 8, "little")).cast(code)
        return slots[first::span].tolist()


@functools.lru_cache(maxsize=None)
def _packer(f: Field, width: int) -> _Packer:
    """The one _Packer per (field, width): fields are per-(p, d) singletons
    of build_field, so the digit packings, x^d mod f and the masks are built
    once.  A slot of 16 or 32 bits whose reducer _Packer refuses widens to
    the next of 32 and 64 bits: the refused width is tried once and then
    maps to the packer of the wider one."""
    try:
        return _Packer(f, width)
    except ValueError:
        if width not in (16, 32):
            raise
        return _packer(f, 2 * width)


def convolve(field: Field, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """c_e = sum_s a_s * b_(e-s) over a field F_p[x]/(f): the coefficients
    of the product of the polynomials with coefficients a and b.

    Both vectors pack by _Packer.vector, element s from slot s*(2d-1) on, so
    one big-integer product holds every c_e, and the slot width covers
    sums of min(len a, len b) products."""
    if not (a and b):
        return []
    packed = _packer(field, _slot_width(min(len(a), len(b)), field.degree, field.p))
    return packed.reduce(packed.vector(a) * packed.vector(b), len(a) + len(b) - 1)


def toeplitz_rank(f: Field, t: Sequence[int]) -> int:
    """Exact rank over a field F_p[x]/(f) built by build_field of the r x r
    Toeplitz matrix with entry (i, j) = t[r - 1 - i + j], t of 2r - 1
    entries.

    With its rows reversed it is the Hankel matrix (t[i + j]), whose rank
    is min(L, 2r - L) for L the linear complexity of t (Jonckheere and Ma,
    Linear Algebra Appl. 125, 1989), which Berlekamp-Massey gives in
    2r - 1 steps (Massey, IEEE Trans. IT 15, 1969).  The connection
    polynomials C and B are never formed, only their products with t,
    packed by _Packer.vector: ct = C * t from index k on, whose entry 0 is
    the discrepancy d of step k, and bt = B * t from index k - m on, B
    being the C of m steps back, with discrepancy b.  So the update
    C -= (d / b) x^m B is ct += pack(-d / b) * bt, with no shift, left
    unreduced; where 2L <= k, B takes the old C, and L becomes k + 1 - L.
    B = 1 at k = -1, so bt starts as t one entry up.  Both keep only the
    n - k live entries of step k.  bt, being multiplied, is reduced: ct is
    reduced at each step where 2L <= k, and once room updates have piled
    up, room keeping a slot of one digit plus room * d products of two
    digits below 2^width, where the reducer is exact.  Elsewhere only
    entry 0 is reduced, to read d.  Once ct is 0, no later step has a
    discrepancy."""
    n = len(t)
    packed = _packer(f, _slot_width(2, f.degree, f.p))
    stride, entry, elements = packed.stride, (1 << packed.stride) - 1, packed.elements
    if (room := ((1 << packed.width) - f.p) // (f.degree * (f.p - 1) ** 2)) < 1:
        raise ValueError(f"no room for an unreduced update at {packed.width} bits over {f!r}")
    ct = packed.vector(t)
    bt, b, length, pending = ct << stride, 1, 0, 0
    for k in range(n):
        if not ct:
            break
        change = 2 * length <= k
        if pending and (change or pending == room):
            ct, pending = packed.digits(ct, n - k), 0
        if e := ct & entry:
            if pending:
                e = packed.digits(e, 1)
            if (d := elements.get(e)) is None:
                d = elements[e] = packed.reduce(e, 1)[0]
            if d:
                update = packed[f.neg(f.mul(d, f.inv(b)))] * (bt & ((1 << ((n - k) * stride)) - 1))
                if change:
                    bt, b, length = ct, d, k + 1 - length
                ct, pending = ct + update, pending + 1
        ct >>= stride
    return min(length, n + 1 - length)


# ---------------------------------------------------------------------------
# cyclic-code polynomials and matrices
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _leaves(tower: FieldTower, width: int) -> list[tuple[int, int]]:
    """(packing, degree) of the minimal polynomial of each coset {x, n-x},
    by the _Packer of (tower.fq2, width), indexed by x <= n/2."""
    packed = _packer(tower.fq2, width)
    polys = map(tower.minimal_polynomial, range(tower.n // 2 + 1))
    return [(packed.vector(m), len(m) - 1) for m in polys]


def generator_polynomial(z: Sequence[int], tower: FieldTower) -> tuple[int, ...]:
    """The monic generator of the cyclic code with defining set Z, ascending
    residues mod n, constant term first: the product of (x - beta^j) over
    j in Z, taken as the product of the minimal polynomials of the cosets
    {x, n-x} that Z meets, multiplied pairwise up a balanced tree.  The
    result has degree |Z| (checked), which fails for a Z not closed under
    x -> n-x.  On the complement of Z it gives the check polynomial
    (x^n - 1)/g, which code_polynomials builds so and checks.

    The tree stays packed, as convolve packs, from the leaves of _leaves:
    each level is one big-integer product per pair, the products laid side
    by side size entries apart and reduced by one _Packer.digits, and g is
    read as elements once, at the root.  One slot width serves every tree
    of the tower: the two factors of a product have degrees adding up to
    at most n, so its inner dimension, the shorter length, is at most
    n/2 + 1."""
    f, n = tower.fq2, tower.n
    width = _slot_width(n // 2 + 1, f.degree, f.p)
    packed, leaves = _packer(f, width), _leaves(tower, width)
    level, degrees = zip(*[leaves[x] for x in {min(j, n - j) for j in z}] or [(packed[1], 0)])
    size = 3  # entries per part: a leaf has degree <= 2, a product 2 * size - 1
    while len(level) > 1:
        pairs = [a * b for a, b in zip(level[::2], level[1::2])]
        level, size = [*pairs, *level[2 * len(pairs) :]], 2 * size - 1
        joined = packed.digits(_pack(level, size * packed.stride), len(level) * size)
        level = _unpack(joined, len(level), size * packed.stride)
    g = tuple(packed.reduce(level[0], sum(degrees) + 1))
    if len(g) != len(z) + 1 or g[-1] != 1:
        raise VerificationError(
            f"generator polynomial has degree {len(g) - 1} and leading coefficient "
            f"{g[-1]}: expected monic of degree |Z| = {len(z)}"
        )
    return g


def code_polynomials(z: Sequence[int], tower: FieldTower) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(g, h), checked: g the generator polynomial of Z, and h the check
    polynomial, built as the generator of the complement of Z.  The
    generator matrix G is the k x n shifts of g; the parity-check matrix H
    is the (n-k) x n shifts of h reversed and conjugated by the q-th power.

    The one check g * h = x^n - 1 proves all that G and H need, with no
    division and no matrix written out.  Entry (i, j) of G * H^dagger is
    coefficient k + j - i of g * h, one of coefficients 1 .. n-1, so
    G * H^dagger = 0.  Coefficient 0 is g_0 * h_0 = -1, so g_0 != 0 and G
    has a pivot in every row; H's first entry is the conjugate of h's
    leading 1, so H has one too.  Their row counts n - |Z| and |Z| add up
    to n by generator_polynomial's degree checks: the ranks are
    complementary.  g and h pack at their trees' width, which covers g * h."""
    f, n = tower.fq2, tower.n
    if len(z) >= n:
        raise ValueError("defining set covers everything; the code is {0}")
    if not z:
        raise ValueError("empty defining set: the code is all of F^n, dual is 0")
    g = generator_polynomial(z, tower)
    h = generator_polynomial(sorted(set(range(n)).difference(z)), tower)
    packed = _packer(f, _slot_width(n // 2 + 1, f.degree, f.p))
    product = packed.digits(packed.vector(g) * packed.vector(h), len(g) + len(h) - 1)
    if product != packed[f.neg(1)] + (packed[1] << (n * packed.stride)):
        raise VerificationError("g * h != x^n - 1")
    return g, h


def hh_dagger(f: Field, h: Sequence[int], n: int) -> list[int]:
    """H * H^dagger over the field f of order q^2, where H is the
    parity-check matrix of length n of the check polynomial h: its
    r = n - deg h rows are the shifts of u = (h reversed)^q.  The product
    is Toeplitz, and comes as the vector t of its 2r - 1 diagonals, with
    entry (i, j) = t[r - 1 - i + j] (see toeplitz_rank).  Given g for h,
    the product is G * G^dagger, with k = n - deg g rows.

    Entry (i, j) is sum_s u_s * u_(s+i-j)^q.  As x^(q^2) = x, u^q reversed
    is h, so the entry is c[deg h - i + j] of c = convolve(u, h), and 0
    where that index falls outside c.  That c is symmetric in u and h, so
    the shifts of g and of (g reversed)^q have one Gram matrix."""
    q = isqrt(f.order)
    if q * q != f.order:
        raise ValueError(f"field order {f.order} is not a square")
    rows = n - len(h) + 1
    c = convolve(f, [f.pow(v, q) for v in reversed(h)], h)
    # c padded with zeros, so that t is one slice of it
    pad = [0] * max(0, rows - len(h))
    start = len(pad) + len(h) - rows  # t[0], entry (rows - 1, 0)
    return (pad + c + pad)[start : start + 2 * rows - 1]


def check_ebits(z: Sequence[int], tower: FieldTower, c: int, where: str) -> None:
    """rank(HH^dagger) of the checked polynomials of Z must equal c, the
    ebit count of the set route; where names the code in the
    counterexample.

    The smaller Gram matrix is ranked: HH^dagger has |Z| rows and
    GG^dagger has k = n - |Z|.  The Hermitian hull has dimension
    k - rank(GG^dagger) = (n - k) - rank(HH^dagger) (Guenda, Jitman and
    Gulliver, Des. Codes Cryptogr. 86, 2018), so where 2|Z| > n the rank
    of HH^dagger is rank(GG^dagger) + 2|Z| - n, and the counterexample
    says so."""
    g, h = code_polynomials(z, tower)
    f, n = tower.fq2, tower.n
    excess = max(0, 2 * len(z) - n)
    side = " (rank(GG^dagger) + 2|Z| - n)" if excess else ""
    got = toeplitz_rank(f, hh_dagger(f, g if excess else h, n)) + excess
    if got != c:
        raise VerificationError(
            f"rank(HH^dagger) = {got}{side} but the set overlap has size {c} {where}"
        )
