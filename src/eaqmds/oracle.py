"""Independent first-principles verification through explicit matrices
over F_{q^2}: generator and parity-check matrices of the cyclic code,
the exact rank of H * H^dagger (which must equal the ebit count computed
from the defining-set overlap), and exhaustive distance checks for toys.

Everything here is explicit linear algebra, so that it shares no
machinery with the set-algebra route it checks.  matmul, convolve and
rank pack F_p digits into big integers (Kronecker substitution), so that
one big-integer operation adds up many field products, and reduce mod p
and the modulus only where a value is read.  One function builds both
polynomials of a code: generator_polynomial multiplies minimal
polynomials up a tree with convolve, g over the cosets of Z and the
check polynomial h over those of its complement.  G and H are the shifts
of one vector each, and are held as that vector (ShiftMatrix), never
written out: G * H^dagger and H * H^dagger are Toeplitz, so
dagger_product takes each from one convolution.  The one G * H^dagger
proves g * h = x^n - 1, and the ranks of G and H are read off their
echelon shape.  The dense matmul and
ShiftMatrix.dense are kept as references for tests.  rank is the one
elimination: the toy distances either enumerate codewords with the
field's own add and mul or scan supports with rank.  The rank-oracle
suite (verify_rank_oracle) compares the two routes on every family code
and on random coset-closed sets.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass
from math import isqrt
from typing import Sequence

from .cosets import CycContext, DefiningSet, all_cosets
from .eaqecc import ebits
from .exceptions import VerificationError
from .families import FamilyCode, iter_family_sizes, verify_family_code
from .gf import Field, FieldTower, field_tower

BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class MatrixGF:
    """Dense matrix over one Field; entries are canonical element indices
    in row-major tuples."""

    field: Field
    data: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.data:
            width = len(self.data[0])
            order = self.field.order
            for i, r in enumerate(self.data):
                if len(r) != width:
                    raise VerificationError(f"row {i} has {len(r)} entries, row 0 has {width}")
                if r and not (0 <= min(r) and max(r) < order):
                    v = next(v for v in r if not 0 <= v < order)
                    raise VerificationError(
                        f"entry {v} in row {i} is not an element of {self.field!r}"
                    )

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0]) if self.data else 0

    def transpose(self) -> "MatrixGF":
        return MatrixGF(self.field, tuple(zip(*self.data)))

    def is_zero(self) -> bool:
        return not any(map(any, self.data))


# matmul and convolve pack F_p digit vectors into integers, one slot of
# _slot_width bits per digit (Kronecker substitution), so that a big-integer
# product adds up the digit convolutions of many field products at once.  On
# a little-endian host a slot as wide as a machine word unpacks through a
# memoryview cast.
_WORD_CODES = (
    {memoryview(bytes(8)).cast(c).itemsize * 8: c for c in "HIQ"}
    if sys.byteorder == "little"
    else {}
)


def _slot_width(inner: int, d: int, p: int) -> int:
    """Bits per slot for a product with the given inner dimension over
    F_{p^d}: a slot sums at most inner * d products of two digits below p,
    so it holds every sum once 2^width > inner * d * (p-1)^2.  Rounded up
    to 16, 32 or 64 bits where one of them is wide enough."""
    bits = (inner * d * (p - 1) ** 2).bit_length()
    return next((w for w in (16, 32, 64) if bits <= w), bits)


def _pack(parts, stride: int) -> int:
    """sum(part_i << (i * stride)) for parts below 2^stride: joined as
    bytes when the stride is a whole number of bytes, else shifted in."""
    if stride % 8:
        return sum(x << (stride * i) for i, x in enumerate(parts) if x)
    size = stride // 8
    return int.from_bytes(b"".join([x.to_bytes(size, "little") for x in parts]), "little")


def _unpack(packed: int, count: int, width: int):
    """The count slots of width bits that make up packed, lowest first."""
    code = _WORD_CODES.get(width)
    if code is None:
        mask = (1 << width) - 1
        return [(packed >> (width * i)) & mask for i in range(count)]
    return memoryview(packed.to_bytes(count * width // 8, "little")).cast(code)


def _check_packable(f: Field) -> None:
    """The packed kernels need a field F_p[x]/(f) built by build_field: the
    digits of a QuadraticExtension do not multiply as polynomials modulo
    one F_p polynomial."""
    if len(f.modulus) != f.degree + 1:
        raise ValueError(f"{f!r} is not F_p[x]/(f): the packed kernels need a modulus over F_p")


class _Packer(dict):
    """element -> its F_p digits packed one to a slot of width bits, built
    on first use; vector packs elements 2d-1 slots apart, the first lowest."""

    def __init__(self, f: Field, width: int):
        super().__init__()
        self.f, self.width, self.stride = f, width, (2 * f.degree - 1) * width

    def __missing__(self, v: int) -> int:
        self[v] = _pack(self.f.decode(v), self.width)
        return self[v]

    def vector(self, elements: Sequence[int]) -> int:
        return _pack([self[v] for v in elements], self.stride)


def _slot_reducer(f: Field, width: int):
    """reduce(packed, count): the count elements held by packed, 2d-1
    slots of width bits each, lowest first, where the slots of an entry
    hold the digits of a polynomial of degree below 2d-1 over the integers.
    Each entry reduces its slots mod p into the index u of that polynomial
    over F_p, that is (u mod p^d) + x^d * (u div p^d); the field's own mul
    gives each high part that occurs times x^d once per reducer."""
    p, d, order = f.p, f.degree, f.order
    span = 2 * d - 1
    xd = f.encode(-c for c in f.modulus[:d])  # x^d mod f
    high = {0: 0}
    add = f.add

    def reduce(packed: int, count: int) -> list[int]:
        r = _unpack(packed, count * span, width)
        u = [x % p for x in r[span - 1 :: span]]
        for k in range(span - 2, -1, -1):
            u = [x * p + y % p for x, y in zip(u, r[k::span])]
        for h in {x // order for x in u}.difference(high):
            high[h] = f.mul(h, xd)
        return [x if x < order else add(x % order, high[x // order]) for x in u]

    return reduce


def matmul(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    """A * B over a field F_p[x]/(f) built by build_field: the dense
    reference for the shift-structured products of dagger_product.

    Row j of B packs as one integer B_j with the digits of entry c from
    slot c*(2d-1) on.  Row i of the product is then S_i = sum_j
    pack(a_ij) * B_j, one big-integer multiply-add per nonzero a_ij, and
    slot c*(2d-1) + k of S_i holds coefficient k of
    sum_j a_ij(x) * b_jc(x), exactly, as no slot sum reaches 2^width.
    """
    if a.field is not b.field:
        raise ValueError("matrices over different fields")
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    f = a.field
    _check_packable(f)
    width = _slot_width(a.cols, f.degree, f.p)
    packed = _Packer(f, width)
    reduce = _slot_reducer(f, width)
    packed_rows = [packed.vector(row) for row in b.data]
    out = []
    for row in a.data:
        acc = 0
        for v, bj in zip(row, packed_rows):
            if v:
                acc += packed[v] * bj
        out.append(tuple(reduce(acc, b.cols)))
    return MatrixGF(f, tuple(out))


def convolve(field: Field, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """c_e = sum_s a_s * b_(e-s) over a field F_p[x]/(f): the coefficients
    of the product of the polynomials with coefficients a and b.

    Both vectors pack as in matmul, element s from slot s*(2d-1) on, so
    one big-integer product holds every c_e, and the slot width covers
    sums of min(len a, len b) products.
    """
    _check_packable(field)
    if not (a and b):
        return []
    width = _slot_width(min(len(a), len(b)), field.degree, field.p)
    packed = _Packer(field, width)
    prod = packed.vector(a) * packed.vector(b)
    return _slot_reducer(field, width)(prod, len(a) + len(b) - 1)


@dataclass(frozen=True)
class ShiftMatrix:
    """The matrix of cols columns whose row i is vec shifted right by i,
    with zeros around it, for i = 0 .. cols - len(vec): G and H of a
    cyclic code, held as their row 0.  vec has no trailing zeros.  When
    vec[0] is nonzero the matrix is in echelon form with a pivot in every
    row, so its rank is its row count."""

    field: Field
    vec: tuple[int, ...]
    cols: int

    def __post_init__(self) -> None:
        if not (self.vec and self.vec[-1] and len(self.vec) <= self.cols):
            raise ValueError(f"row 0 must hold 1 to {self.cols} entries, the last one nonzero")

    @property
    def rows(self) -> int:
        return self.cols - len(self.vec) + 1

    def dense(self) -> MatrixGF:
        """Every row written out: the reference for tests and the toy distances."""
        v, pad = self.vec, self.rows - 1
        return MatrixGF(self.field, tuple((0,) * i + v + (0,) * (pad - i) for i in range(pad + 1)))


def dagger_product(a: ShiftMatrix, b: ShiftMatrix) -> MatrixGF:
    """A * B^dagger over the field of order q^2, for shift matrices A and B.

    With u and w the row-0 vectors of A and B, entry (i, j) is
    sum_s u_s * w_(s+i-j)^q, the Toeplitz entry c[len(w) - 1 - i + j] of
    c = convolve(u, reversed w^q), and 0 where that index falls outside c.
    """
    f = a.field
    if b.field is not f:
        raise ValueError("matrices over different fields")
    if a.cols != b.cols:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} times ({b.rows}x{b.cols})^dagger")
    q = isqrt(f.order)
    if q * q != f.order:
        raise ValueError(f"field order {f.order} is not a square")
    powq = f.power_map(q)
    w = [powq[v] for v in reversed(b.vec)]
    c = convolve(f, a.vec, w)
    # c padded with zeros, so that row i of the product is one slice of it
    lead = max(0, a.rows - len(w))
    padded = [0] * lead + c + [0] * max(0, len(w) - 1 + b.rows - len(c))
    first = lead + len(w) - 1  # entry (0, 0)
    return MatrixGF(f, tuple(tuple(padded[first - i : first - i + b.rows]) for i in range(a.rows)))


def conjugate_transpose(m: MatrixGF, q: int) -> MatrixGF:
    """Transpose with entry-wise q-th power (the field must have order q^2)."""
    f = m.field
    if f.order != q * q:
        raise ValueError(f"field order {f.order} is not {q}^2")
    powq = f.power_map(q)
    return MatrixGF(f, tuple(tuple(powq[v] for v in col) for col in zip(*m.data)))


def _multipliers(f: Field, values: Sequence[int], pivot: int) -> list[int]:
    """-a / pivot for each a in values: the factors that clear those
    entries of a column against its pivot."""
    scale = f.neg(f.inv(pivot))
    return [f.mul(a, scale) for a in values]


def rank(m: MatrixGF) -> int:
    """Exact rank over a field F_p[x]/(f) built by build_field, by
    Gaussian elimination on rows packed as in matmul, column 0 highest.

    An eliminated column is cleared from every row, so the entry of the
    next column is the row shifted right.  Clearing an entry a against the
    pivot row adds pack(-a / pivot) * (pivot row): one big-integer
    multiply-add with no reduction, as a slot sums a digit below p and
    fewer than nrows updates of at most d*(p-1)^2.  An entry is reduced
    when its column is reached, a pivot row once if it was ever updated;
    a row never updated holds its digits.  The rank does not depend on
    which nonzero entry of a column is the pivot.
    """
    f = m.field
    _check_packable(f)
    width = _slot_width(m.rows, f.degree, f.p)
    packed = _Packer(f, width)
    stride = packed.stride
    reduce = _slot_reducer(f, width)
    rows = [packed.vector(row[::-1]) for row in m.data]
    active = list(range(m.rows))  # rows not yet taken as pivots, in order
    updated = set()
    shift = m.cols * stride
    while active and shift:
        shift -= stride
        hits = [(i, top) for i in active if (top := rows[i] >> shift)]
        values = reduce(_pack([top for _i, top in hits], stride), len(hits))
        mask = (1 << shift) - 1
        for i, _top in hits:
            rows[i] &= mask
        k = next((k for k, v in enumerate(values) if v), None)
        if k is None:
            continue
        piv = hits[k][0]
        prow = rows[piv]
        if piv in updated:
            prow = packed.vector(reduce(prow, shift // stride))
        active.remove(piv)
        if len(hits) > k + 1:
            for (i, _top), mult in zip(hits[k + 1 :], _multipliers(f, values[k + 1 :], values[k])):
                if mult:
                    rows[i] += packed[mult] * prow
                    updated.add(i)
    return m.rows - len(active)


# ---------------------------------------------------------------------------
# cyclic-code matrices
# ---------------------------------------------------------------------------


def generator_polynomial(z: DefiningSet, tower: FieldTower) -> tuple[int, ...]:
    """The monic generator of the cyclic code with defining set Z, constant
    term first: the product of (x - root^j) over j in Z, taken as the
    product of the minimal polynomials of Z's cosets, multiplied pairwise
    up a balanced tree by convolve.  The result has degree |Z| (checked).
    On the complement of Z it gives the check polynomial (x^n - 1)/g,
    which code_matrices builds so and checks."""
    ctx = z.ctx
    if tower.n != ctx.n or tower.q != ctx.q:
        raise ValueError("tower does not match the defining set's context")
    f = tower.fq2
    polys = [tower.minimal_polynomial(rep) for rep in z.coset_reps()] or [(1,)]
    while len(polys) > 1:
        pairs = [polys[i : i + 2] for i in range(0, len(polys), 2)]
        polys = [convolve(f, *pair) if len(pair) == 2 else pair[0] for pair in pairs]
    g = tuple(polys[0])
    if len(g) != len(z) + 1 or g[-1] != 1:
        raise VerificationError(
            f"generator polynomial has degree {len(g) - 1} and leading coefficient "
            f"{g[-1]}: expected monic of degree |Z| = {len(z)}"
        )
    return g


def code_matrices(z: DefiningSet, tower: FieldTower) -> tuple[ShiftMatrix, ShiftMatrix]:
    """(G, H), checked: G the k x n shifts of the generator polynomial g of
    Z, H the (n-k) x n shifts of the reversed check polynomial h, the
    generator of the complement of Z, conjugated by the q-th power.  Row r
    of H then satisfies sum_j r_j^q * g_j = 0 against every row g of G.

    Entry (i, j) of G * H^dagger is coefficient k + j - i of g * h, so the
    entries cover coefficients 1 .. n-1.  Every entry 0, g and h monic of
    degrees adding up to n and g_0 * h_0 = -1 is exactly g * h = x^n - 1:
    g divides x^n - 1 with cofactor h, and no division is needed.  The
    ranks need no elimination either: each row-0 vector starts with a
    nonzero entry (g_0, and the conjugated leading 1 of h), so each matrix
    has a pivot in every row, and the row counts add up to n."""
    n = z.ctx.n
    if len(z) >= n:
        raise ValueError("defining set covers everything; the code is {0}")
    if z.is_empty():
        raise ValueError("empty defining set: the code is all of F^n, dual is 0")
    f = tower.fq2
    gpoly = generator_polynomial(z, tower)
    hpoly = generator_polynomial(z.complement(), tower)
    powq = f.power_map(tower.q)
    g = ShiftMatrix(f, gpoly, n)
    h = ShiftMatrix(f, tuple(powq[v] for v in reversed(hpoly)), n)
    if not (g.vec[0] and h.vec[0]) or g.rows + h.rows != n:
        raise VerificationError("generator/parity-check ranks are not complementary")
    if not dagger_product(g, h).is_zero():
        raise VerificationError("G * H^dagger != 0")
    if f.mul(gpoly[0], hpoly[0]) != f.neg(1):
        raise VerificationError("g * h != x^n - 1")
    return g, h


def rank_hh_dagger(h: ShiftMatrix) -> int:
    """Exact rank of H * H^dagger over the field of order q^2.

    This is the matrix route to the ebit count; it must equal the size of
    the defining-set overlap computed by the set-algebra route.
    """
    return rank(dagger_product(h, h))


def check_ebits(h: ShiftMatrix, c: int, where: str) -> None:
    """rank(HH^dagger) must equal c, the ebit count of the set route;
    where names the code in the counterexample."""
    got = rank_hh_dagger(h)
    if got != c:
        raise VerificationError(
            f"rank(HH^dagger) = {got} but the set overlap has size {c} {where}"
        )


def confirm_ebits(fc: FamilyCode, tower: FieldTower) -> None:
    """Build the checked G and H of a verified family code over its tower
    and compare rank(HH^dagger) with the code's ebit count."""
    _g, h = code_matrices(fc.defining_set, tower)
    check_ebits(h, fc.verified.c, f"at q={fc.spec.q.q}, m={fc.m}")


def rowspace_defining_set(m: MatrixGF, tower: FieldTower) -> set[int]:
    """Exponents z with row(root^z) = 0 for every row: the defining set of
    the cyclic code spanned by the rows (rows read as polynomials; their
    F_{q^2} entries are F_{q^4} elements as they stand)."""
    f4 = tower.fq4
    out = set()
    for z in range(tower.n):
        x = tower.root_power(z)
        ok = True
        for row in m.data:
            acc = 0
            for c in reversed(row):
                acc = f4.add(f4.mul(acc, x), c)
            if acc != 0:
                ok = False
                break
        if ok:
            out.add(z)
    return out


# ---------------------------------------------------------------------------
# the rank-oracle suite
# ---------------------------------------------------------------------------

_RANDOM_SEED = 20250808
_RANDOM_SETS_PER_Q = 50


def _random_closed_sets(ctx: CycContext, count: int, seed: int) -> list[DefiningSet]:
    """count coset-closed sets, neither empty nor full, each coset drawn
    with probability 1/2."""
    rng = random.Random(seed)
    reps = [c.rep for c in all_cosets(ctx)]
    out = []
    while len(out) < count:
        z = DefiningSet.from_cosets(ctx, [r for r in reps if rng.random() < 0.5])
        if not z.is_empty() and len(z) < ctx.n:
            out.append(z)
    return out


def verify_rank_oracle(q_max: int) -> dict[str, int]:
    """rank(HH^dagger) against the set-route ebit count: every family code
    with q <= q_max, then random coset-closed sets at q = 7 and 23."""
    checked = 0
    for spec in iter_family_sizes(q_max):
        if spec.m_max < 2:
            continue
        tower = field_tower(spec.q.q, spec.n)
        for m in range(2, spec.m_max + 1):
            confirm_ebits(verify_family_code(spec, m), tower)
            checked += 1
    for q in (7, 23):
        if q > q_max:
            continue
        ctx = CycContext.for_family(q)
        tower = field_tower(q, ctx.n)
        for z in _random_closed_sets(ctx, _RANDOM_SETS_PER_Q, _RANDOM_SEED + q):
            where = f"for a random set of size {len(z)} at q={q}"
            check_ebits(code_matrices(z, tower)[1], ebits(z), where)
            checked += 1
    return {"codes": checked}


# ---------------------------------------------------------------------------
# exhaustive minimum distance (toy scale)
# ---------------------------------------------------------------------------


def _min_weight_by_codewords(g: MatrixGF) -> int:
    """Enumerate every codeword m*G and skip the zero ones; exact and
    completely dumb."""
    f = g.field
    n = g.cols
    best = n + 1
    for msg in itertools.product(range(f.order), repeat=g.rows):
        w = 0
        for j in range(n):
            acc = 0
            for mi, row in zip(msg, g.data):
                if mi and row[j]:
                    acc = f.add(acc, f.mul(mi, row[j]))
            if acc:
                w += 1
        if 0 < w < best:
            best = w
    return best


def _min_weight_by_supports(g: MatrixGF, budget: int) -> int | str:
    """Smallest |S| such that the columns of G outside S have a smaller
    rank than G: then some nonzero codeword vanishes outside S, and the
    smallest such S is its support."""
    full = rank(g)
    cols = list(zip(*g.data))
    examined = 0
    for w in range(1, g.cols + 1):
        for support in itertools.combinations(range(g.cols), w):
            examined += 1
            if examined > budget:
                return BUDGET_EXCEEDED
            rest = tuple(c for j, c in enumerate(cols) if j not in support)
            if rank(MatrixGF(g.field, rest)) < full:
                return w
    raise VerificationError("no nonzero codeword found in a nonzero code")


def exhaustive_min_distance(g: MatrixGF, budget: int = 500_000) -> int | str:
    """True minimum Hamming weight of the rowspace of G, or the explicit
    "budget-exceeded" sentinel - never a guess.

    Small message spaces are enumerated outright; otherwise supports are
    scanned in increasing size, charging one unit of budget per support.
    """
    if rank(g) == 0:
        raise ValueError("the zero code has no nonzero codeword")
    size = g.field.order**g.rows - 1
    if size <= budget:
        return _min_weight_by_codewords(g)
    return _min_weight_by_supports(g, budget)
