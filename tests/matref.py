"""Dense references for the tests of the matrix route: written-out
matrices, their product and their rank by Gaussian elimination on
oracle's packed kernels (the reference for toeplitz_rank), the
conjugate transpose, the Toeplitz matrix of a vector of diagonals, the
defining set of a rowspace, the exhaustive minimum distance of toy codes,
the prime fields F_p, whose large p reach slot widths of 32, 64 and 128
bits with small matrices, and the quartic field F_{q^4} that holds the
n-th roots of unity, with the orbit products of their powers.  The
package holds G and H by their row-0 vectors, H * H^dagger by its
diagonals and the roots of unity by their traces, and needs none of
these.  It also holds the reference for the tables of build_field: the
per-element walk that built them before gf walked the digits of g^k by
integer arithmetic alone."""

import functools
import itertools
import operator
from dataclasses import dataclass

from eaqmds import gf, oracle
from eaqmds.exceptions import VerificationError
from eaqmds.gf import Field, build_field
from eaqmds.primes import PrimePower, factorize, is_prime
from eaqmds.oracle import _pack, _packer

BUDGET_EXCEEDED = "budget-exceeded"


def square_and_multiply(mul, a, e):
    """a^e by the product mul alone, with no table: the reference for
    powers and inverses."""
    result = 1
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


class _TableFree:
    """A reference field computing by its own mul: the index encoding of
    gf.Field, and powers and inverses by square-and-multiply."""

    decode = Field.decode
    encode = Field.encode

    def pow(self, a, e):
        return square_and_multiply(self.mul, a, e)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self.pow(a, self.order - 2)


class PrimeField(_TableFree):
    """F_p = F_p[x] / (x): integers mod p, with no tables."""

    def __init__(self, p):
        self.p = p
        self.degree = 1
        self.modulus = (0, 1)
        self.order = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p


class RawExtension(_TableFree):
    """F_p[x] / (modulus) of degree >= 2 with build_field's modulus,
    computing by gf._raw_product alone."""

    def __init__(self, p, degree):
        self.p = p
        self.degree = degree
        self.modulus = gf._smallest_irreducible(p, degree)
        self.order = p**degree
        self.mul = gf._raw_product(self)


# every field of build_field of order up to 2^12, and the alphabets of
# q = 173, 27 and 128: the widest digits, the most digits of odd p and the
# largest shift-and-xor tables
TABLE_FIELDS = [
    (p, d) for p in range(2, 64) if is_prime(p) for d in range(2, 13) if p**d <= 1 << 12
] + [(173, 2), (3, 6), (2, 14)]


def reference_tables(p, degree):
    """(modulus, generator, exp, log, zech) of F_{p^degree} one element at
    a time: the smallest generator g by square-and-multiply on the raw
    product; for p = 2 each power the raw product of the last and g, and
    for odd p each the digit vector of the last times the matrix of "times
    g", row by row, then encoded; exp doubled, log[0] = None, and
    zech[k] = log(1 + g^k) by adding one to the constant digit (None for
    p = 2, which adds by xor)."""
    f = RawExtension(p, degree)
    n1 = f.order - 1
    cofactors = [n1 // r for r in factorize(n1)]
    g = next(a for a in range(p, f.order) if all(f.pow(a, k) != 1 for k in cofactors))
    if p == 2:
        exp = list(itertools.accumulate([g] * (n1 - 1), f.mul, initial=1))
    else:
        # digit j of v * g is sum_k v_k * (digit j of x^k * g) mod p
        rows = list(zip(*(f.decode(f.mul(p**k, g)) for k in range(degree))))
        exp = []
        digits = f.decode(1)
        for _ in range(n1):
            exp.append(f.encode(digits))
            digits = [sum(map(operator.mul, row, digits)) % p for row in rows]
    log = [None] * f.order
    for k, v in enumerate(exp):
        log[v] = k
    zech = None if p == 2 else [log[v - v % p + (v + 1) % p] for v in exp]
    return f.modulus, g, exp + exp, log, zech


class QuadraticExtension(_TableFree):
    """F_{Q^2} = F_Q[y] / (y^2 - y - b) over a base field F_Q.

    a0 + a1*y has index a0 + a1*Q, so the base field is literally the
    indices below Q and its arithmetic (tables included) serves the
    extension's, which builds no tables of its own.  The index is also
    the base-p digit vector over F_p, so decode and encode keep their
    meaning.  b is the smallest base element outside {x^2 - x}: then
    y^2 - y - b has no root, hence is irreducible, for every p.  modulus
    holds its coefficients over the base field.
    """

    def __init__(self, base):
        image = {base.sub(base.mul(x, x), x) for x in range(base.order)}
        self.b = next(v for v in range(base.order) if v not in image)
        self.base = base
        self.p = base.p
        self.degree = 2 * base.degree
        self.modulus = (base.neg(self.b), base.neg(1), 1)
        self.order = base.order**2

    def __repr__(self):
        return f"QuadraticExtension({self.base!r}, b={self.b})"

    def _halves(self, op, a, b):
        # op on the constant halves and on the y halves, separately
        big = self.base.order
        return op(a % big, b % big) + op(a // big, b // big) * big

    def add(self, a, b):
        return a ^ b if self.p == 2 else self._halves(self.base.add, a, b)

    def sub(self, a, b):
        return a ^ b if self.p == 2 else self._halves(self.base.sub, a, b)

    def neg(self, a):
        return self.sub(0, a)

    def mul(self, a, b):
        # (a0 + a1 y)(b0 + b1 y) with y^2 = y + b, Karatsuba style:
        # a0 b0 + b a1 b1 + ((a0 + a1)(b0 + b1) - a0 b0) y
        f, big = self.base, self.base.order
        a0, a1 = a % big, a // big
        b0, b1 = b % big, b // big
        t0, t2 = f.mul(a0, b0), f.mul(a1, b1)
        hi = f.sub(f.mul(f.add(a0, a1), f.add(b0, b1)), t0)
        return f.add(t0, f.mul(self.b, t2)) + hi * big

    @functools.cached_property
    def generator(self):
        """The smallest generator of the multiplicative group, which lies
        outside the base field: g^((order-1)/r) != 1 for each prime r."""
        n1 = self.order - 1
        cofactors = [n1 // r for r in factorize(n1)]
        return next(
            g
            for g in range(self.base.order, self.order)
            if all(self.pow(g, k) != 1 for k in cofactors)
        )


@functools.lru_cache(maxsize=None)
def quartic(q):
    """The reference F_{q^4} over the package's F_{q^2}."""
    pp = PrimePower.from_int(q)
    return QuadraticExtension(build_field(pp.p, 2 * pp.e))


def lucas_root(f4, a):
    """A root beta of x^2 - a*x + 1 in f4 outside its base field, for a in
    the base: beta = u + v*y with v = a - 2u != 0 (the y part of
    beta^2 - a*beta), found by scanning u; None if there is none."""
    base = f4.base
    for u in range(base.order):
        v = base.sub(a, base.add(u, u))
        beta = u + v * base.order
        if v and not f4.add(f4.mul(beta, f4.sub(beta, a)), 1):
            return beta
    return None


def tower_root(tower):
    """beta of the tower in the reference F_{q^4}: a root of
    x^2 - V_1 x + 1."""
    return lucas_root(quartic(tower.q), tower.traces[1])


def orbit_product(f4, beta, orbit):
    """The monic product of (x - beta^j) over j in orbit, constant term
    first, over f4."""
    coeffs = [1]
    for j in orbit:
        # times (x - beta^j): coefficient k is c_(k-1) - beta^j * c_k
        nr = f4.neg(f4.pow(beta, j))
        coeffs = [f4.add(hi, f4.mul(lo, nr)) for lo, hi in zip(coeffs + [0], [0] + coeffs)]
    return tuple(coeffs)


def evaluate(f, poly, x):
    """poly(x) over f by Horner, poly constant term first."""
    acc = 0
    for c in reversed(poly):
        acc = f.add(f.mul(acc, x), c)
    return acc


@dataclass(frozen=True)
class MatrixGF:
    """Dense matrix over one field; entries are element indices in
    row-major tuples."""

    field: Field
    data: tuple

    @property
    def rows(self):
        return len(self.data)

    @property
    def cols(self):
        return len(self.data[0]) if self.data else 0


def toeplitz_matrix(f, t):
    """The r x r matrix with entry (i, j) = t[r - 1 - i + j], written out."""
    r = (len(t) + 1) // 2
    return MatrixGF(f, tuple(tuple(t[r - 1 - i : 2 * r - 1 - i]) for i in range(r)))


def field(p, degree):
    """The field of order p^degree: a PrimeField for degree 1, else build_field's."""
    return PrimeField(p) if degree == 1 else build_field(p, degree)


def matmul(a, b):
    """A * B over a field F_p[x]/(f): the dense reference for the
    shift-structured product of hh_dagger.

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
    # looked up per call, so that a test can narrow the slots
    width = oracle._slot_width(a.cols, f.degree, f.p)
    packed = _packer(f, width)
    packed_rows = [packed.vector(row) for row in b.data]
    out = []
    for row in a.data:
        acc = 0
        for v, bj in zip(row, packed_rows):
            if v:
                acc += packed[v] * bj
        out.append(tuple(packed.reduce(acc, b.cols)))
    return MatrixGF(f, tuple(out))


def _multipliers(f, values, pivot):
    """-a / pivot for each a in values: the factors that clear those
    entries of a column against its pivot."""
    scale = f.neg(f.inv(pivot))
    return [f.mul(a, scale) for a in values]


def _eliminate(packed, rows, cols):
    """The rank of the matrix whose rows are packed by packed.vector, column
    0 highest, cols columns each, by Gaussian elimination; rows is used up.

    An eliminated column is cleared from every row, so the entry of the
    next column is the row shifted right.  Clearing an entry a against the
    pivot row adds pack(-a / pivot) * (pivot row): one big-integer
    multiply-add with no reduction, as a slot sums a digit below p and
    fewer than len(rows) updates of at most d*(p-1)^2, which the width of
    packed must hold.  The entries of a column are read as elements
    (packed.reduce) when it is reached.  Every pivot row is reduced once,
    in packed form (packed.digits), to the digits that packed.vector would
    give it, so it is never unpacked; a row never updated holds those
    digits already, and digits leaves it as it is.  The rank does not
    depend on which nonzero entry of a column is the pivot.
    """
    f, stride, reduce = packed.f, packed.stride, packed.reduce
    active = list(range(len(rows)))  # rows not yet taken as pivots, in order
    shift = cols * stride
    while active and shift:
        shift -= stride
        mask, hits, tops = (1 << shift) - 1, [], []
        for i in active:
            if top := rows[i] >> shift:
                rows[i] &= mask
                hits.append(i)
                tops.append(top)
        values = reduce(_pack(tops, stride), len(hits))
        k = next((k for k, v in enumerate(values) if v), None)
        if k is None:
            continue
        piv = hits[k]
        prow = packed.digits(rows[piv], shift // stride)
        active.remove(piv)
        if len(hits) > k + 1:
            for i, mult in zip(hits[k + 1 :], _multipliers(f, values[k + 1 :], values[k])):
                if mult:
                    rows[i] += packed[mult] * prow
    return len(rows) - len(active)


def rank(m):
    """Exact rank of a written-out matrix over a field F_p[x]/(f): each row
    packed by _Packer.vector, column 0 highest, and eliminated by
    _eliminate on oracle's packed kernels.  The dense reference for
    toeplitz_rank, which ranks by the linear complexity of the diagonals
    and eliminates nothing."""
    f = m.field
    # looked up per call, so that a test can narrow the slots
    packed = _packer(f, oracle._slot_width(m.rows, f.degree, f.p))
    return _eliminate(packed, [packed.vector(row[::-1]) for row in m.data], m.cols)


def conjugate_transpose(m, q):
    """Transpose with entry-wise q-th power."""
    f = m.field
    return MatrixGF(f, tuple(tuple(f.pow(v, q) for v in col) for col in zip(*m.data)))


def rowspace_defining_set(m, tower):
    """Exponents z with row(beta^z) = 0 for every row: the defining set of
    the cyclic code spanned by the rows (rows read as polynomials, over
    the reference F_{q^4}, whose indices below q^2 are F_{q^2})."""
    f4, beta = quartic(tower.q), tower_root(tower)
    return {
        z
        for z in range(tower.n)
        if not any(evaluate(f4, row, f4.pow(beta, z)) for row in m.data)
    }


# -- exhaustive minimum distance (toy scale) -----------------------------------


def _min_weight_by_codewords(g):
    """Walk every codeword m*G whose message m has 1 as its first nonzero
    entry and skip the zero ones: exact, as every nonzero codeword is a
    nonzero multiple of one of them, of the same weight.  Past its leading
    1, m is walked in a p-ary Gray code on its F_p digits: step t adds 1
    to digit v_p(t), the exponent of p in t, so each codeword is the last
    one plus x^k times one row of G."""
    f = g.field
    best = g.cols + 1
    steps = [[f.mul(f.p**k, v) for v in row] for row in g.data for k in range(f.degree)]
    for lead, row in enumerate(g.data):
        word, tail = list(row), steps[(lead + 1) * f.degree :]
        for t in range(f.order ** (g.rows - 1 - lead)):
            if t:
                digit, rest = 0, t
                while rest % f.p == 0:
                    rest //= f.p
                    digit += 1
                word = list(map(f.add, word, tail[digit]))
            w = g.cols - word.count(0)
            if 0 < w < best:
                best = w
    return best


def _min_weight_by_supports(g, budget):
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


def exhaustive_min_distance(g, budget=500_000):
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
