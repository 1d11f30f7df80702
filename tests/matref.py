"""Dense references for the tests of the matrix route: written-out
matrices, their product and rank on oracle's packed kernels, the
conjugate transpose, the Toeplitz matrix of a vector of diagonals, the
defining set of a rowspace, the exhaustive minimum distance of toy codes,
and the prime fields F_p, whose large p reach slot widths of 32, 64 and
128 bits with small matrices.  The package holds G and H by their row-0
vectors and H * H^dagger by its diagonals, and needs none of these."""

import itertools
from dataclasses import dataclass

from eaqmds import oracle
from eaqmds.exceptions import VerificationError
from eaqmds.gf import Field, build_field
from eaqmds.oracle import _check_packable, _eliminate, _Packer, _slot_reducer

BUDGET_EXCEEDED = "budget-exceeded"


class PrimeField(Field):
    """F_p = F_p[x] / (x): integers mod p, with no tables."""

    def __init__(self, p):
        super().__init__(p, 1, (0, 1))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p


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
    _check_packable(f)
    # looked up per call, so that a test can narrow the slots
    width = oracle._slot_width(a.cols, f.degree, f.p)
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


def rank(m):
    """Exact rank of a written-out matrix over a field F_p[x]/(f): each row
    packed by _Packer.vector, column 0 highest, and eliminated by oracle's
    kernel."""
    f = m.field
    _check_packable(f)
    # looked up per call, so that a test can narrow the slots
    packed = _Packer(f, oracle._slot_width(m.rows, f.degree, f.p))
    return _eliminate(packed, [packed.vector(row[::-1]) for row in m.data], m.cols)


def conjugate_transpose(m, q):
    """Transpose with entry-wise q-th power."""
    powq = m.field.power_map(q)
    return MatrixGF(m.field, tuple(tuple(powq[v] for v in col) for col in zip(*m.data)))


def rowspace_defining_set(m, tower):
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
