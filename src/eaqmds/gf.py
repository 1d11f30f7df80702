"""Exact arithmetic in the extension fields of F_p.

Everything is deterministic so that serialized outputs are reproducible
byte-for-byte across runs: a field of order p^d always gets the same
modulus (the smallest monic irreducible polynomial of degree d, tails
compared as base-p integers with the most significant coefficient as the
high digit), and "smallest generator" always means smallest canonical
element index.

Elements are canonical integer indices: the element with coefficient
vector (c_0, ..., c_{d-1}) over F_p has index sum(c_i * p**i).  For
p = 2 the index is the usual bitmask of the coefficient polynomial.
A polynomial is a tuple or list of coefficients, constant term first:
ints mod p in the modulus search (Rabin's test), whose remainder step
_poly_mod also serves the table-free product of an extension field, and
F_{q^2} indices for the quadratic minimal polynomials of FieldTower.

build_field makes extension fields (degree >= 2) only, each whole: its
generator g is found with the table-free product, and the exp/log tables
of g in one walk of "times g" (for odd p an F_p-linear map on digit
vectors, by integer arithmetic; for p = 2 the shift-and-xor product),
certified against the table-free product: exp[k] = g^k for k <= d, and
every nonzero element has a log.  So a product is one addition of
logarithms, a power one multiplication and an inverse one negation; for
odd p the Zech table, one period of zech[k] = log(1 + g^k), makes a sum
one lookup as well: g^a + g^b = g^(a + zech[b - a]), and
-g^a = g^(a + (order-1)/2) is one exp lookup.  For p = 2 a sum is an
xor.  These tables take O(order) memory, so build_field refuses
extension fields above MAX_EXTENSION_ORDER; the code alphabet F_{q^2}
fits for every q <= 181.
The packed kernels of oracle (convolve and toeplitz_rank) work on digits
and need none of these tables.

The n-th roots of unity of the codes lie in F_{q^4}, which is never
built: n divides q^2+1, so the minimal polynomial of beta^i over F_{q^2}
is x^2 - V_i x + 1 with V_i = beta^i + beta^-i in F_{q^2}, and
FieldTower computes every V_i over F_{q^2} as a Lucas sequence.

Field objects are immutable after construction; all operations are pure
functions.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Iterable, Sequence

from .exceptions import VerificationError
from .primes import PrimePower, factorize, is_prime

# bound on an extension field's order: its tables take O(order) memory
MAX_EXTENSION_ORDER = 1 << 15

# ---------------------------------------------------------------------------
# modulus selection: Rabin's irreducibility test on int lists over F_p
# ---------------------------------------------------------------------------


def _poly_mod(a: list[int], f: Sequence[int], p: int) -> list[int]:
    """a mod f over F_p, f with a nonzero last coefficient; the remainder
    has no trailing zeros."""
    r = list(a)
    df = len(f) - 1
    inv = pow(f[-1], -1, p)
    for k in range(len(r) - 1, df - 1, -1):
        c = r[k] * inv % p
        if c:
            for i, fi in enumerate(f, k - df):
                r[i] -= c * fi
    r = [c % p for c in r[:df]]
    while r and not r[-1]:
        r.pop()
    return r


def _mulmod(a: Sequence[int], b: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    """a * b mod f over F_p: the schoolbook product, then one remainder."""
    prod = [0] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                prod[j] += ai * bj
    return _poly_mod(prod, f, p)


def _power(mul, a, e: int, one=1):
    """a^e by square-and-multiply on the product mul, starting from one."""
    result = one
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's test for a monic f of degree d >= 2 over F_p:
    x^(p^d) = x mod f, and gcd(f, x^(p^(d/r)) - x) = 1 for each prime r | d."""
    d = len(f) - 1
    x = [0, 1]
    mul = functools.partial(_mulmod, f=f, p=p)
    frob = [x]  # frob[k] = x^(p^k) mod f
    for _ in range(d):
        frob.append(_power(mul, frob[-1], p, [1]))
    if frob[d] != x:
        return False
    for r in factorize(d):
        h = [*frob[d // r], 0, 0]
        h[1] -= 1  # x^(p^(d/r)) - x
        a, b = f, _poly_mod(h, f, p)
        while b:
            a, b = b, _poly_mod(a, b, p)
        if len(a) != 1:
            return False
    return True


def _smallest_irreducible(p: int, degree: int) -> tuple[int, ...]:
    """The monic irreducible of given degree >= 2 with the smallest tail encoding."""
    for t in range(p**degree):
        f = [*_digits(t, p, degree), 1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError(f"no irreducible of degree {degree} over F_{p}")


def _digits(value: int, p: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        value, r = divmod(value, p)
        out.append(r)
    return tuple(out)


def _raw_product(f: Field) -> Callable[[int, int], int]:
    """The table-free product on the indices of f = F_p[x]/(modulus), which
    a Field finds its generator and builds its tables with: shift-and-xor
    on bitmasks for p = 2, else the schoolbook product of digit vectors."""
    if f.p != 2:
        return lambda a, b: f.encode(_mulmod(f.decode(a), f.decode(b), f.modulus, f.p))
    mod, top = sum(c << i for i, c in enumerate(f.modulus)), 1 << f.degree

    def mul(a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mod
        return r

    return mul


def _walk(columns: list[tuple[int, ...]], p: int, steps: int) -> tuple[list[int], list[int | None]]:
    """(exp, log) of the first steps powers 1, g, g^2, .. of g over F_p, p
    odd, walked on digit vectors by the F_p-linear map "times g", whose
    column k, columns[k], holds the digits of x^k * g: digit j of v * g is
    sum_k v_k * columns[k][j] mod p.  exp[k] is the index of g^k, and
    log[exp[k]] = k, None at every index the walk never meets.  Degree 2,
    the F_{q^2} of every prime q, is unrolled to two products and two
    reductions a step, where the general loop sums over lists."""
    d = len(columns)
    exp, log = [0] * steps, [None] * p**d
    if d == 2:
        (m00, m10), (m01, m11) = columns
        a, b = 1, 0
        for k in range(steps):
            exp[k] = v = a + p * b
            log[v] = k
            a, b = (m00 * a + m01 * b) % p, (m10 * a + m11 * b) % p
        return exp, log
    rows, weights = list(zip(*columns)), [p**j for j in range(d)]
    digits = [1] + [0] * (d - 1)
    for k in range(steps):
        exp[k] = v = sum(map(operator.mul, weights, digits))
        log[v] = k
        digits = [sum(map(operator.mul, row, digits)) % p for row in rows]
    return exp, log


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class Field:
    """F_{p^degree} = F_p[x] / (modulus) of degree >= 2, elements as
    canonical int indices, computing by its exp/log and Zech tables.

    Construct via :func:`build_field`, never directly; build_field caches
    one instance per (p, degree) so field identity can be compared with
    ``is``.  The constructor finds the generator g with _raw_product and
    builds the tables in one pass, so that every operation is a lookup:
    for odd p, _walk takes the digits of g^k to those of g^(k+1) by the
    matrix of "times g", whose columns, the digits of x^k * g, are d raw
    products, filling exp and log as it goes; for p = 2 each power is the
    shift-and-xor product of the last and g.  Then d raw products certify
    exp[k] = g^k for k <= d, which proves the F_p-linear step to be
    "times g", and one count that log has no hole but log[0]; a failure
    raises VerificationError naming p, d and the first bad k.
    exp has length 2*(order-1) so that exp[log[a] + log[b]] needs no
    reduction, and log[0] = None; for odd p, zech[k] = log(1 + g^k) for
    k = 0 .. order-2, None where 1 + g^k = 0.
    """

    def __init__(self, p: int, degree: int, modulus: tuple[int, ...]):
        self.p = p
        self.degree = degree
        self.modulus = modulus
        self.order = p**degree
        n1 = self.order - 1
        mul = _raw_product(self)
        # the smallest g with g^(n1/r) != 1 for each prime r | n1; below p
        # lies F_p, whose orders divide p - 1
        cofactors = [n1 // r for r in factorize(n1)]
        self.generator = g = next(
            idx for idx in range(p, self.order) if all(_power(mul, idx, k) != 1 for k in cofactors)
        )
        if p == 2:
            # shift-and-xor, F_2-linear already
            exp = list(itertools.accumulate([g] * (n1 - 1), mul, initial=1))
            log = [None] * self.order
            for k, v in enumerate(exp):
                log[v] = k
        else:
            exp, log = _walk([self.decode(mul(p**k, g)) for k in range(degree)], p, n1)
        # the certificate: 1, g, .., g^(degree-1) is a basis, so exp[k] = g^k
        # for k <= degree proves the linear step "times g"; with n1 entries
        # and no hole in log but log[0], they are the nonzero elements, once
        powers = list(itertools.accumulate([g] * degree, mul, initial=1))
        bad = next((k for k, v in enumerate(exp[: degree + 1]) if v != powers[k]), None)
        if bad is None and (len(exp) != n1 or log[0] is not None or log.count(None) != 1):
            bad = next((k for k, v in enumerate(exp) if log[v] != k), len(exp))
        if bad is not None:
            raise VerificationError(
                f"the tables of F_({p}^{degree}) are not the powers of g = {g}: first bad k = {bad}"
            )
        exp += exp
        if p != 2:
            # 1 + g^k adds one to the constant digit of g^k's index
            self._zech = [log[v + 1 if v % p != p - 1 else v + 1 - p] for v in exp[:n1]]
        self._exp, self._log = exp, log

    def __repr__(self) -> str:
        return f"Field(p={self.p}, degree={self.degree})"

    def decode(self, idx: int) -> tuple[int, ...]:
        return _digits(idx, self.p, self.degree)

    def encode(self, coeffs: Iterable[int]) -> int:
        idx = 0
        for c in reversed(list(coeffs)):
            idx = idx * self.p + (c % self.p)
        return idx

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if not (a and b):
            return a or b
        log = self._log
        la = log[a]
        # log b - log a lies in (-(order-1), order-1): a negative one wraps
        z = self._zech[log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def neg(self, a: int) -> int:
        if self.p == 2 or not a:
            return a
        return self._exp[self._log[a] + (self.order - 1) // 2]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self._exp[self.order - 1 - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        """a^e for e >= 0, with 0^0 = 1."""
        if not a:
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.order - 1)]


@functools.lru_cache(maxsize=None)
def build_field(p: int, degree: int) -> Field:
    """The extension field of order p^degree, degree >= 2, with its
    canonical (smallest) modulus, its generator and its tables; its order
    is at most MAX_EXTENSION_ORDER."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree}")
    if p**degree > MAX_EXTENSION_ORDER:
        raise ValueError(f"extension field order {p}^{degree} exceeds {MAX_EXTENSION_ORDER}")
    return Field(p, degree, _smallest_irreducible(p, degree))


# ---------------------------------------------------------------------------
# the code alphabet F_{q^2} and the Lucas traces of an n-th root of unity
# ---------------------------------------------------------------------------


def _lucas(f: Field, a: int, k: int) -> int:
    """V_k(a) = beta^k + beta^-k over f, for the roots beta, 1/beta of
    x^2 - a*x + 1, by the ladder V_2j = V_j^2 - 2, V_2j+1 = V_j*V_j+1 - a
    on the bits of k >= 1, from (V_0, V_1) = (2, a)."""
    two = f.add(1, 1)
    lo, hi = two, a  # (V_j, V_j+1) for j the leading bits of k
    for bit in bin(k)[2:]:
        mid = f.sub(f.mul(lo, hi), a)
        if bit == "1":
            lo, hi = mid, f.sub(f.mul(hi, hi), two)
        else:
            lo, hi = f.sub(f.mul(lo, lo), two), mid
    return lo


def _primitive_trace(f: Field, n: int) -> int | None:
    """The smallest a in f whose roots beta of x^2 - a*x + 1 have order
    exactly n, or None: V_n(a) = 2 and V_(n/r)(a) != 2 for each prime
    r | n, as (beta^k - 1)^2 = beta^k * (V_k(a) - 2)."""
    two = f.add(1, 1)
    cofactors = [n // r for r in factorize(n)]
    for a in range(f.order):
        if _lucas(f, a, n) == two and all(_lucas(f, a, k) != two for k in cofactors):
            return a
    return None


class FieldTower:
    """The code alphabet F_{q^2} and the minimal polynomials over it of the
    powers of a primitive n-th root of unity beta, for n > 2 dividing q^2+1.

    beta lies in F_{q^4} and is never written out.  As beta^(q^2) =
    beta^-1, the trace V_i = beta^i + beta^-i lies in F_{q^2}, and the
    coset {i, n-i} of i gives the minimal polynomial x^2 - V_i x + 1.
    a = V_1 is the smallest element of F_{q^2} whose beta has order
    exactly n (_primitive_trace); such a beta is not in F_{q^2}, since n
    does not divide q^2 - 1, so x^2 - a x + 1 is irreducible there.
    traces holds V_0 .. V_(n//2), by V_(i+1) = a V_i - V_(i-1).
    """

    def __init__(self, q: int, n: int):
        if n <= 2 or (q * q + 1) % n:
            raise ValueError(f"n={n} must exceed 2 and divide q^2+1 for q={q}")
        pp = PrimePower.from_int(q)
        self.q = q
        self.n = n
        self.fq2 = f = build_field(pp.p, 2 * pp.e)
        # the exact-order test on a proves beta a primitive n-th root; each
        # V_i is then an F_{q^2} element by construction, with no check
        a = _primitive_trace(f, n)
        if a is None:
            raise VerificationError(
                f"no element of F_(q^2) at q={q} is the trace of a root of unity of order n={n}"
            )
        traces = [f.add(1, 1), a]
        for _ in range(n // 2 - 1):
            traces.append(f.sub(f.mul(a, traces[-1]), traces[-2]))
        self.traces = traces

    def minimal_polynomial(self, i: int) -> tuple[int, ...]:
        """Minimal polynomial over F_{q^2} of beta^i, constant term first:
        x^2 - V_i x + 1 for i folded to min(i, n-i), but x - 1 for i = 0
        and x + 1 for i = n/2, where beta^i = -1."""
        f, n = self.fq2, self.n
        i = min(i % n, -i % n)
        if i == 0:
            return (f.neg(1), 1)
        if 2 * i == n:
            return (1, 1)
        return (1, f.neg(self.traces[i]), 1)


@functools.lru_cache(maxsize=None)
def field_tower(q: int, n: int) -> FieldTower:
    """Cached FieldTower(q, n); n must exceed 2 and divide q^2+1."""
    return FieldTower(q, n)
