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
F_{q^2} indices for the minimal polynomials of FieldTower.

build_field makes extension fields (degree >= 2) only.  Each gets exp/log
tables of a fixed generator g once, when build_field makes it, so a
product is one addition of logarithms; in odd characteristic it also gets
a Zech table zech[k] = log(1 + g^k), so a sum is one lookup as well:
g^a + g^b = g^(a + zech[b - a]) and -g^a = g^(a + (order-1)/2).  For
p = 2 a sum is an xor.  These tables take O(order) memory, so build_field
refuses extension fields above MAX_EXTENSION_ORDER; the code alphabet
F_{q^2} fits for every q <= 181.  The packed kernels of oracle (convolve
and rank) work on digits and need none of these tables.

The quartic field F_{q^4} is not built over F_p but as F_{q^2}[y] /
(y^2 - y - b) (QuadraticExtension): a0 + a1*y has index a0 + a1*q^2, so
F_{q^2} is literally the indices below q^2, no element is ever converted
between the two fields, and each F_{q^4} operation is a few F_{q^2} ones.
It builds no tables of its own.

Field objects are immutable after construction (power maps are idempotent
lazy caches); all operations are pure functions.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .cosets import CycContext, coset
from .exceptions import VerificationError

# bound on an extension field's order: its tables take O(order) memory
MAX_EXTENSION_ORDER = 1 << 15

# Witness set making Miller-Rabin exact for all n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin, exact below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (n up to ~1e12 in practice)."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class PrimePower:
    """A field size q = p^e with its factorization."""

    p: int
    e: int
    q: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.e < 1:
            raise ValueError(f"exponent must be positive, got {self.e}")
        if self.p**self.e != self.q:
            raise ValueError(f"{self.q} != {self.p}^{self.e}")

    @classmethod
    def from_int(cls, q: int) -> "PrimePower":
        """Factor q; raise ValueError if it is not a prime power."""
        if q < 2:
            raise ValueError(f"{q} is not a prime power")
        factors = factorize(q)
        if len(factors) != 1:
            raise ValueError(f"{q} is not a prime power (factors: {sorted(factors)})")
        ((p, e),) = factors.items()
        return cls(p, e, q)


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


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's test for a monic f of degree d >= 2 over F_p:
    x^(p^d) = x mod f, and gcd(f, x^(p^(d/r)) - x) = 1 for each prime r | d."""
    d = len(f) - 1
    x = [0, 1]
    frob = [x]  # frob[k] = x^(p^k) mod f
    for _ in range(d):
        base, e, power = frob[-1], p, [1]
        while e:
            if e & 1:
                power = _mulmod(power, base, f, p)
            base = _mulmod(base, base, f, p)
            e >>= 1
        frob.append(power)
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


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class Field:
    """F_{p^degree} = F_p[x] / (modulus) of degree >= 2, elements as
    canonical int indices, computing by its exp/log and Zech tables.

    Construct via :func:`build_field`, never directly; build_field caches
    one instance per (p, degree) so field identity can be compared with
    ``is``, and builds its tables.
    """

    def __init__(self, p: int, degree: int, modulus: tuple[int, ...]):
        self.p = p
        self.degree = degree
        self.modulus = modulus
        # generator() scans element indices from here up: below p lies F_p,
        # whose orders divide p - 1
        self._first_generator_candidate = p
        self.order = p**degree
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._zech: list[int] | None = None
        # log[0] and every log-domain value from here up stand for zero
        self.log_zero = 5 * (self.order - 1)
        self._generator: int | None = None
        self._group_factors: dict[int, int] | None = None
        self._power_maps: dict[int, list[int]] = {}
        # the p = 2 modulus as a bitmask, built on first use
        self._modmask: int | None = None

    def __repr__(self) -> str:
        return f"Field(p={self.p}, degree={self.degree})"

    # -- encoding ----------------------------------------------------------

    def decode(self, idx: int) -> tuple[int, ...]:
        return _digits(idx, self.p, self.degree)

    def encode(self, coeffs: Iterable[int]) -> int:
        idx = 0
        for c in reversed(list(coeffs)):
            idx = idx * self.p + (c % self.p)
        return idx

    # -- arithmetic on indices ----------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        log = self._log
        la = log[a]
        s = la + self._zech[log[b] - la]
        return self._exp[s] if s < self.log_zero else 0

    def neg(self, a: int) -> int:
        if self.p == 2 or not a:
            return a
        return self._exp[self._log[a] + (self.order - 1) // 2]

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if not b:
            return a
        log = self._log
        n1 = self.order - 1
        lb = log[b] + n1 // 2  # log of -b
        s = lb + self._zech[log[a] - lb]
        return self._exp[s - n1] if s < self.log_zero else 0

    def mul(self, a: int, b: int) -> int:
        exp = self._exp
        if exp is None:  # the tables are being built
            return self._mul_raw2(a, b) if self.p == 2 else self._mul_raw(a, b)
        return exp[self._log[a] + self._log[b]] if a and b else 0

    def _mul_raw2(self, a: int, b: int) -> int:
        mod, top = self._modmask, 1 << self.degree
        if mod is None:
            mod = self._modmask = sum(c << i for i, c in enumerate(self.modulus))
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mod
        return r

    def _mul_raw(self, a: int, b: int) -> int:
        return self.encode(_mulmod(self.decode(a), self.decode(b), self.modulus, self.p))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    # -- lookup tables ---------------------------------------------------------

    def exp_log_tables(self) -> tuple[list[int], list[int]]:
        """Build (once) and return the exp/log tables of the field's own mul.

        exp has length 2*(order-1) so that exp[log[a] + log[b]] needs no
        reduction, and log[0] = log_zero.  Until they exist, mul is the
        schoolbook product.  Multiplication by the generator g is
        F_p-linear: for odd p each power of g takes d dot products of digit
        vectors.  For odd p this also builds the Zech table of add and sub:
        with n1 = order-1, zech[k] = log(1 + g^k) for k = -2*n1 .. 3*n1-1
        (through negative indexing), or log_zero where 1 + g^k = 0, and 0
        for k = 3*n1 .. 7*n1-1, where the log difference against
        log[0] = log_zero of a zero operand falls.
        """
        if self._exp is None:
            g = self.generator()
            p, d, n1 = self.p, self.degree, self.order - 1
            # no tables yet: mul is the raw product
            if p == 2:
                # shift-and-xor, F_2-linear already
                exp = list(itertools.accumulate([g] * (n1 - 1), self.mul, initial=1))
            else:
                # digit j of v * g is sum_k v_k * (digit j of x^k * g) mod p
                rows = list(zip(*(self.decode(self.mul(p**k, g)) for k in range(d))))
                place = [p**k for k in range(d)]
                exp = []
                digits = self.decode(1)
                for _ in range(n1):
                    exp.append(sum(map(operator.mul, digits, place)))
                    digits = [sum(map(operator.mul, row, digits)) % p for row in rows]
            log = [self.log_zero] * self.order
            for i, v in enumerate(exp):
                log[v] = i
            exp += exp
            if p != 2:
                # 1 + g^k adds one to the constant digit of g^k's index
                z = [log[v + 1 if v % p != p - 1 else v + 1 - p] for v in exp[:n1]]
                self._zech = z * 3 + [0] * (4 * n1) + z * 2
            self._exp, self._log = exp, log
        return self._exp, self._log

    def power_map(self, e: int) -> list[int]:
        """Table of a -> a^e for every element (cached per exponent)."""
        tab = self._power_maps.get(e)
        if tab is None:
            tab = [self.pow(a, e) for a in range(self.order)]
            self._power_maps[e] = tab
        return tab

    # -- multiplicative structure ---------------------------------------------

    def _factors_of_group(self) -> dict[int, int]:
        if self._group_factors is None:
            self._group_factors = factorize(self.order - 1)
        return self._group_factors

    def multiplicative_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        order = self.order - 1
        for r in self._factors_of_group():
            while order % r == 0 and self.pow(a, order // r) == 1:
                order //= r
        return order

    def generator(self) -> int:
        """Smallest element index generating the multiplicative group."""
        if self._generator is None:
            n1 = self.order - 1
            for idx in range(self._first_generator_candidate, self.order):
                if self.multiplicative_order(idx) == n1:
                    self._generator = idx
                    break
            else:  # pragma: no cover - every finite field has a generator
                raise AssertionError("no generator found")
        return self._generator


@functools.lru_cache(maxsize=None)
def build_field(p: int, degree: int) -> Field:
    """The extension field of order p^degree, degree >= 2, with its
    canonical (smallest) modulus and its tables built; its order is at
    most MAX_EXTENSION_ORDER."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree}")
    if p**degree > MAX_EXTENSION_ORDER:
        raise ValueError(f"extension field order {p}^{degree} exceeds {MAX_EXTENSION_ORDER}")
    f = Field(p, degree, _smallest_irreducible(p, degree))
    f.exp_log_tables()
    return f


class QuadraticExtension(Field):
    """F_{Q^2} = F_Q[y] / (y^2 - y - b) over a base field F_Q.

    a0 + a1*y has index a0 + a1*Q, so the base field is literally the
    indices below Q and its arithmetic (tables included) serves the
    extension's, which builds no tables of its own.  The index is also
    the base-p digit vector over F_p, so decode and encode keep their
    meaning.  b is the smallest base element outside {x^2 - x}: then
    y^2 - y - b has no root, hence is irreducible, for every p.  modulus
    holds its coefficients over the base field.
    """

    def __init__(self, base: Field):
        image = {base.sub(base.mul(x, x), x) for x in range(base.order)}
        self.b = next(v for v in range(base.order) if v not in image)
        super().__init__(base.p, 2 * base.degree, (base.neg(self.b), base.neg(1), 1))
        self.base = base
        # the base field holds no generator of the whole group
        self._first_generator_candidate = base.order

    def __repr__(self) -> str:
        return f"QuadraticExtension({self.base!r}, b={self.b})"

    def _halves(self, op, a: int, b: int) -> int:
        # op on the constant halves and on the y halves, separately
        big = self.base.order
        return op(a % big, b % big) + op(a // big, b // big) * big

    def add(self, a: int, b: int) -> int:
        return a ^ b if self.p == 2 else self._halves(self.base.add, a, b)

    def sub(self, a: int, b: int) -> int:
        return a ^ b if self.p == 2 else self._halves(self.base.sub, a, b)

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        # (a0 + a1 y)(b0 + b1 y) with y^2 = y + b, Karatsuba style:
        # a0 b0 + b a1 b1 + ((a0 + a1)(b0 + b1) - a0 b0) y
        f, big = self.base, self.base.order
        a0, a1 = a % big, a // big
        b0, b1 = b % big, b // big
        t0, t2 = f.mul(a0, b0), f.mul(a1, b1)
        hi = f.sub(f.mul(f.add(a0, a1), f.add(b0, b1)), t0)
        return f.add(t0, f.mul(self.b, t2)) + hi * big


def find_element_of_order(field: Field, n: int) -> int:
    """A multiplicative element of exact order n (n must divide order-1).

    Deterministic: always g^((order-1)/n) for the smallest generator g.
    The returned order is verified exactly before returning.
    """
    group = field.order - 1
    if n < 1 or group % n != 0:
        raise ValueError(f"{n} does not divide the group order {group}")
    lam = field.pow(field.generator(), group // n)
    found = field.multiplicative_order(lam)
    if found != n:
        raise VerificationError(f"candidate of order {n} has order {found}")
    return lam


# ---------------------------------------------------------------------------
# the tower F_p < F_{q^2} < F_{q^4} used by generator polynomials and matrices
# ---------------------------------------------------------------------------


class FieldTower:
    """The ambient fields for length-n cyclic codes over F_{q^2}.

    Bundles the quadratic extension F_{q^2} of F_p (the code alphabet),
    its own quadratic extension F_{q^4} (the splitting field containing
    the n-th roots of unity, in which F_{q^2} is the indices below q^2),
    and a fixed primitive n-th root of unity.
    """

    def __init__(self, q: int, n: int):
        self.q_power = PrimePower.from_int(q)
        self.q = q
        self.n = n
        if (q**4 - 1) % n != 0:
            raise ValueError(f"n={n} does not divide q^4-1 for q={q}")
        # the code alphabet's tables serve every generator-polynomial
        # division and every product in the quartic field
        self.fq2 = build_field(self.q_power.p, 2 * self.q_power.e)
        self.fq4 = QuadraticExtension(self.fq2)
        self.unity_root = find_element_of_order(self.fq4, n)
        self._context = CycContext(n, q)
        self._root_pows: list[int] | None = None
        self._minpoly_cache: dict[int, tuple[int, ...]] = {}

    def root_power(self, z: int) -> int:
        """Index (in the quartic field) of the n-th root of unity to power z."""
        if self._root_pows is None:
            pows = [1] * self.n
            f = self.fq4
            for i in range(1, self.n):
                pows[i] = f.mul(pows[i - 1], self.unity_root)
            self._root_pows = pows
        return self._root_pows[z % self.n]

    def minimal_polynomial(self, i: int) -> tuple[int, ...]:
        """Minimal polynomial over F_{q^2} of the i-th power of the root of
        unity, constant term first: the monic product of (x - root^j) over
        the coset of i, with every coefficient verified to be an index below
        q^2, that is, an element of F_{q^2} as it stands."""
        orbit = coset(self._context, i)
        cached = self._minpoly_cache.get(orbit[0])
        if cached is not None:
            return cached
        f4, q2 = self.fq4, self.fq2.order
        coeffs = [1]
        for j in orbit:
            # times (x - root^j): coefficient k is c_(k-1) - root^j * c_k
            nr = f4.neg(self.root_power(j))
            coeffs = [f4.add(hi, f4.mul(lo, nr)) for lo, hi in zip(coeffs + [0], [0] + coeffs)]
        for c in coeffs:
            if c >= q2:
                raise VerificationError(
                    f"coefficient {c} of the orbit product of {orbit[0]} is not in "
                    f"F_(q^2): its index is not below q^2 = {q2}"
                )
        mp = self._minpoly_cache[orbit[0]] = tuple(coeffs)
        return mp


@functools.lru_cache(maxsize=None)
def field_tower(q: int, n: int) -> FieldTower:
    """Cached tower for (q, n); n must be coprime to q and divide q^4-1."""
    if gcd(q, n) != 1:
        raise ValueError(f"gcd(n={n}, q={q}) != 1")
    return FieldTower(q, n)
