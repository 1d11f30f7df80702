"""Exact arithmetic in prime fields and their extensions.

Everything is deterministic so that serialized outputs are reproducible
byte-for-byte across runs: a field of order p^d always gets the same
modulus (the smallest monic irreducible polynomial of degree d, tails
compared as base-p integers with the most significant coefficient as the
high digit), and "smallest generator" always means smallest canonical
element index.

Elements are canonical integer indices: the element with coefficient
vector (c_0, ..., c_{d-1}) over F_p has index sum(c_i * p**i).  For
p = 2 the index is the usual bitmask of the coefficient polynomial.
Field orders up to 2**63 are supported.  Fields of order at most
_ACCEL_CAP additionally get exp/log tables of a fixed generator g, so a
product is one addition of logarithms; in odd characteristic they also get
a Zech table zech[k] = log(1 + g^k), so a sum is one lookup as well:
g^a + g^b = g^(a + zech[b - a]) and -g^a = g^(a + (order-1)/2).  These
tables take O(order) memory, O(q^2) for the code alphabet F_{q^2}.  Larger
fields (the quartic F_{q^4}) use digit-wise addition and negation and
schoolbook multiplication, with no tables.

Field objects are immutable after construction (lookup tables are
idempotent lazy caches); all operations are pure functions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd
from typing import Iterable

from .exceptions import VerificationError

# exp/log (and, for odd p, Zech) tables are built only for orders up to this bound
_ACCEL_CAP = 4096
# hard bound on p**degree
_MAX_ORDER = 1 << 63

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
    def of(cls, p: int, e: int) -> "PrimePower":
        return cls(p, e, p**e)

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

    @property
    def is_even(self) -> bool:
        return self.p == 2


# ---------------------------------------------------------------------------
# dense polynomials over F_p with plain int coefficients; used only for
# modulus selection and irreducibility testing
# ---------------------------------------------------------------------------


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: list[int], f: list[int], p: int) -> list[int]:
    a = _ptrim(a[:])
    f = _ptrim(f[:])
    dF = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    while len(a) - 1 >= dF and a:
        c = a[-1] * inv_lead % p
        shift = len(a) - 1 - dF
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - c * fi) % p
        _ptrim(a)
    return a


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _ptrim(a[:]), _ptrim(b[:])
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a


def _ppowmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _pmod(base, f, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        base = _pmod(_pmul(base, base, p), f, p)
        e >>= 1
    return result


def _is_irreducible(f: list[int], p: int) -> bool:
    """Irreducibility of a monic f over F_p via x^(p^k) Frobenius powers."""
    d = len(f) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    x = [0, 1]
    frob = {}
    u = x
    for k in range(1, d + 1):
        u = _ppowmod(u, p, f, p)
        frob[k] = u
    if frob[d] != _pmod(x, f, p):
        return False
    for r in factorize(d):
        g = _pgcd([(a - b) % p for a, b in _zip_pad(frob[d // r], x)], f, p)
        if len(g) != 1:
            return False
    return True


def _zip_pad(a: list[int], b: list[int]) -> Iterable[tuple[int, int]]:
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def _smallest_irreducible(p: int, degree: int) -> tuple[int, ...]:
    """The monic irreducible of given degree with the smallest tail encoding."""
    if degree == 1:
        return (0, 1)
    for t in range(p**degree):
        tail = _digits(t, p, degree)
        f = list(tail) + [1]
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
    """F_{p^degree} = F_p[x] / (modulus), elements as canonical int indices.

    Construct via :func:`build_field`, never directly; build_field caches
    one instance per (p, degree) so field identity can be compared with
    ``is``.
    """

    def __init__(self, p: int, degree: int, modulus: tuple[int, ...]):
        self.p = p
        self.degree = degree
        self.modulus = modulus
        self.order = p**degree
        if self.p == 2:
            self._modmask = sum(c << i for i, c in enumerate(modulus))
            self._topbit = 1 << degree
            self._reduction: list[tuple[int, ...]] | None = None
        else:
            self._modmask = 0
            self._topbit = 0
            self._reduction = self._reduction_rows()
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._zech: list[int] | None = None
        # log[0] and every log-domain value from here up stand for zero
        self.log_zero = 5 * (self.order - 1)
        self._generator: int | None = None
        self._group_factors: dict[int, int] | None = None
        self._power_maps: dict[int, list[int]] = {}

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

    # -- raw arithmetic on indices ------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        zech = self._zech
        if zech is None:
            p = self.p
            return self.encode((x + y) % p for x, y in zip(self.decode(a), self.decode(b)))
        if not a:
            return b
        log = self._log
        la = log[a]
        s = la + zech[log[b] - la]
        return self._exp[s] if s < self.log_zero else 0

    def neg(self, a: int) -> int:
        if self.p == 2 or not a:
            return a
        if self._zech is not None:
            return self._exp[self._log[a] + (self.order - 1) // 2]
        p = self.p
        return self.encode((-d) % p for d in self.decode(a))

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        zech = self._zech
        if zech is None or not b:
            return self.add(a, self.neg(b))
        log = self._log
        n1 = self.order - 1
        lb = log[b] + n1 // 2  # log of -b
        s = lb + zech[log[a] - lb]
        return self._exp[s - n1] if s < self.log_zero else 0

    def mul(self, a: int, b: int) -> int:
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[self._log[a] + self._log[b]]
        if self.p == 2:
            return self._mul_raw2(a, b)
        return self._mul_raw(a, b)

    def _mul_raw2(self, a: int, b: int) -> int:
        mod, top = self._modmask, self._topbit
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mod
        return r

    def _reduction_rows(self) -> list[tuple[int, ...]]:
        # row j = coefficient vector of x^(degree+j) reduced mod modulus
        d, p = self.degree, self.p
        rows: list[tuple[int, ...]] = []
        cur = [(-c) % p for c in self.modulus[:d]]
        for _ in range(max(d - 1, 1)):
            rows.append(tuple(cur))
            top = cur[d - 1]
            cur = [0] + cur[: d - 1]
            if top:
                base = rows[0]
                for i in range(d):
                    cur[i] = (cur[i] + top * base[i]) % p
        return rows

    def _mul_raw(self, a: int, b: int) -> int:
        d, p = self.degree, self.p
        if d == 1:
            return a * b % p
        da, db = self.decode(a), self.decode(b)
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] += ai * bj
        red = self._reduction
        if red is None:
            raise VerificationError(
                f"{self!r} has no reduction rows for its modulus {self.modulus}"
            )
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k] % p
            if c:
                row = red[k - d]
                for i in range(d):
                    prod[i] += c * row[i]
        return self.encode(c % p for c in prod[:d])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    # -- lookup-table acceleration -------------------------------------------

    def exp_log_tables(self) -> tuple[list[int] | None, list[int] | None]:
        """Build (lazily) and return exp/log tables; (None, None) if too big.

        exp has length 2*(order-1) so that exp[log[a] + log[b]] needs no
        reduction, and log[0] = log_zero.  For odd p this also builds the
        Zech table (see zech_tables).
        """
        if self.order > _ACCEL_CAP:
            return None, None
        if self._exp is None:
            g = self.generator()
            n1 = self.order - 1
            exp = [1] * (2 * n1)
            log = [self.log_zero] * self.order
            v = 1
            for i in range(n1):
                exp[i] = v
                log[v] = i
                v = self._mul_raw2(v, g) if self.p == 2 else self._mul_raw(v, g)
            for i in range(n1, 2 * n1):
                exp[i] = exp[i - n1]
            if self.p != 2:
                # 1 + g^k adds one to the constant digit of g^k's index
                p = self.p
                z = [log[v + 1 if v % p != p - 1 else v + 1 - p] for v in exp[:n1]]
                self._zech = z * 3 + [0] * (4 * n1) + z * 2
            self._exp, self._log = exp, log
        return self._exp, self._log

    def zech_tables(self) -> tuple[list[int], list[int], list[int]] | None:
        """(exp, log, zech) for an odd-p field with tables, else None.

        With n1 = order-1, zech has length 9*n1: zech[k] = log(1 + g^k) at
        every k = -2*n1 .. 3*n1-1 (through negative indexing), or log_zero
        where 1 + g^k = 0; zech[k] = 0 for k in 3*n1 .. 7*n1-1.  So for a
        nonzero log lp in [0, 2*n1) and an accumulator acc that is either a
        log below 3*n1 or a zero in [log_zero, log_zero + 2*n1), the log of
        their sum is lp + zech[acc - lp], again of one of those two kinds:
        the log-domain kernels in oracle never reduce mod n1 or test the
        accumulator for zero.
        """
        self.exp_log_tables()
        if self._zech is None:
            return None
        return self._exp, self._log, self._zech

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
            for idx in range(1, self.order):
                if self.multiplicative_order(idx) == n1:
                    self._generator = idx
                    break
            else:  # pragma: no cover - every finite field has a generator
                raise AssertionError("no generator found")
        return self._generator

    # -- element factory -------------------------------------------------------

    def element(self, idx: int) -> "FieldElement":
        if not 0 <= idx < self.order:
            raise ValueError(f"index {idx} out of range for {self!r}")
        return FieldElement(self, idx)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)


@functools.lru_cache(maxsize=None)
def build_field(p: int, degree: int) -> Field:
    """The field of order p^degree with its canonical (smallest) modulus."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if p**degree > _MAX_ORDER:
        raise ValueError(f"field order {p}^{degree} exceeds the 2^63 bound")
    return Field(p, degree, _smallest_irreducible(p, degree))


@dataclass(frozen=True)
class FieldElement:
    """An element of a Field, wrapping its canonical integer index."""

    field: Field
    index: int

    def _check(self, other: "FieldElement") -> None:
        if self.field is not other.field:
            raise ValueError("elements belong to different fields")

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.decode(self.index)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, self.field.add(self.index, other.index))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, self.field.sub(self.index, other.index))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, self.field.mul(self.index, other.index))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, self.field.neg(self.index))

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.field, self.field.pow(self.index, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.index))

    def __bool__(self) -> bool:
        return self.index != 0

    def multiplicative_order(self) -> int:
        return self.field.multiplicative_order(self.index)


def conjugate(a: FieldElement, q: int) -> FieldElement:
    """The conjugate a^q of an element of the field of order q^2."""
    if a.field.order != q * q:
        raise ValueError(f"field order {a.field.order} is not {q}^2")
    return a**q


def find_element_of_order(field: Field, n: int) -> FieldElement:
    """A multiplicative element of exact order n (n must divide order-1).

    Deterministic: always g^((order-1)/n) for the smallest generator g.
    The returned order is verified exactly before returning.
    """
    group = field.order - 1
    if n < 1 or group % n != 0:
        raise ValueError(f"{n} does not divide the group order {group}")
    lam = field.pow(field.generator(), group // n)
    if field.pow(lam, n) != 1:
        raise VerificationError(f"candidate of order {n} failed lam^n == 1")
    for r in factorize(n):
        if field.pow(lam, n // r) == 1:
            raise VerificationError(f"candidate has order dividing {n // r}, not {n}")
    return FieldElement(field, lam)


# ---------------------------------------------------------------------------
# dense polynomials over a Field
# ---------------------------------------------------------------------------


class Poly:
    """Dense polynomial over one Field: tuple of element indices, constant
    term first, no trailing zeros."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[int]):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def x_pow_n_minus_1(cls, field: Field, n: int) -> "Poly":
        coeffs = [0] * (n + 1)
        coeffs[0] = field.neg(1)
        coeffs[n] = 1
        return cls(field, coeffs)

    @classmethod
    def from_roots(cls, field: Field, roots: Iterable[int]) -> "Poly":
        """The monic product of (x - r) over the given element indices."""
        cur = [1]
        for r in roots:
            nr = field.neg(r)
            nxt = [0] * (len(cur) + 1)
            for i, c in enumerate(cur):
                if c:
                    nxt[i + 1] = field.add(nxt[i + 1], c)
                    nxt[i] = field.add(nxt[i], field.mul(c, nr))
            cur = nxt
        return cls(field, cur)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((id(self.field), self.coeffs))

    def __repr__(self) -> str:
        return f"Poly({self.field!r}, {self.coeffs})"

    def _check(self, other: "Poly") -> None:
        if self.field is not other.field:
            raise ValueError("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        a = a + (0,) * (n - len(a))
        b = b + (0,) * (n - len(b))
        return Poly(f, (f.add(x, y) for x, y in zip(a, b)))

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        a = a + (0,) * (n - len(a))
        b = b + (0,) * (n - len(b))
        return Poly(f, (f.sub(x, y) for x, y in zip(a, b)))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = f.add(out[i + j], f.mul(ai, bj))
        return Poly(f, out)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        div = other.coeffs
        dD = len(div) - 1
        quo = [0] * max(len(rem) - dD, 0)
        inv_lead = f.inv(div[-1])
        while len(rem) - 1 >= dD and rem:
            c = f.mul(rem[-1], inv_lead)
            shift = len(rem) - 1 - dD
            quo[shift] = c
            for i, di in enumerate(div):
                if di:
                    rem[shift + i] = f.sub(rem[shift + i], f.mul(c, di))
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(f, quo), Poly(f, rem)

    def exact_div(self, other: "Poly") -> "Poly":
        quo, rem = self.divmod(other)
        if not rem.is_zero():
            raise VerificationError(f"expected exact division, remainder {rem.coeffs}")
        return quo

    def __call__(self, x_index: int) -> int:
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x_index), c)
        return acc


# ---------------------------------------------------------------------------
# the tower F_p < F_{q^2} < F_{q^4} used by generator polynomials and matrices
# ---------------------------------------------------------------------------


class FieldTower:
    """The ambient fields for length-n cyclic codes over F_{q^2}.

    Bundles the quadratic extension (code alphabet), the quartic extension
    (splitting field containing the n-th roots of unity, built directly as
    degree 4e over F_p), a fixed primitive n-th root of unity, and the
    conversion maps between the quadratic field and its isomorphic copy
    inside the quartic field (the subfield fixed by the q^2 power map).
    """

    def __init__(self, q: int, n: int):
        self.q_power = PrimePower.from_int(q)
        self.q = q
        self.n = n
        p, e = self.q_power.p, self.q_power.e
        self.fq2 = build_field(p, 2 * e)
        self.fq4 = build_field(p, 4 * e)
        if (q**4 - 1) % n != 0:
            raise ValueError(f"n={n} does not divide q^4-1 for q={q}")
        self.unity_root = find_element_of_order(self.fq4, n)
        self._root_pows: list[int] | None = None
        # the code alphabet's tables serve every generator-polynomial division
        self.fq2.exp_log_tables()
        self._setup_embedding()
        self._minpoly_cache: dict[int, Poly] = {}

    # -- powers of the primitive n-th root ------------------------------------

    def root_power(self, z: int) -> int:
        """Index (in the quartic field) of the n-th root of unity to power z."""
        if self._root_pows is None:
            pows = [1] * self.n
            lam = self.unity_root.index
            f = self.fq4
            for i in range(1, self.n):
                pows[i] = f.mul(pows[i - 1], lam)
            self._root_pows = pows
        return self._root_pows[z % self.n]

    # -- subfield embedding ----------------------------------------------------

    def _setup_embedding(self) -> None:
        f2, f4 = self.fq2, self.fq4
        sub_order = f2.order
        # a root of the quadratic field's modulus inside the quartic field;
        # all such roots lie in the subfield fixed by the q^2 power map
        mu = f4.pow(f4.generator(), (f4.order - 1) // (sub_order - 1))
        beta = None
        cand = 1
        for _ in range(sub_order - 1):
            acc = 0
            for c in reversed(f2.modulus):
                acc = f4.add(f4.mul(acc, cand), c)
            if acc == 0:
                beta = cand
                break
            cand = f4.mul(cand, mu)
        if beta is None:  # pragma: no cover - the modulus always splits there
            raise VerificationError("no root of the subfield modulus found")
        self._beta_pows = [f4.pow(beta, i) for i in range(f2.degree)]
        self._solve = self._solve_prep()

    def _solve_prep(self):
        # column j of B = F_p coefficient vector of beta^j; precompute a
        # row-reduced transform so project() is a matrix-vector product
        p = self.q_power.p
        nrows, ncols = self.fq4.degree, self.fq2.degree
        cols = [self.fq4.decode(bp) for bp in self._beta_pows]
        aug = [
            [cols[c][r] for c in range(ncols)] + [1 if i == r else 0 for i in range(nrows)]
            for r in range(nrows)
        ]
        pivots: list[tuple[int, int]] = []
        rank = 0
        for c in range(ncols):
            piv = next((i for i in range(rank, nrows) if aug[i][c] % p), None)
            if piv is None:
                continue
            aug[rank], aug[piv] = aug[piv], aug[rank]
            inv = pow(aug[rank][c], -1, p)
            aug[rank] = [v * inv % p for v in aug[rank]]
            for i in range(nrows):
                if i != rank and aug[i][c] % p:
                    faci = aug[i][c]
                    aug[i] = [(v - faci * w) % p for v, w in zip(aug[i], aug[rank])]
            pivots.append((rank, c))
            rank += 1
        if rank != ncols:  # pragma: no cover
            raise VerificationError("subfield basis is rank-deficient")
        transform = [aug[r][ncols:] for r, _ in pivots]
        b_cols = cols

        def solve(target: tuple[int, ...]) -> tuple[int, ...] | None:
            sol = [sum(t * v for t, v in zip(row, target)) % p for row in transform]
            # consistency: B @ sol must reproduce the target exactly
            for r in range(nrows):
                acc = sum(b_cols[c][r] * sol[c] for c in range(ncols)) % p
                if acc != target[r] % p:
                    return None
            return tuple(sol)

        return solve

    def embed(self, idx2: int) -> int:
        """Image in the quartic field of a quadratic-field element."""
        f4 = self.fq4
        p = self.q_power.p
        acc = 0
        for c, bp in zip(self.fq2.decode(idx2), self._beta_pows):
            if c:
                # scalar multiple by c in F_p, digit-wise
                term = f4.encode((c * d) % p for d in f4.decode(bp))
                acc = f4.add(acc, term)
        return acc

    def project(self, idx4: int) -> int:
        """Preimage in the quadratic field; raises if not in the subfield."""
        sol = self._solve(self.fq4.decode(idx4))
        if sol is None:
            raise VerificationError(
                f"element {idx4} of the quartic field is not in the quadratic subfield"
            )
        return self.fq2.encode(sol)

    def in_subfield(self, idx4: int) -> bool:
        return self.fq4.pow(idx4, self.fq2.order) == idx4

    # -- minimal polynomials -----------------------------------------------------

    def coset_exponents(self, i: int) -> tuple[int, ...]:
        """Orbit of an exponent under multiplication by q^2 modulo n."""
        mult = self.q * self.q % self.n
        orbit = []
        cur = i % self.n
        while cur not in orbit:
            orbit.append(cur)
            cur = cur * mult % self.n
        return tuple(sorted(orbit))

    def minimal_polynomial(self, i: int) -> Poly:
        """Minimal polynomial over F_{q^2} of the i-th power of the root of
        unity: the monic product of (x - root^j) over the orbit of i, with
        every coefficient verified to land in the quadratic subfield."""
        i = min(self.coset_exponents(i))
        cached = self._minpoly_cache.get(i)
        if cached is not None:
            return cached
        orbit = self.coset_exponents(i)
        big = Poly.from_roots(self.fq4, (self.root_power(j) for j in orbit))
        q2 = self.q * self.q
        for c in big.coeffs:
            if self.fq4.pow(c, q2) != c:
                raise VerificationError(
                    f"coefficient {c} of the orbit product is not fixed by the "
                    f"q^2 power map (orbit of {i})"
                )
        small = Poly(self.fq2, (self.project(c) for c in big.coeffs))
        if small.degree != len(orbit) or not small.is_monic():
            raise VerificationError(
                f"minimal polynomial of the orbit of {i} has coefficients {small.coeffs}: "
                f"expected monic of degree {len(orbit)}"
            )
        self._minpoly_cache[i] = small
        return small


@functools.lru_cache(maxsize=None)
def field_tower(q: int, n: int) -> FieldTower:
    """Cached tower for (q, n); n must be coprime to q and divide q^4-1."""
    if gcd(q, n) != 1:
        raise ValueError(f"gcd(n={n}, q={q}) != 1")
    return FieldTower(q, n)
