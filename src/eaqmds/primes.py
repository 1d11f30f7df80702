"""Prime factorization by trial division and the prime-power parser,
shared by both routes: families classifies q, gf builds F_{q^2}."""

from __future__ import annotations

from typing import NamedTuple


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


def is_prime(n: int) -> bool:
    """Primality by trial division, through factorize."""
    return n >= 2 and factorize(n) == {n: 1}


class PrimePower(NamedTuple("PrimePower", [("p", int), ("e", int), ("q", int)])):
    """A field size q = p^e with its factorization."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls it: both check

    def __new__(cls, p: int, e: int, q: int) -> PrimePower:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError(f"exponent must be positive, got {e}")
        if p**e != q:
            raise ValueError(f"{q} != {p}^{e}")
        return super().__new__(cls, p, e, q)

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
