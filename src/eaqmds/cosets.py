"""Cyclotomic cosets modulo n under multiplication by q^2, and the set
algebra of coset-closed subsets, including the -q map.

The engine accepts any modulus n coprime to q.  The lengths this package
is really about, n = (q^2+1)/5, satisfy q^2 = -1 (mod n); then every
orbit is the pair {i, n-i} (a singleton for i = 0 and, when n is even,
for i = n/2).  The engine relies on no such shape; families.verify_cosets
checks it on the family moduli.

Closure is checked once, by the public constructor DefiningSet(ctx,
members).  The set algebra, the -q map and from_cosets build closed sets
by construction, skip that check, and each works on the whole set at once
(frozenset operations, or one comprehension over all members) instead of
building cosets one by one.  A set sorts its members only when they are
asked for.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator


@dataclass(frozen=True)
class CycContext:
    """Modulus n and alphabet parameter q; orbits multiply by q^2 mod n."""

    n: int
    q: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"modulus must be positive, got {self.n}")
        if self.q < 2:
            raise ValueError(f"q must be at least 2, got {self.q}")
        if gcd(self.n, self.q) != 1:
            raise ValueError(f"gcd(n={self.n}, q={self.q}) != 1")

    @property
    def multiplier(self) -> int:
        return self.q * self.q % self.n

    @classmethod
    def for_family(cls, q: int) -> "CycContext":
        """The context with n = (q^2+1)/5; q^2+1 must be divisible by 5."""
        if (q * q + 1) % 5 != 0:
            raise ValueError(f"(q^2+1) not divisible by 5 for q={q}")
        return cls((q * q + 1) // 5, q)


@dataclass(frozen=True)
class CycCoset:
    """One orbit under multiplication by q^2 mod n, with smallest-member rep."""

    ctx: CycContext
    rep: int
    elements: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)


def coset(ctx: CycContext, i: int) -> CycCoset:
    """The coset containing i: the orbit {i, i*q^2, i*q^4, ...} mod n."""
    i %= ctx.n
    mult = ctx.multiplier
    orbit = [i]
    cur = i * mult % ctx.n
    while cur != i:
        orbit.append(cur)
        cur = cur * mult % ctx.n
    orbit.sort()
    return CycCoset(ctx, orbit[0], tuple(orbit))


def all_cosets(ctx: CycContext) -> list[CycCoset]:
    """All cosets, by ascending representative; they partition 0..n-1."""
    seen = bytearray(ctx.n)
    out = []
    for i in range(ctx.n):
        if not seen[i]:
            c = coset(ctx, i)
            for x in c.elements:
                seen[x] = 1
            out.append(c)
    return out


class DefiningSet:
    """A union of whole cosets: a subset of Z_n closed under *q^2 mod n.

    ``DefiningSet(ctx, members)`` is the one constructor that takes
    arbitrary residues, and it checks closure.  The other ways of making a
    set (``from_cosets`` and the set algebra below) build a closed set by
    construction and skip the check.

    ``residues`` is the set as a frozenset; ``members`` is the same set as
    an ascending tuple.
    """

    __slots__ = ("ctx", "residues", "_members")

    def __init__(self, ctx: CycContext, members: Iterable[int]):
        n, mult = ctx.n, ctx.multiplier
        mset = frozenset(int(m) % n for m in members)
        if not {m * mult % n for m in mset} <= mset:
            m = min(x for x in mset if x * mult % n not in mset)
            raise ValueError(
                f"set is not closed under multiplication by q^2: "
                f"{m} in, {m * mult % n} out"
            )
        self.ctx = ctx
        self.residues = mset
        self._members: tuple[int, ...] | None = None

    @classmethod
    def _closed(cls, ctx: CycContext, residues: frozenset[int]) -> "DefiningSet":
        """Wrap residues already known to be reduced mod n and closed."""
        z = object.__new__(cls)
        z.ctx = ctx
        z.residues = residues
        z._members = None
        return z

    @classmethod
    def from_cosets(cls, ctx: CycContext, reps: Iterable[int]) -> "DefiningSet":
        """The union of the cosets of ``reps`` (any integers).

        Closes the whole set under *q^2 at once, mapping the newest
        elements each round until none is new: two rounds when every coset
        is {i, n-i}, one per orbit element on a general modulus.  No coset
        is built one by one.
        """
        n, mult = ctx.n, ctx.multiplier
        closed = {r % n for r in reps}
        new = closed
        while new:
            new = {x * mult % n for x in new} - closed
            closed |= new
        return cls._closed(ctx, frozenset(closed))

    # -- basic protocol ------------------------------------------------------

    @property
    def members(self) -> tuple[int, ...]:
        """The residues in ascending order (sorted on first use, then cached)."""
        if self._members is None:
            self._members = tuple(sorted(self.residues))
        return self._members

    def __len__(self) -> int:
        return len(self.residues)

    def __contains__(self, x: int) -> bool:
        return x % self.ctx.n in self.residues

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DefiningSet)
            and self.ctx == other.ctx
            and self.residues == other.residues
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.residues))

    def __repr__(self) -> str:
        return f"DefiningSet(n={self.ctx.n}, q={self.ctx.q}, size={len(self)})"

    def is_empty(self) -> bool:
        return not self.residues

    def _check(self, other: "DefiningSet") -> None:
        if self.ctx != other.ctx:
            raise ValueError("defining sets live in different contexts")

    # -- set algebra: unions, intersections and differences of closed sets,
    # and the complement of one, are closed again, so none is re-checked ----

    def union(self, other: "DefiningSet") -> "DefiningSet":
        self._check(other)
        return DefiningSet._closed(self.ctx, self.residues | other.residues)

    def intersect(self, other: "DefiningSet") -> "DefiningSet":
        self._check(other)
        return DefiningSet._closed(self.ctx, self.residues & other.residues)

    def difference(self, other: "DefiningSet") -> "DefiningSet":
        self._check(other)
        return DefiningSet._closed(self.ctx, self.residues - other.residues)

    def isdisjoint(self, other: "DefiningSet") -> bool:
        self._check(other)
        return self.residues.isdisjoint(other.residues)

    def complement(self) -> "DefiningSet":
        return DefiningSet._closed(self.ctx, frozenset(range(self.ctx.n)) - self.residues)

    def neg_q(self) -> "DefiningSet":
        """The image {(n - q*x) mod n}; again coset-closed, same size.

        Closed because -q commutes with *q^2, so it is not re-checked.  On
        coset-closed sets this map is an involution: applying it twice
        multiplies by q^2, which fixes every coset.
        """
        n = self.ctx.n
        c = -self.ctx.q % n
        return DefiningSet._closed(self.ctx, frozenset(c * x % n for x in self.residues))

    def coset_reps(self) -> tuple[int, ...]:
        """Ascending representatives of the distinct cosets this set unites."""
        reps = []
        seen: set[int] = set()
        for m in self.members:
            if m not in seen:
                c = coset(self.ctx, m)
                seen.update(c.elements)
                reps.append(c.rep)
        return tuple(reps)


# ---------------------------------------------------------------------------
# the coset reflection identity -q*C_{s*q+i} == C_{i*q-s} and its windows
# ---------------------------------------------------------------------------


def _neg_q_maps_coset(ctx: CycContext, src: int, dst: int) -> bool:
    """Whether -q * C_src == C_dst as sets.  As -q commutes with *q^2,
    -q * C_src is the coset of -q * src, and two cosets are equal exactly
    when they share an element, so one orbit is built."""
    return -ctx.q * src % ctx.n in coset(ctx, dst).elements


def coset_product_identity(ctx: CycContext, s: int, i: int) -> bool:
    """Check -q * C_{s*q+i} == C_{(i*q-s) mod n} as a set identity."""
    return _neg_q_maps_coset(ctx, s * ctx.q + i, i * ctx.q - s)


def coset_product_identity_inverse(ctx: CycContext, t: int, j: int) -> bool:
    """Check -q * C_{t*q-j} == C_{(j*q+t) mod n} as a set identity."""
    return _neg_q_maps_coset(ctx, t * ctx.q - j, j * ctx.q + t)


def _ranges(*bounds: tuple[int, int]) -> Iterator[int]:
    for lo, hi in bounds:
        yield from range(lo, hi + 1)


def identity_windows(q: int) -> Iterator[tuple[int, int]]:
    """The stated (s, i) windows of the reflection identity for a family q.

    Odd q uses the windows exactly as stated for q = 3 and 7 (mod 10); for
    the even field sizes (q = 2 or 8 mod 10) the same expressions are used
    with integer floors, which is the natural reading since no separate
    windows are stated for them.
    """
    r = q % 10
    if r in (3, 8):
        hi1 = (3 * q - 9) // 10
        lo2, hi2 = (2 * q + 4) // 5, (3 * q - 4) // 5
        smax = (q - 3) // 10
        for s in range(smax):
            for i in _ranges((1, hi1), (lo2, hi2)):
                yield s, i
        for i in _ranges((1, hi1)):
            yield smax, i
    elif r in (7, 2):
        smax = (q - 7) // 10
        for s in range(smax + 1):
            for i in _ranges(
                (1, (q - 2) // 5),
                ((3 * q + 9) // 10, (2 * q - 4) // 5),
                ((q + 1) // 2, (7 * q - 9) // 10),
            ):
                yield s, i
    else:
        raise ValueError(f"q={q} is not congruent to 2, 3, 7 or 8 mod 10")


def inverse_identity_windows(q: int, with_offset: bool) -> Iterator[tuple[int, int]]:
    """The (t, j) windows for the inverse identity -q*C_{t*q-j} == C_{j*q+t}:
    the forward windows with t in i's role and j in s's, in the same order.

    Two readings are in circulation for the q = 3 (mod 10) shape: one whose
    middle window starts at (2q+4)/5, as the forward one does, and one that
    starts 2 higher.  Both are generated (pick with ``with_offset``) so
    callers can check each; the identity itself holds on both.
    """
    lo2 = (2 * q + 4) // 5
    skip = range(lo2, lo2 + 2) if with_offset and q % 10 in (3, 8) else range(0)
    for s, i in identity_windows(q):
        # the first window ends below lo2, so only the middle one loses values
        if i not in skip:
            yield i, s
