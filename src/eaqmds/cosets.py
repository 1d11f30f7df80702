"""Cyclotomic cosets modulo n under multiplication by q^2, and the set
algebra of coset-closed subsets, including the -q map.

The engine accepts any modulus n coprime to q.  The lengths this package
is really about, n = (q^2+1)/5, satisfy q^2 = -1 (mod n); then every
orbit is the pair {i, n-i} (a singleton for i = 0 and, when n is even,
for i = n/2).  families.verify_cosets checks that shape on the family
moduli; the engine tests q^2 = -1 (mod n) itself, once per (n, q), and
there checks -q*C_src == C_dst as -q*src = +-dst (mod n), building no orbit.

A set is one int bitmask, bit x set exactly when x is a member, so its
set algebra is one int operation each.  Where q^2 = -1 (mod n),
from_cosets closes by the reflection x -> n-x, and -q, which sends
i + k*q to (-i*q mod n) + k, moves each strided slice t[i::q] of the
indicator string t as one arc; elsewhere from_cosets iterates *q^2 and
-q maps element by element.  Closure is checked once, by
DefiningSet(ctx, members), which keeps the residues (mapped by -q
element by element) and builds the mask only when an operation needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd
from typing import Iterable, Iterator

from .exceptions import UsageError


@dataclass(frozen=True)
class CycContext:
    """Modulus n and alphabet parameter q; orbits multiply by q^2 mod n."""

    n: int
    q: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise UsageError(f"modulus must be positive, got {self.n}")
        if self.q < 2:
            raise UsageError(f"q must be at least 2, got {self.q}")
        if gcd(self.n, self.q) != 1:
            raise UsageError(f"gcd(n={self.n}, q={self.q}) != 1")

    @property
    def multiplier(self) -> int:
        return self.q * self.q % self.n

    @classmethod
    def for_family(cls, q: int) -> "CycContext":
        """The context with n = (q^2+1)/5; q^2+1 must be divisible by 5."""
        if (q * q + 1) % 5 != 0:
            raise UsageError(f"(q^2+1) not divisible by 5 for q={q}")
        return cls((q * q + 1) // 5, q)


def coset(ctx: CycContext, i: int) -> tuple[int, ...]:
    """The coset containing i: the orbit {i, i*q^2, i*q^4, ...} mod n, as
    an ascending tuple, whose first member is the coset's representative."""
    i %= ctx.n
    mult = ctx.multiplier
    orbit = [i]
    cur = i * mult % ctx.n
    while cur != i:
        orbit.append(cur)
        cur = cur * mult % ctx.n
    return tuple(sorted(orbit))


def all_cosets(ctx: CycContext) -> list[tuple[int, ...]]:
    """All cosets, by ascending representative; they partition 0..n-1."""
    seen = bytearray(ctx.n)
    out = []
    for i in range(ctx.n):
        if not seen[i]:
            c = coset(ctx, i)
            for x in c:
                seen[x] = 1
            out.append(c)
    return out


def _mask_of(indicator: str | bytes | bytearray) -> int:
    """The mask of a '0'/'1' indicator string: bit x set where character x is '1'."""
    return int(indicator[::-1], 2)


@lru_cache(maxsize=None)
def _stride_order(n: int, q: int) -> tuple[int, ...] | None:
    """When q^2 = -1 (mod n), i < q in the order of (-i*q) mod n, where the
    arc of t[i::q] starts, else None.  The arcs tile 0..n-1 and the arc of
    i = 0 starts at 0, so laid end to end in this order none wraps around."""
    if (q * q + 1) % n:
        return None
    return tuple(sorted(range(q), key=lambda i: -i * q % n))


class DefiningSet:
    """A union of whole cosets: a subset of Z_n closed under *q^2 mod n.

    ``DefiningSet(ctx, members)`` is the one constructor that takes
    arbitrary residues, and it checks closure.  The other ways of making a
    set (``from_cosets`` and the set algebra below) build a closed set by
    construction and skip the check.

    ``mask`` is the set as an int, bit x set exactly when x is a member;
    ``members`` is the same set as an ascending tuple, expanded on demand.
    """

    __slots__ = ("ctx", "_mask", "_residues")

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
        self._mask: int | None = None
        self._residues: frozenset[int] | None = mset

    @classmethod
    def _closed(cls, ctx: CycContext, mask: int | None, residues=None) -> "DefiningSet":
        """Wrap a mask, or a frozenset of residues mod n, known to be closed."""
        z = object.__new__(cls)
        z.ctx, z._mask, z._residues = ctx, mask, residues
        return z

    @classmethod
    def from_cosets(cls, ctx: CycContext, *reps: Iterable[int]) -> "DefiningSet":
        """The union of the cosets of the integers in one or more iterables
        ``reps``; each ``range`` inside 0..n-1 is marked by one slice.

        Where every coset is {x, n-x}, the marks are closed by one
        reflection.  Elsewhere the whole set is closed under *q^2 at once,
        mapping the newest elements each round until none is new.
        """
        n, mult = ctx.n, ctx.multiplier
        if _stride_order(n, ctx.q) is None:
            closed = {r % n for run in reps for r in run}
            new = closed
            while new:
                new = {x * mult % n for x in new} - closed
                closed |= new
            return cls._closed(ctx, None, frozenset(closed))
        marks = bytearray(b"0" * n)
        for run in reps:
            if isinstance(run, range) and run.step > 0 and 0 <= run.start <= run.stop <= n:
                marks[run.start : run.stop : run.step] = b"1" * len(run)
            else:
                for r in run:
                    marks[r % n] = 49  # ord("1")
        # bit x of the second mask is mark n-x (mark 0 for x = 0)
        return cls._closed(ctx, _mask_of(marks) | int(marks[1:] + marks[:1], 2))

    # -- basic protocol ------------------------------------------------------

    @property
    def mask(self) -> int:
        """The set as an int, bit x set exactly when x is a member."""
        if self._mask is None:
            marks = bytearray(b"0" * self.ctx.n)
            for x in self._residues:
                marks[x] = 49  # ord("1")
            self._mask = _mask_of(marks)
        return self._mask

    @property
    def members(self) -> tuple[int, ...]:
        """The residues in ascending order."""
        if self._residues is not None:
            return tuple(sorted(self._residues))
        bits = format(self._mask, f"0{self.ctx.n}b")[::-1].encode().replace(b"0", b"\0")
        return tuple(compress(range(self.ctx.n), bits))

    def __len__(self) -> int:
        return len(self._residues) if self._mask is None else self._mask.bit_count()

    def __contains__(self, x: int) -> bool:
        return self.mask >> x % self.ctx.n & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DefiningSet) or self.ctx != other.ctx:
            return False
        if self._mask is None and other._mask is None:
            return self._residues == other._residues
        return self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.ctx, self.mask))

    def __repr__(self) -> str:
        return f"DefiningSet(n={self.ctx.n}, q={self.ctx.q}, size={len(self)})"

    def is_empty(self) -> bool:
        return len(self) == 0

    def _check(self, other: "DefiningSet") -> None:
        if self.ctx != other.ctx:
            raise ValueError("defining sets live in different contexts")

    # -- set algebra: unions, intersections and differences of closed sets,
    # and the complement of one, are closed again, so none is re-checked ----

    def union(self, other: "DefiningSet") -> "DefiningSet":
        self._check(other)
        return DefiningSet._closed(self.ctx, self.mask | other.mask)

    def intersect(self, other: "DefiningSet") -> "DefiningSet":
        self._check(other)
        return DefiningSet._closed(self.ctx, self.mask & other.mask)

    def difference(self, other: "DefiningSet") -> "DefiningSet":
        self._check(other)
        return DefiningSet._closed(self.ctx, self.mask & ~other.mask)

    def isdisjoint(self, other: "DefiningSet") -> bool:
        self._check(other)
        return not self.mask & other.mask

    def complement(self) -> "DefiningSet":
        return DefiningSet._closed(self.ctx, ((1 << self.ctx.n) - 1) ^ self.mask)

    def neg_q(self) -> "DefiningSet":
        """The image {(n - q*x) mod n}; again coset-closed, same size.

        Closed because -q commutes with *q^2, so it is not re-checked.  On
        coset-closed sets this map is an involution: applying it twice
        multiplies by q^2, which fixes every coset.  Where q^2 = -1 (mod n),
        a set held as a mask is mapped by q strided slices; a set held as
        residues (made from members), or any set elsewhere, element by
        element.
        """
        n, q = self.ctx.n, self.ctx.q
        if self._residues is None and (order := _stride_order(n, q)) is not None:
            t = format(self._mask, f"0{n}b")[::-1]  # the indicator: character x is bit x
            return DefiningSet._closed(self.ctx, _mask_of("".join([t[i::q] for i in order])))
        residues = self.members if self._residues is None else self._residues
        return DefiningSet._closed(self.ctx, None, frozenset([-q * x % n for x in residues]))

    def coset_reps(self) -> tuple[int, ...]:
        """Ascending representatives of the distinct cosets this set unites."""
        reps = []
        seen: set[int] = set()
        for m in self.members:
            if m not in seen:
                c = coset(self.ctx, m)
                seen.update(c)
                reps.append(c[0])
        return tuple(reps)


# ---------------------------------------------------------------------------
# the coset reflection identity -q*C_{s*q+i} == C_{i*q-s} and its windows
# ---------------------------------------------------------------------------


def _neg_q_maps_coset(ctx: CycContext, src: int, dst: int) -> bool:
    """Whether -q * C_src == C_dst as sets: as -q commutes with *q^2, whether
    -q*src lies in C_dst, which is {dst, -dst} where q^2 = -1 (mod n);
    elsewhere the one orbit C_dst is built."""
    n, image = ctx.n, -ctx.q * src % ctx.n
    if _stride_order(n, ctx.q) is not None:
        return image in (dst % n, -dst % n)
    return image in coset(ctx, dst)


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
