"""Cyclotomic cosets modulo n under multiplication by q^2, and the set
algebra of coset-closed subsets, including the -q map.

Cosets are computed for any modulus n coprime to q, all at once, by
walking each orbit through one table of x*q^2 mod n.  A table of b*x mod n
is |b| arithmetic progressions, each filled by one slice assignment where
they are long, else by one C-level map.  The lengths this package is
about, n = (q^2+1)/5, satisfy q^2 = -1 (mod n); then every orbit is the
pair {i, n-i} (a singleton for i = 0 and, when n is even, for i = n/2).
families.verify_cosets checks that shape on the family moduli, and that
the table t = neg_q_map of -q*x mod n squares to negation, which makes -q
an involution on those cosets; neg_q_misses checks -q*C_src == C_dst as
-q*src = +-dst (mod n), by map chains over a whole window.  The stated
windows of identity_windows serve both directions: -q*C_{s*q+i} = C_{i*q-s}
read forward, and the inverse identity -q*C_{t*q-j} = C_{j*q+t} read
backward over the same pairs.

Defining sets exist only where q^2 = -1 (mod n), which _check_modulus
tests as each set is built.  A set is one int bitmask, bit x set exactly when
x is a member, so its set algebra is one int operation each.
DefiningSet.from_runs is the one constructor from residues: it makes each
periodic family of runs and its reflection x -> n-x by one multiply, so
every set it builds is closed.  -q reads each row s*q .. s*q+q-1 of its
image as one stride-q slice of the indicator string (bit s*q + i of the
image is bit i*q - s of the set), by one row reader: neg_q reads every
row, and overlap, Z & -qZ, only the rows that hold members of Z, which for
a family block around 0 is about 2m rows of n/q.  The matrix route checks
the closure of the residues it is given by the degree of g.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, count, repeat
from math import gcd
from operator import add, mod, mul, sub
from typing import Iterable, Iterator, NamedTuple

from .exceptions import UsageError


class CycContext(NamedTuple("CycContext", [("n", int), ("q", int)])):
    """Modulus n and alphabet parameter q; orbits multiply by q^2 mod n."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls it: both check

    def __new__(cls, n: int, q: int) -> CycContext:
        if n < 1:
            raise UsageError(f"modulus must be positive, got {n}")
        if q < 2:
            raise UsageError(f"q must be at least 2, got {q}")
        if gcd(n, q) != 1:
            raise UsageError(f"gcd(n={n}, q={q}) != 1")
        return super().__new__(cls, n, q)

    @classmethod
    @lru_cache(maxsize=4)  # a sweep asks for one q many times in a row
    def for_family(cls, q: int) -> "CycContext":
        """The context with n = (q^2+1)/5; q^2+1 must be divisible by 5."""
        if (q * q + 1) % 5 != 0:
            raise UsageError(f"(q^2+1) not divisible by 5 for q={q}")
        return cls((q * q + 1) // 5, q)


def _times(n: int, a: int) -> list[int]:
    """The table x -> a*x mod n for x = 0..n-1 (a may be 0 or negative).

    With a = +-c (mod n), c <= n/2: for a = c the x with k*n <= c*x <
    (k+1)*n map to c*x - k*n, run k of c, each one slice assignment of a
    range of step c; for a = -c each run lands at n - x instead, as
    -c*x = c*(n-x).  Where runs are shorter than 24 residues one C-level
    map over count(0, a) is faster, and is used instead."""
    c = min(b := a % n, n - b)
    if 24 * c > n:
        return list(map(mod, count(0, a), repeat(n, n)))
    t, lo = [0] * n, 1
    for kn in range(0, c * n, n):
        hi = -((kn + n) // -c)
        if b == c:
            t[lo:hi] = range(c * lo - kn, c * hi - kn, c)
        else:
            t[n - hi + 1 : n - lo + 1] = range(c * hi - c - kn, c * lo - c - kn, -c)
        lo = hi
    return t


def neg_q_map(ctx: CycContext) -> list[int]:
    """The table t[x] = -q*x mod n for x = 0..n-1."""
    return _times(ctx.n, -ctx.q % ctx.n)


def all_cosets(ctx: CycContext) -> list[tuple[int, ...]]:
    """All cosets, by ascending representative; they partition 0..n-1.
    Each is an orbit {i, i*q^2, ...} mod n, walked through one table of
    x*q^2 mod n, as an ascending tuple led by its representative.  An orbit
    of one or two members is closed by one lookup, image[image[i]] == i."""
    n = ctx.n
    image = _times(n, ctx.q * ctx.q % n)
    unseen = bytearray(b"\1") * n
    out = []
    # compress reads unseen as it goes, and a walk from i clears only
    # members above i, so each i it yields is the least of a new orbit
    for i in compress(range(n), unseen):
        x = image[i]
        if image[x] == i:
            unseen[x] = 0
            out.append((i, x) if x != i else (i,))
            continue
        orbit = [i]
        while x != i:
            unseen[x] = 0
            orbit.append(x)
            x = image[x]
        orbit.sort()
        out.append(tuple(orbit))
    return out


@lru_cache(maxsize=4)  # the (q, m-1) of the window sets of one (q, m), and the block
def _repunit(period: int, count: int) -> int:
    """The sum of 2^(k*period) over k < count, by doubling shifts."""
    unit, terms = 1, 1
    while terms < count:
        unit, terms = unit | unit << terms * period, 2 * terms
    return unit & ((1 << count * period) - 1)


def _check_modulus(n: int, q: int) -> None:
    """Raises ValueError unless q^2 = -1 (mod n), where defining sets live."""
    if (q * q + 1) % n:
        raise ValueError(f"defining sets need q^2 = -1 (mod n); not so for n={n}, q={q}")


class DefiningSet:
    """A union of whole cosets: a subset of Z_n closed under *q^2 mod n,
    for a modulus with q^2 = -1 (mod n), so closed under x -> n-x.

    ``from_runs`` builds a closed set by construction, and the set algebra
    keeps it closed, so neither checks closure.

    ``mask`` is the set as an int, bit x set exactly when x is a member;
    ``members`` is the same set as an ascending tuple, expanded on demand.
    """

    __slots__ = ("ctx", "mask")

    @classmethod
    def _closed(cls, ctx: CycContext, mask: int) -> "DefiningSet":
        """Wrap a mask known to be closed."""
        z = object.__new__(cls)
        z.ctx, z.mask = ctx, mask
        return z

    @classmethod
    def from_runs(cls, ctx: CycContext, runs: Iterable[tuple[int, int, int, int]]) -> "DefiningSet":
        """The union of the cosets of start + k*period + j (j < length,
        k < count) over the families (start, length, period, count) in runs:
        one multiply each, whose reflection x -> n-x is the same product at
        n - last.  ValueError where a nonempty family leaves Z_n or overlaps."""
        n, mask = ctx.n, 0
        _check_modulus(n, ctx.q)
        for start, length, period, count in runs:
            if length > 0 and count > 0:  # an empty family adds nothing
                last = start + (count - 1) * period + length - 1
                if start < 0 or last >= n or (count > 1 and length > period):
                    raise ValueError(f"runs {start, length, period, count} overlap or leave Z_{n}")
                family = ((1 << length) - 1) * _repunit(period, count)  # multiply, then shift
                mask |= family << start | family << (n - last)
        return cls._closed(ctx, mask & ~(1 << n))  # bit n is the reflection of x = 0

    # -- basic protocol ------------------------------------------------------

    @property
    def members(self) -> tuple[int, ...]:
        """The residues in ascending order."""
        bits = format(self.mask, f"0{self.ctx.n}b")[::-1].encode().replace(b"0", b"\0")
        return tuple(compress(range(self.ctx.n), bits))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DefiningSet) and (self.ctx, self.mask) == (other.ctx, other.mask)

    def __repr__(self) -> str:
        return f"DefiningSet(n={self.ctx.n}, q={self.ctx.q}, size={len(self)})"

    def _check(self, other: "DefiningSet") -> None:
        if self.ctx != other.ctx:
            raise ValueError("defining sets live in different contexts")

    # -- set algebra: unions and differences of closed sets are closed
    # again, so neither is re-checked -----------------------------------------

    def union(self, other: "DefiningSet") -> "DefiningSet":
        self._check(other)
        return DefiningSet._closed(self.ctx, self.mask | other.mask)

    def difference(self, other: "DefiningSet") -> "DefiningSet":
        self._check(other)
        return DefiningSet._closed(self.ctx, self.mask & ~other.mask)

    def isdisjoint(self, other: "DefiningSet") -> bool:
        self._check(other)
        return not self.mask & other.mask

    def _neg_q_rows(self, spans: Iterable[tuple[int, int]]) -> int:
        """Rows lo..hi of the -q image, for each (lo, hi) in spans, as one
        mask; row s is bits s*q .. s*q + q-1, and bits outside the spans are
        clear.

        Bit y of the image is bit q*y mod n of the set, as (-q)(q) = 1.  The
        indicator string t has bit n-1-j as character j, repeated so that no
        slice wraps; its stride-q slice from character q + s holds bits
        (q-1-k)*q - s for k < q (q^2 = -1), which is row s of the image,
        bits s*q + q-1 down to s*q, MSB first.  The top row's characters
        past bit n-1 are dropped.  An empty span (lo > hi) reads no row.
        """
        n, q = self.ctx.n, self.ctx.q
        t = format(self.mask, f"0{n}b") * (q * q // n + 2)
        image = 0
        for lo, hi in spans:
            if lo <= hi:
                rows = "".join([t[q + s : q * q + s + 1 : q] for s in range(hi, lo - 1, -1)])
                image |= int(rows[max(0, (hi + 1) * q - n) :], 2) << lo * q
        return image

    def neg_q(self) -> "DefiningSet":
        """The image {(n - q*x) mod n}, every row read by _neg_q_rows; again
        coset-closed, same size.

        Closed because -q commutes with *q^2, so it is not re-checked.  On
        coset-closed sets this map is an involution: applying it twice
        multiplies by q^2, which fixes every coset.
        """
        top = (self.ctx.n - 1) // self.ctx.q
        return DefiningSet._closed(self.ctx, self._neg_q_rows([(0, top)]))

    def overlap(self) -> "DefiningSet":
        """Z & -qZ, the mask of Z ANDed with that of its -q image, reading
        only the image rows that hold members: rows 0 .. t//q, for t the
        largest member <= n//2, and u//q .. (n-1)//q, for u the least member
        above it; every row where the two spans meet.  The spans come from
        the mask itself, so the read is exact on any mask, closed or not."""
        n, q, mask = self.ctx.n, self.ctx.q, self.mask
        split, top = n // 2 + 1, (n - 1) // q  # members below split are low, the rest high
        high = mask >> split
        low_end = ((mask & ((1 << split) - 1)).bit_length() - 1) // q  # -1: no low member
        high_start = ((high & -high).bit_length() - 1 + split) // q if high else top + 1
        spans = [(0, top)] if high_start <= low_end + 1 else [(0, low_end), (high_start, top)]
        return DefiningSet._closed(self.ctx, mask & self._neg_q_rows(spans))


# ---------------------------------------------------------------------------
# the coset reflection identity -q*C_{s*q+i} == C_{i*q-s} and its windows
# ---------------------------------------------------------------------------


def neg_q_misses(ctx: CycContext, src: Iterable[int], dst: Iterable[int]) -> list[int]:
    """The positions k, ascending, where -q * C_src[k] != C_dst[k], for two
    iterables of residues read in step, on a modulus with q^2 = -1 (mod n):
    as -q commutes with *q^2, where -q*src[k] is not in C_dst[k] = {+-dst[k]},
    that is, where n divides neither dst[k] - q*src[k] nor dst[k] + q*src[k].

    Each branch is one C-level map chain over the window (q*src a range when
    src is one); where either is 0 mod n throughout, nothing misses, and
    only otherwise are the positions listed.  ValueError where src and dst
    differ in length, as a residue without a partner would go unchecked."""
    n, q = ctx.n, ctx.q
    if isinstance(src, range):
        qsrc = range(q * src.start, q * src.stop, q * src.step)
    else:
        qsrc = list(map(mul, src, repeat(q)))
    dst = dst if isinstance(dst, range) else list(dst)
    if len(qsrc) != len(dst):
        raise ValueError(f"src and dst differ in length: {len(qsrc)} != {len(dst)}")
    for branch in (add, sub):  # 0 mod n throughout: no miss, every residue read
        if not any(map(mod, map(branch, dst, qsrc), repeat(n))):
            return []
    return [k for k, qa, b in zip(count(), qsrc, dst) if (b - qa) % n and (b + qa) % n]


def identity_windows(q: int) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
    """The stated windows of the reflection identity for a family q, one
    row per s: (s, ((lo, hi), ...)), where i runs over lo..hi of each
    window in turn.

    Odd q uses the windows exactly as stated for q = 3 and 7 (mod 10); for
    the even field sizes (q = 2 or 8 mod 10) the same expressions are used
    with integer floors, which is the natural reading since no separate
    windows are stated for them.
    """
    r = q % 10
    if r in (3, 8):
        first = (1, (3 * q - 9) // 10)
        middle = ((2 * q + 4) // 5, (3 * q - 4) // 5)
        smax = (q - 3) // 10
        for s in range(smax):
            yield s, (first, middle)
        yield smax, (first,)
    elif r in (7, 2):
        windows = ((1, (q - 2) // 5), ((3 * q + 9) // 10, (2 * q - 4) // 5),
                   ((q + 1) // 2, (7 * q - 9) // 10))
        for s in range((q - 7) // 10 + 1):
            yield s, windows
    else:
        raise ValueError(f"q={q} is not congruent to 2, 3, 7 or 8 mod 10")
