"""Scalar reference for cyclotomic cosets and the reflection identity: one
orbit walked by arithmetic, one (s, i) window pair at a time, each check
made on whole orbits, and the window sets as unions of one range of
representatives per window and s or t.  The package computes all cosets
of a modulus at once, checks the identity on whole windows and builds
each window family by one multiply; these are what it is compared with.
Sets of arbitrary residues are made here too: the package builds every
set from runs, closed by construction, and these two constructors, one
that checks closure and one that closes by reflection, are its reference."""

from itertools import chain

from eaqmds.cosets import DefiningSet, _check_modulus


def defining_set(ctx, members):
    """The set of the residues members mod n; ValueError unless it is closed
    under multiplication by q^2, checked as mark x against mark n-x."""
    n = ctx.n
    _check_modulus(n, ctx.q)
    marks = bytearray(b"0" * n)
    for m in members:
        marks[int(m) % n] = 49  # ord("1")
    if marks[1:] != marks[:0:-1]:  # mark x against mark n-x, for x = 1..n-1
        m = next(x for x in range(1, n) if marks[x] > marks[n - x])
        raise ValueError(f"set is not closed under multiplication by q^2: {m} in, {n - m} out")
    return DefiningSet._closed(ctx, int(marks[::-1], 2))


def from_cosets(ctx, *reps):
    """The union of the cosets of the integers in one or more iterables
    reps, marked one by one and closed by one reflection x -> n-x."""
    n = ctx.n
    _check_modulus(n, ctx.q)
    marks = bytearray(b"0" * n)
    for r in chain.from_iterable(reps):
        marks[r % n] = 49  # ord("1")
    # bit x of the first mask is mark x, of the second mark n-x (mark 0 for x = 0)
    return DefiningSet._closed(ctx, int(marks[::-1], 2) | int(marks[1:] + marks[:1], 2))


def coset(ctx, i):
    """The coset containing i: the orbit {i, i*q^2, i*q^4, ...} mod n, as
    an ascending tuple, whose first member is the coset's representative."""
    i %= ctx.n
    mult = ctx.q * ctx.q % ctx.n
    orbit = [i]
    cur = i * mult % ctx.n
    while cur != i:
        orbit.append(cur)
        cur = cur * mult % ctx.n
    return tuple(sorted(orbit))


def cosets_one_by_one(ctx):
    """All cosets by ascending representative, one coset() call per residue."""
    return [c for i in range(ctx.n) if (c := coset(ctx, i))[0] == i]


def neg_q_maps(ctx, src, dst):
    """Whether -q * C_src == C_dst, with both orbits in full."""
    return {-ctx.q * x % ctx.n for x in coset(ctx, src)} == set(coset(ctx, dst))


def coset_product_identity(ctx, s, i):
    """-q * C_{s*q+i} == C_{i*q-s}, on whole orbits."""
    return neg_q_maps(ctx, s * ctx.q + i, i * ctx.q - s)


def _ranges(*bounds):
    for lo, hi in bounds:
        yield from range(lo, hi + 1)


def identity_pairs(q):
    """The stated (s, i) windows of the reflection identity, one pair at a
    time, in the package's order."""
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


def inverse_identity_pairs(q, with_offset):
    """The (t, j) pairs of the inverse identity: the forward pairs swapped,
    in the same order, the offset reading without i = lo2 and lo2 + 1."""
    lo2 = (2 * q + 4) // 5
    skip = range(lo2, lo2 + 2) if with_offset and q % 10 in (3, 8) else range(0)
    for s, i in identity_pairs(q):
        if i not in skip:
            yield i, s


def expand(rows):
    """The (row, x) pairs of rows (row, ((lo, hi), ...)), x running over
    lo..hi of each window in turn."""
    return [(r, x) for r, windows in rows for lo, hi in windows for x in range(lo, hi + 1)]


def block_by_runs(spec, m):
    """The block C_0 .. C_{(m-1)q}, united from one range of representatives."""
    return from_cosets(spec.context(), range((m - 1) * spec.q.q + 1))


def window_union_by_runs(spec, m, forward, backward):
    """The cosets C_{s*q+i} for i in a forward window [lo, hi], s < m-1, and
    C_{t*q-j} for j in a backward window [lo, hi], 1 <= t < m, united from
    one range of representatives per window and s or t."""
    q = spec.q.q
    runs = [range(s * q + lo, s * q + hi + 1) for s in range(m - 1) for lo, hi in forward]
    runs += [range(t * q - hi, t * q - lo + 1) for t in range(1, m) for lo, hi in backward]
    return from_cosets(spec.context(), *runs)
