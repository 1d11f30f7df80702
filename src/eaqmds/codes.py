"""Classical cyclic-code semantics of a defining set, read from the set
alone: the dimension and the designed (BCH) distance, the longest
circular run of consecutive residues plus one, which for a set of one run,
as every family block is, is its popcount.  The polynomials and
matrices of the code belong to oracle, the independent matrix route."""

from __future__ import annotations

from .cosets import DefiningSet


def dimension(z: DefiningSet) -> int:
    """Dimension n - |Z| of the cyclic code with defining set Z."""
    return z.ctx.n - len(z)


def longest_circular_run(mask: int, n: int) -> int:
    """Length of the longest run of consecutive residues mod n in a set,
    given as a bitmask (bit x set when x is in the set).

    Works on any residue set (no closure needed); a full circle counts
    as n.  Rotated so that its lowest zero is bit 0, no run wraps.  A
    single run is its own popcount: adding its lowest bit carries it clear.
    Otherwise level j marks the starts of runs of 2^j ones, the one before
    and its shift ANDed, and binary steps down the levels lengthen the
    longest run.
    """
    full = (1 << n) - 1
    if mask == full:
        return n
    zero = (~mask & (mask + 1)).bit_length() - 1  # the lowest zero
    run, levels = mask >> zero | (mask << (n - zero) & full), []
    if not run & (run + (run & -run)):  # one run, or none
        return run.bit_count()
    while run:
        levels.append(run)
        run &= run >> (1 << len(levels) - 1)
    starts, length = -1, 0  # -1 has every bit set
    for j in range(len(levels) - 1, -1, -1):
        longer = starts & levels[j] >> length
        if longer:
            starts, length = longer, length + (1 << j)
    return length


def bch_bound(z: DefiningSet) -> int:
    """Designed distance: one more than the longest consecutive run in Z.

    A defining set with d-1 consecutive elements forces minimum distance
    at least d.  Empty Z gives 1 (the whole space); full Z gives n+1 (the
    zero code) by convention.
    """
    return longest_circular_run(z.mask, z.ctx.n) + 1
