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

    Works on any residue set (no closure needed).  Rotated so that its
    lowest zero is bit 0, no run wraps; the full circle's lowest zero is
    bit n, so it stays whole, one run of n.  A single run, as every family
    block is, is its own popcount: adding its lowest bit carries it clear.
    Any other set is read off the rotated mask's binary string, as its
    longest piece between zeros.
    """
    full = (1 << n) - 1
    zero = (~mask & (mask + 1)).bit_length() - 1  # the lowest zero
    run = mask >> zero | (mask << (n - zero) & full)
    if not run & (run + (run & -run)):  # one run, or none
        return run.bit_count()
    return max(map(len, bin(run)[2:].split("0")))


def bch_bound(z: DefiningSet) -> int:
    """Designed distance: one more than the longest consecutive run in Z.

    A defining set with d-1 consecutive elements forces minimum distance
    at least d.  Empty Z gives 1 (the whole space); full Z gives n+1 (the
    zero code) by convention.
    """
    return longest_circular_run(z.mask, z.ctx.n) + 1
