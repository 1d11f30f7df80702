"""Classical cyclic-code semantics of a defining set, read from the set
alone: the dimension and the designed (BCH) distance, the longest
circular run of consecutive residues plus one.  The polynomials and
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
    as n.  Read from one of its zeros, the n-digit binary string has no
    run that wraps around, and its runs of ones are the words left once
    each zero is a space.
    """
    bits = format(mask, f"0{n}b")
    zero = bits.find("0")
    if zero < 0:
        return n
    return max(map(len, (bits[zero:] + bits[:zero]).replace("0", " ").split()), default=0)


def bch_bound(z: DefiningSet) -> int:
    """Designed distance: one more than the longest consecutive run in Z.

    A defining set with d-1 consecutive elements forces minimum distance
    at least d.  Empty Z gives 1 (the whole space); full Z gives n+1 (the
    zero code) by convention.
    """
    return longest_circular_run(z.mask, z.ctx.n) + 1
