"""Classical cyclic-code semantics of a defining set, read from the set
alone: the dimension and the designed (BCH) distance, the longest
circular run of consecutive residues plus one.  The polynomials and
matrices of the code belong to oracle, the independent matrix route."""

from __future__ import annotations

from .cosets import DefiningSet


def dimension(z: DefiningSet) -> int:
    """Dimension n - |Z| of the cyclic code with defining set Z."""
    return z.ctx.n - len(z)


def longest_circular_run(members, n: int) -> int:
    """Length of the longest run of consecutive residues mod n in a set.

    Works on any residue collection (no closure needed); a full circle
    counts as n.  The members mark a bytearray indicator; its runs of
    ones are the pieces between zero bytes, and a run that wraps around
    is the first piece plus the last.
    """
    marks = bytearray(n)
    for x in members:
        marks[x % n] = 1
    runs = marks.split(b"\0")
    if len(runs) == 1:
        return n
    return max(max(map(len, runs)), len(runs[0]) + len(runs[-1]))


def bch_bound(z: DefiningSet) -> int:
    """Designed distance: one more than the longest consecutive run in Z.

    A defining set with d-1 consecutive elements forces minimum distance
    at least d.  Empty Z gives 1 (the whole space); full Z gives n+1 (the
    zero code) by convention.
    """
    return longest_circular_run(z.residues, z.ctx.n) + 1
