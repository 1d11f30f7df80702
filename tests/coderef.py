"""String and two-image references for the checks the set route makes on a
defining set: the longest circular run read off its bit string written
twice, and the split check that maps each part by -q on its own, its
partition read on the masks.  The package rotates the int at its lowest
zero, takes a single run's popcount, and checks a split against one image
of the whole set; these are what it is compared with."""

from itertools import groupby

from eaqmds.exceptions import VerificationError


def longest_circular_run(mask, n):
    """The longest run of '1's in the LSB-first n-digit string written
    twice, where a run through the wrap is whole, capped at n for the full
    circle."""
    bits = format(mask, f"0{n}b")[::-1]
    runs = (sum(1 for _ in run) for digit, run in groupby(bits + bits) if digit == "1")
    return min(n, max(runs, default=0))


def check_split(whole, free, entangled, stage):
    """The parts partition the whole disjointly, the entangled part is its
    own -q image and the free part avoids its own -q image, in that order."""
    if free.mask | entangled.mask != whole.mask or free.mask & entangled.mask:
        raise VerificationError(
            f"{stage}: free part ({len(free)}) and entangled part ({len(entangled)}) do not "
            f"partition the {len(whole)}-element set"
        )
    if entangled.neg_q() != entangled:
        raise VerificationError(f"{stage}: entangled part is not -q-invariant")
    if free.mask & free.neg_q().mask:
        raise VerificationError(f"{stage}: free part meets its own -q image")
