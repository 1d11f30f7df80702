"""String and two-image references for the checks the set route makes on a
defining set: the longest circular run read off its binary string, and the
split check that maps each part by -q on its own, its partition read on
the masks.  The package rotates the int at its lowest zero, takes a single
run's popcount, and checks a split against one image of the whole set;
these are what it is compared with."""

from eaqmds.exceptions import VerificationError


def longest_circular_run(mask, n):
    """Read from one of its zeros, the n-digit binary string has no run
    that wraps around, and its runs of ones are the words left once each
    zero is a space; a full circle counts as n."""
    bits = format(mask, f"0{n}b")
    zero = bits.find("0")
    if zero < 0:
        return n
    return max(map(len, (bits[zero:] + bits[:zero]).replace("0", " ").split()), default=0)


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
