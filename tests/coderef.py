"""String and two-image references for the checks the set route makes on a
defining set: the longest circular run read off its binary string, and the
split check that maps each part by -q on its own.  The package finds the
run by shifts of the int and checks a split against one image of the
whole set; these are what it is compared with."""

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
    if free.union(entangled) != whole or not free.isdisjoint(entangled):
        raise VerificationError(
            f"{stage}: free part ({len(free)}) and entangled part ({len(entangled)}) do not "
            f"partition the {len(whole)}-element set"
        )
    if entangled.neg_q() != entangled:
        raise VerificationError(f"{stage}: entangled part is not -q-invariant")
    if not free.isdisjoint(free.neg_q()):
        raise VerificationError(f"{stage}: free part meets its own -q image")
