"""The split of a defining set by its -q image, the ebit count, and
entanglement-assisted code parameters with Singleton certification.

A defining set Z splits as Z minus -qZ, which is disjoint from its own -q
image, and the overlap Z & -qZ, each element of which costs one
pre-shared entangled pair.  A split is checked on the masks, its
partition by one OR and one AND, and the overlap built from the -q image
read only on Z (DefiningSet.overlap).  The derived
quantum parameters are [[n, 2k - n + c, d; c]] for the classical [n, k]
cyclic code, where c is the size of the overlap.
"""

from __future__ import annotations

from typing import NamedTuple

from .codes import bch_bound, dimension
from .cosets import DefiningSet
from .exceptions import VerificationError

EAQMDS = "eaqmds"
EQUALITY_WITHOUT_PRECONDITION = "equality-without-precondition"
NOT_EAQMDS = "not-eaqmds"


def check_split(whole: DefiningSet, free: DefiningSet, entangled: DefiningSet, stage: str) -> None:
    """The checks on a split of a closed set Z into a free part F and an
    entangled part E: they partition Z, E lies in I = -qZ and F avoids it.
    Any failure raises VerificationError, its message led by stage.

    This is E = -qE with F & -qF empty: those give I = E | -qF, and
    conversely E = Z & I, whose image is I & q^2 Z = E.  So a split that
    passes is Z minus -qZ and Z & -qZ.  E outside I is not -q-invariant;
    otherwise one more image, of E, tells which of the two failed.

    The partition is read on the masks, after one ValueError where the three
    sets live in different contexts.  I is read only on Z, as
    whole.overlap(): once the partition holds, E and F lie in Z, so for any
    map E & ~I = E & ~(I & Z) and F & I = F & (I & Z)."""
    if not whole.ctx == free.ctx == entangled.ctx:
        raise ValueError("defining sets live in different contexts")
    f, e = free.mask, entangled.mask
    if f | e != whole.mask or f & e:
        raise VerificationError(
            f"{stage}: free part ({len(free)}) and entangled part ({len(entangled)}) do not "
            f"partition the {len(whole)}-element set"
        )
    image = whole.overlap().mask
    if e & ~image or (f & image and entangled.neg_q() != entangled):
        raise VerificationError(f"{stage}: entangled part is not -q-invariant")
    if f & image:
        raise VerificationError(f"{stage}: free part meets its own -q image")


def decompose(z: DefiningSet) -> DefiningSet:
    """The overlap Z & -qZ, whose size is the ebit count; Z minus it is the
    free part.  The sets trust closure, so the one check that can
    fail, that the overlap is -q-invariant (as -q twice is *q^2), is what
    catches a wrong -q map or a set that is not what it claims to be.  It
    takes the whole image of the overlap: O & -qO = O would say the same
    only of a map that is a bijection."""
    overlap = z.overlap()
    if overlap.neg_q() != overlap:
        raise VerificationError(f"overlap Z & -qZ of {z!r}: entangled part is not -q-invariant")
    return overlap


class EaqeccParams(NamedTuple("EaqeccParams", [("n", int), ("k", int), ("d", int), ("c", int)])):
    """[[n, k, d; c]] plus the certification flags derived from them.

    d is the designed distance of the underlying cyclic code (exact
    whenever that code is MDS).  singleton_equality records whether
    n + c - k == 2(d - 1); distance_precondition_ok records d <= (n+2)/2,
    the regime in which that equality certifies an MDS-optimal code.
    """

    __slots__ = ()

    @property
    def singleton_equality(self) -> bool:
        return self.n + self.c - self.k == 2 * (self.d - 1)

    @property
    def distance_precondition_ok(self) -> bool:
        return 2 * self.d <= self.n + 2

    def as_bracket(self) -> str:
        return f"[[{self.n},{self.k},{self.d};{self.c}]]"


def eaqecc_params(z: DefiningSet, c: int) -> EaqeccParams:
    """Entanglement-assisted parameters of the code with defining set z
    and ebit count c."""
    n = z.ctx.n
    k_classical = dimension(z)
    d = bch_bound(z)
    k = 2 * k_classical - n + c
    if k < 0:
        raise ValueError(
            f"defining set too large: logical dimension 2*{k_classical}-{n}+{c} < 0"
        )
    return EaqeccParams(n=n, k=k, d=d, c=c)


def eaqmds_status(params: EaqeccParams) -> str:
    """One of "eaqmds", "equality-without-precondition", "not-eaqmds".

    The middle status exists because the equality n + c - k == 2(d-1) can
    hold with d beyond (n+2)/2, where it no longer certifies optimality;
    such codes are reported rather than adjudicated.
    """
    if params.singleton_equality and params.distance_precondition_ok:
        return EAQMDS
    if params.singleton_equality:
        return EQUALITY_WITHOUT_PRECONDITION
    return NOT_EAQMDS
