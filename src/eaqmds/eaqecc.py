"""Defining-set decomposition, ebit counting, and entanglement-assisted
code parameters with Singleton certification.

The decomposition splits a defining set Z into the part that meets its
own -q image (each element there costs one pre-shared entangled pair)
and the remainder, which is disjoint from its -q image.  The derived
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


class Decomposition(NamedTuple):
    """Z split as free_part (disjoint from its -q image) plus entangled_part
    (Z intersected with -qZ, itself -q-invariant)."""

    whole: DefiningSet
    free_part: DefiningSet
    entangled_part: DefiningSet


def check_split(whole: DefiningSet, free: DefiningSet, entangled: DefiningSet, stage: str) -> None:
    """The checks on a split of a defining set into a free and an entangled
    part: the parts partition it disjointly, the entangled part is
    -q-invariant and the free part avoids its own -q image.  Any failure
    raises VerificationError, its message led by stage.  A split that passes
    is Z minus -qZ and Z & -qZ (proved at families.check_window_lemmas)."""
    if free.union(entangled) != whole or not free.isdisjoint(entangled):
        raise VerificationError(
            f"{stage}: free part ({len(free)}) and entangled part ({len(entangled)}) do not "
            f"partition the {len(whole)}-element set"
        )
    if entangled.neg_q() != entangled:
        raise VerificationError(f"{stage}: entangled part is not -q-invariant")
    if not free.isdisjoint(free.neg_q()):
        raise VerificationError(f"{stage}: free part meets its own -q image")


def decompose(z: DefiningSet) -> Decomposition:
    """Split Z; every structural invariant is checked on every call.

    The set algebra trusts closure, so these checks are what catches a
    wrong -q map or a set that is not what it claims to be.  Applying -q
    twice multiplies by q^2, which fixes coset-closed sets, so the overlap
    is -q-invariant and the free part avoids its image.
    """
    overlap = z.intersect(z.neg_q())
    free = z.difference(overlap)
    check_split(z, free, overlap, f"overlap Z & -qZ of {z!r}")
    return Decomposition(whole=z, free_part=free, entangled_part=overlap)


def ebits(z: DefiningSet) -> int:
    """Number of pre-shared entangled pairs the construction consumes."""
    return len(decompose(z).entangled_part)


class EaqeccParams(NamedTuple):
    """[[n, k, d; c]] plus the certification flags derived from them.

    d is the designed distance of the underlying cyclic code (exact
    whenever that code is MDS).  singleton_equality records whether
    n + c - k == 2(d - 1); distance_precondition_ok records d <= (n+2)/2,
    the regime in which that equality certifies an MDS-optimal code.
    """

    n: int
    k: int
    d: int
    c: int

    @property
    def singleton_equality(self) -> bool:
        return self.n + self.c - self.k == 2 * (self.d - 1)

    @property
    def distance_precondition_ok(self) -> bool:
        return 2 * self.d <= self.n + 2

    def as_bracket(self) -> str:
        return f"[[{self.n},{self.k},{self.d};{self.c}]]"


def eaqecc_params(dec: Decomposition) -> EaqeccParams:
    """Entanglement-assisted parameters derived from the decomposition of
    a defining set."""
    z = dec.whole
    n = z.ctx.n
    k_classical = dimension(z)
    c = len(dec.entangled_part)
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
