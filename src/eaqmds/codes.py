"""Classical cyclic-code semantics of a defining set: dimension, designed
distance, and the generator polynomial over F_{q^2}."""

from __future__ import annotations

from .cosets import DefiningSet
from .exceptions import VerificationError
from .gf import FieldTower, Poly


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


def generator_polynomial(z: DefiningSet, tower: FieldTower) -> Poly:
    """The monic generator: product of (x - root^j) over all j in Z, taken
    coset by coset so every factor's coefficients land in F_{q^2}.

    The result has degree |Z| (checked); check_polynomial divides it out
    of x^n - 1, which checks that it is a divisor.
    """
    ctx = z.ctx
    if tower.n != ctx.n or tower.q != ctx.q:
        raise ValueError("tower does not match the defining set's context")
    g = Poly.one(tower.fq2)
    for rep in z.coset_reps():
        g = g * tower.minimal_polynomial(rep)
    if g.degree != len(z) or not g.is_monic():
        raise VerificationError(
            f"generator polynomial has degree {g.degree} and leading coefficient "
            f"{g.coeffs[-1] if g.coeffs else 0}: expected monic of degree |Z| = {len(z)}"
        )
    return g


def check_polynomial(z: DefiningSet, tower: FieldTower, g: Poly) -> Poly:
    """(x^n - 1) / g, the generator of the complementary-coset code, for
    the generator polynomial g of Z.  The division must be exact
    (checked)."""
    return Poly.x_pow_n_minus_1(tower.fq2, z.ctx.n).exact_div(g)
