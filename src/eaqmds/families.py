"""The four parameter families of entanglement-assisted MDS codes at
length n = (q^2+1)/5, with their window sets and full verification.

Family selection (all require 5 | q^2+1, i.e. q = ±2 mod 5):

    q10k3   odd prime powers q = 3 (mod 10), q >= 23,  2 <= m <= (q-3)/10
    q10k7   odd prime powers q = 7 (mod 10), q >= 27,  2 <= m <= (q-7)/10
    e1mod4  q = 2^e, e = 1 (mod 4), e > 1,             2 <= m <= (q-2)/10
    e3mod4  q = 2^e, e = 3 (mod 4),                    2 <= m <= (q-8)/10

For each m the defining set is the union of the cosets C_0 .. C_{(m-1)q},
one contiguous circular block of 2(m-1)q+1 residues, so the classical
code is MDS with designed distance 2(m-1)q+2.  The block splits into a
"free" union of windows (disjoint from its own -q image) and an
"entangled" union of windows (equal to its own -q image); the entangled
part has exactly 20(m-1)^2+1 elements, which is the ebit cost.

The window geometry is governed by five anchor points that cut each
length-q block of subscripts at roughly q/5 steps; the two congruence
shapes (q = 3, 8 mod 10 versus q = 7, 2 mod 10) round those cut points
differently so that all anchors are integers.

verify_family_code() never trusts the closed forms: it rebuilds every
quantity from first principles and raises on any mismatch; for m >= 2 it
takes the entangled windows that check_window_lemmas checked as the
overlap Z & -qZ, whose size is the ebit count.  The suites
verify_cosets, verify_lemmas and verify_theorem sweep the set route over
q <= q_max; the first two check lists built per modulus and per window,
verify_lemmas over three readings of the stated identity windows.
No field code is loaded: q is parsed by primes, not gf.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice, repeat
from typing import NamedTuple

from .cosets import (
    CycContext,
    DefiningSet,
    all_cosets,
    identity_windows,
    neg_q_map,
    neg_q_misses,
)
from .eaqecc import EaqeccParams, check_split, decompose, eaqecc_params
from .exceptions import UsageError, VerificationError
from .primes import PrimePower

FAMILY_IDS = ("q10k3", "q10k7", "e1mod4", "e3mod4")

# Published example tables print these logical dimensions; first-principles
# recomputation disagrees (see the errata module).  Keyed by (q, m).
PRINTED_EXAMPLE_DIMENSIONS: dict[tuple[int, int], int] = {
    (37, 2): 401,
    (37, 3): 489,
    (47, 2): 609,
    (47, 3): 737,
    (47, 4): 825,
    (32, 2): 312,
    (32, 3): 380,
    (128, 2): 3768,
    (128, 3): 4220,
    (128, 4): 4632,
    (128, 5): 5004,
    (128, 6): 5336,
    (128, 7): 5628,
    (128, 8): 5880,
    (128, 9): 6092,
    (128, 10): 6264,
    (128, 11): 6396,
    (128, 12): 6488,
}


class FamilySpec(
    NamedTuple("FamilySpec", [("family_id", str), ("q", PrimePower), ("n", int), ("m_max", int)])
):
    """One admissible field size with its family tag and m range."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls it: both check

    def __new__(cls, family_id: str, q: PrimePower, n: int, m_max: int) -> FamilySpec:
        if family_id not in FAMILY_IDS:
            raise ValueError(f"unknown family {family_id!r}; expected one of {FAMILY_IDS}")
        qq = q.q
        if (qq * qq + 1) % 5 != 0 or n != (qq * qq + 1) // 5:
            raise ValueError(f"n={n} is not (q^2+1)/5 for q={qq}")
        return super().__new__(cls, family_id, q, n, m_max)

    def context(self) -> CycContext:
        return CycContext.for_family(self.q.q)


def classify(q: int) -> FamilySpec:
    """The unique family containing q; UsageError naming why there is none."""
    try:
        pp = PrimePower.from_int(q)
    except ValueError:
        raise UsageError(f"q={q} is not a prime power") from None
    n5 = q * q + 1
    if n5 % 5 != 0:
        raise UsageError(f"(q^2+1) not divisible by 5 for q={q} (need q = +-2 mod 5)")
    n = n5 // 5
    if pp.p == 2:
        if pp.e > 1 and pp.e % 4 == 1:
            return FamilySpec("e1mod4", pp, n, (q - 2) // 10)
        if pp.e % 4 == 3:
            return FamilySpec("e3mod4", pp, n, (q - 8) // 10)
        raise UsageError(f"q={q} = 2^e needs an odd exponent e (e=1 mod 4 requires e>1)")
    if q % 10 == 3 and q >= 23:
        return FamilySpec("q10k3", pp, n, (q - 3) // 10)
    if q % 10 == 7 and q >= 27:
        return FamilySpec("q10k7", pp, n, (q - 7) // 10)
    raise UsageError(f"q={q} is below the family minimum (23 for q=3 mod 10, 27 for q=7 mod 10)")


@lru_cache(maxsize=4)  # both window sets of every m of one q take the same anchors
def _anchors(spec: FamilySpec) -> tuple[int, int, int, int, int]:
    """The five window anchor points; all divisions are exact."""
    q = spec.q.q
    if spec.family_id in ("q10k3", "e3mod4"):
        nums = (q + 2, q - 3, 2 * q + 4, 2 * q - 1, 3 * q + 1)
    else:
        nums = (q + 3, q - 2, 2 * q + 1, 2 * q - 4, 3 * q + 4)
    if any(v % 5 for v in nums):
        raise VerificationError(f"window anchors {nums} at q={q} are not all divisible by 5")
    return tuple(v // 5 for v in nums)  # type: ignore[return-value]


def _check_m(spec: FamilySpec, m: int, allow_degenerate: bool = False) -> None:
    lo = 1 if allow_degenerate else 2
    if not lo <= m <= spec.m_max:
        q = spec.q.q
        valid = f"valid m: 2..{spec.m_max}" if spec.m_max >= 2 else f"q={q} has no valid m"
        raise UsageError(f"m={m} out of range for q={q}; {valid}")


def family_defining_set(spec: FamilySpec, m: int) -> DefiningSet:
    """The block C_0 .. C_{(m-1)q}: 2(m-1)q+1 residues in one circular run."""
    _check_m(spec, m, allow_degenerate=True)
    z = DefiningSet.from_runs(spec.context(), [(0, (m - 1) * spec.q.q + 1, 1, 1)])
    if len(z) != 2 * (m - 1) * spec.q.q + 1:
        raise VerificationError(
            f"C_0..C_{(m - 1) * spec.q.q} has {len(z)} elements, "
            f"not 2(m-1)q+1 = {2 * (m - 1) * spec.q.q + 1}, at q={spec.q.q}, m={m}"
        )
    return z


def _window_union(
    spec: FamilySpec,
    m: int,
    forward: tuple[tuple[int, int], ...],
    backward: tuple[tuple[int, int], ...],
) -> DefiningSet:
    """The cosets C_{s*q+i} for i in a forward window [lo, hi], s < m-1,
    and C_{t*q-j} for j in a backward window, 1 <= t < m: m-1 runs each."""
    q = spec.q.q
    runs = [(lo, hi - lo + 1, q, m - 1) for lo, hi in forward]
    runs += [(q - hi, hi - lo + 1, q, m - 1) for lo, hi in backward]
    return DefiningSet.from_runs(spec.context(), runs)


def free_window_set(spec: FamilySpec, m: int) -> DefiningSet:
    """The five-window union disjoint from its own -q image."""
    _check_m(spec, m)
    a, b, c, d, e = _anchors(spec)
    return _window_union(
        spec,
        m,
        ((m, a - m), (b + m, c - m), (d + m, e - m)),
        ((b + m, c - m), (m - 1, a - m)),
    )


def entangled_window_set(spec: FamilySpec, m: int) -> DefiningSet:
    """The complementary six-window union, invariant under the -q map."""
    _check_m(spec, m)
    a, b, c, d, e = _anchors(spec)
    gap2 = (a - m + 1, b + m - 1)
    gap3 = (c - m + 1, d + m - 1)
    return _window_union(spec, m, ((0, m - 1), gap2, gap3), ((0, m - 2), gap2, gap3))


def check_window_lemmas(spec: FamilySpec, m: int, z: DefiningSet) -> DefiningSet:
    """Check the window lemmas at one (q, m): the free windows avoid their
    own -q image, the entangled windows are -q-invariant, and the two
    partition the block z = C_0 .. C_{(m-1)q} disjointly.  Any failure
    raises VerificationError.  Returns the checked entangled windows.
    """
    free, ent = free_window_set(spec, m), entangled_window_set(spec, m)
    # passing check_split makes ent = Z & -qZ, the overlap decompose(z) returns
    check_split(z, free, ent, f"windows at q={spec.q.q}, m={m}")
    return ent


def predicted_code(spec: FamilySpec, m: int) -> EaqeccParams:
    """Closed-form [[n, n-4(m-1)(q-5(m-1))-1, 2(m-1)q+2; 20(m-1)^2+1]]."""
    _check_m(spec, m, allow_degenerate=True)
    q, n = spec.q.q, spec.n
    k = n - 4 * (m - 1) * (q - 5 * (m - 1)) - 1
    d = 2 * (m - 1) * q + 2
    c = 20 * (m - 1) ** 2 + 1
    return EaqeccParams(n=n, k=k, d=d, c=c)


class FamilyCode(
    NamedTuple(
        "FamilyCode",
        [("spec", FamilySpec), ("m", int), ("defining_set", DefiningSet),
         ("verified", EaqeccParams), ("errata_flags", tuple[str, ...])],
    )
):
    """One fully verified (q, m) grid point."""

    __slots__ = ()


def verify_family_code(spec: FamilySpec, m: int, allow_degenerate: bool = False) -> FamilyCode:
    """Build the defining set and re-derive every claimed quantity from
    first principles, comparing against the closed forms.

    For m >= 2 the overlap Z & -qZ is the entangled windows that
    check_window_lemmas checked; m = 1 has no windows and takes decompose(Z).
    This checks that Z is one circular run (hence classical MDS and, as
    n + c - k = 2|Z|, the Singleton equality) and that the closed form
    equals the verified parameters, the ebit count included.  Any mismatch
    raises VerificationError.
    """
    _check_m(spec, m, allow_degenerate=allow_degenerate)
    q = spec.q.q
    z = family_defining_set(spec, m)
    flags: list[str] = []
    if m >= 2:
        overlap = check_window_lemmas(spec, m, z)
    else:
        overlap = decompose(z)
        flags.append("degenerate-m1")
    verified = eaqecc_params(z, len(overlap))

    # n + c - k = 2|Z| always holds, so run = |Z| implies that the errata's
    # two routes to k agree (they differ by 2(run - |Z|)) and, by its weaker
    # half run <= |Z|, the Singleton bound n + c - k >= 2(d - 1)
    run = verified.d - 1  # the designed distance is one more than the longest run
    if run != len(z):
        raise VerificationError(
            f"defining set for q={q}, m={m} must be one circular run (hence MDS): "
            f"longest run {run}, |Z| = {len(z)}"
        )

    predicted = predicted_code(spec, m)
    if predicted != verified:
        raise VerificationError(
            f"closed form {predicted.as_bracket()} disagrees with first-principles "
            f"{verified.as_bracket()} at q={q}, m={m}"
        )

    if not verified.distance_precondition_ok:
        flags.append("distance-precondition-violated")
    printed = PRINTED_EXAMPLE_DIMENSIONS.get((q, m))
    if printed is not None and printed != verified.k:
        flags.append(f"printed-dimension-mismatch({printed})")

    return FamilyCode(
        spec=spec,
        m=m,
        defining_set=z,
        verified=verified,
        errata_flags=tuple(flags),
    )


def iter_family_sizes(q_max: int) -> list[FamilySpec]:
    """All specs of the four families with q <= q_max, ascending, in one
    pass over q."""
    specs = []
    for q in range(2, q_max + 1):
        if (q * q + 1) % 5:  # in no family: spare classify its trial division
            continue
        try:
            specs.append(classify(q))
        except UsageError:
            continue
    return specs


def family_grid(q_max: int) -> list[tuple[FamilySpec, int]]:
    """All (spec, m) points across the four families with q <= q_max,
    ordered by q ascending then m ascending."""
    return [(spec, m) for spec in iter_family_sizes(q_max) for m in range(2, spec.m_max + 1)]


def enumerate_family(family_id: str, q_max: int) -> list[FamilyCode]:
    """Every verified (q, m) grid point of one family with q <= q_max,
    ordered by q ascending then m ascending."""
    if family_id not in FAMILY_IDS:
        raise ValueError(f"unknown family {family_id!r}; expected one of {FAMILY_IDS}")
    grid = family_grid(q_max)
    return [verify_family_code(spec, m) for spec, m in grid if spec.family_id == family_id]


# -- verification suites: each returns its named counts, in print order -----


def verify_cosets(q_max: int) -> dict[str, int]:
    """Every family modulus with q <= q_max: the cosets are the pairs
    {i, n-i}, which partition Z_n, and -q is an involution on them.

    all_cosets must be exactly (i, n-i) for i <= n/2, or (i,) where i = 0 or
    2i = n: shape and partition at once.  A list of tuples is fixed by its
    concatenation and its tuple lengths, so those two flat lists are
    compared; the pairs are built only to name the first coset that
    differs.  Then the table t of -q*x mod n must square to negation,
    t(t(x)) = -x for every residue x.  That makes t a bijection that
    commutes with negation, t(-x) = t^3(x) = -t(x), so t maps each coset
    {x, -x} onto the coset {t(x), -t(x)} of the same size, and that coset
    back onto {-x, x}.  A failure names the first coset {i, -i} with a
    residue x where t(t(x)) != -x.
    """
    sizes = iter_family_sizes(q_max)
    for spec in sizes:
        ctx, q, n = spec.context(), spec.q.q, spec.n
        flat = [0] * n  # 0, 1, n-1, 2, n-2, ..., and n/2 last when n is even
        flat[1::2] = range(1, n // 2 + 1)
        flat[2::2] = range(n - 1, n // 2, -1)
        cs = all_cosets(ctx)
        lengths = [1, *repeat(2, (n - 1) // 2), *repeat(1, 1 - n % 2)]
        if list(map(len, cs)) != lengths or list(chain.from_iterable(cs)) != flat:
            parts = iter(flat)
            pairs = [tuple(islice(parts, size)) for size in lengths]
            k = next((k for k, pair in enumerate(pairs) if cs[k : k + 1] != [pair]), len(pairs))
            got, want = cs[k : k + 1] or "missing", pairs[k : k + 1] or "none"
            raise VerificationError(f"coset {k} at q={q} is {got}, not {want}")
        del cs, flat  # freed before the tables of n residues are built
        t = neg_q_map(ctx)
        if list(map(t.__getitem__, t)) != [0, *range(n - 1, 0, -1)]:
            i = min(min(x, n - x) for x in range(n) if t[t[x]] != -x % n)
            image = tuple(sorted({t[x] for x in {i, -i % n}}))
            back = tuple(sorted({t[y] for y in image}))
            raise VerificationError(f"-q maps coset {i} at q={q} to {image}, then to {back}")
    return {"field sizes": len(sizes), "cosets": sum(spec.n // 2 + 1 for spec in sizes)}


def verify_lemmas(q_max: int) -> dict[str, int]:
    """The reflection identities over their windows, and the window lemmas
    at every (q, m) with q <= q_max.  Each row of identity_windows is read
    three times: forward, -q*C_{s*q+i} = C_{i*q-s}, then backward, the
    inverse identity -q*C_{t*q-j} = C_{j*q+t} with (j, t) for (s, i), as
    stated and with the q = 3, 8 (mod 10) middle window from (2q+4)/5 + 2.
    One neg_q_misses call checks each window; a failure names its first
    failing (s, i) or (t, j)."""
    sizes = iter_family_sizes(q_max)
    identities = windows = 0
    for spec in sizes:
        ctx, q = spec.context(), spec.q.q
        # the identities test -q*src = +-dst (mod n), which needs q^2 = -1 (mod n)
        if (ctx.q * ctx.q + 1) % ctx.n:
            raise VerificationError(f"q^2 != -1 (mod n) at q={ctx.q}, n={ctx.n}")
        # forward, then inverse as stated and from the shifted middle window
        lo2 = (2 * q + 4) // 5 if q % 10 in (3, 8) else None
        for inverse, shift in ((False, 0), (True, 0), (True, 2)):
            for s, row in identity_windows(q):
                for lo, hi in row:
                    lo += shift if lo == lo2 else 0
                    a, b = range(s * q + lo, s * q + hi + 1), range(lo * q - s, hi * q - s + 1, q)
                    if miss := neg_q_misses(ctx, *((b, a) if inverse else (a, b))):
                        i = lo + miss[0]
                        raise VerificationError(
                            f"inverse identity fails at q={q}, t={i}, j={s} (offset={shift > 0})"
                            if inverse
                            else f"reflection identity fails at q={q}, s={s}, i={i}"
                        )
                    identities += len(a)
        for m in range(2, spec.m_max + 1):
            check_window_lemmas(spec, m, family_defining_set(spec, m))
            windows += 1
    return {"field sizes": len(sizes), "identity checks": identities, "window sets": windows}


def verify_theorem(q_max: int) -> dict[str, int]:
    """verify_family_code at every (q, m) with q <= q_max.  The ebit count
    20(m-1)^2+1 is checked there, as part of the closed form."""
    grid = family_grid(q_max)
    for spec, m in grid:
        verify_family_code(spec, m)
    return {"(q, m) points": len(grid)}
