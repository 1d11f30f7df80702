"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them).  Every tolerance is exact integer equality; the
stated runtime ceilings are asserted with time.perf_counter.
"""

import random
import time
from contextlib import contextmanager

from eaqmds.cli import main
from eaqmds.codes import bch_bound, dimension, longest_circular_run
from eaqmds.cosets import CycContext, all_cosets, identity_windows
from eaqmds.eaqecc import decompose
from eaqmds.errata import errata_report
from eaqmds.families import (
    classify,
    entangled_window_set,
    family_defining_set,
    family_grid,
    free_window_set,
    iter_family_sizes,
)
from eaqmds.gf import field_tower
from eaqmds.oracle import code_polynomials, hh_dagger, toeplitz_rank
from cosetref import coset_product_identity, expand, from_cosets
from matref import MatrixGF, exhaustive_min_distance
from polyref import shift_rows


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE criterion {num} ({desc}): FAIL")
        raise
    print(f"\nACCEPTANCE criterion {num} ({desc}): PASS")


def _naive_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _naive_prime_power(n):
    for p in range(2, n + 1):
        if _naive_prime(p):
            m = p
            while m < n:
                m *= p
            if m == n:
                return p
    return None


def test_criterion_1_golden_examples(capsys):
    with criterion(1, "golden example codes"):
        expected = {
            (23, 2): "[[106,33,48;21]]_23",
            (43, 2): "[[370,217,88;21]]_43",
            (43, 3): "[[370,105,174;81]]_43",
            (43, 4): "[[370,33,260;181]]_43",
        }
        for (q, m), bracket in expected.items():
            t0 = time.perf_counter()
            rc = main(["code", "--q", str(q), "--m", str(m)])
            elapsed = time.perf_counter() - t0
            out = capsys.readouterr().out
            assert rc == 0
            assert bracket in out, (q, m, out)
            assert elapsed < 1.0, f"code --q {q} --m {m} took {elapsed:.2f}s"


def test_criterion_2_theorem_reproduction_at_scale():
    with criterion(2, "ebit formula and Singleton equality, all q <= 200"):
        t0 = time.perf_counter()
        grid = family_grid(200)

        # the grid itself must contain every admissible prime power <= 200,
        # cross-checked against an independent naive classifier
        got_qs = {spec.q.q for spec, _ in grid}
        want_qs = set()
        for q in range(2, 201):
            p = _naive_prime_power(q)
            if p is None or (q * q + 1) % 5:
                continue
            if p == 2:
                e = q.bit_length() - 1
                if (e % 4 == 1 and e > 1) or e % 4 == 3:
                    if (q - 8 if e % 4 == 3 else q - 2) // 10 >= 2:
                        want_qs.add(q)
            elif q % 10 == 3 and q >= 23:
                want_qs.add(q)
            elif q % 10 == 7 and q >= 27:
                want_qs.add(q)
        assert got_qs == want_qs

        checked = 0
        for spec, m in grid:
            z = family_defining_set(spec, m)
            n, q = spec.n, spec.q.q
            c = len(decompose(z))
            assert c == 20 * (m - 1) ** 2 + 1, (q, m, c)
            k = 2 * dimension(z) - n + c
            d = bch_bound(z)
            assert n + c - k == 2 * (d - 1), (q, m)
            checked += 1
        elapsed = time.perf_counter() - t0
        assert checked == len(grid) > 150
        assert elapsed < 30.0, f"sweep took {elapsed:.2f}s"
        print(f"\n  criterion 2: {checked} (q, m) points in {elapsed:.2f}s", end="")


def test_criterion_3_lemma_suite():
    with criterion(3, "window lemmas and coset identity, all q <= 200"):
        sizes = iter_family_sizes(200)
        identities = windows = 0
        for spec in sizes:
            ctx = spec.context()
            for s, i in expand(identity_windows(spec.q.q)):
                assert coset_product_identity(ctx, s, i), (spec.q.q, s, i)
                identities += 1
            for m in range(2, spec.m_max + 1):
                z = family_defining_set(spec, m)
                free = free_window_set(spec, m)
                ent = entangled_window_set(spec, m)
                assert not free.mask & free.neg_q().mask, (spec.q.q, m)
                assert free.mask | ent.mask == z.mask, (spec.q.q, m)
                assert not free.mask & ent.mask, (spec.q.q, m)
                assert ent.neg_q() == ent, (spec.q.q, m)
                windows += 1
        assert identities > 10_000 and windows > 150
        print(f"\n  criterion 3: {identities} identity checks, {windows} window sets", end="")


def test_criterion_4_rank_oracle_equivalence():
    with criterion(4, "rank(HH^dagger) equals the set-overlap ebit count"):
        t0 = time.perf_counter()
        checked = 0
        for q in (23, 27, 32):
            spec = classify(q)
            tower = field_tower(q, spec.n)
            for m in range(2, spec.m_max + 1):
                z = family_defining_set(spec, m)
                h = code_polynomials(z.members, tower)[1]
                got = toeplitz_rank(tower.fq2, hh_dagger(tower.fq2, h, spec.n))
                assert got == len(decompose(z)) == 20 * (m - 1) ** 2 + 1, (q, m)
                checked += 1
        for q in (7, 23):
            ctx = CycContext.for_family(q)
            tower = field_tower(q, ctx.n)
            rng = random.Random(973 + q)
            reps = [c[0] for c in all_cosets(ctx)]
            done = 0
            while done < 50:
                z = from_cosets(ctx, [r for r in reps if rng.random() < 0.5])
                if not 0 < len(z) < ctx.n:
                    continue
                h = code_polynomials(z.members, tower)[1]
                got = toeplitz_rank(tower.fq2, hh_dagger(tower.fq2, h, ctx.n))
                assert got == len(decompose(z)), (q, z.members)
                done += 1
                checked += 1
        elapsed = time.perf_counter() - t0
        assert checked == 4 + 100
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.2f}s"
        print(f"\n  criterion 4: {checked} codes in {elapsed:.2f}s", end="")


def test_criterion_5_classical_mds_certification():
    with criterion(5, "every family defining set is one circular run (MDS)"):
        for spec, m in family_grid(200):
            z = family_defining_set(spec, m)
            n = spec.n
            assert longest_circular_run(z.mask, n) == len(z), (spec.q.q, m)
            assert bch_bound(z) == n - dimension(z) + 1, (spec.q.q, m)


def test_criterion_6_errata_regression():
    with criterion(6, "errata audit matches the fixture exactly"):
        entries = errata_report(q_max=200)
        assert [e.entry_id for e in entries] == ["E1", "E2", "E3", "E4", "E5", "E6", "E7"]

        e1 = entries[0].data["witness"]
        assert (e1["stated_value"], e1["corrected_value"]) == (12, 33)
        e2 = entries[1].data["witness"]
        assert (e2["stated_value"], e2["corrected_value"]) == (177, 33)

        expected_corrections = {
            37: {2: (401, 145), 3: (489, 57)},
            47: {2: (609, 273), 3: (737, 145), 4: (825, 57)},
            32: {2: (312, 96), 3: (380, 28)},
            128: {
                2: (3768, 2784), 3: (4220, 2332), 4: (4632, 1920), 5: (5004, 1548),
                6: (5336, 1216), 7: (5628, 924), 8: (5880, 672), 9: (6092, 460),
                10: (6264, 288), 11: (6396, 156), 12: (6488, 64),
            },
        }
        for entry in entries[2:6]:
            q = entry.data["q"]
            got = {c["m"]: (c["printed_k"], c["computed_k"]) for c in entry.data["codes"]}
            assert got == expected_corrections[q], q
            for c in entry.data["codes"]:
                assert c["k_via_2k_minus_n_plus_c"] == c["k_via_singleton_equality"]

        e7 = {(v["q"], v["m"]) for v in entries[6].data["violations"]}
        assert {(43, 4)} | {(128, m) for m in range(8, 13)} <= e7
        for q, m in e7:
            spec = classify(q)
            d = 2 * (m - 1) * q + 2
            assert 2 * d > spec.n + 2


def test_criterion_7_toy_exhaustive_distance():
    with criterion(7, "exhaustive distance agrees with the designed distance"):
        ctx = CycContext.for_family(7)
        tower = field_tower(7, 10)

        z0 = from_cosets(ctx, [0])
        g0 = MatrixGF(tower.fq2, shift_rows(code_polynomials(z0.members, tower)[0], 10))
        assert exhaustive_min_distance(g0) == 2 == bch_bound(z0)

        z = from_cosets(ctx, [0, 1])  # k = 7, Singleton forces d = 4
        g = MatrixGF(tower.fq2, shift_rows(code_polynomials(z.members, tower)[0], 10))
        d = exhaustive_min_distance(g)
        assert d == 10 - dimension(z) + 1 == 4
