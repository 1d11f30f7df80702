import csv
import hashlib
import inspect
import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from eaqmds import cli, codes, cosets, crosscheck, eaqecc, errata, families, oracle
from eaqmds.cli import CSV_HEADER, main
from eaqmds.cosets import CycContext, DefiningSet
from eaqmds.exceptions import UsageError
from eaqmds.gf import build_field
from eaqmds.primes import PrimePower

import coderef
from cosetref import from_cosets

REPO = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- cosets -----------------------------------------------------------------


def test_cosets_q23(capsys):
    rc, out, _ = run_cli(capsys, "cosets", "--q", "23")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "q=23 n=106 count=54"
    assert sum(1 for l in lines if l.startswith("C_")) == 54
    assert "C_53 = {53}" in lines


def test_cosets_q7_includes_pair(capsys):
    rc, out, _ = run_cli(capsys, "cosets", "--q", "7")
    assert rc == 0
    assert "C_1 = {1, 9}" in out


def test_cosets_rejects_bad_q(capsys):
    rc, out, err = run_cli(capsys, "cosets", "--q", "11")
    assert rc == 2
    assert out == ""
    assert "divisible by 5" in err


def test_cosets_json_roundtrip(capsys):
    rc, out, _ = run_cli(capsys, "cosets", "--q", "7", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["n"] == 10
    assert {"rep": 1, "elements": [1, 9]} in payload["cosets"]


def test_cosets_explicit_modulus(capsys):
    rc, out, _ = run_cli(capsys, "cosets", "--q", "7", "--n", "4")
    assert rc == 0
    assert out.splitlines()[0] == "q=7 n=4 count=4"


# -- code ---------------------------------------------------------------------


def test_code_golden(capsys):
    rc, out, _ = run_cli(capsys, "code", "--q", "23", "--m", "2")
    assert rc == 0
    assert "[[106,33,48;21]]_23" in out
    assert "eaqmds_status=eaqmds" in out


def test_code_with_oracle(capsys):
    rc, out, _ = run_cli(capsys, "code", "--q", "23", "--m", "2", "--oracle")
    assert rc == 0
    assert "rank_oracle_checked=true" in out


def test_code_out_of_range(capsys):
    rc, _, err = run_cli(capsys, "code", "--q", "23", "--m", "3")
    assert rc == 2
    assert "valid m: 2..2" in err
    rc, _, err = run_cli(capsys, "code", "--q", "8", "--m", "2")
    assert rc == 2
    assert "q=8 has no valid m" in err


def test_code_unclassifiable(capsys):
    rc, _, err = run_cli(capsys, "code", "--q", "11", "--m", "2")
    assert rc == 2
    assert "divisible by 5" in err


def test_code_degenerate_flag(capsys):
    rc, _, err = run_cli(capsys, "code", "--q", "23", "--m", "1")
    assert rc == 2
    rc, out, _ = run_cli(capsys, "code", "--q", "23", "--m", "1", "--allow-degenerate")
    assert rc == 0
    assert "[[106,105,2;1]]_23" in out


def test_code_oracle_cap(capsys):
    rc, _, err = run_cli(capsys, "code", "--q", "43", "--m", "2", "--oracle")
    assert rc == 2
    assert "--allow-large-oracle" in err


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    # a ValueError raised past the input guards is a fault: exit 1, not 2
    monkeypatch.setattr(eaqecc, "dimension", lambda z: 0)
    rc, out, err = run_cli(capsys, "code", "--q", "23", "--m", "2")
    assert (rc, out) == (1, "")
    assert err.startswith("internal error in code: defining set too large")


def test_internal_value_error_in_a_sweep_is_not_a_skipped_q(capsys, monkeypatch):
    # a sweep skips the q that classify refuses, never one that faults
    honest = families.FamilySpec

    def faulty(family_id, q, n, m_max):
        if q.q == 23:
            raise ValueError("fault at q=23")
        return honest(family_id, q, n, m_max)

    monkeypatch.setattr(families, "FamilySpec", faulty)
    rc, out, err = run_cli(capsys, "verify", "--level", "theorem", "--qmax", "60")
    assert (rc, out) == (1, "")
    assert err == "internal error in verify: fault at q=23\n"


def _text_record(out):
    """The key=value pairs of a text-format code record, as strings."""
    return dict(pair.split("=", 1) for line in out.splitlines()[1:] for pair in line.split())


def _as_text(value):
    """A JSON record value as the text and CSV formats print it."""
    if isinstance(value, list):
        return "|".join(value)
    return str(value).lower() if isinstance(value, bool) else str(value)


def test_code_json_record_roundtrip(capsys):
    rc, out, _ = run_cli(capsys, "code", "--q", "43", "--m", "4", "--format", "json")
    assert rc == 0
    rec = json.loads(out)
    assert (rec["n"], rec["k"], rec["d"], rec["c"]) == (370, 33, 260, 181)
    assert rec["errata_flags"] == ["distance-precondition-violated"]
    # the JSON record holds every field, in order, with the values the text format prints
    assert list(rec) == CSV_HEADER.split(",")
    rc, out_text, _ = run_cli(capsys, "code", "--q", "43", "--m", "4")
    assert rc == 0
    text = _text_record(out_text)
    assert text.pop("eaqmds_status") == "equality-without-precondition"
    assert text == {k: _as_text(v) for k, v in rec.items()}


# -- enumerate -------------------------------------------------------------------


def test_enumerate_csv(capsys):
    rc, out, _ = run_cli(
        capsys, "enumerate", "--family", "q10k3", "--qmax", "43", "--format", "csv"
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4
    assert lines[1].startswith("q10k3,23,23,1,106,2,33,48,21,true,true,false,")
    # deterministic ordering: q ascending then m ascending
    qs_ms = [tuple(map(int, l.split(",")[1:2] + l.split(",")[5:6])) for l in lines[1:]]
    assert qs_ms == sorted(qs_ms)


def test_enumerate_e3mod4_row_count(capsys):
    rc, out, _ = run_cli(
        capsys, "enumerate", "--family", "e3mod4", "--qmax", "128", "--format", "csv"
    )
    assert rc == 0
    assert len(out.splitlines()) == 1 + 11  # q=8 contributes nothing


def test_enumerate_empty_grid(capsys):
    rc, out, _ = run_cli(
        capsys, "enumerate", "--family", "q10k3", "--qmax", "20", "--format", "csv"
    )
    assert rc == 0
    assert out.splitlines() == [CSV_HEADER]


def test_enumerate_json_matches_csv(capsys):
    rc, out_json, _ = run_cli(
        capsys, "enumerate", "--family", "e1mod4", "--qmax", "32", "--format", "json"
    )
    assert rc == 0
    records = json.loads(out_json)
    assert [(r["q"], r["m"], r["k"]) for r in records] == [(32, 2, 96), (32, 3, 28)]
    rc, out_csv, _ = run_cli(
        capsys, "enumerate", "--family", "e1mod4", "--qmax", "32", "--format", "csv"
    )
    rows = list(csv.DictReader(out_csv.splitlines()))
    assert rows == [{k: _as_text(v) for k, v in r.items()} for r in records]


def test_enumerate_table_format(capsys):
    rc, out, _ = run_cli(capsys, "enumerate", "--family", "e1mod4", "--qmax", "32")
    assert rc == 0
    assert out.splitlines()[0].split()[:2] == ["family_id", "q"]


# -- errata ------------------------------------------------------------------------


def test_errata_text(capsys):
    rc, out, _ = run_cli(capsys, "errata")
    assert rc == 0
    for eid in ("E1", "E2", "E3", "E4", "E5", "E6", "E7"):
        assert f"{eid}: " in out
    assert "[[274,145,76;21]]" in out and "[[274,401,76;21]]" in out


def test_errata_json(capsys):
    rc, out, _ = run_cli(capsys, "errata", "--format", "json")
    assert rc == 0
    entries = json.loads(out)
    assert [e["entry_id"] for e in entries] == ["E1", "E2", "E3", "E4", "E5", "E6", "E7"]


# -- verify ---------------------------------------------------------------------------


@pytest.mark.parametrize("level", ["coset", "lemma", "theorem"])
def test_verify_levels_pass(capsys, level):
    rc, out, _ = run_cli(capsys, "verify", "--level", level, "--qmax", "50")
    assert rc == 0
    assert out.startswith(f"verify level={level} qmax=50: PASS")


def test_verify_rank_oracle_small(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--level", "rank-oracle", "--qmax", "23")
    assert rc == 0
    assert "PASS" in out


# -- output determinism ------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["cosets", "--q", "23"],
        ["code", "--q", "43", "--m", "3", "--format", "json"],
        ["enumerate", "--family", "q10k3", "--qmax", "43", "--format", "csv"],
        ["errata"],
    ],
)
def test_byte_identical_reruns(capsys, argv):
    rc1, out1, _ = run_cli(capsys, *argv)
    rc2, out2, _ = run_cli(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def _child_env():
    """The environment of a child interpreter: src on its path, and no
    bytecode written where this process writes none."""
    env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}
    if sys.dont_write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _run_module(*args, cwd=REPO):
    return subprocess.run([sys.executable, *args], capture_output=True, cwd=cwd, env=_child_env())


def test_children_write_no_bytecode_where_this_process_writes_none(monkeypatch, tmp_path):
    # a child run over a copy of src leaves no __pycache__ there while this
    # process writes no bytecode, and leaves one once it does
    shutil.copytree(REPO / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    argv = ("-m", "eaqmds", "code", "--q", "23", "--m", "2")
    for dont_write in (True, False):
        monkeypatch.setattr(sys, "dont_write_bytecode", dont_write)
        assert _run_module(*argv, cwd=tmp_path).returncode == 0
        assert bool(list((tmp_path / "src").rglob("__pycache__"))) != dont_write


def test_reader_closing_the_pipe_early_ends_quietly():
    # like `| head -1`: the reader takes one line and closes the pipe; the
    # JSON (about 120 kB) outgrows the pipe, so the command meets it closed
    # and must exit 1 with nothing on stderr, not a BrokenPipeError traceback
    argv = "-m eaqmds enumerate --family q10k3 --format json --qmax 400".split()
    proc = subprocess.Popen(
        [sys.executable, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=REPO,
        env=_child_env(),
    )
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait() == 1


def test_module_entry_point():
    proc = _run_module("-m", "eaqmds", "code", "--q", "23", "--m", "2")
    assert proc.returncode == 0
    assert b"[[106,33,48;21]]_23" in proc.stdout


# in a fresh process: which of the heavy modules are loaded, after the
# import and after each set-route command, then after a matrix-route one
_STARTUP_PROBE = """
import sys
import eaqmds.cli

HEAVY = ("dataclasses", "inspect", "json", "eaqmds.oracle", "eaqmds.gf", "eaqmds.errata")

def report(stage):
    print(stage, *[m for m in HEAVY if m in sys.modules], file=sys.stderr)

report("import")
for argv in ("verify --level theorem --qmax 60", "code --q 23 --m 2", "code --q 23 --m 2 --oracle"):
    eaqmds.cli.main(argv.split())
    report(argv)
"""


def test_start_up_loads_only_what_the_command_runs():
    proc = _run_module("-c", _STARTUP_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.decode().splitlines() == [
        "import",
        "verify --level theorem --qmax 60",
        "code --q 23 --m 2",
        "code --q 23 --m 2 --oracle eaqmds.oracle eaqmds.gf",
    ]


def test_checks_survive_python_O():
    # the checks are VerificationErrors, not asserts, so -O keeps them
    long_run = (
        "from eaqmds import cli, codes\n"
        "honest = codes.longest_circular_run\n"
        "codes.longest_circular_run = lambda members, n: honest(members, n) + 1\n"
        "raise SystemExit(cli.main(['code', '--q', '23', '--m', '2']))\n"
    )
    proc = _run_module("-O", "-c", long_run)
    assert proc.returncode == 1, proc.stderr
    assert b"longest run 48, |Z| = 47" in proc.stderr
    argv = ("-m", "eaqmds", "code", "--q", "23", "--m", "2", "--oracle")
    plain, optimized = _run_module(*argv), _run_module("-O", *argv)
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout


# the matrix-route smoke invocations of the benchmark, with the exit code and
# stdout sha256 recorded in perfbench/golden.json
MATRIX_ROUTE_SMOKE = (
    "code --q 23 --m 2 --oracle",
    "verify --level rank-oracle --qmax 7",
    "code --q 43 --m 3 --oracle --allow-large-oracle",
)


def _assert_matches_golden(proc, invocation):
    golden = json.loads((REPO / "perfbench" / "golden.json").read_text())[invocation]
    assert proc.returncode == golden["exit"], proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == golden["sha256"]


@pytest.mark.parametrize("invocation", MATRIX_ROUTE_SMOKE)
def test_matrix_route_stdout_matches_golden(invocation):
    _assert_matches_golden(_run_module("-m", "eaqmds", *invocation.split()), invocation)


def test_set_route_survives_python_O():
    # decompose's invariants and the family checks raise, they do not assert
    invocation = "verify --level theorem --qmax 60"
    _assert_matches_golden(_run_module("-O", "-m", "eaqmds", *invocation.split()), invocation)


# sha256 of `errata --qmax 200` stdout, recorded while E7 still took d from
# the closed form 2(m-1)q+2; deriving d from the defining set changes no byte
ERRATA_SHA256 = {
    "text": "fa0e9a545d556373fff48bd8a5ce7f7361bf28e98e149e73772f05bf4375105a",
    "json": "2a42797bf463bfdae409956f7292990534323a5a49877b9ae35410d65f0af28b",
}


@pytest.mark.parametrize("fmt", sorted(ERRATA_SHA256))
def test_errata_stdout_is_pinned(capsys, fmt):
    rc, out, _ = run_cli(capsys, "errata", "--qmax", "200", "--format", fmt)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ERRATA_SHA256[fmt]


# sha256 of the code-record outputs, recorded while CodeRecord still had its
# own to_dict/from_dict and field-by-field text and CSV printers
RECORD_SHA256 = {
    "enumerate --family q10k3 --qmax 200 --format json":
        "1f2fdae78d7baff56d39382373d84c2a5324a1120346f44f262dc0266c070cfb",
    "enumerate --family q10k3 --qmax 200 --format csv":
        "40de10cc19fdf5604ba61be288fce147d296d8d9c450964d7f3d629ba7457e41",
    "enumerate --family q10k3 --qmax 200 --format table":
        "293d8258bb532c0a974303fc0549fde61a06d8fd689995f65f13caca4c49610d",
    "enumerate --family e3mod4 --qmax 128 --format csv":
        "498458220d1f2048e56f45680cbbf364c613ff0ab1e02db73b2f3d699ee5f160",
    "code --q 43 --m 4 --format text":
        "440e7050c896a20be5798cd878ce7a1a2994c5ecf528eb8ec21ef5623da229e9",
    "code --q 43 --m 4 --format json":
        "176f2d1c4347aea55be6302090c539488d7ba1d1975df649f252da0e1047ee6e",
}


@pytest.mark.parametrize("invocation", sorted(RECORD_SHA256))
def test_record_stdout_is_pinned(capsys, invocation):
    rc, out, _ = run_cli(capsys, *invocation.split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RECORD_SHA256[invocation]


@pytest.mark.parametrize("invocation", MATRIX_ROUTE_SMOKE)
def test_rank_oracle_off_by_one_is_caught(capsys, monkeypatch, invocation):
    honest = oracle.toeplitz_rank
    monkeypatch.setattr(oracle, "toeplitz_rank", lambda f, t: honest(f, t) + 1)
    rc, _out, err = run_cli(capsys, *invocation.split())
    assert rc == 1
    assert "rank(HH^dagger)" in err


# a rank off by one on the GG^dagger side alone, which (32, 3) takes with
# |Z| = 129 of n = 205: the counterexample names the Gram matrix ranked
@pytest.mark.parametrize(
    "invocation", ["code --q 32 --m 3 --oracle", "verify --level rank-oracle --qmax 32"]
)
def test_gg_dagger_rank_off_by_one_is_caught(capsys, monkeypatch, invocation):
    honest_polynomials, honest_rank = oracle.code_polynomials, oracle.toeplitz_rank
    size = []

    def recorded(z, tower):
        size[:] = [len(z)]
        return honest_polynomials(z, tower)

    def bumped(f, t):
        # HH^dagger has |Z| rows; GG^dagger, the other side, n - |Z|
        return honest_rank(f, t) + ((len(t) + 1) // 2 != size[0])

    monkeypatch.setattr(oracle, "code_polynomials", recorded)
    monkeypatch.setattr(oracle, "toeplitz_rank", bumped)
    rc, _out, err = run_cli(capsys, *invocation.split())
    assert rc == 1
    assert err.endswith(
        "rank(HH^dagger) = 82 (rank(GG^dagger) + 2|Z| - n) "
        "but the set overlap has size 81 at q=32, m=3\n"
    )


def _rewritten(function, old, new, module=oracle):
    """function with the one occurrence of old in its source replaced by
    new, compiled in a copy of the namespace of module."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    return namespace[function.__name__]


# a product coefficient off by one: in every product of two polynomials
# (every convolve, and the packed product g * h of code_polynomials, whose
# middle coefficient is bumped), the g * h = x^n - 1 check fails; in
# H * H^dagger alone, the rank comparison does
@pytest.mark.parametrize(
    "invocation", ["code --q 23 --m 2 --oracle", "verify --level rank-oracle --qmax 23"]
)
@pytest.mark.parametrize(
    "products,check", [("all", "g * h != x^n - 1"), ("square", "rank(HH^dagger) = ")]
)
def test_correlation_off_by_one_is_caught(capsys, monkeypatch, invocation, products, check):
    honest, honest_hh = oracle.convolve, oracle.hh_dagger

    def bumped(field, a, b):
        c = honest(field, a, b)
        c[len(c) // 2] = field.add(c[len(c) // 2], 1)
        return c

    def square_bumped(f, h, n):
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "convolve", bumped)
            return honest_hh(f, h, n)

    if products == "all":
        monkeypatch.setattr(oracle, "convolve", bumped)
        product = "packed.vector(g) * packed.vector(h)"
        middle = "(1 << ((len(g) + len(h) - 1) // 2 * packed.stride))"
        bumped_product = _rewritten(oracle.code_polynomials, product, f"({product} + {middle})")
        monkeypatch.setattr(oracle, "code_polynomials", bumped_product)
    else:
        monkeypatch.setattr(oracle, "hh_dagger", square_bumped)
    rc, _out, err = run_cli(capsys, *invocation.split())
    assert rc == 1
    assert check in err


# faults in the Berlekamp-Massey steps of toeplitz_rank, each put in by
# rewriting one expression of its source: the coefficient -d/b plus one; the
# length changed only when 2L < k; C * t not reduced where 2L <= k, so that
# B * t, taken from it at a length change, is multiplied unreduced; and an
# update not counted, so that the next step takes C * t for reduced, with
# the same effect.  Both of the last two let slots outgrow their width.
# (The room bound left out is no fault here: at q = 23 and 43 no more than
# four updates pile up between reductions, against a room of 67 and 18;
# tests/test_oracle.py shows it on a sequence that piles up more.)
RANK_FAULTS = {
    "coefficient": ("f.neg(f.mul(d, f.inv(b)))", "f.add(f.neg(f.mul(d, f.inv(b))), 1)"),
    "length change": ("2 * length <= k", "2 * length < k"),
    "B unreduced": ("(change or pending == room)", "pending == room"),
    "update not counted": ("pending + 1", "pending"),
}


@pytest.mark.parametrize(
    "invocation,overlap",
    [
        ("code --q 23 --m 2 --oracle", 21),
        ("verify --level rank-oracle --qmax 23", 21),
        ("code --q 43 --m 3 --oracle --allow-large-oracle", 81),
    ],
)
@pytest.mark.parametrize("fault", sorted(RANK_FAULTS))
def test_rank_kernel_fault_is_caught(capsys, monkeypatch, fault, invocation, overlap):
    faulty = _rewritten(oracle.toeplitz_rank, *RANK_FAULTS[fault])
    monkeypatch.setattr(oracle, "toeplitz_rank", faulty)
    rc, _out, err = run_cli(capsys, *invocation.split())
    assert rc == 1
    assert "rank(HH^dagger) = " in err
    assert f"but the set overlap has size {overlap} " in err


# the product tree with the joined reduction of one level skipped (the
# first, whose products come straight from the leaves): its products
# reach the next level unreduced, and their slots outgrow the width
def test_tree_level_left_unreduced_is_caught(capsys, monkeypatch):
    joined = "packed.digits(_pack(level, size * packed.stride), len(level) * size)"
    skipped = f"({joined} if size > 5 else _pack(level, size * packed.stride))"
    faulty = _rewritten(oracle.generator_polynomial, joined, skipped)
    monkeypatch.setattr(oracle, "generator_polynomial", faulty)
    rc, _out, err = run_cli(capsys, "code", "--q", "23", "--m", "2", "--oracle")
    assert rc == 1
    assert err.endswith(": g * h != x^n - 1\n")


# -- fault injection on the set route ------------------------------------------


def _assert_counterexample(capsys, *argv):
    rc, _out, err = run_cli(capsys, *argv)
    assert rc == 1, err
    assert "counterexample: " in err


@pytest.mark.parametrize("index", range(5))
@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("level", ["theorem", "lemma"])
def test_window_anchor_off_by_one_is_caught(capsys, monkeypatch, index, delta, level):
    honest = families._anchors

    def shifted(spec):
        anchors = list(honest(spec))
        anchors[index] += delta
        return tuple(anchors)

    monkeypatch.setattr(families, "_anchors", shifted)
    _assert_counterexample(capsys, "verify", "--level", level, "--qmax", "60")


# wrong maps in place of x -> -q*x, on defining sets at the theorem level
# (closed again by cosetref.from_cosets, so only the checks on the split can
# see the fault; put in as the row reader, so that both neg_q and overlap
# take it) and as the table of the coset level, whose first failing
# coset is pinned (the map x -> q*x is no fault there: it too squares to
# negation, and equals -q on every coset {i, n-i})
WRONG_NEG_Q = {
    "plus-one": lambda x, n, q: (-q * x + 1) % n,
    "times-minus-q-minus-one": lambda x, n, q: -(q + 1) * x % n,
}
WRONG_NEG_Q_AT_COSETS = {
    "plus-one": "-q maps coset 0 at q=8 to (1,), then to (6,)",
    "times-minus-q-minus-one": "-q maps coset 1 at q=8 to (4, 9), then to (3, 10)",
}


@pytest.mark.parametrize("wrong", sorted(WRONG_NEG_Q))
@pytest.mark.parametrize("level", ["theorem", "coset"])
def test_wrong_neg_q_map_is_caught(capsys, monkeypatch, wrong, level):
    image = WRONG_NEG_Q[wrong]
    argv = ("verify", "--level", level, "--qmax", "60")
    if level == "coset":
        monkeypatch.setattr(
            families, "neg_q_map", lambda ctx: [image(x, ctx.n, ctx.q) for x in range(ctx.n)]
        )
        _assert_counterexample_is(capsys, WRONG_NEG_Q_AT_COSETS[wrong], *argv)
    else:
        monkeypatch.setattr(DefiningSet, "_neg_q_rows", _mapped_by(image))
        _assert_counterexample(capsys, *argv)


def _mapped_by(image):
    """A -q row reader that maps each member by image(x, n, q), closed by
    from_cosets, and keeps the rows lo..hi of each span."""

    def _neg_q_rows(self, spans):
        n, q = self.ctx.n, self.ctx.q
        mapped = from_cosets(self.ctx, (image(x, n, q) for x in self.members)).mask
        keep = sum((1 << (hi + 1) * q) - (1 << lo * q) for lo, hi in spans if lo <= hi)
        return mapped & keep

    return _neg_q_rows


# the same wrong maps on the random sets of the rank-oracle level: below
# q = 23 there is no family code, so the one check to see them is the
# invariance of the overlap that decompose builds
@pytest.mark.parametrize("wrong", sorted(WRONG_NEG_Q))
def test_wrong_neg_q_map_is_caught_by_decompose(capsys, monkeypatch, wrong):
    monkeypatch.setattr(DefiningSet, "_neg_q_rows", _mapped_by(WRONG_NEG_Q[wrong]))
    message = (
        "overlap Z & -qZ of DefiningSet(n=10, q=7, size=6): entangled part is not -q-invariant"
    )
    _assert_counterexample_is(capsys, message, "verify", "--level", "rank-oracle", "--qmax", "7")


# faults in the row slices of the -q map, each put in by rewriting one
# expression of the row reader DefiningSet._neg_q_rows, which neg_q and
# overlap share: every row read one character late, or rows 2k and 2k+1
# trading places.  Every family block and its parts take this map; the
# coset level checks its own table of -q*x mod n (neg_q_map), so it cannot
# see either fault.  Rows 0 and 1 alone swapped go unseen: the forward
# windows repeat from row to row, so no family set tells those two rows of
# its image apart
NEG_Q_FAULTS = {
    "row offset": ("t[q + s : q * q + s + 1 : q]", "t[q + s + 1 : q * q + s + 2 : q]"),
    "rows swapped": ("t[q + s : q * q + s + 1 : q]", "t[q + (s ^ 1) : q * q + (s ^ 1) + 1 : q]"),
}


@pytest.mark.parametrize("fault", sorted(NEG_Q_FAULTS))
@pytest.mark.parametrize("level", ["theorem", "lemma"])
def test_neg_q_row_fault_is_caught(capsys, monkeypatch, level, fault):
    reader = _rewritten(DefiningSet._neg_q_rows, *NEG_Q_FAULTS[fault], module=cosets)
    monkeypatch.setattr(DefiningSet, "_neg_q_rows", reader)
    _assert_counterexample(capsys, "verify", "--level", level, "--qmax", "60")
    assert run_cli(capsys, "verify", "--level", "coset", "--qmax", "60")[0] == 0


# faults in the row spans that DefiningSet.overlap reads, each one row
# short: the low span misses row 1 of the block at q = 23, m = 2 (residue
# 23), and the high span its row 3 (residues 83..91), so the first split
# check finds entangled members outside the image it read
NEG_Q_SPAN_FAULTS = {
    "low span one row short": ("(0, low_end)", "(0, low_end - 1)"),
    "high span one row short": ("(high_start, top)", "(high_start + 1, top)"),
}


@pytest.mark.parametrize("fault", sorted(NEG_Q_SPAN_FAULTS))
@pytest.mark.parametrize("level", ["theorem", "lemma"])
def test_overlap_span_fault_is_caught(capsys, monkeypatch, level, fault):
    overlap = _rewritten(DefiningSet.overlap, *NEG_Q_SPAN_FAULTS[fault], module=cosets)
    monkeypatch.setattr(DefiningSet, "overlap", overlap)
    message = "windows at q=23, m=2: entangled part is not -q-invariant"
    _assert_counterexample_is(capsys, message, "verify", "--level", level, "--qmax", "60")
    assert run_cli(capsys, "verify", "--level", "coset", "--qmax", "60")[0] == 0


def _assert_counterexample_is(capsys, message, *argv):
    """Exit 1 with exactly this counterexample: the check that owns the
    fault, not a later one, must be the one to see it."""
    rc, _out, err = run_cli(capsys, *argv)
    assert rc == 1, err
    assert err.splitlines()[-1] == f"counterexample: {message}"


# faults in the run arithmetic of cosets._times, each put in by rewriting one
# expression of it: every run of step -c placed one residue early, or the
# runs of a negative multiplier laid down as those of a positive one.  On a
# family modulus q^2 = -1 is one run of step -1, built by slices from
# q = 23 (n = 106; n = 13 at q = 8 is too short and takes the map), so the
# coset level sees either in its table of q^2 at q = 23
TIMES_FAULTS = {
    "run-placed-one-early": (
        ("t[n - hi + 1 : n - lo + 1]", "t[n - hi : n - lo]"),
        "coset 0 at q=23 is [(0, 105)], not [(0,)]",
    ),
    "sign-of-the-step-lost": (
        ("if b == c:", "if b != c:"),
        "coset 1 at q=23 is [(1,)], not [(1, 105)]",
    ),
}


@pytest.mark.parametrize("fault", sorted(TIMES_FAULTS))
def test_times_run_fault_is_caught(capsys, monkeypatch, fault):
    (old, new), message = TIMES_FAULTS[fault]
    source = textwrap.dedent(inspect.getsource(cosets._times))
    assert source.count(old) == 1
    namespace = dict(vars(cosets))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(cosets, "_times", namespace["_times"])
    _assert_counterexample_is(capsys, message, "verify", "--level", "coset", "--qmax", "60")


def _trade_elements(cs):
    """The cosets with C_1 and C_2 trading their second elements."""
    (a, b), (c, d) = cs[1], cs[2]
    return [cs[0], (a, d), (c, b), *cs[3:]]


# faults in all_cosets, seen at q = 8 (n = 13, cosets (0,), (1, 12) .. (6, 7))
# by the one comparison with the pairs (i, n-i), which names the first coset
# that differs
WRONG_COSETS = {
    "last-pair-dropped": (lambda cs: cs[:-1], "coset 6 at q=8 is missing, not [(6, 7)]"),
    "two-pairs-trade-an-element": (_trade_elements, "coset 1 at q=8 is [(1, 11)], not [(1, 12)]"),
}


@pytest.mark.parametrize("wrong", sorted(WRONG_COSETS))
def test_wrong_cosets_are_caught(capsys, monkeypatch, wrong):
    fault, message = WRONG_COSETS[wrong]
    honest = families.all_cosets
    monkeypatch.setattr(families, "all_cosets", lambda ctx: fault(honest(ctx)))
    _assert_counterexample_is(capsys, message, "verify", "--level", "coset", "--qmax", "60")


HONEST_NEG_Q_MAP = families.neg_q_map


def _table_at_8(wrong):
    """The table of -q, except that at q = 8 each residue x in wrong goes
    to wrong[x]."""

    def neg_q_map(ctx):
        t = HONEST_NEG_Q_MAP(ctx)
        if ctx.q == 8:
            for x, y in wrong.items():
                t[x] = y
        return t

    return neg_q_map


# wrong -q tables at the coset level, at q = 8 (n = 13), where -q pairs C_0
# with itself, C_1 = (1, 12) with C_5 = (5, 8), C_2 with C_3 and C_4 with C_6.
# A table sends each residue to one residue, so it cannot map a coset onto
# more residues than it has; the check t(t(x)) = -x names the first coset
# with a residue where it fails.  The identity maps every coset onto
# itself, of its size, and back, yet is no -q: t(t(1)) = 1, not 12
WRONG_COSET_IMAGES = {
    "coset-of-another-size": (
        _table_at_8({1: 0, 12: 0}),
        "-q maps coset 1 at q=8 to (0,), then to (0,)",
    ),
    "image-not-a-coset": (
        _table_at_8({1: 1, 12: 2}),
        "-q maps coset 1 at q=8 to (1, 2), then to (1, 10)",
    ),
    # -(q+1) maps every coset onto a coset of its size, but at q = 8 C_1 to
    # C_4 = (4, 9) and C_4 to C_3 = (3, 10)
    "no-involution": (
        _table_at_8({x: -9 * x % 13 for x in range(13)}),
        "-q maps coset 1 at q=8 to (4, 9), then to (3, 10)",
    ),
    "identity": (
        _table_at_8({x: x for x in range(13)}),
        "-q maps coset 1 at q=8 to (1, 12), then to (1, 12)",
    ),
}


@pytest.mark.parametrize("wrong", sorted(WRONG_COSET_IMAGES))
def test_wrong_coset_images_are_caught(capsys, monkeypatch, wrong):
    neg_q_map, message = WRONG_COSET_IMAGES[wrong]
    monkeypatch.setattr(families, "neg_q_map", neg_q_map)
    _assert_counterexample_is(capsys, message, "verify", "--level", "coset", "--qmax", "60")


# each reflection identity tested against its target shifted by +1: the
# lemma level must fail at the first window pair of q = 8 and name it.  A
# forward window passes src = s*q + i, a range of step 1, and an inverse
# one src = t*q - j, of step q
@pytest.mark.parametrize(
    ("forward", "message"),
    [
        (True, "reflection identity fails at q=8, s=0, i=1"),
        (False, "inverse identity fails at q=8, t=1, j=0 (offset=False)"),
    ],
    ids=["forward", "inverse"],
)
def test_shifted_reflection_identity_is_caught(capsys, monkeypatch, forward, message):
    honest = families.neg_q_misses

    def shifted(ctx, src, dst):
        if (src.step == 1) == forward:
            dst = [b + 1 for b in dst]
        return honest(ctx, src, dst)

    monkeypatch.setattr(families, "neg_q_misses", shifted)
    _assert_counterexample_is(capsys, message, "verify", "--level", "lemma", "--qmax", "60")


def test_lemma_level_refuses_a_context_where_q2_is_not_minus_one(capsys, monkeypatch):
    # the reflection identities compare -q*src with +-dst, which holds only
    # where q^2 = -1 (mod n); 8^2 + 1 = 65 is not 0 mod 31
    honest = families.FamilySpec.context
    monkeypatch.setattr(
        families.FamilySpec,
        "context",
        lambda spec: CycContext(31, 8) if spec.q.q == 8 else honest(spec),
    )
    message = "q^2 != -1 (mod n) at q=8, n=31"
    _assert_counterexample_is(capsys, message, "verify", "--level", "lemma", "--qmax", "60")


def _assert_violation_is(capsys, message, *argv):
    """Exit 1 with exactly this invariant violation, for the commands that
    print one line on failure."""
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (1, ""), err
    assert err == f"invariant violation: {message}\n"


# a longest run one too long is seen by the one-run check, which implies the
# Singleton bound and which the errata audit relies on for its two routes to
# k; the message names the faulty quantity, not only its consequence
def test_longest_run_off_by_one_is_caught(capsys, monkeypatch):
    honest = codes.longest_circular_run
    monkeypatch.setattr(codes, "longest_circular_run", lambda members, n: honest(members, n) + 1)
    message = (
        "defining set for q=23, m=2 must be one circular run (hence MDS): "
        "longest run 48, |Z| = 47"
    )
    for argv in (("code", "--q", "23", "--m", "2"), ("errata",)):
        _assert_violation_is(capsys, message, *argv)


def test_family_block_one_coset_too_long_is_caught(capsys, monkeypatch):
    honest = DefiningSet.from_runs

    def long_block(ctx, runs):
        # the family block is the one set built from a single run C_0 .. C_j
        if len(runs) == 1 and runs[0][0] == 0 and runs[0][3] == 1:
            (start, length, period, count), = runs
            runs = [(start, length + 1, period, count)]
        return honest(ctx, runs)

    monkeypatch.setattr(DefiningSet, "from_runs", staticmethod(long_block))
    message = "C_0..C_23 has 49 elements, not 2(m-1)q+1 = 47, at q=23, m=2"
    _assert_violation_is(capsys, message, "code", "--q", "23", "--m", "2")


# the repunit of a window family one period too wide: every run after the
# first moves by k, so the window sets no longer tile the block.  Only a
# family of two or more runs sees it, the first at q = 32, m = 3; the block
# is one run, so its size check cannot
@pytest.mark.parametrize("level", ["theorem", "lemma"])
def test_window_repunit_one_period_too_wide_is_caught(capsys, monkeypatch, level):
    honest = cosets._repunit
    monkeypatch.setattr(cosets, "_repunit", lambda period, count: honest(period + 1, count))
    message = (
        "windows at q=32, m=3: free part (48) and entangled part (83) "
        "do not partition the 129-element set"
    )
    _assert_counterexample_is(capsys, message, "verify", "--level", level, "--qmax", "60")


# q = 27 filed under the q = 3 (mod 10) shape: its anchors (q+2)/5 .. are
# not whole, which only the anchor check sees
def test_window_anchors_of_the_wrong_shape_are_caught(capsys, monkeypatch):
    honest = families.classify

    def misfiled(q):
        if q == 27:
            return families.FamilySpec("q10k3", PrimePower.from_int(27), 146, 2)
        return honest(q)

    monkeypatch.setattr(families, "classify", misfiled)
    message = "window anchors (29, 24, 58, 53, 82) at q=27 are not all divisible by 5"
    _assert_violation_is(capsys, message, "code", "--q", "27", "--m", "2")


def test_published_example_in_no_family_is_a_violation(capsys, monkeypatch):
    # the example field sizes are constants, so classify refusing one is a
    # fault of the audit (exit 1), not bad input (exit 2)
    honest = errata.classify

    def refusing(q):
        if q == 37:
            raise UsageError("q=37 refused")
        return honest(q)

    monkeypatch.setattr(errata, "classify", refusing)
    message = "published example q=37 is in no family: q=37 refused"
    _assert_violation_is(capsys, message, "errata")


# one -q pair of cosets, C_1 and its image C_23 at q = 23, moved from the
# entangled windows into the free ones: the partition and the invariance of
# the entangled part still hold, so on both levels only the free part's
# disjointness from its -q image sees it
@pytest.mark.parametrize("level", ["lemma", "theorem"])
def test_neg_q_pair_in_the_free_windows_is_caught(capsys, monkeypatch, level):
    free, entangled = families.free_window_set, families.entangled_window_set

    def pair(spec):
        c1 = from_cosets(spec.context(), [1])
        return c1.union(c1.neg_q())

    monkeypatch.setattr(families, "free_window_set", lambda s, m: free(s, m).union(pair(s)))
    monkeypatch.setattr(
        families, "entangled_window_set", lambda s, m: entangled(s, m).difference(pair(s))
    )
    message = "windows at q=23, m=2: free part meets its own -q image"
    _assert_counterexample_is(capsys, message, "verify", "--level", level, "--qmax", "60")


# the entangled windows alone one coset short: on both levels the window
# partition sees it
@pytest.mark.parametrize("level", ["theorem", "lemma"])
def test_entangled_windows_missing_a_coset_are_caught(capsys, monkeypatch, level):
    honest = families.entangled_window_set

    def short(spec, m):
        return honest(spec, m).difference(from_cosets(spec.context(), [0]))

    monkeypatch.setattr(families, "entangled_window_set", short)
    _assert_counterexample(capsys, "verify", "--level", level, "--qmax", "60")


def _shifted(anchors, index, delta):
    return tuple(a + delta * (k == index) for k, a in enumerate(anchors))


def _c1_pair(spec):
    c1 = from_cosets(spec.context(), [1])
    return c1.union(c1.neg_q())


# the window faults of the tests above, each as the functions of families
# it wraps: the -q pair C_1, C_q moved into the free windows, C_0 dropped
# from the entangled windows, and each anchor shifted by one
WINDOW_FAULTS = {
    "pair moved": [
        ("free_window_set", lambda f: lambda s, m: f(s, m).union(_c1_pair(s))),
        ("entangled_window_set", lambda f: lambda s, m: f(s, m).difference(_c1_pair(s))),
    ],
    "coset dropped": [
        (
            "entangled_window_set",
            lambda f: lambda s, m: f(s, m).difference(from_cosets(s.context(), [0])),
        )
    ],
    **{
        f"anchor {i} {d:+d}": [("_anchors", lambda f, i=i, d=d: lambda s: _shifted(f(s), i, d))]
        for i in range(5)
        for d in (1, -1)
    },
}


# the one-image check_split against the two-image reference under each
# window fault: the same exit code and the same counterexample line
@pytest.mark.parametrize("fault", sorted(WINDOW_FAULTS))
@pytest.mark.parametrize("level", ["theorem", "lemma"])
def test_window_faults_read_the_same_with_one_image_as_with_two(capsys, monkeypatch, level, fault):
    for name, wrap in WINDOW_FAULTS[fault]:
        monkeypatch.setattr(families, name, wrap(getattr(families, name)))
    argv = ("verify", "--level", level, "--qmax", "60")
    rc, _out, err = run_cli(capsys, *argv)
    monkeypatch.setattr(families, "check_split", coderef.check_split)
    rc_ref, _out, err_ref = run_cli(capsys, *argv)
    assert rc == rc_ref == 1
    assert err.splitlines()[-1] == err_ref.splitlines()[-1]


# a closed form one ebit high: the comparison with the first-principles
# parameters is the one check on the ebit formula
@pytest.mark.parametrize(
    "argv",
    [("verify", "--level", "theorem", "--qmax", "60"), ("code", "--q", "23", "--m", "2")],
    ids=["verify", "code"],
)
def test_closed_form_ebit_off_by_one_is_caught(capsys, monkeypatch, argv):
    honest = families.predicted_code

    def bumped(spec, m):
        p = honest(spec, m)
        return p._replace(c=p.c + 1)

    monkeypatch.setattr(families, "predicted_code", bumped)
    rc, _out, err = run_cli(capsys, *argv)
    assert rc == 1, err
    assert "closed form" in err


# -- input guards: rejected before any allocation --------------------------------

HUGE = str(10**20)


@pytest.mark.parametrize(
    "argv",
    [
        ("cosets", "--q", "1000000007"),
        ("cosets", "--q", "7", "--n", HUGE),
        ("code", "--q", "1000000007", "--m", "2"),
        ("enumerate", "--family", "q10k3", "--qmax", HUGE),
        ("errata", "--qmax", HUGE),
        ("verify", "--level", "coset", "--qmax", HUGE),
        ("verify", "--level", "theorem", "--qmax", "1001"),
        ("verify", "--level", "rank-oracle", "--qmax", HUGE, "--allow-large-oracle"),
        # within MAX_MODULUS, but F_(q^2) is above the bound on extension fields
        ("code", "--q", "997", "--m", "2", "--oracle", "--allow-large-oracle"),
        ("verify", "--level", "rank-oracle", "--qmax", "1000", "--allow-large-oracle"),
    ],
)
def test_out_of_budget_inputs_exit_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "out of budget" in err
    assert "Traceback" not in err


def test_budget_boundary_and_oracle_cap(capsys, monkeypatch):
    # n = (q^2+1)/5 is 200000 at q = 1000, the limit itself; the checks alone
    # are under test, so nothing of that size is built
    cli._check_budget("--qmax", 1000)
    with pytest.raises(ValueError, match="out of budget"):
        cli._check_budget("--qmax", 1001)
    # without --allow-large-oracle, rank-oracle caps qmax before the budget check
    seen = []
    monkeypatch.setattr(
        crosscheck, "verify_rank_oracle", lambda qmax: seen.append(qmax) or {"codes": 7}
    )
    rc, out, _ = run_cli(capsys, "verify", "--level", "rank-oracle", "--qmax", HUGE)
    assert rc == 0
    assert seen == [32]
    assert out == "verify level=rank-oracle qmax=32: PASS (7 codes)\n"
    # F_(q^2) for q = 181 still fits the bound on extension fields, q = 182 not
    cli._check_budget("--q", 181, oracle=True)
    with pytest.raises(ValueError, match="out of budget for the matrix oracle"):
        cli._check_budget("--q", 182, oracle=True)


def test_oracle_past_q_64_runs_on_tables(capsys):
    # F_(67^2) has order 4489; build_field gives it exp/log and Zech tables,
    # as every extension field within the bound, and the matrix route
    # confirms the code's ebit count on them
    f = build_field(67, 2)
    assert len(f._log) == f.order and len(f._zech) == f.order - 1
    rc, out, err = run_cli(capsys, *"code --q 67 --m 2 --oracle --allow-large-oracle".split())
    assert (rc, err) == (0, "")
    assert out == (
        "[[898,649,136;21]]_67\n"
        "family_id=q10k7 q=67 p=67 e=1 n=898 m=2 k=649 d=136 c=21\n"
        "singleton_equality=true distance_precondition_ok=true rank_oracle_checked=true\n"
        "errata_flags=\n"
        "eaqmds_status=eaqmds\n"
    )
