#!/usr/bin/env python3
"""Benchmark of the eaqmds command-line verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-golden

``--trace 0`` runs the workload's CLI invocations in fresh child
processes, one at a time, pass after pass for about S seconds, and reports
the end-to-end metrics listed in BENCHMARK.json.  ``--trace 1`` runs one
untraced pass, then the same invocations inside this process with every
layer wrapped (see tracer.py), and reports the per-layer metrics.

Every invocation's exit code and stdout sha256 must match
perfbench/golden.json, recorded from the unchanged program.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; the exit code is 0 only when every output matched.  ``--smoke``
runs the same workload at tiny sizes.

The workloads are exhaustive and deterministic: ``--seed`` is echoed in
the output but changes no input.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import calib

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
GOLDEN = BENCH_DIR / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
OUT = BENCH_DIR / "out"

SETUP_PROBES = 9  # import-only children per run, for the median set-up time
MIN_PASSES = 2  # even when one pass alone outlasts --seconds
CAL_REFERENCE_NS = 800_000  # calib.loop_ns() at the reference host speed


@dataclass(frozen=True)
class Workload:
    full: tuple[tuple[str, ...], ...]
    smoke: tuple[tuple[str, ...], ...]


WORKLOADS = {
    "theorem_sweep": Workload(
        full=(("verify", "--level", "theorem", "--qmax", "200"),),
        smoke=(("verify", "--level", "theorem", "--qmax", "60"),),
    ),
    "structure_sweep": Workload(
        full=(
            ("verify", "--level", "coset", "--qmax", "300"),
            ("verify", "--level", "lemma", "--qmax", "300"),
        ),
        smoke=(
            ("verify", "--level", "coset", "--qmax", "60"),
            ("verify", "--level", "lemma", "--qmax", "60"),
        ),
    ),
    "rank_oracle": Workload(
        full=(("verify", "--level", "rank-oracle", "--qmax", "32"),),
        smoke=(("verify", "--level", "rank-oracle", "--qmax", "7"),),
    ),
    "oracle_q43": Workload(
        full=(("code", "--q", "43", "--m", "3", "--oracle", "--allow-large-oracle"),),
        smoke=(("code", "--q", "23", "--m", "2", "--oracle"),),
    ),
}

# the counts in a verify PASS line that are work items; `code` verifies one code
_ITEMS = re.compile(rb"(\d+) (?:cosets|identity checks|window sets|\(q, m\) points|codes)\b")


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a wrong output)."""


@dataclass(frozen=True)
class Child:
    argv: tuple[str, ...]
    wall_ns: float  # spawn to exit
    setup_ns: float  # spawn to `import eaqmds.cli` returned
    rss_kb: int  # this child's own peak RSS
    exit_code: int
    stdout: bytes
    speed_ns: tuple[int, ...]  # calib.loop_ns() samples taken inside the child


def spawn(argv: tuple[str, ...]) -> Child:
    """Run child.py with ``argv`` and wait for it; stdout is captured."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_r, out_w = os.pipe()
    info_r, info_w = os.pipe()
    try:
        t0 = time.monotonic_ns()
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, str(CHILD), *argv],
            env,
            file_actions=[(os.POSIX_SPAWN_DUP2, out_w, 1), (os.POSIX_SPAWN_DUP2, info_w, 3)],
        )
    finally:
        os.close(out_w)
        os.close(info_w)
    with open(out_r, "rb") as f:
        stdout = f.read()
    with open(info_r, "rb") as f:
        info = [line.split() for line in f.read().splitlines()]
    _, status, usage = os.wait4(pid, 0)
    t1 = time.monotonic_ns()
    if len(info) != 2 or len(info[0]) != 2:
        raise BenchError(f"child {' '.join(argv) or '(probe)'} did not import eaqmds.cli")
    (imported_ns, module_file), samples = info
    if not Path(module_file.decode()).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"eaqmds.cli was imported from {module_file.decode()}, not from {SRC}")
    return Child(
        argv=argv,
        wall_ns=t1 - t0,
        setup_ns=int(imported_ns) - t0,
        rss_kb=usage.ru_maxrss,
        exit_code=os.waitstatus_to_exitcode(status),
        stdout=stdout,
        speed_ns=tuple(map(int, samples)),
    )


def golden_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def matches_golden(argv: tuple[str, ...], exit_code: int, stdout: bytes, golden: dict) -> bool:
    want = golden.get(golden_key(argv))
    ok = (
        want is not None
        and exit_code == want["exit"]
        and hashlib.sha256(stdout).hexdigest() == want["sha256"]
    )
    if not ok:
        print(f"perfbench: output of `{golden_key(argv)}` differs from the golden "
              f"(exit {exit_code})", file=sys.stderr)
    return ok


def work_items(argv: tuple[str, ...], stdout: bytes) -> int:
    if argv[0] == "code":
        return 1
    return sum(int(n) for n in _ITEMS.findall(stdout))


def calibrate() -> float:
    """The host's current speed: median of 15 calibration loops (~12 ms)."""
    return statistics.median(calib.loop_ns() for _ in range(15))


class ScaledSpawner:
    """Spawns children and scales their times to the reference host speed.

    On a shared host the speed of one CPU drifts by up to 2x, for tens of
    seconds at a time.  The calibration loop measures that speed: timed
    here on the same (pinned) CPU just before and just after each child,
    and inside the child every calib.SAMPLE_INTERVAL_S.  The child's times
    are multiplied by CAL_REFERENCE_NS / (mean of all those samples).
    """

    def __init__(self) -> None:
        self.last = calibrate()
        self.factors: list[float] = []

    def __call__(self, argv: tuple[str, ...]) -> Child:
        child = spawn(argv)
        before, self.last = self.last, calibrate()
        samples = (before, self.last, *child.speed_ns)
        factor = CAL_REFERENCE_NS * len(samples) / sum(samples)
        self.factors.append(factor)
        return replace(child, wall_ns=child.wall_ns * factor, setup_ns=child.setup_ns * factor)


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so the calibration
    loop measures the CPU the children run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_untraced(invocations, seconds: float, golden: dict) -> tuple[dict, int, int, str]:
    """Passes over the invocations in child processes, at least
    MIN_PASSES and then as many as are predicted to end within ``seconds``;
    the end-to-end metrics, in seconds at the reference host speed."""
    spawn(())  # warm-up, not timed: writes bytecode, fills the file cache
    deadline = time.monotonic_ns() + int(seconds * 1e9)
    scaled = ScaledSpawner()
    setups = [scaled(()).setup_ns for _ in range(SETUP_PROBES)]
    passes: list[list[Child]] = []
    durations: list[int] = []
    while len(passes) < MIN_PASSES or time.monotonic_ns() + statistics.median(durations) <= deadline:
        p0 = time.monotonic_ns()
        passes.append([scaled(argv) for argv in invocations])
        durations.append(time.monotonic_ns() - p0)
    children = [c for p in passes for c in p]
    failed = sum(not matches_golden(c.argv, c.exit_code, c.stdout, golden) for c in children)
    setups += [c.setup_ns for c in children]
    walls = [sum(c.wall_ns for c in p) for p in passes]
    rates = [
        sum(work_items(c.argv, c.stdout) for c in p) / ((w - sum(c.setup_ns for c in p)) / 1e9)
        for p, w in zip(passes, walls)
    ]
    metrics = {
        "wall_s": (statistics.median(walls) / 1e9, "s"),
        "setup_s": (statistics.median(setups) / 1e9, "s"),
        "items_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (statistics.median(max(c.rss_kb for c in p) for p in passes) / 1024, "MB"),
        "pass_rate": ((len(children) - failed) / len(children), "ratio"),
    }
    info = (f"passes={len(passes)} raw_pass_s={statistics.median(durations) / 1e9:.3f} "
            f"speed_factor={statistics.median(scaled.factors):.3f}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, len(children), failed, info


def run_traced(invocations, golden: dict, out_file: Path) -> tuple[dict, int, int]:
    """One untraced pass in children, then one traced pass in this process."""
    import tracer

    spawn(())  # warm-up, as in the untraced run
    untraced = [ScaledSpawner()(argv) for argv in invocations]
    failed = sum(not matches_golden(c.argv, c.exit_code, c.stdout, golden) for c in untraced)
    untraced_cli_ns = sum(c.wall_ns - c.setup_ns for c in untraced)

    pkg = tracer.import_package(str(SRC))
    tr = tracer.Tracer(pkg)
    cli = sys.modules[f"{pkg.__name__}.cli"]
    before = calibrate()
    traced_ns = 0
    for i, argv in enumerate(invocations):
        tr.invocation = i
        buf = io.StringIO()
        t0 = time.perf_counter_ns()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        traced_ns += time.perf_counter_ns() - t0
        failed += not matches_golden(argv, code, buf.getvalue().encode(), golden)

    if tr.self_time_ns() > traced_ns:
        raise BenchError(
            f"wrapped self times sum to {tr.self_time_ns()} ns, more than the traced "
            f"wall time {traced_ns} ns"
        )
    scaled_traced_ns = traced_ns * 2 * CAL_REFERENCE_NS / (before + calibrate())
    metrics = tr.metrics(SRC / "eaqmds", traced_ns, scaled_traced_ns - untraced_cli_ns)
    out_file.parent.mkdir(parents=True, exist_ok=True)
    out_file.write_text(json.dumps({
        "invocations": [golden_key(a) for a in invocations],
        "span_fields": ["id", "parent", "invocation", "name", "start_ns", "end_ns"],
        "spans": tr.spans,
        "metrics": metrics,
    }))
    return metrics, 2 * len(invocations), failed


def expected_metrics(trace: int) -> dict[str, str]:
    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC}: {exc}") from exc
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def load_golden(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read the golden outputs {path}: {exc}") from exc


def run_workload(args) -> int:
    if not (SRC / "eaqmds" / "cli.py").is_file():
        raise BenchError(f"no eaqmds sources at {SRC}; run from a checkout of the repository")
    workload = WORKLOADS[args.workload]
    invocations = workload.smoke if args.smoke else workload.full
    golden = load_golden(GOLDEN)
    expected = expected_metrics(args.trace)
    info = "passes=1"
    pin_to_one_cpu()
    if args.trace:
        out_file = OUT / f"trace_{args.workload}_seed{args.seed}{'_smoke' if args.smoke else ''}.json"
        metrics, attempted, failed = run_traced(invocations, golden, out_file)
    else:
        metrics, attempted, failed, info = run_untraced(invocations, args.seconds, golden)
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        raise BenchError(f"metrics differ from {SPEC.name}: "
                         f"missing {sorted(expected.keys() - got.keys())}, "
                         f"extra {sorted(got.keys() - expected.keys())}, "
                         f"units {sorted(n for n in got if n in expected and got[n] != expected[n])}")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"smoke={int(args.smoke)} {info} nproc={os.cpu_count()} "
          f"python={platform.python_version()}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def record_golden() -> int:
    """Write the exit code and stdout sha256 of every invocation."""
    spawn(())
    golden = {}
    for workload in WORKLOADS.values():
        for argv in workload.full + workload.smoke:
            c = spawn(argv)
            golden[golden_key(argv)] = {
                "exit": c.exit_code,
                "sha256": hashlib.sha256(c.stdout).hexdigest(),
            }
            print(f"{golden_key(argv)}: exit {c.exit_code}, {c.wall_ns / 1e9:.2f} s")
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------


def _bench(extra: list[str], cwd: Path = ROOT) -> tuple[int, dict | None]:
    """Run this script; (exit code, parsed last stdout line or None)."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return proc.returncode, None


def _copy_checkout(dest: Path, with_src: bool) -> Path:
    """Copy BENCHMARK.json and this directory, and optionally src/, to ``dest``."""
    shutil.rmtree(dest, ignore_errors=True)
    skip = shutil.ignore_patterns(OUT.name, "__pycache__")
    shutil.copytree(BENCH_DIR, dest / BENCH_DIR.name, ignore=skip)
    shutil.copy(SPEC, dest / SPEC.name)
    if with_src:
        shutil.copytree(SRC, dest / SRC.name, ignore=skip)
    return dest


def _check(cond: bool, what: str, problems: list[str]) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        problems.append(what)


def self_test() -> int:
    """Smoke runs of every workload and trace mode, plus the runs that
    must fail: a copy of the checkout whose golden has one digit changed,
    and one that holds only BENCHMARK.json and perfbench/."""
    problems: list[str] = []
    for name in WORKLOADS:
        counts = []
        for trace in (0, 1, 1):
            code, res = _bench(["--smoke", "--workload", name, "--seed", "7",
                                "--seconds", "1", "--trace", str(trace)])
            expected = expected_metrics(trace)
            _check(
                code == 0 and res is not None
                and set(res) == {"correct", "attempted", "failed", "metrics"}
                and res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
                and {k: m["unit"] for k, m in res["metrics"].items()} == expected
                and all(type(m["value"]) in (int, float) for m in res["metrics"].values()),
                f"{name} trace={trace}: every named metric printed with its unit",
                problems,
            )
            if trace and res is not None:
                counts.append({k: m["value"] for k, m in res["metrics"].items()
                               if m["unit"] in ("count", "lines")})
        _check(len(counts) == 2 and counts[0] == counts[1],
               f"{name}: counts repeat exactly across two traced runs", problems)

    corrupt = _copy_checkout(OUT / "corrupt", with_src=True)
    golden_path = corrupt / BENCH_DIR.name / GOLDEN.name
    golden = load_golden(golden_path)
    for entry in golden.values():
        entry["sha256"] = entry["sha256"][:-1] + ("0" if entry["sha256"][-1] != "0" else "1")
    golden_path.write_text(json.dumps(golden))
    for trace in ("0", "1"):
        code, res = _bench(["--smoke", "--workload", "theorem_sweep", "--seed", "7",
                            "--seconds", "1", "--trace", trace], cwd=corrupt)
        _check(code != 0 and res is not None and res["correct"] is False
               and res["failed"] == res["attempted"],
               f"trace={trace}: a golden with one digit changed fails the run", problems)
    shutil.rmtree(corrupt)

    bare = _copy_checkout(OUT / "bare", with_src=False)
    code, res = _bench(["--workload", "theorem_sweep", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    _check(code != 0 and res is None, "without src/ the run fails and prints no result", problems)

    print(f"self-test: {'PASS' if not problems else 'FAIL (' + '; '.join(problems) + ')'}")
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="recorded; changes no input")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes of the workload")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.record_golden:
            return record_golden()
        if args.workload is None:
            parser.error("--workload is required")
        return run_workload(args)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
