"""Mutation survey of the package's checks: can each one fail a test?

Every `raise VerificationError(...)` in src/eaqmds is found by AST and, one
at a time, replaced by `pass` in a temporary copy of the repository (src/,
tests/, pyproject.toml and perfbench/golden.json, which the golden tests
read).  Tier-1 then runs there with -x.  A site whose mutant fails a test
is killed; one whose mutant passes every test is a survivor, a check that
no test shows can fail.  One JSON line is printed per site:

    {"file": "codes.py", "line": 9, "killed": true, "first_failure": "tests.test_x::test_y"}

and a summary line on stderr, such as "19 sites, 0 survivors".  The exit
status is 1 if any site survives (or the unmutated tests fail), else 0.
Run it from the repository root:

    python tests/mutate_checks.py

Expect about 5 s per killed site and about 25 s per survivor.  The name
does not match test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "eaqmds"
COPIED = ("src", "tests", "pyproject.toml", "perfbench/golden.json")


def check_sites(source: str) -> list[ast.Raise]:
    """The `raise VerificationError(...)` statements of one module."""
    return sorted(
        (
            node
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)
            and node.exc.func.id == "VerificationError"
        ),
        key=lambda node: node.lineno,
    )


def mutate(source: str, site: ast.Raise) -> str:
    """The source with the raise statement replaced by `pass`; the lines it
    spanned stay, blank, so every other line keeps its number."""
    lines = source.splitlines(keepends=True)
    first, last = site.lineno - 1, site.end_lineno - 1
    head = lines[first][: site.col_offset]
    tail = lines[last][site.end_col_offset :]
    stub = head + "pass" + "\n" * (last - first) + tail
    return "".join(lines[:first] + [stub] + lines[last + 1 :])


def run_tier1(copy: Path) -> tuple[bool, str | None]:
    """Run the copy's tests, stopping at the first failure: (passed, the
    first failing test, read from the JUnit report)."""
    for cache in copy.rglob("__pycache__"):
        shutil.rmtree(cache)
    report = copy / "report.xml"
    report.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    proc = subprocess.run([*argv, "--junitxml", report], cwd=copy, env=env, capture_output=True)
    cases = ET.parse(report).iter("testcase") if report.exists() else ()
    failed = next(
        (
            f"{case.get('classname')}::{case.get('name')}"
            for case in cases
            if case.find("failure") is not None or case.find("error") is not None
        ),
        None,
    )
    return proc.returncode == 0, failed


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutate_checks_") as tmp:
        copy = Path(tmp)
        for rel in COPIED:
            src, dst = ROOT / rel, copy / rel
            dst.parent.mkdir(parents=True, exist_ok=True)
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, dst)
        passed, failure = run_tier1(copy)
        if not passed:
            print(f"unmutated tests fail ({failure}); no survey made", file=sys.stderr)
            return 1
        sites = survivors = 0
        for path in sorted((copy / PACKAGE).glob("*.py")):
            source = path.read_text()
            for site in check_sites(source):
                path.write_text(mutate(source, site))
                try:
                    passed, failure = run_tier1(copy)
                finally:
                    path.write_text(source)
                record = {
                    "file": path.name,
                    "line": site.lineno,
                    "killed": not passed,
                    "first_failure": failure,
                }
                print(json.dumps(record), flush=True)
                sites += 1
                survivors += passed
    print(f"{sites} sites, {survivors} survivors", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
