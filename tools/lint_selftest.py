#!/usr/bin/env python3
"""Self-test for tools/lint.py, run as a ctest (`lint_selftest`).

Drives the linter over the fixture corpus in tests/lint/fixtures/ — a
miniature repo layout (src/service/, src/cell/, src/placement/,
src/solver/, src/fault/, src/rebalance/, src/util/) fed through --fixture-root so the path-scoped rules
classify the files exactly like real code — and asserts:

  * every rule fires on its bad-fixture line, and nowhere else;
  * NOLINT-annotated lines and out-of-scope patterns stay silent;
  * findings come out sorted by (path, line, rule);
  * --disable removes exactly the disabled rule's findings;
  * --list-rules covers every rule the corpus exercises;
  * unknown --disable names are a usage error (exit 2);
  * the real repo scan is clean (exit 0) — the tree must never regress.
"""

from __future__ import annotations

import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
LINT = REPO / "tools" / "lint.py"
FIXTURES = REPO / "tests" / "lint" / "fixtures"

BAD_FILES = [
    FIXTURES / "src" / "service" / "bad_determinism.cpp",
    FIXTURES / "src" / "solver" / "bad_general.cpp",
    FIXTURES / "src" / "placement" / "bad_header.h",
    FIXTURES / "src" / "placement" / "bad_simd.cpp",
    FIXTURES / "src" / "placement" / "bad_dense_distance.cpp",
    FIXTURES / "src" / "placement" / "bad_replay_scope.cpp",
    FIXTURES / "src" / "service" / "bad_dense_allocation.cpp",
    FIXTURES / "src" / "cell" / "bad_layering.cpp",
]
GOOD_FILES = [
    FIXTURES / "src" / "service" / "good_determinism.cpp",
    FIXTURES / "src" / "util" / "ok_raw_mutex.cpp",
    FIXTURES / "src" / "solver" / "ok_dense_distance.cpp",
    FIXTURES / "src" / "fault" / "ok_dense_allocation.cpp",
    FIXTURES / "src" / "rebalance" / "ok_layering.cpp",
]

# (relative path, line, rule) for every finding the corpus must produce.
EXPECTED = [
    ("src/placement/bad_dense_distance.cpp", 9, "vcopt-dense-distance"),
    ("src/placement/bad_dense_distance.cpp", 10, "vcopt-dense-distance"),
    ("src/solver/bad_general.cpp", 16, "vcopt-raw-mutex"),
    ("src/solver/bad_general.cpp", 17, "vcopt-raw-mutex"),
    ("src/solver/bad_general.cpp", 18, "vcopt-raw-mutex"),
    ("src/solver/bad_general.cpp", 19, "vcopt-raw-mutex"),
    ("src/solver/bad_general.cpp", 20, "vcopt-raw-new"),
    ("src/solver/bad_general.cpp", 21, "vcopt-raw-new"),
    ("src/solver/bad_general.cpp", 22, "raw-rand"),
    ("src/solver/bad_general.cpp", 23, "iostream-logging"),
    ("src/solver/bad_general.cpp", 24, "iostream-logging"),
    ("src/placement/bad_header.h", 1, "pragma-once"),
    ("src/placement/bad_replay_scope.cpp", 11, "vcopt-wall-clock"),
    ("src/placement/bad_replay_scope.cpp", 12, "vcopt-unordered-in-replay"),
    ("src/placement/bad_header.h", 5, "using-in-header"),
    ("src/placement/bad_simd.cpp", 8, "vcopt-raw-simd"),
    ("src/placement/bad_simd.cpp", 9, "vcopt-raw-simd"),
    ("src/placement/bad_simd.cpp", 12, "vcopt-raw-simd"),
    ("src/placement/bad_simd.cpp", 13, "vcopt-raw-simd"),
    ("src/placement/bad_simd.cpp", 14, "vcopt-raw-simd"),
    ("src/service/bad_determinism.cpp", 15, "vcopt-unordered-in-replay"),
    ("src/service/bad_determinism.cpp", 16, "vcopt-unordered-in-replay"),
    ("src/service/bad_determinism.cpp", 17, "vcopt-wall-clock"),
    ("src/service/bad_determinism.cpp", 18, "vcopt-wall-clock"),
    ("src/service/bad_determinism.cpp", 19, "vcopt-wall-clock"),
    ("src/service/bad_determinism.cpp", 20, "vcopt-unseeded-rng"),
    ("src/service/bad_determinism.cpp", 21, "vcopt-unseeded-rng"),
    ("src/service/bad_determinism.cpp", 22, "vcopt-std-hash"),
    ("src/service/bad_dense_allocation.cpp", 9, "vcopt-dense-allocation"),
    ("src/service/bad_dense_allocation.cpp", 10, "vcopt-dense-allocation"),
    ("src/cell/bad_layering.cpp", 9, "vcopt-served-layering"),
    ("src/cell/bad_layering.cpp", 10, "vcopt-served-layering"),
    ("src/cell/bad_layering.cpp", 11, "vcopt-served-layering"),
    ("src/cell/bad_layering.cpp", 12, "vcopt-served-layering"),
    ("src/cell/bad_layering.cpp", 13, "vcopt-served-layering"),
]

FINDING_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[^\]]+)\]")

failures: list[str] = []


def check(cond: bool, what: str) -> None:
    if not cond:
        failures.append(what)
        print(f"FAIL: {what}", file=sys.stderr)


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINT), *args],
        capture_output=True, text=True, check=False)


def parse(stdout: str) -> list[tuple[str, int, str]]:
    out = []
    for line in stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            out.append((m.group("path"), int(m.group("line")),
                        m.group("rule")))
    return out


def main() -> int:
    fixture_args = ["--fixture-root", str(FIXTURES)]
    all_files = [str(p) for p in BAD_FILES + GOOD_FILES]

    # 1. Full corpus: exact findings, already sorted.
    r = run(*fixture_args, *all_files)
    got = parse(r.stdout)
    check(r.returncode == 1, f"corpus scan exit code {r.returncode}, want 1")
    check(got == sorted(EXPECTED),
          "corpus findings mismatch:\n  got:  %r\n  want: %r"
          % (got, sorted(EXPECTED)))
    check(got == sorted(got), "findings not sorted by (path, line, rule)")

    # 2. Good fixtures alone are clean.
    r = run(*fixture_args, *[str(p) for p in GOOD_FILES])
    check(r.returncode == 0,
          f"good fixtures not clean (exit {r.returncode}):\n{r.stdout}")

    # 3. --disable removes exactly that rule's findings.
    r = run(*fixture_args, "--disable", "vcopt-wall-clock", *all_files)
    got = parse(r.stdout)
    want = sorted(e for e in EXPECTED if e[2] != "vcopt-wall-clock")
    check(got == want, "--disable vcopt-wall-clock mismatch:\n  got: %r" % got)

    # 4. --list-rules names every rule the corpus exercises.
    r = run("--list-rules")
    check(r.returncode == 0, f"--list-rules exit {r.returncode}")
    listed = {line.split()[0] for line in r.stdout.splitlines() if line}
    exercised = {rule for _, _, rule in EXPECTED}
    missing = exercised - listed
    check(not missing, f"--list-rules missing: {sorted(missing)}")

    # 5. Unknown rule names are a usage error.
    r = run("--disable", "no-such-rule", *all_files)
    check(r.returncode == 2,
          f"unknown --disable exit {r.returncode}, want 2")

    # 6. The repo itself stays lint-clean (fixtures are excluded by default).
    r = run()
    check(r.returncode == 0,
          f"repo scan not clean (exit {r.returncode}):\n{r.stdout}")

    if failures:
        print(f"\nlint_selftest: {len(failures)} check(s) failed.",
              file=sys.stderr)
        return 1
    print("lint_selftest: all checks passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
