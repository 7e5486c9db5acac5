#!/usr/bin/env python3
"""Project-specific lint checks that clang-tidy does not cover.

General rules (scoped to src/, tests/, bench/, examples/, tools/ sources):

  pragma-once        every header starts with `#pragma once` (leading
                     comments/blank lines allowed before it).
  using-in-header    no `using namespace` at namespace scope in headers —
                     it leaks into every includer.
  raw-rand           no `rand()` / `srand()`; use util::Rng so experiments
                     stay seed-reproducible.
  vcopt-raw-new      no raw `new` / `delete`; use containers or smart
                     pointers.  Suppress intentional sites (leaky
                     singletons, private ctors) with
                     `// NOLINT(vcopt-raw-new)`.
  iostream-logging   no `std::cout` / `std::cerr` / `printf` to the
                     terminal from library code under src/; route through
                     util/logging.h.  The logger backend itself and CLI
                     binaries (src/exp/, bench/, tools/) are exempt.

No-intrinsics rule (all scanned sources):

  vcopt-raw-simd     no raw SIMD anywhere — vendor intrinsics (`_mm_*`,
                     `__m128`, NEON `v*q_*` calls and `int32x4_t`-style
                     vector types) or their headers (`*mmintrin.h`,
                     `arm_neon.h`).  The placement kernels are plain scalar
                     loops; a hand-written vector kernel comes back only
                     with a change that shows a measured served-path win
                     (docs/performance.md).

Distance rule (src/ outside src/solver/ and src/cluster/topology.*):

  vcopt-dense-distance
                     no `.distance_matrix(` / `->distance_matrix(`: distance
                     is a function of the topology (Topology::distance,
                     Allocation::best_central(const Topology&)), and the
                     dense n x n D — 80 GB at 100k nodes — is built only to
                     feed the exact solvers.  Such a feed carries
                     `// NOLINT(vcopt-dense-distance)` and says why.

Allocation rule (src/service/, src/cell/, src/cluster/ and src/placement/,
the served path):

  vcopt-dense-allocation
                     no `.to_matrix(` / `->to_matrix(`: an Allocation is
                     its sorted (node, type, count) entries, and grant,
                     release and window debits cost O(k) in them; the dense
                     n x m view costs O(n·m) — 1.2 MB per lease at 100k
                     nodes.  The checked-build validators, which take
                     matrices, are the expected exception: such a line
                     carries `// NOLINT(vcopt-dense-allocation)` and says
                     why.

Layering rule (src/service/, src/cell/, src/placement/ and src/cluster/,
the served layers):

  vcopt-served-layering
                     no `#include` of a rebalance/, fault/, sim/,
                     mapreduce/ or dataflow/ header: the served library
                     (vcopt_service and what it links) does not link the
                     simulators, which sit above it and use it.

Lock-discipline rule (src/ outside src/util/):

  vcopt-raw-mutex    no raw std::mutex / std::lock_guard / std::unique_lock
                     / std::scoped_lock / std::condition_variable; use the
                     annotated util::Mutex / util::MutexLock / util::CondVar
                     wrappers (src/util/mutex.h) so Clang's thread-safety
                     analysis sees every lock.

Replay-determinism rules (src/service/, src/fault/, src/sim/,
src/rebalance/, src/cell/, src/placement/ and src/cluster/ only — the code
whose outputs must replay byte-identically, the planner that decides every
grant included; see docs/correctness.md):

  vcopt-unordered-in-replay
                     no std::unordered_map / std::unordered_set: hash-bucket
                     iteration order is unspecified and can leak into the
                     journal, grant stream or simulator output.  Lookup-only
                     containers are fine — annotate them with
                     `// NOLINT(vcopt-unordered-in-replay)` and say why.
  vcopt-wall-clock   no wall/monotonic clock reads (system_clock::now,
                     steady_clock::now, time(), clock(), gettimeofday):
                     replay-critical decisions must run on the virtual
                     service/sim clock.  Metric and trace timestamp
                     reads get a justified NOLINT.
  vcopt-unseeded-rng no std::random_device / default-constructed standard
                     engines / default_random_engine: every random stream
                     must come from an explicit seed (util::Rng) or replay
                     diverges run to run.
  vcopt-std-hash     no std::hash usage: hash values are implementation-
                     defined, so any ordering or bucketing derived from
                     them is not reproducible across standard libraries.

A line containing `NOLINT` (optionally with a rule list in parentheses)
suppresses findings on that line, matching clang-tidy conventions.

Findings are emitted sorted by (path, line, rule) so output is stable
across filesystems and scan orders.  `--list-rules` prints the rule table;
`--disable RULE` (repeatable) switches individual rules off.

Exit status: 0 when clean, 1 when any finding is emitted, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

HEADER_SUFFIXES = {".h", ".hpp"}
SOURCE_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}
SCAN_DIRS = ("src", "tests", "bench", "examples", "tools")

# Directories whose fixture files intentionally violate rules (the lint
# self-test feeds them explicitly); skipped by the default repo scan.
FIXTURE_DIRS = ("tests/lint/fixtures", "tests/check/compile_fail")

# Replay-critical code: everything here must be deterministic given the
# journal / seed (docs/service.md, docs/correctness.md).
REPLAY_DIRS = ("src/service/", "src/fault/", "src/sim/", "src/rebalance/",
               "src/cell/", "src/placement/", "src/cluster/")

# The served layers, which may include no simulator header
# (RE_SIMULATOR_INCLUDE).
SERVED_LAYER_DIRS = ("src/service/", "src/cell/", "src/placement/",
                     "src/cluster/")

# Files allowed to talk to the terminal directly: the logging backend is
# the single choke point all other src/ code must route through.
IOSTREAM_ALLOWLIST = {
    "src/util/logging.cpp",
    "src/util/logging.h",
}

# The one place raw std synchronisation types are allowed: the annotated
# wrappers themselves.
RAW_MUTEX_ALLOWLIST_PREFIX = "src/util/"

# Where the dense distance matrix may be built: the solvers that take an
# arbitrary metric, and the topology that defines it.
DENSE_DISTANCE_ALLOWLIST_PREFIXES = ("src/solver/", "src/cluster/topology.")

# The served path, where an allocation stays sparse.
SPARSE_ALLOCATION_DIRS = ("src/service/", "src/cell/", "src/cluster/",
                          "src/placement/")

RULES: dict[str, str] = {
    "pragma-once": "headers must start with #pragma once",
    "using-in-header": "no `using namespace` at namespace scope in headers",
    "raw-rand": "no rand()/srand(); use util::Rng",
    "vcopt-raw-new": "no raw new/delete; use smart pointers or containers",
    "iostream-logging": "src/ library code logs via util/logging.h",
    "vcopt-raw-mutex":
        "src/ outside util/ uses util::Mutex wrappers, not std::mutex",
    "vcopt-raw-simd": "no raw SIMD intrinsics; placement kernels are scalar",
    "vcopt-dense-distance":
        "src/ outside solver/ uses Topology::distance, not a dense D",
    "vcopt-dense-allocation":
        "the served path reads Allocation::entries(), not to_matrix()",
    "vcopt-served-layering":
        "the served layers include no simulator header",
    "vcopt-unordered-in-replay":
        "no unordered containers in replay-critical code",
    "vcopt-wall-clock":
        "no wall-clock reads in replay-critical code",
    "vcopt-unseeded-rng":
        "no unseeded randomness in replay-critical code",
    "vcopt-std-hash":
        "no std::hash-derived ordering in replay-critical code",
}

RE_PRAGMA_ONCE = re.compile(r"^\s*#\s*pragma\s+once\b")
RE_COMMENT_OR_BLANK = re.compile(r"^\s*(//.*|/\*.*|\*.*|\s*)$")
RE_USING_NAMESPACE = re.compile(r"^\s*using\s+namespace\b")
RE_RAW_RAND = re.compile(r"(?<![\w:])s?rand\s*\(")
RE_RAW_NEW = re.compile(r"(?<![\w:])new\s+[A-Za-z_:<]")
RE_RAW_DELETE = re.compile(r"(?<![\w:])delete(\s*\[\s*\])?\s+[A-Za-z_]")
RE_IOSTREAM = re.compile(r"std\s*::\s*(cout|cerr)\b|(?<![\w:])f?printf\s*\(")
RE_RAW_MUTEX = re.compile(
    r"std\s*::\s*(recursive_|timed_|recursive_timed_|shared_)?mutex\b"
    r"|std\s*::\s*(lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|std\s*::\s*condition_variable(_any)?\b")
RE_SIMD = re.compile(
    # x86 intrinsic calls and vector types (SSE/AVX/AVX-512).
    r"(?<![\w:])_mm(?:256|512)?_[a-z0-9_]+\s*\("
    r"|\b__m(?:64|128|256|512)[di]?\b"
    # NEON intrinsic calls (vminq_s32, vld1q_f64, vgetq_lane_f64, ...) and
    # vector types (int32x4_t, float64x2_t, ...).
    r"|(?<![\w:])v\w+_[suf](?:8|16|32|64)\s*\("
    r"|\b(?:u?int(?:8|16|32|64)x(?:2|4|8|16)(?:x[2-4])?_t"
    r"|float(?:16|32|64)x(?:2|4|8)_t)\b"
    # The headers that provide them.
    r"|#\s*include\s*<(?:[a-z]*mmintrin|arm_neon|arm_sve|arm_acle)\.h>")
RE_DENSE_DISTANCE = re.compile(r"(?:\.|->)\s*distance_matrix\s*\(")
RE_DENSE_ALLOCATION = re.compile(r"(?:\.|->)\s*to_matrix\s*\(")
RE_SIMULATOR_INCLUDE = re.compile(
    r'^\s*#\s*include\s*"(?:rebalance|fault|sim|mapreduce|dataflow)/')
RE_UNORDERED = re.compile(r"std\s*::\s*unordered_(map|set|multimap|multiset)\b")
RE_WALL_CLOCK = re.compile(
    r"\b(system_clock|steady_clock|high_resolution_clock)\s*::\s*now\b"
    r"|(?<![\w:])time\s*\(\s*(nullptr|NULL|0)?\s*\)"
    r"|(?<![\w:])clock\s*\(\s*\)"
    r"|\bgettimeofday\s*\(")
RE_UNSEEDED_RNG = re.compile(
    r"std\s*::\s*random_device\b"
    r"|std\s*::\s*default_random_engine\b"
    # Default-constructed standard engines: temporaries (mt19937{}) and
    # declarations without a seed argument (mt19937 gen; / mt19937 gen{}).
    r"|std\s*::\s*(mt19937(_64)?|minstd_rand0?|ranlux24|ranlux48|knuth_b)\b"
    r"\s*(\w+\s*)?(;|\(\s*\)|\{\s*\})")
RE_STD_HASH = re.compile(r"std\s*::\s*hash\s*<")
RE_NOLINT = re.compile(r"//.*\bNOLINT(?:\(([^)]*)\))?")
RE_LINE_COMMENT = re.compile(r"//.*$")
RE_STRING = re.compile(r'"(\\.|[^"\\])*"')


def suppressed(line: str, rule: str) -> bool:
    m = RE_NOLINT.search(line)
    if not m:
        return False
    rules = m.group(1)
    return rules is None or rule in {r.strip() for r in rules.split(",")}


def code_only(line: str) -> str:
    """Strip string literals then line comments so patterns inside either
    do not trip the checks."""
    return RE_LINE_COMMENT.sub("", RE_STRING.sub('""', line))


class Linter:
    def __init__(self, disabled: set[str] | None = None,
                 root: pathlib.Path = REPO) -> None:
        # (relpath, lineno, rule, message) — sorted before printing.
        self.findings: list[tuple[str, int, str, str]] = []
        self.disabled = disabled or set()
        # Paths are classified (src/, replay dirs, ...) relative to this
        # root; the self-test points it at a fixture tree mirroring the
        # repo layout (tools/lint_selftest.py).
        self.root = root

    def report(self, path: pathlib.Path, lineno: int, rule: str,
               msg: str) -> None:
        if rule in self.disabled:
            return
        rel = str(path.relative_to(self.root)).replace("\\", "/")
        self.findings.append((rel, lineno, rule, msg))

    def sorted_findings(self) -> list[str]:
        return [f"{rel}:{lineno}: [{rule}] {msg}"
                for rel, lineno, rule, msg in sorted(self.findings)]

    def check_file(self, path: pathlib.Path) -> None:
        rel = str(path.relative_to(self.root)).replace("\\", "/")
        text = path.read_text(encoding="utf-8", errors="replace")
        lines = text.splitlines()
        is_header = path.suffix in HEADER_SUFFIXES
        in_src = rel.startswith("src/")
        in_replay = rel.startswith(REPLAY_DIRS)
        mutex_scoped = in_src and not rel.startswith(
            RAW_MUTEX_ALLOWLIST_PREFIX)
        dense_scoped = in_src and not rel.startswith(
            DENSE_DISTANCE_ALLOWLIST_PREFIXES)
        sparse_scoped = rel.startswith(SPARSE_ALLOCATION_DIRS)
        served_layer = rel.startswith(SERVED_LAYER_DIRS)
        exempt_io = (rel in IOSTREAM_ALLOWLIST or not in_src
                     or rel.startswith("src/exp/"))

        if is_header:
            self.check_pragma_once(path, lines)

        in_block_comment = False
        for lineno, raw in enumerate(lines, start=1):
            line = raw
            if in_block_comment:
                end = line.find("*/")
                if end < 0:
                    continue
                line = line[end + 2:]
                in_block_comment = False
            code = code_only(line)
            if "/*" in code and "*/" not in code[code.index("/*"):]:
                in_block_comment = True
                code = code[: code.index("/*")]

            if is_header and RE_USING_NAMESPACE.search(code) and not suppressed(
                    raw, "using-in-header"):
                self.report(path, lineno, "using-in-header",
                            "`using namespace` in a header leaks into every "
                            "includer; qualify names or alias instead")
            if RE_RAW_RAND.search(code) and not suppressed(raw, "raw-rand"):
                self.report(path, lineno, "raw-rand",
                            "rand()/srand() breaks seeded reproducibility; "
                            "use util::Rng")
            if in_src and (RE_RAW_NEW.search(code)
                           or RE_RAW_DELETE.search(code)) and not suppressed(
                               raw, "vcopt-raw-new"):
                self.report(path, lineno, "vcopt-raw-new",
                            "raw new/delete; use std::make_unique or a "
                            "container (NOLINT(vcopt-raw-new) for "
                            "intentional leaks)")
            if not exempt_io and RE_IOSTREAM.search(code) and not suppressed(
                    raw, "iostream-logging"):
                self.report(path, lineno, "iostream-logging",
                            "library code must log via util/logging.h, not "
                            "write to the terminal directly")
            if mutex_scoped and RE_RAW_MUTEX.search(code) and not suppressed(
                    raw, "vcopt-raw-mutex"):
                self.report(path, lineno, "vcopt-raw-mutex",
                            "raw std synchronisation type; use util::Mutex/"
                            "MutexLock/CondVar (src/util/mutex.h) so the "
                            "thread-safety analysis sees the lock")
            if dense_scoped and RE_DENSE_DISTANCE.search(
                    code) and not suppressed(raw, "vcopt-dense-distance"):
                self.report(path, lineno, "vcopt-dense-distance",
                            "dense n x n distance matrix outside src/solver/; "
                            "use Topology::distance (a solver feed gets "
                            "NOLINT(vcopt-dense-distance) with its reason)")
            if sparse_scoped and RE_DENSE_ALLOCATION.search(
                    code) and not suppressed(raw, "vcopt-dense-allocation"):
                self.report(path, lineno, "vcopt-dense-allocation",
                            "dense n x m allocation on the served path; "
                            "iterate Allocation::entries() (a checked-build "
                            "validator gets NOLINT(vcopt-dense-allocation) "
                            "with its reason)")
            if served_layer and RE_SIMULATOR_INCLUDE.search(
                    line) and not suppressed(raw, "vcopt-served-layering"):
                self.report(path, lineno, "vcopt-served-layering",
                            "simulator header in a served layer; the served "
                            "library links no rebalance/, fault/, sim/, "
                            "mapreduce/ or dataflow/ code")
            if RE_SIMD.search(code) and not suppressed(raw, "vcopt-raw-simd"):
                self.report(path, lineno, "vcopt-raw-simd",
                            "raw SIMD intrinsic; write the scalar loop (a "
                            "vector kernel needs a measured served-path win)")
            if in_replay:
                self.check_replay_line(path, lineno, raw, code)

    def check_replay_line(self, path: pathlib.Path, lineno: int, raw: str,
                          code: str) -> None:
        if RE_UNORDERED.search(code) and not suppressed(
                raw, "vcopt-unordered-in-replay"):
            self.report(path, lineno, "vcopt-unordered-in-replay",
                        "unordered container in replay-critical code; "
                        "iteration order could leak into the journal or "
                        "grant stream — use std::map/std::set, or justify "
                        "a lookup-only container with "
                        "NOLINT(vcopt-unordered-in-replay)")
        if RE_WALL_CLOCK.search(code) and not suppressed(
                raw, "vcopt-wall-clock"):
            self.report(path, lineno, "vcopt-wall-clock",
                        "wall-clock read in replay-critical code; decisions "
                        "must run on the virtual clock — justify metric or "
                        "trace timestamp reads with NOLINT(vcopt-wall-clock)")
        if RE_UNSEEDED_RNG.search(code) and not suppressed(
                raw, "vcopt-unseeded-rng"):
            self.report(path, lineno, "vcopt-unseeded-rng",
                        "unseeded randomness in replay-critical code; take "
                        "an explicit seed (util::Rng) so runs replay")
        if RE_STD_HASH.search(code) and not suppressed(raw, "vcopt-std-hash"):
            self.report(path, lineno, "vcopt-std-hash",
                        "std::hash is implementation-defined; any ordering "
                        "derived from it is not reproducible across "
                        "standard libraries")

    def check_pragma_once(self, path: pathlib.Path,
                          lines: list[str]) -> None:
        for raw in lines:
            if RE_PRAGMA_ONCE.match(raw):
                return
            if not RE_COMMENT_OR_BLANK.match(raw):
                break  # first real line of code reached without the pragma
        self.report(path, 1, "pragma-once",
                    "header must start with `#pragma once` (leading "
                    "comments allowed)")


def default_files() -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    fixture_roots = tuple((REPO / d) for d in FIXTURE_DIRS)
    for d in SCAN_DIRS:
        root = REPO / d
        if not root.is_dir():
            continue
        for p in sorted(root.rglob("*")):
            if p.suffix not in SOURCE_SUFFIXES or not p.is_file():
                continue
            if any(fr in p.parents for fr in fixture_roots):
                continue
            files.append(p)
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: scan the repo, "
                             "skipping fixture directories)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--disable", action="append", default=[],
                        metavar="RULE", help="disable a rule (repeatable)")
    parser.add_argument("--fixture-root", metavar="DIR",
                        help="classify paths relative to DIR instead of the "
                             "repo root (lint self-test fixtures)")
    args = parser.parse_args()

    if args.list_rules:
        width = max(len(name) for name in RULES)
        for name in sorted(RULES):
            print(f"{name:<{width}}  {RULES[name]}")
        return 0

    unknown = [r for r in args.disable if r not in RULES]
    if unknown:
        print(f"lint: unknown rule(s): {', '.join(sorted(unknown))} "
              f"(see --list-rules)", file=sys.stderr)
        return 2

    if args.paths:
        files = [pathlib.Path(p).resolve() for p in args.paths]
    else:
        files = default_files()

    root = (pathlib.Path(args.fixture_root).resolve()
            if args.fixture_root else REPO)
    linter = Linter(disabled=set(args.disable), root=root)
    for f in files:
        linter.check_file(f)

    findings = linter.sorted_findings()
    for finding in findings:
        print(finding)
    if findings:
        print(f"\n{len(findings)} lint finding(s).", file=sys.stderr)
        return 1
    print(f"lint: {len(files)} files clean.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
