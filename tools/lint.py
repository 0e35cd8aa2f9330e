#!/usr/bin/env python3
"""Repo-specific lint rules the generic toolchain cannot express.

Run from anywhere:  python3 tools/lint.py [--root REPO_ROOT]

Rules (each failure prints file:line and a one-line explanation):

  1. naked-sync-primitive  std::mutex / std::condition_variable /
     std::lock_guard / std::unique_lock / std::scoped_lock /
     std::shared_mutex anywhere outside src/util/sync.h.  All locking goes
     through the annotated wrappers so Clang's thread-safety analysis sees
     every critical section.
  2. atomic-ordering-comment  every std::atomic MEMBER declaration (members
     are spotted by the trailing-underscore naming convention) must have a
     comment on the same line or within the 4 lines above naming its memory
     ordering discipline (relaxed / acquire / release / acq_rel / seq_cst /
     "ordering").  Locals and parameters are exempt.
  3. nodiscard-status  src/util/status.h must declare both Status and
     StatusOr with class-level [[nodiscard]] (the compiler then flags every
     dropped result); as a backstop, statement-level calls of well-known
     Status-returning APIs must not silently drop the result.
  4. include-guard-path  every header under src/ and bench/ must use an
     include guard spelling its path: BITRUSS_<RELPATH>_H_ (e.g.
     src/util/sync.h -> BITRUSS_UTIL_SYNC_H_); stale guards after a file
     move silently break the one-definition rule.
  5. fault-point-coverage  every fault point declared in src/ via
     BITRUSS_FAULT_POINT("name") / BITRUSS_FAULT_POINT_STATUS("name") /
     BITRUSS_FAULT_WRITE("name", ...) must be referenced by name somewhere
     under tests/ — no fault point may exist without crash/degradation
     coverage.
  6. sources-built  every src/**/*.cc must be named by its relative path in
     CMakeLists.txt, and every bench/*.cc and tests/test_*.cc by its stem,
     so a module, harness or suite that never compiles cannot sit in the
     tree unnoticed.
  7. graph-snapshot-off-path  nothing under src/ except
     src/dynamic/dynamic_graph.cc (which defines it) calls
     DynamicBipartiteGraph::Snapshot(): the writer decomposes the slot
     table in place, and the CSR copy is for oracles and benches.  A call
     is spotted by its receiver's name, which for every dynamic-graph
     handle in src/ contains "graph" (graph_.Snapshot(),
     Graph().Snapshot(), dynamic_graph->Snapshot()); the other Snapshot()
     functions (BitrussService's, MetricsRegistry's) are called on
     receivers without it and do not trip the rule.  Line comments are
     ignored.
  8. durable-file-names-in-persist  the string literals "wal-", ".seg",
     "snapshot-" and ".snap" appear in src/ only under src/persist/: the
     durable file layout is persist's to name, so code outside it asks
     persist (ListWalSegments, HoldsDurableState, ...) instead of scanning
     or unlinking those files itself.
  9. metric-family-coverage  every metric family named in src/ by a string
     literal "bitruss_..." (the registry's naming convention) must be
     referenced by that literal somewhere under tests/ — as rule 5 asks of
     fault points, no family may be exported without a test that drives
     it.

Exit status: 0 clean, 1 any violation (CI fails the build on it).
"""

import argparse
import re
import sys
from pathlib import Path

NAKED_SYNC_RE = re.compile(
    r"std::(mutex|condition_variable\w*|lock_guard|unique_lock"
    r"|scoped_lock|shared_mutex|shared_lock)\b"
)
# Member declaration by naming convention: "std::atomic<...> name_{...};"
# or array-of-atomics unique_ptr members.
ATOMIC_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?std::(?:atomic<[^;]*>|unique_ptr<std::atomic<[^;]*)"
    r"\s+\w+_\s*(?:\{[^}]*\}|=[^;]*)?;"
)
ORDERING_WORDS_RE = re.compile(
    r"relaxed|acquire|release|acq_rel|seq_cst|ordering", re.IGNORECASE
)
# Statement-level call of a known Status-returning API with the result
# dropped on the floor (no assignment, no (void), no .ok(), not a macro
# argument).  The class-level [[nodiscard]] is the real gate; this catches
# editors stripping the cast without rebuilding.
STATUS_APIS = (
    "InsertEdge", "DeleteEdge", "SubmitInsert", "SubmitDelete", "Submit",
    "Drain", "CheckedPhi",
)
NAKED_STATUS_RE = re.compile(
    r"^\s*[\w.\->]*\b(" + "|".join(STATUS_APIS) + r")\s*\("
)
GUARD_RE = re.compile(r"^#ifndef\s+(\w+)\s*$", re.MULTILINE)
GRAPH_SNAPSHOT_RE = re.compile(
    r"\b\w*graph\w*(?:\(\))?\s*(?:\.|->)\s*Snapshot\s*\(", re.IGNORECASE
)
DURABLE_NAME_RE = re.compile(r'"(?:wal-|\.seg|snapshot-|\.snap)"')
FAULT_POINT_RE = re.compile(
    r'BITRUSS_FAULT_(?:POINT(?:_STATUS)?|WRITE)\("([^"]+)"'
)
METRIC_FAMILY_RE = re.compile(r'"(bitruss_\w+)"')

SOURCE_DIRS = ("src", "bench", "tests", "cmake")
SOURCE_SUFFIXES = (".h", ".cc")


def iter_sources(root: Path):
    for d in SOURCE_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                yield path


def check_naked_sync(root, errors):
    allowed = root / "src" / "util" / "sync.h"
    for path in iter_sources(root):
        if path == allowed:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if NAKED_SYNC_RE.search(line):
                errors.append(
                    f"{path.relative_to(root)}:{lineno}: naked std sync "
                    "primitive; use the annotated wrappers in util/sync.h"
                )


def check_atomic_comments(root, errors):
    for path in iter_sources(root):
        lines = path.read_text().splitlines()
        for lineno, line in enumerate(lines, 1):
            if not ATOMIC_MEMBER_RE.match(line):
                continue
            window = lines[max(0, lineno - 5):lineno]
            if any(ORDERING_WORDS_RE.search(w) for w in window):
                continue
            errors.append(
                f"{path.relative_to(root)}:{lineno}: std::atomic member "
                "without a memory-ordering comment (same line or the 4 "
                "lines above must name the ordering discipline)"
            )


def check_nodiscard_status(root, errors):
    status_h = root / "src" / "util" / "status.h"
    text = status_h.read_text() if status_h.is_file() else ""
    for cls in ("class [[nodiscard]] Status", "class [[nodiscard]] StatusOr"):
        if cls not in text:
            errors.append(
                f"src/util/status.h: missing '{cls} ...' — class-level "
                "[[nodiscard]] is what makes dropped Status a warning"
            )
    for path in iter_sources(root):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            stripped = line.strip()
            if not NAKED_STATUS_RE.match(line):
                continue
            if not stripped.endswith(";") or "=" in stripped:
                continue
            if stripped.startswith(("return", "(void)", "//")):
                continue
            errors.append(
                f"{path.relative_to(root)}:{lineno}: result of "
                "Status-returning call dropped; check it or cast to "
                "(void) with a justification comment"
            )


def check_include_guards(root, errors):
    for d in ("src", "bench"):
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.h")):
            rel = path.relative_to(root)
            stem = rel.relative_to("src") if d == "src" else rel
            expected = (
                "BITRUSS_"
                + re.sub(r"[^A-Za-z0-9]", "_", str(stem.with_suffix("")))
                .upper()
                + "_H_"
            )
            match = GUARD_RE.search(path.read_text())
            if match is None:
                errors.append(f"{rel}: no #ifndef include guard")
            elif match.group(1) != expected:
                errors.append(
                    f"{rel}: include guard {match.group(1)} does not match "
                    f"its path (expected {expected})"
                )


def names_missing_from_tests(root, pattern):
    """Names `pattern` captures in src/, each with its first file:line,
    that no file under tests/ spells as a "quoted" literal."""
    declared = {}  # name -> first declaring file:line
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for name in pattern.findall(line):
                declared.setdefault(
                    name, f"{path.relative_to(root)}:{lineno}"
                )
    tests_dir = root / "tests"
    covered = set()
    if declared and tests_dir.is_dir():
        for path in sorted(tests_dir.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            text = path.read_text()
            covered.update(n for n in declared if f'"{n}"' in text)
    return {n: declared[n] for n in sorted(set(declared) - covered)}


def check_fault_point_coverage(root, errors):
    for name, where in names_missing_from_tests(root, FAULT_POINT_RE).items():
        errors.append(
            f"{where}: fault point \"{name}\" is never referenced "
            "under tests/ — every point needs crash/degradation coverage"
        )


def check_metric_family_coverage(root, errors):
    for name, where in names_missing_from_tests(
            root, METRIC_FAMILY_RE).items():
        errors.append(
            f"{where}: metric family \"{name}\" is never referenced "
            "under tests/ — every exported family needs a test driving it"
        )


def check_sources_built(root, errors):
    cmake = root / "CMakeLists.txt"
    text = cmake.read_text() if cmake.is_file() else ""
    names = set(re.findall(r"\w+", text))
    paths = set(re.findall(r"[\w/.]+\.cc\b", text))
    unbuilt = [p for p in sorted((root / "src").rglob("*.cc"))
               if p.relative_to(root).as_posix() not in paths]
    unbuilt += [p for p in sorted((root / "bench").glob("*.cc"))
                if p.stem not in names]
    unbuilt += [p for p in sorted((root / "tests").glob("test_*.cc"))
                if p.stem not in names]
    for path in unbuilt:
        errors.append(
            f"{path.relative_to(root)}: not named in CMakeLists.txt — "
            "every source must be built"
        )


def check_graph_snapshot_off_path(root, errors):
    allowed = root / "src" / "dynamic" / "dynamic_graph.cc"
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES or path == allowed:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if GRAPH_SNAPSHOT_RE.search(line.split("//", 1)[0]):
                errors.append(
                    f"{path.relative_to(root)}:{lineno}: "
                    "DynamicBipartiteGraph::Snapshot() called in src/; "
                    "decompose the slot table (Decompose(graph)) instead"
                )


def check_durable_file_names(root, errors):
    persist = root / "src" / "persist"
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES or persist in path.parents:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            match = DURABLE_NAME_RE.search(line)
            if match:
                errors.append(
                    f"{path.relative_to(root)}:{lineno}: durable file name "
                    f"{match.group(0)} outside src/persist/; call a persist "
                    "function instead"
                )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: the checkout containing this script)",
    )
    args = parser.parse_args()
    root = args.root.resolve()

    errors = []
    check_naked_sync(root, errors)
    check_atomic_comments(root, errors)
    check_nodiscard_status(root, errors)
    check_include_guards(root, errors)
    check_fault_point_coverage(root, errors)
    check_sources_built(root, errors)
    check_graph_snapshot_off_path(root, errors)
    check_durable_file_names(root, errors)
    check_metric_family_coverage(root, errors)

    if errors:
        for error in errors:
            print(error)
        print(f"lint: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
