#!/usr/bin/env python3
"""shc-lint — repo-specific invariants the compiler cannot enforce.

The symbolic engines certify 2^63-scale schedules; their verdicts lean on
conventions that are easy to break silently in review.  This lint walks
`src/` (stdlib only, no third-party deps) and enforces:

  checked-counter   Schedule/exchange/multiplicity counters in sim/,
                    gossip/, and mlbg/ must not use raw `+=`, `*=`,
                    `<<=`, `++`/`--` or plain arithmetic assignment —
                    they route through bits/checked.hpp
                    (checked_/saturating_ helpers), the PR 4 overflow
                    bug class.
  raw-thread        `std::thread` appears only in sim/worker_pool.hpp
                    (plus `std::thread::hardware_concurrency()` for
                    sizing).  Everything else shares the WorkerPool.
  assert-guard      `assert(` in graph/, coding/, labeling/, baseline/
                    translation units, mlbg/src/broadcast.cpp,
                    mlbg/src/spec.cpp, mlbg/src/params.cpp,
                    sim/src/subcube.cpp, sim/subcube.hpp,
                    sim/src/knowledge_classes.cpp
                    and sim/src/congestion.cpp:
                    a bare assert guarding caller
                    input vanishes under NDEBUG.  Input guards throw
                    std::invalid_argument; genuine internal invariants
                    carry an explicit allow-comment.
  nondeterminism    No `rand()`, `srand()`, `time()`, or default-seeded
                    `random_device` in src/ — reports must be bit-for-bit
                    reproducible; randomized helpers take a caller-seeded
                    engine.
  layering          `#include "shc/<module>/..."` edges must follow the
                    README module map (e.g. sim never includes mlbg or
                    gossip headers; bits/ never includes the obs flight
                    recorder).
  kernel-layer      The batched SoA kernel header (sim/subcube_batch.hpp)
                    sits below the rest of sim/: it may include only
                    shc/bits/ headers, so every consumer (frontier,
                    ledger, partition refiner) can build on it without
                    cycles and the scalar-fallback build stays minimal.
  timestamp         Clock reads (std::chrono steady_/system_/
                    high_resolution_clock) live only inside src/obs/ —
                    the flight recorder's contract is that timestamps
                    are measurements confined to trace files; a clock
                    anywhere else in src/ is a nondeterminism hazard for
                    verdicts and reports.
  duplicate-knob    The shared checking knobs (sampling, ledger and
                    collision budgets) are declared once, in
                    sim/check_options.hpp (CommonCheckOptions), and
                    inherited by every engine's options struct.
                    Re-declaring one of those members elsewhere
                    re-opens the drift this layout removed: two
                    defaults for the same knob, silently diverging.

Suppression: append `// shc-lint: allow(<rule>)` on the offending line
or the line directly above it, with a comment explaining why.  Extending
a whitelist means editing the tables below — do it in the same commit as
the code that needs it, and say why in the comment next to the entry.

Usage: python3 tools/shc_lint.py [--root DIR]
Exit status: 0 clean, 1 findings, 2 bad invocation.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# --------------------------------------------------------------------------
# Rule tables (the whitelists).  Keep entries commented.
# --------------------------------------------------------------------------

# Counters whose raw mutation in sim/, gossip/, mlbg/ indicates the
# PR 4 bug class (u64 wrap poisoning a report).  `= 0` style resets and
# reads are fine; arithmetic must go through bits/checked.hpp.
CHECKED_COUNTERS = (
    "total_calls",
    "total_exchanges",
    "total_count_",
    "known_pairs",
    "informed_count",
    "occupancy_claims",
    "rounds_checked",
    "unions_computed",
    "union_cache_hits",
    "union_cache_misses",
    "reduce_tree_tasks",
)
CHECKED_COUNTER_DIRS = ("src/sim", "src/gossip", "src/mlbg", "src/api")

# std::thread is WorkerPool's private concern; sizing via
# hardware_concurrency() is allowed anywhere.
THREAD_ALLOWED_FILES = ("src/sim/include/shc/sim/worker_pool.hpp",)

# assert() policy applies to the modules whose functions take caller
# input directly (the PR 2 bug class lived in graph/).
ASSERT_DIRS = ("src/graph", "src/coding", "src/labeling", "src/baseline",
               "src/mlbg/src/broadcast.cpp", "src/mlbg/src/spec.cpp",
               "src/mlbg/src/params.cpp", "src/sim/src/subcube.cpp",
               "src/sim/src/knowledge_classes.cpp", "src/sim/src/congestion.cpp")
# Headers under the same rule (the rule otherwise reads only .cpp files).
ASSERT_HEADERS = ("src/sim/include/shc/sim/subcube.hpp",
                  "src/mlbg/include/shc/mlbg/broadcast.hpp")

# Kernel layer: headers that sit below their own module's layering set.
# subcube_batch.hpp is the leaf the hot paths build on — it may reach
# only into bits/ (its doc comment promises exactly this).
KERNEL_LAYER_FILES = {
    "src/sim/include/shc/sim/subcube_batch.hpp": {"bits"},
}

# Module layering: which "shc/<module>/" headers each module may include.
# Mirrors README's dependency map; src/include's umbrella header is the
# one deliberate exception (it includes everything).
LAYERING = {
    "bits": {"bits"},
    "obs": {"bits", "obs"},  # flight recorder: bits-only below, no engine deps
    "coding": {"bits", "coding"},
    "graph": {"bits", "graph"},
    "labeling": {"bits", "coding", "labeling"},
    "sim": {"bits", "graph", "obs", "sim"},
    "mlbg": {"bits", "graph", "labeling", "obs", "sim", "mlbg"},
    "gossip": {"bits", "obs", "sim", "mlbg", "gossip"},
    "baseline": {"bits", "graph", "sim", "baseline"},
    # The facade sits on top of every engine.  No other module lists
    # "api" here, so "nothing in src/ includes the facade" falls out of
    # the same table — only examples/ and tests/ consume it.
    "api": {"bits", "graph", "obs", "sim", "mlbg", "gossip", "api"},
}

# The shared checking knobs: declared once in CommonCheckOptions
# (sim/check_options.hpp), inherited by SymbolicCheckOptions and
# SymbolicGossipOptions.  A second *declaration* of any of these names
# in src/ is the duplicated-knob layout PR 10 collapsed (threads and
# pool are deliberately absent — those words are too generic to match
# declarations reliably; the distinctive knob names below are unique).
# sample_seed is no knob any more (the seed is the fixed kSampleSeed),
# nor is ledger_bucket_budget_base (a bucket's budget is
# ledger_budget_per_claim x (claims + 8)); both stay listed so no engine
# grows its own seed or budget-base knob again.
DUPLICATE_KNOBS = (
    "sample_groups_per_round",
    "sample_calls_per_group",
    "sample_seed",
    "ledger_budget_per_claim",
    "ledger_bucket_budget_base",
)
KNOB_HOME = "src/sim/include/shc/sim/check_options.hpp"

# Clock reads are the flight recorder's private concern: trace
# timestamps are measurements, never inputs to a verdict, so the only
# src/ directory allowed to touch std::chrono clocks is src/obs/.
TIMESTAMP_ALLOWED_DIRS = ("src/obs",)

SUPPRESS_RE = re.compile(r"//\s*shc-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

COUNTER_MUTATION_RE = re.compile(
    r"\b(?:\w+(?:\.|->))*(" + "|".join(CHECKED_COUNTERS) + r")\s*"
    r"(\+=|-=|\*=|<<=|\+\+|--|=\s*[^=;]*(?:\+|\*|<<)[^;=]*;)"
)
THREAD_RE = re.compile(r"\bstd::thread\b(?!::hardware_concurrency)")
ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")
NONDET_RES = (
    (re.compile(r"(?<![\w:.])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"), "time()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
)
TIMESTAMP_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\b"
)
# A declaration is "type-token, whitespace, knob name, then = / { / ;".
# Reads are always qualified (`sopt.ledger_budget_per_claim`) or bare
# inside an expression, so neither form has a type token + whitespace in
# front.
DUPLICATE_KNOB_RE = re.compile(
    r"\b[A-Za-z_][\w:]*\s+(" + "|".join(DUPLICATE_KNOBS) + r")\s*[={;]"
)
INCLUDE_RE = re.compile(r'#\s*include\s*"shc/([a-z]+)/')


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            seg = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c in ('"', "'"):
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + " " * (min(j, n - 1) - i - 1) + quote)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Findings:
    def __init__(self) -> None:
        self.items: list[str] = []

    def add(self, path: pathlib.Path, line: int, rule: str, msg: str) -> None:
        self.items.append(f"{path}:{line}: [{rule}] {msg}")


def suppressions(
    raw_lines: list[str], code_lines: list[str]
) -> dict[int, set[str]]:
    """1-based line -> rules allowed there.

    An allow-comment covers its own line and the first code line below it
    (a contiguous block of comment-only lines between them — the usual
    shape of an explained annotation — does not break the link).
    """
    allowed: dict[int, set[str]] = {}
    comment_only = [
        raw.strip() != "" and code.strip() == ""
        for raw, code in zip(raw_lines, code_lines)
    ]
    for idx, line in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",")}
        allowed.setdefault(idx, set()).update(rules)
        below = idx + 1
        while below <= len(raw_lines) and comment_only[below - 1]:
            below += 1
        allowed.setdefault(below, set()).update(rules)
    return allowed


def lint_file(path: pathlib.Path, rel: str, out: Findings) -> None:
    raw = path.read_text(encoding="utf-8")
    raw_lines = raw.splitlines()
    code_lines = strip_comments_and_strings(raw).splitlines()
    allowed = suppressions(raw_lines, code_lines)

    def ok(lineno: int, rule: str) -> bool:
        return rule in allowed.get(lineno, ())

    in_counter_dir = rel.startswith(CHECKED_COUNTER_DIRS)
    in_assert_dir = ((rel.startswith(ASSERT_DIRS) and rel.endswith(".cpp"))
                     or rel in ASSERT_HEADERS)
    module = rel.split("/")[1] if rel.count("/") >= 1 else ""
    layer = LAYERING.get(module)
    kernel_layer = KERNEL_LAYER_FILES.get(rel)

    for lineno, line in enumerate(code_lines, start=1):
        if in_counter_dir and "checked_" not in line and "saturating_" not in line:
            m = COUNTER_MUTATION_RE.search(line)
            if m and not ok(lineno, "checked-counter"):
                out.add(
                    path, lineno, "checked-counter",
                    f"raw arithmetic on counter '{m.group(1)}' — route through "
                    "bits/checked.hpp (checked_acc_u64 / saturating_acc_u64)",
                )
        if rel not in THREAD_ALLOWED_FILES:
            if THREAD_RE.search(line) and not ok(lineno, "raw-thread"):
                out.add(
                    path, lineno, "raw-thread",
                    "std::thread outside sim/worker_pool.hpp — share the "
                    "WorkerPool instead",
                )
        if in_assert_dir and ASSERT_RE.search(line):
            if not ok(lineno, "assert-guard"):
                out.add(
                    path, lineno, "assert-guard",
                    "bare assert() vanishes under NDEBUG — throw "
                    "std::invalid_argument for caller input, or annotate a "
                    "genuine internal invariant with "
                    "// shc-lint: allow(assert-guard)",
                )
        for pattern, what in NONDET_RES:
            if pattern.search(line) and not ok(lineno, "nondeterminism"):
                out.add(
                    path, lineno, "nondeterminism",
                    f"{what} in src/ — reports must be reproducible; take a "
                    "caller-seeded std::mt19937_64 instead",
                )
        if rel != KNOB_HOME:
            m = DUPLICATE_KNOB_RE.search(line)
            if m and not ok(lineno, "duplicate-knob"):
                out.add(
                    path, lineno, "duplicate-knob",
                    f"member '{m.group(1)}' is declared by CommonCheckOptions "
                    "(sim/check_options.hpp) — inherit it there instead of "
                    "re-declaring a second default",
                )
        if not rel.startswith(TIMESTAMP_ALLOWED_DIRS):
            if TIMESTAMP_RE.search(line) and not ok(lineno, "timestamp"):
                out.add(
                    path, lineno, "timestamp",
                    "clock read outside src/obs/ — timestamps belong to the "
                    "flight recorder only (obs::trace_now_ns); verdicts and "
                    "reports must never depend on time",
                )
        if layer is not None:
            # Include paths are string literals, so match the raw line.
            m = INCLUDE_RE.search(raw_lines[lineno - 1])
            if m and m.group(1) not in layer and not ok(lineno, "layering"):
                out.add(
                    path, lineno, "layering",
                    f"module '{module}' must not include shc/{m.group(1)}/ "
                    f"headers (allowed: {', '.join(sorted(layer))})",
                )
        if kernel_layer is not None:
            m = INCLUDE_RE.search(raw_lines[lineno - 1])
            if m and m.group(1) not in kernel_layer and not ok(
                lineno, "kernel-layer"
            ):
                out.add(
                    path, lineno, "kernel-layer",
                    f"kernel header must stay below the rest of its module: "
                    f"only shc/{{{', '.join(sorted(kernel_layer))}}}/ "
                    f"includes are allowed, not shc/{m.group(1)}/",
                )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--root", default=None,
        help="repository root (default: parent of this script's directory)",
    )
    args = ap.parse_args(argv)
    root = (
        pathlib.Path(args.root)
        if args.root
        else pathlib.Path(__file__).resolve().parent.parent
    )
    src = root / "src"
    if not src.is_dir():
        print(f"shc-lint: no src/ under {root}", file=sys.stderr)
        return 2

    out = Findings()
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        rel = path.relative_to(root).as_posix()
        lint_file(path, rel, out)

    for item in out.items:
        print(item)
    if out.items:
        print(f"shc-lint: {len(out.items)} finding(s)", file=sys.stderr)
        return 1
    print("shc-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
