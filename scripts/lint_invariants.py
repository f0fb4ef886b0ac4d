#!/usr/bin/env python3
"""Project-invariant linter over src/ — the static companion of the thread
safety annotations (src/common/thread_annotations.h) and the latch-rank
validator (src/common/latch_rank.h). Fails (exit 1) when a source line breaks
one of the engine's structural invariants:

  batch-allocation   No heap allocation of batch/Value storage (new /
                     make_unique / make_shared of TupleBatch or Value)
                     outside src/mem/ — kernels recycle through the
                     BatchPool; a stray allocation reintroduces the
                     steady-state tax PR 7 removed.
  ctx-charging       No direct SimDisk charging from src/access/ or
                     src/exec/ (engine_->disk() / engine()->disk()):
                     operators charge their ExecContext stream, which is
                     what keeps per-query cost bit-identical under
                     concurrency.
  raw-page-member    No retained raw `const Page&` / `Page*` data members:
                     pages are held through PageGuard (pin-aware), never
                     cached across an eviction boundary.
  value-variant      No std::variant in the Value path (or anywhere in
                     src/): Value is a hand-rolled tagged union precisely
                     to keep the scan hot loop free of variant dispatch.
  raw-mutex          No raw standard mutex primitives (std::mutex,
                     lock_guard, unique_lock, condition_variable, ...)
                     anywhere in src/ outside the latch wrapper: all
                     latching goes through latch::Latch so the rank
                     validator and the thread safety analysis see it.
  obs-accounting     No SimDisk / CpuMeter / Charge references inside
                     src/obs/: observability is bookkeeping only (atomics
                     and the wall clock), which is what keeps simulated
                     per-query cost bit-identical with metrics/tracing on
                     or off.
  kernel-harvest     No tuple harvesting (GetTuple( / Deserialize /
                     heap->Read) in src/access/parallel_scan.cc: a parallel
                     kernel runs the serial operators (or their phase
                     functions) over its morsels and never grows a harvest
                     loop of its own, so the two cannot drift apart.
  obs-handle         No obs::Counter / obs::Gauge / obs::Histogram outside
                     src/obs/ and src/engine/: subsystems keep their own
                     stats structs and add them to the registry once, through
                     obs::AddCount, when their scan closes or query
                     completes. A push handle next to a native counter would
                     keep every count twice.
  row-read           No tuple-returning HeapFile::Read( in src/access/ or
                     src/exec/: an operator's per-row look-up decodes into
                     the caller's warm batch slot (or a warm scratch tuple)
                     with HeapFile::ReadInto, so its steady state allocates
                     nothing.
  pool-owner         No BatchPool construction (BatchPool(, make_unique /
                     unique_ptr of BatchPool, a BatchPool local or member)
                     in src/access/, src/exec/, src/compress/ or
                     src/sharing/: operators borrow ctx().batch_pool. The
                     Engine owns one pool and each read query one, so a
                     fresh scan draws warm batches and every batch is
                     charged to its query's memory account.
  scheduler-owner    No TaskScheduler construction (TaskScheduler(,
                     make_unique / unique_ptr of TaskScheduler, a
                     TaskScheduler local or member) anywhere in src/
                     outside storage/engine.* and exec/task_scheduler.*:
                     the Engine owns the one worker pool and every
                     ExecContext hands it out, so a fresh parallel scan
                     starts no thread and every scan keeps the same
                     window.

One rule looks at the tree rather than at single lines:

  orphan-unit        Every header under --root is included by some file
                     in src/, bench/ or perfbench/ other than its own .cc
                     (bench/ and perfbench/ are the siblings of --root).
                     Includes from tests and examples do not count: a unit
                     only they reach is an island no workload runs.

A deliberate exception is suppressed with `lint:allow(<rule>)` in a comment
on the offending line or the line directly above it — greppable, per-rule,
and visible in review.

Usage:
  lint_invariants.py [--root src] [rule ...]

With no rule names, every rule runs. Exit 0 = clean.
"""

import argparse
import os
import re
import sys

HEADER_EXTS = (".h",)
SOURCE_EXTS = (".h", ".cc")

# Files implementing the machinery the rules enforce (the latch wrapper may
# hold the one std::mutex; PageGuard may hold the one raw Page pointer).
WRAPPER_FILES = {
    os.path.join("common", "latch_rank.h"),
    os.path.join("common", "latch_rank.cc"),
    os.path.join("common", "thread_annotations.h"),
}

RULES = [
    {
        "name": "batch-allocation",
        "pattern": re.compile(
            r"\bnew\s+(TupleBatch|Value)\b"
            r"|\bmake_(?:unique|shared)\s*<\s*(?:TupleBatch|Value)\b"
        ),
        "message": "heap allocation of batch/Value storage outside src/mem/ "
                   "(acquire through the BatchPool)",
        "applies": lambda rel: not rel.startswith("mem" + os.sep),
    },
    {
        "name": "ctx-charging",
        "pattern": re.compile(r"\bengine(?:_|\(\))->disk\(\)"),
        "message": "direct SimDisk charging bypassing ExecContext "
                   "(charge ctx.disk instead)",
        "applies": lambda rel: rel.startswith(("access" + os.sep,
                                               "exec" + os.sep)),
    },
    {
        "name": "raw-page-member",
        "pattern": re.compile(
            r"^\s*(?:const\s+)?Page\s*[*&]\s*\w+_\s*(?:=\s*\w+)?;"
        ),
        "message": "retained raw Page pointer/reference member "
                   "(hold pages through PageGuard)",
        "applies": lambda rel: rel.endswith(HEADER_EXTS),
    },
    {
        "name": "value-variant",
        "pattern": re.compile(r"std::variant\s*<|#include\s*<variant>"),
        "message": "std::variant in the Value path (Value is a tagged "
                   "union by design)",
        "applies": lambda rel: True,
    },
    {
        "name": "raw-mutex",
        "pattern": re.compile(
            r"std::(?:recursive_mutex|shared_mutex|timed_mutex|mutex"
            r"|lock_guard|unique_lock|scoped_lock|shared_lock"
            r"|condition_variable(?!_any))\b"
        ),
        "message": "raw mutex primitive outside the latch wrapper "
                   "(use latch::Latch / LatchGuard / UniqueLatch)",
        "applies": lambda rel: rel not in WRAPPER_FILES,
    },
    {
        "name": "obs-accounting",
        "pattern": re.compile(r"\bSimDisk\b|\bCpuMeter\b|\bCharge\w*\b"),
        "message": "accounting primitive referenced from src/obs/ "
                   "(observability must never touch simulated cost)",
        "applies": lambda rel: rel.startswith("obs" + os.sep),
    },
    {
        "name": "kernel-harvest",
        "pattern": re.compile(r"\bGetTuple\(|\bDeserialize|\bheap->Read\b"),
        "message": "tuple harvesting in a parallel kernel (run the serial "
                   "operator over the morsel instead)",
        "applies": lambda rel: rel == os.path.join("access",
                                                   "parallel_scan.cc"),
    },
    {
        "name": "obs-handle",
        "pattern": re.compile(r"\bobs::(?:Counter|Gauge|Histogram)\b"),
        "message": "registry metric handle outside src/obs/ and src/engine/ "
                   "(keep the native stats; fold them with obs::AddCount "
                   "at Close)",
        "applies": lambda rel: not rel.startswith(("obs" + os.sep,
                                                   "engine" + os.sep)),
    },
    {
        "name": "row-read",
        "pattern": re.compile(r"(?:->|\.)Read\("),
        "message": "tuple-returning HeapFile::Read in an operator "
                   "(decode into a slot with ReadInto)",
        "applies": lambda rel: rel.startswith(("access" + os.sep,
                                               "exec" + os.sep)),
    },
    {
        "name": "pool-owner",
        "pattern": re.compile(
            r"\bBatchPool\s*[({]"
            r"|\b(?:make_(?:unique|shared)|unique_ptr|shared_ptr)\s*<\s*"
            r"BatchPool\s*>"
            r"|\bBatchPool\s+\w+\s*[;({=]"
        ),
        "message": "batch pool owned by an operator (borrow "
                   "ctx().batch_pool; the engine and the query own pools)",
        "applies": lambda rel: rel.startswith(("access" + os.sep,
                                               "exec" + os.sep,
                                               "compress" + os.sep,
                                               "sharing" + os.sep)),
    },
    {
        "name": "scheduler-owner",
        "pattern": re.compile(
            r"\bTaskScheduler\s*[({]"
            r"|\b(?:make_(?:unique|shared)|unique_ptr|shared_ptr)\s*<\s*"
            r"TaskScheduler\s*>"
            r"|\bTaskScheduler\s+\w+\s*[;({=]"
        ),
        "message": "task scheduler built outside the Engine (borrow "
                   "ctx().scheduler; the engine owns the one worker pool)",
        "applies": lambda rel: not rel.startswith((
            os.path.join("storage", "engine."),
            os.path.join("exec", "task_scheduler."))),
    },
]

ORPHAN_UNIT = "orphan-unit"
RULE_NAMES = {r["name"] for r in RULES} | {ORPHAN_UNIT}

ALLOW_RE = re.compile(r"lint:allow\(([a-z-]+)\)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def strip_comment(line):
    """Drops a trailing // comment (naive: good enough for this tree —
    string literals containing '//' do not occur on guarded constructs)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def allowed_rules(line):
    return set(ALLOW_RE.findall(line))


def lint_file(rel, lines, rules):
    """Returns a list of (rel, lineno, rule_name, message) violations."""
    violations = []
    pending_allows = set()  # From the comment block directly above.
    for lineno, raw in enumerate(lines, start=1):
        allows = allowed_rules(raw) | pending_allows
        code = strip_comment(raw)
        for rule in rules:
            if not rule["applies"](rel):
                continue
            if rule["name"] in allows:
                continue
            if rule["pattern"].search(code):
                violations.append((rel, lineno, rule["name"],
                                   rule["message"]))
        # An allow in a comment block covers the first code line after it.
        if raw.lstrip().startswith("//"):
            pending_allows |= allowed_rules(raw)
        else:
            pending_allows = set()
    return violations


def iter_source_files(root):
    for dirpath, _, filenames in os.walk(root):
        for filename in sorted(filenames):
            if filename.endswith(SOURCE_EXTS):
                path = os.path.join(dirpath, filename)
                yield path, os.path.relpath(path, root)


def orphan_units(root):
    """Headers under `root` that no file in root, ../bench or ../perfbench
    includes, apart from the header's own .cc. Includes are root-relative
    ("exec/operator.h"), the form every file in those trees uses."""
    parent = os.path.dirname(os.path.abspath(root))
    includers = {}  # Root-relative header -> rels of the files including it.
    for tree in (root, os.path.join(parent, "bench"),
                 os.path.join(parent, "perfbench")):
        for path, rel in iter_source_files(tree):
            with open(path, encoding="utf-8") as f:
                for line in f:
                    m = INCLUDE_RE.match(line)
                    if m:
                        includers.setdefault(m.group(1), set()).add(
                            os.path.join(tree, rel))
    violations = []
    for path, rel in iter_source_files(root):
        if not rel.endswith(HEADER_EXTS):
            continue
        own_cc = path[:-len(".h")] + ".cc"
        users = includers.get(rel.replace(os.sep, "/"), set()) - {own_cc}
        if not users:
            violations.append((rel, 1, ORPHAN_UNIT,
                               "header no src/, bench/ or perfbench/ file "
                               "includes (delete the unit or wire it in)"))
    return violations


def run(root, rule_names):
    rules = [r for r in RULES if not rule_names or r["name"] in rule_names]
    violations = []
    for path, rel in iter_source_files(root):
        with open(path, encoding="utf-8") as f:
            violations.extend(lint_file(rel, f.read().splitlines(), rules))
    if not rule_names or ORPHAN_UNIT in rule_names:
        violations.extend(orphan_units(root))
    return violations


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Project-invariant linter (see module docstring).")
    parser.add_argument("--root", default="src",
                        help="source tree to lint (default: src)")
    parser.add_argument("rules", nargs="*",
                        help="rules to run (default: all)")
    args = parser.parse_args(argv)

    for name in args.rules:
        if name not in RULE_NAMES:
            parser.error(f"unknown rule: {name}")

    violations = run(args.root, set(args.rules))
    for rel, lineno, name, message in violations:
        print(f"{os.path.join(args.root, rel)}:{lineno}: [{name}] {message}")
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
