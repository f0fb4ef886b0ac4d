#!/usr/bin/env python3
"""Self-test of the project-invariant linter: proves, with doctored source
trees, that every rule fires on its violation shape, stays quiet on clean
code, honors lint:allow suppressions (same-line and comment-block), and
scopes rules to the right subtrees. The doctored trees put the linted root at
src/ with bench/, perfbench/, tests/ and examples/ beside it, the layout the
tree-level orphan-unit rule reads. Run directly (CI) or via ctest.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_invariants as lint  # noqa: E402

LINE_RULES = {r["name"] for r in lint.RULES}


class LintTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = os.path.join(self.tmp.name, "src")
        os.makedirs(self.root)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, rel, text, tree="src"):
        path = os.path.join(self.tmp.name, tree, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)

    def lint(self, rules=()):
        """Runs `rules`, or every line rule: the line-rule fixtures are
        single files nothing includes, which orphan-unit would also flag."""
        return lint.run(self.root, set(rules) or LINE_RULES)

    def names(self, rules=()):
        return [name for (_, _, name, _) in self.lint(rules)]

    def test_clean_tree_passes(self):
        self.write("access/scan.cc", "void F() { ctx.disk->Access(1); }\n")
        self.write("mem/pool.cc", "auto* b = new TupleBatch();\n")
        self.assertEqual(self.lint(), [])

    def test_batch_allocation_fires_outside_mem(self):
        self.write("access/scan.cc",
                   "auto b = std::make_unique<TupleBatch>();\n"
                   "Value* v = new Value();\n")
        self.assertEqual(self.names(), ["batch-allocation",
                                        "batch-allocation"])

    def test_ctx_charging_fires_in_access_and_exec_only(self):
        line = "engine_->disk().Access(ReadRequest{});\n"
        self.write("access/scan.cc", line)
        self.write("exec/op.cc", line)
        self.write("engine/query_engine.cc", line)  # Out of rule scope.
        self.assertEqual(self.names(), ["ctx-charging", "ctx-charging"])

    def test_raw_page_member_fires_in_headers_only(self):
        member = "  const Page* page_ = nullptr;\n"
        self.write("access/scan.h", "class S {\n" + member + "};\n")
        self.write("access/scan.cc", member)  # .cc members out of scope.
        self.write("access/local.h",
                   "inline void F(const Page& page) { (void)page; }\n")
        violations = self.lint()
        self.assertEqual(len(violations), 1)
        rel, lineno, name, _ = violations[0]
        self.assertEqual((rel, lineno, name),
                         (os.path.join("access", "scan.h"), 2,
                          "raw-page-member"))

    def test_value_variant_fires_everywhere_but_not_in_comments(self):
        self.write("common/types.h",
                   "// Value deliberately avoids std::variant<...>.\n"
                   "#include <variant>\n")
        self.assertEqual(self.names(), ["value-variant"])

    def test_raw_mutex_fires_outside_wrapper(self):
        self.write("sharing/group.h", "  std::mutex mu_;\n")
        self.write("sharing/group.cc",
                   "std::lock_guard<std::mutex> lock(mu_);\n")
        self.write("common/latch_rank.h", "  std::mutex mu_;\n")  # Wrapper.
        # condition_variable_any is the sanctioned cv type.
        self.write("exec/sched.h", "  std::condition_variable_any cv_;\n")
        names = self.names()
        # One violation per offending line (the .cc line holds two mentions).
        self.assertEqual(names.count("raw-mutex"), 2)
        rels = [rel for (rel, _, _, _) in self.lint()]
        self.assertNotIn(os.path.join("common", "latch_rank.h"), rels)

    def test_obs_accounting_fires_in_obs_only(self):
        self.write("obs/sampler.cc",
                   "void F(SimDisk* d) { d->Access(r); }\n"
                   "void G(CpuMeter* c) { c->ChargeTuples(1); }\n")
        self.write("access/scan.cc",  # Accounting is access/'s whole job.
                   "void H(SimDisk* d, CpuMeter* c) { (void)d; (void)c; }\n")
        self.assertEqual(self.names(), ["obs-accounting", "obs-accounting"])

    def test_kernel_harvest_fires_in_parallel_scan_only(self):
        self.write("access/parallel_scan.cc",
                   "const uint8_t* d = page.GetTuple(s, &size);\n"
                   "schema.DeserializeInto(d, size, slot);\n"
                   "Tuple t = heap->Read(tid, ctx);\n"
                   "// Comments may say GetTuple( and heap->Read.\n"
                   "FullScan scan(heap, predicate, options);\n")
        # The serial operators own the harvest loops.
        self.write("access/full_scan.cc",
                   "const uint8_t* d = page.GetTuple(s, &size);\n")
        self.write("access/sort_scan.cc", "Tuple t = heap->Read(tid, ctx);\n")
        # (row-read flags the Read lines too; this case checks scope only.)
        self.assertEqual(self.names(["kernel-harvest"]),
                         ["kernel-harvest"] * 3)

    def test_obs_handle_fires_outside_obs_and_engine(self):
        self.write("storage/pool.h",
                   "namespace obs { class Counter; }\n"
                   "  obs::Counter* hits = nullptr;\n")
        self.write("access/scan.cc",
                   "obs::Gauge* g = r->gauge(\"x\");\n"
                   "obs::Histogram* h = r->histogram(\"y\");\n"
                   "// A comment may name obs::Counter.\n"
                   "obs::AddCount(obs(), \"smooth.region_grows\", n);\n")
        # The registry itself and the engine's admission telemetry may hold
        # handles.
        self.write("obs/metrics.h", "obs::Counter* c = nullptr;\n")
        self.write("engine/query_engine.h",
                   "  obs::Counter* c_submitted_ = nullptr;\n")
        self.assertEqual(self.names(), ["obs-handle"] * 3)

    def test_row_read_fires_in_access_and_exec_only(self):
        self.write("access/index_scan.cc",
                   "Tuple tuple = heap->Read(tid, ctx);\n"
                   "heap->ReadInto(tid, ctx, out->AppendSlot());\n"
                   "// A comment may say heap->Read(tid).\n")
        self.write("exec/join.cc",
                   "Tuple inner = inner_heap->Read(it.tid());\n"
                   "const Tuple t = heap.Read(tid);\n"
                   "inner_heap->ReadInto(it.tid(), ctx, &inner_);\n")
        # Tests, loaders and the heap file itself may read whole tuples.
        self.write("storage/heap_file.cc",
                   "Tuple HeapFile::Read(Tid tid) const {\n"
                   "  return heap.Read(tid);\n")
        self.write("net/server.cc", "const int n = transport->Read(buf, 4);\n")
        self.assertEqual(self.names(["row-read"]), ["row-read"] * 3)

    def test_pool_owner_fires_in_operator_layers_only(self):
        self.write("access/smooth_scan.cc",
                   "owned_ = std::make_unique<BatchPool>(options);\n"
                   "spill_.push_back(ctx().batch_pool->Acquire());\n"
                   "// A comment may say BatchPool pool(options).\n")
        self.write("access/smooth_scan.h",
                   "class BatchPool;\n"
                   "  std::unique_ptr<BatchPool> owned_;\n"
                   "  const BatchPool* batch_pool() const;\n")
        self.write("exec/op.cc", "  BatchPool pool(BatchPoolOptions(), acct);\n")
        self.write("compress/scan.h", "  BatchPool pool_;\n")
        self.write("sharing/group.cc",
                   "auto p = BatchPool(BatchPoolOptions());\n"
                   "AddBatchPoolStats(obs(), stats);\n")
        # The pool's own unit, the engine and the query engine own pools.
        self.write("mem/batch_pool.cc",
                   "BatchPool::BatchPool(BatchPoolOptions o) {}\n")
        self.write("storage/engine.h", "  BatchPool batch_pool_;\n")
        self.write("engine/query_engine.cc",
                   "  BatchPool batch_pool(BatchPoolOptions(), &scope);\n")
        self.assertEqual(self.names(["pool-owner"]), ["pool-owner"] * 5)

    def test_pool_owner_allow_suppresses(self):
        self.write("access/scan.cc",
                   "// lint:allow(pool-owner) — a private scratch pool.\n"
                   "BatchPool scratch(options);\n")
        self.assertEqual(self.lint(["pool-owner"]), [])

    def test_scheduler_owner_fires_outside_engine_and_scheduler(self):
        self.write("access/parallel_scan.cc",
                   "owned_ = std::make_unique<TaskScheduler>(workers);\n"
                   "ctx().scheduler->Submit(std::move(tasks));\n"
                   "// A comment may say TaskScheduler pool(4).\n")
        self.write("access/parallel_scan.h",
                   "class TaskScheduler;\n"
                   "  std::unique_ptr<TaskScheduler> owned_scheduler_;\n"
                   "  TaskScheduler* scheduler_ = nullptr;\n"
                   "  std::vector<TaskScheduler::Task> tasks;\n")
        self.write("engine/query_engine.cc", "  TaskScheduler pool(4);\n")
        self.write("sharing/group.h", "  TaskScheduler pool_;\n")
        self.write("net/server.cc", "auto p = TaskScheduler(2);\n")
        # The engine owns the pool; the scheduler's own unit builds it.
        self.write("storage/engine.h",
                   "  TaskScheduler scheduler_;\n"
                   "  TaskScheduler& scheduler() { return scheduler_; }\n")
        self.write("exec/task_scheduler.h",
                   "  explicit TaskScheduler(uint32_t num_workers);\n"
                   "  TaskScheduler(const TaskScheduler&) = delete;\n")
        self.write("exec/task_scheduler.cc",
                   "TaskScheduler::TaskScheduler(uint32_t n) {}\n")
        self.assertEqual(self.names(["scheduler-owner"]),
                         ["scheduler-owner"] * 5)

    def test_scheduler_owner_allow_suppresses(self):
        self.write("access/scan.cc",
                   "// lint:allow(scheduler-owner) — a private test pool.\n"
                   "TaskScheduler scratch(1);\n")
        self.assertEqual(self.lint(["scheduler-owner"]), [])

    def test_same_line_allow_suppresses(self):
        self.write("access/scan.cc",
                   "engine_->disk().Access(r);  // lint:allow(ctx-charging)\n")
        self.assertEqual(self.lint(), [])

    def test_comment_block_allow_covers_following_code_line(self):
        self.write("access/scan.cc",
                   "// lint:allow(ctx-charging) — spill I/O is communal\n"
                   "// maintenance, like write-backs.\n"
                   "engine_->disk().WriteExtent(f, 0, pages);\n")
        self.assertEqual(self.lint(), [])

    def test_allow_does_not_leak_past_first_code_line(self):
        self.write("access/scan.cc",
                   "// lint:allow(ctx-charging)\n"
                   "engine_->disk().WriteExtent(f, 0, pages);\n"
                   "engine_->disk().ReadExtent(f, 0, pages);\n")
        self.assertEqual(self.names(), ["ctx-charging"])

    def test_allow_is_per_rule(self):
        self.write("access/scan.cc",
                   "// lint:allow(raw-mutex)\n"
                   "engine_->disk().Access(r);\n")
        self.assertEqual(self.names(), ["ctx-charging"])

    def test_rule_filter_runs_subset(self):
        self.write("access/scan.h", "  std::mutex mu_;\n")
        self.write("access/scan.cc", "engine_->disk().Access(r);\n")
        self.assertEqual(self.names(["raw-mutex"]), ["raw-mutex"])

    def test_orphan_unit_fires_when_only_own_cc_tests_or_examples_include(self):
        self.write("exec/island.h", "class Island {};\n")
        self.write("exec/island.cc", '#include "exec/island.h"\n')
        self.write("island_test.cc", '#include "exec/island.h"\n',
                   tree="tests")
        self.write("island.cpp", '#include "exec/island.h"\n',
                   tree="examples")
        violations = self.lint(["orphan-unit"])
        self.assertEqual([(rel, name) for (rel, _, name, _) in violations],
                         [(os.path.join("exec", "island.h"), "orphan-unit")])

    def test_orphan_unit_quiet_when_src_bench_or_perfbench_includes(self):
        self.write("exec/used.h", "class Used {};\n")
        self.write("exec/used.cc", '#include "exec/used.h"\n')
        self.write("engine/engine.cc", '#include "exec/used.h"\n')
        self.write("access/benched.h", "class Benched {};\n")
        self.write("bench_x.cc", '#include "access/benched.h"\n',
                   tree="bench")
        self.write("mem/perf.h", "class Perf {};\n")
        self.write("runner/main.cc", '#include "mem/perf.h"\n',
                   tree="perfbench")
        # A header-only unit included by another header counts as used.
        self.write("common/types.h", "struct T {};\n")
        self.write("access/benched2.h", '#include "common/types.h"\n')
        self.write("bench_y.cc", '#include "access/benched2.h"\n',
                   tree="bench")
        self.assertEqual(self.lint(["orphan-unit"]), [])

    def test_orphan_unit_runs_by_default(self):
        self.write("exec/island.h", "class Island {};\n")
        self.assertEqual([name for (_, _, name, _) in lint.run(self.root,
                                                               set())],
                         ["orphan-unit"])
        self.assertEqual(lint.main(["--root", self.root]), 1)

    def test_cli_exit_codes(self):
        self.write("access/scan.cc", "int x = 0;\n")
        self.assertEqual(lint.main(["--root", self.root]), 0)
        self.write("access/bad.cc", "engine_->disk().Access(r);\n")
        self.assertEqual(lint.main(["--root", self.root]), 1)


if __name__ == "__main__":
    unittest.main()
