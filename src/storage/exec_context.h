// ExecContext: the accounting surface an operator executes against — which
// buffer pool its page accesses go through, which CPU meter its work is
// charged to, which simulated disk classifies its stream, and which batch
// pool its pooled batches come from. Serial execution uses the engine's
// shared instances; the multi-query engine gives every query, and
// morsel-driven parallel execution every morsel, a private AccountingStack so
// that simulated time is charged per *logical access stream*: a pure function
// of the query (or the morsel decomposition), independent of concurrency,
// worker count and interleaving. Batch storage and workers are not accounting
// state: every context borrows a batch pool (the engine's, or the query's,
// which charges the query's memory account) and a task scheduler (the
// engine's), and no operator owns either.

#ifndef SMOOTHSCAN_STORAGE_EXEC_CONTEXT_H_
#define SMOOTHSCAN_STORAGE_EXEC_CONTEXT_H_

#include "storage/engine.h"

namespace smoothscan {

/// Borrowed pointers to the components an operator charges its work to.
/// Copyable; the pointees must outlive every operator using the context.
struct ExecContext {
  StorageManager* storage = nullptr;
  BufferPool* pool = nullptr;
  CpuMeter* cpu = nullptr;
  SimDisk* disk = nullptr;
  /// Recycled-batch pool the operator borrows: the parallel kernels emit
  /// through it and Smooth Scan spills into it. Never null in a context
  /// built by EngineContext or AccountingStack.
  BatchPool* batch_pool = nullptr;
  /// Worker pool a parallel scan runs its morsels on: the engine's, unless
  /// the context's owner supplied another. Every scan on it keeps the same
  /// window of queued batches (see parallel_scan.h). Never null in a context
  /// built by EngineContext or AccountingStack.
  TaskScheduler* scheduler = nullptr;
};

/// The engine's shared (serial) execution context.
inline ExecContext EngineContext(Engine* engine) {
  return ExecContext{&engine->storage(),    &engine->pool(),
                     &engine->cpu(),        &engine->disk(),
                     &engine->batch_pool(), &engine->scheduler()};
}

/// A private accounting stack: a simulated disk (one logical access stream),
/// a buffer pool with the engine's capacity, and a CPU meter — all starting
/// cold and zeroed. Page *data* still comes from the engine's StorageManager
/// (pages are immutable at query time), so only accounting state is
/// duplicated, and a stack's simulated cost is a pure function of the work
/// run against it.
///
/// Two shapes, differing only in the pool's shard count:
///   * a query stack (the multi-query engine; the engine's shard count), so a
///     single query observes exactly the hit/miss sequence a solo cold run
///     against the engine pool would — bit-identical no matter how many
///     queries run beside it;
///   * a morsel stack (num_shards = 1: morsel-local residency, exact LRU).
///     The parallel scan merges its stacks into its own context in morsel
///     order, which keeps the accumulated doubles bit-identical across
///     degrees of parallelism.
/// When `mirror` is given (the engine's shared pool) every access also lands
/// there — a fetch or pin pins its page for the guard's lifetime, a look-up
/// or extent read touches it with no pin; see BufferPool::SetMirror — so
/// concurrent streams contend for the one real pool without perturbing each
/// other's accounting.
/// The stack's pool has the engine's capacity but grows its frames lazily,
/// one per page it actually holds: a morsel stack that touches 128 pages
/// allocates 128 frames, not a capacity's worth.
class AccountingStack {
 public:
  explicit AccountingStack(Engine* engine, BufferPool* mirror = nullptr,
                           uint32_t num_shards = BufferPool::kDefaultShards)
      : disk_(engine->options().device, engine->options().page_size),
        pool_(&engine->storage(), &disk_, engine->options().buffer_pool_pages,
              num_shards),
        cpu_(engine->options().cpu_costs) {
    pool_.SetMirror(mirror);
    ctx_.storage = &engine->storage();
    ctx_.pool = &pool_;
    ctx_.cpu = &cpu_;
    ctx_.disk = &disk_;
    ctx_.batch_pool = &engine->batch_pool();
    ctx_.scheduler = &engine->scheduler();
  }

  AccountingStack(const AccountingStack&) = delete;
  AccountingStack& operator=(const AccountingStack&) = delete;

  /// Hands the stack's operators a batch pool other than the engine's (the
  /// query's own, or the one a parallel scan's context carries). Set before
  /// any operator runs against the stack.
  void SetBatchPool(BatchPool* pool) { ctx_.batch_pool = pool; }
  /// Hands the stack's parallel scans a worker pool other than the engine's.
  /// Set before any operator runs against the stack.
  void SetScheduler(TaskScheduler* scheduler) { ctx_.scheduler = scheduler; }

  const ExecContext& ctx() const { return ctx_; }
  SimDisk& disk() { return disk_; }
  BufferPool& pool() { return pool_; }
  CpuMeter& cpu() { return cpu_; }

  /// Folds this stream's accounting into `disk` and `cpu`. Call exactly once
  /// per stack, in a deterministic (morsel) order.
  void MergeInto(SimDisk* disk, CpuMeter* cpu) const {
    disk->Absorb(disk_.stats());
    cpu->Add(cpu_.time());
  }

 private:
  SimDisk disk_;
  BufferPool pool_;
  CpuMeter cpu_;
  ExecContext ctx_;
};

}  // namespace smoothscan

#endif  // SMOOTHSCAN_STORAGE_EXEC_CONTEXT_H_
