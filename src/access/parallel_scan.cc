#include "access/parallel_scan.h"

#include <algorithm>
#include <utility>

#include "access/index_scan.h"
#include "access/page_id_cache.h"
#include "index/bplus_tree.h"
#include "obs/trace.h"

namespace smoothscan {

namespace {

void Accumulate(AccessPathStats* into, const AccessPathStats& from) {
  into->tuples_produced += from.tuples_produced;
  into->tuples_inspected += from.tuples_inspected;
  into->heap_pages_probed += from.heap_pages_probed;
}

/// Drains `scan` (a serial operator restricted to one morsel) into pooled
/// batches against the morsel's stream; returns its counters.
AccessPathStats DrainMorsel(AccessPath* scan, const ExecContext& ctx,
                            const ParallelScanKernel::EmitFn& emit) {
  scan->SetExecContext(&ctx);
  SMOOTHSCAN_CHECK(scan->Open().ok());
  PooledBatch batch = ctx.batch_pool->Acquire();
  while (scan->NextBatch(batch.get())) {
    emit(std::move(batch));
    batch = ctx.batch_pool->Acquire();
  }
  const AccessPathStats stats = scan->stats();
  scan->Close();
  return stats;
}

/// Runs `fill` (a serial operator's phase that leaves charging to its
/// caller) until it reports no more, emitting every batch, then charges the
/// whole run once — the granularity the prolog and morsel streams use.
AccessPathStats FillAndCharge(
    const ExecContext& ctx, const ParallelScanKernel::EmitFn& emit,
    const std::function<bool(TupleBatch*, ScanWork*)>& fill) {
  ScanWork work;
  bool more = true;
  while (more) {
    PooledBatch batch = ctx.batch_pool->Acquire();
    more = fill(batch.get(), &work);
    emit(std::move(batch));
  }
  work.Charge(ctx.cpu);
  AccessPathStats stats;
  work.AddTo(&stats);
  return stats;
}

/// Seeds a page-range morsel's stream at the page the serial scan would have
/// just read, so summed parallel I/O charges equal the serial ones.
void SeedPageRange(const ExecContext& ctx, const HeapFile* heap,
                   const Morsel& m) {
  if (m.page_begin > 0) {
    ctx.disk->SeedPosition(heap->file_id(), m.page_begin - 1);
  }
}

}  // namespace

uint32_t AlignMorselPages(uint32_t morsel_pages, uint32_t read_ahead) {
  if (morsel_pages <= read_ahead) return read_ahead;
  return morsel_pages - morsel_pages % read_ahead;
}

// ---------------------------------------------------------------------------
// ParallelScan
// ---------------------------------------------------------------------------

ParallelScan::ParallelScan(Engine* engine,
                           std::unique_ptr<ParallelScanKernel> kernel,
                           ParallelScanOptions options)
    : engine_(engine), kernel_(std::move(kernel)), options_(options) {
  SMOOTHSCAN_CHECK(options_.dop >= 1);
  SMOOTHSCAN_CHECK(options_.morsel_pages >= 1);
}

ParallelScan::~ParallelScan() {
  // Make sure no worker outlives the slots it emits into.
  Unthrottle();
  if (group_ != nullptr) group_->Wait();
}

ExecContext ParallelScan::DefaultContext() const {
  return EngineContext(engine_);
}

TaskScheduler* ParallelScan::scheduler(uint32_t workers) {
  if (options_.scheduler != nullptr) return options_.scheduler;
  if (owned_scheduler_ == nullptr) {
    // Sized by the first cycle's puller count, so a huge DOP never spawns
    // more threads than there are morsels to run.
    owned_scheduler_ = std::make_unique<TaskScheduler>(workers);
  }
  return owned_scheduler_.get();
}

std::unique_ptr<AccountingStack> ParallelScan::NewStack() const {
  auto stack = std::make_unique<AccountingStack>(
      engine_, ctx().pool->mirror(), /*num_shards=*/1);
  stack->SetBatchPool(ctx().batch_pool);
  return stack;
}

void ParallelScan::EmitTo(size_t slot, PooledBatch&& batch) {
  // Empty batches go straight back to the pool (the handle's destructor).
  if (!batch || batch->empty()) return;
  {
    latch::UniqueLatch lock(mu_);
    while (window_ != 0 && slot > emit_slot_ && queued_ >= window_) {
      space_cv_.wait(lock);
    }
    slots_[slot].batches.push_back(std::move(batch));
    ++queued_;
  }
  cv_.notify_one();
}

void ParallelScan::Unthrottle() {
  {
    latch::LatchGuard lock(mu_);
    window_ = 0;
  }
  space_cv_.notify_all();
}

Status ParallelScan::OpenImpl() {
  Finalize();  // A re-Open mid-stream settles the previous cycle first.
  // Finalize() repopulates stats_ with the settled cycle's totals; this cycle
  // starts from zero, as the stats() contract requires.
  stats_ = AccessPathStats();
  {
    // No workers are live here (Finalize waited on the group), but the slot
    // state is latch-guarded, so reset it under the latch like everyone else.
    latch::LatchGuard lock(mu_);
    slots_.clear();
    emit_slot_ = 0;
  }
  stacks_.clear();
  morsel_stats_.clear();
  prolog_stats_ = AccessPathStats();
  group_.reset();
  pending_.Release();
  pending_pos_ = 0;
  finalized_ = false;
  kernel_->obs_ = obs();

  // Serial prolog on the planning stream. Workers are not running yet, so the
  // prolog emits into slot 0 without locking concerns.
  planning_ = NewStack();
  std::vector<PooledBatch> prolog;
  std::vector<Morsel> morsels = kernel_->Plan(
      planning_->ctx(),
      [&prolog](PooledBatch&& b) {
        if (b && !b->empty()) prolog.push_back(std::move(b));
      },
      &prolog_stats_);

  {
    latch::LatchGuard lock(mu_);
    slots_.resize(1 + morsels.size());
    for (PooledBatch& b : prolog) slots_[0].batches.push_back(std::move(b));
    slots_[0].done = true;
    queued_ = 0;  // The consumer drains slot 0 first; it never counts.
    window_ = options_.scheduler == nullptr
                  ? kQueuedBatchesPerWorker * options_.dop
                  : 0;
  }

  morsel_stats_.resize(morsels.size());
  stacks_.reserve(morsels.size());
  for (size_t i = 0; i < morsels.size(); ++i) stacks_.push_back(NewStack());
  source_ = std::make_unique<MorselSource>(std::move(morsels));
  if (source_->size() == 0) return Status::OK();

  // One puller task per worker; each drains the shared morsel source.
  std::vector<TaskScheduler::Task> tasks;
  const uint32_t pullers =
      std::min<uint32_t>(options_.dop, static_cast<uint32_t>(source_->size()));
  tasks.reserve(pullers);
  for (uint32_t t = 0; t < pullers; ++t) {
    tasks.push_back([this] {
      const obs::ObsContext* o = obs();
      Morsel m;
      while (source_->Next(&m)) {
        // Worker-ring span around the morsel; the index payload lets a
        // Perfetto view line morsels up against the queue they drained from.
        obs::TraceSpan morsel_span(o != nullptr ? o->trace : nullptr,
                                   o != nullptr ? o->query_id : 0, "morsel",
                                   "morsel_index",
                                   static_cast<int64_t>(m.index));
        morsel_stats_[m.index] = kernel_->RunMorsel(
            m, stacks_[m.index]->ctx(),
            [this, &m](PooledBatch&& b) { EmitTo(m.index + 1, std::move(b)); });
        {
          latch::LatchGuard lock(mu_);
          slots_[m.index + 1].done = true;
        }
        cv_.notify_all();
      }
    });
  }
  group_ = scheduler(pullers)->Submit(std::move(tasks));
  return Status::OK();
}

bool ParallelScan::NextBatchImpl(TupleBatch* out) {
  while (!out->full()) {
    if (pending_) {
      TupleBatch& pb = *pending_;
      if (out->empty() && pending_pos_ == 0 &&
          pb.capacity() == out->capacity()) {
        // Whole-batch hand-off: the exchange swaps the buffers, not the
        // rows, then recycles the caller's old storage through the pool —
        // the recycled-Value-storage contract the old `pending_ =
        // TupleBatch()` reset silently broke.
        std::swap(*out, pb);
        pending_.Release();
        return !out->empty();
      }
      const size_t n = pb.size();
      // Row by row, swap rather than move: both batches keep warm slots.
      while (pending_pos_ < n && !out->full()) {
        std::swap(*out->AppendSlot(), pb.row(pending_pos_++));
      }
      if (pending_pos_ >= n) {
        pending_.Release();
        pending_pos_ = 0;
      }
      continue;
    }
    // Pull the next batch in morsel order, waiting on the producers.
    latch::UniqueLatch lock(mu_);
    for (;;) {
      if (emit_slot_ >= slots_.size()) {
        lock.unlock();
        Finalize();  // End of stream: settle accounting before reporting it.
        return !out->empty();
      }
      Slot& slot = slots_[emit_slot_];
      if (slot.head < slot.batches.size()) {
        pending_ = std::move(slot.batches[slot.head++]);
        pending_pos_ = 0;
        // Slot 0 (the prolog) is never counted in queued_.
        if (emit_slot_ > 0 && --queued_ == window_ / 2 && window_ != 0) {
          space_cv_.notify_all();
        }
        break;
      }
      if (slot.done) {
        slot.batches.clear();
        slot.head = 0;
        ++emit_slot_;
        // The next morsel's worker may be waiting; it no longer has to.
        if (window_ != 0) space_cv_.notify_all();
        continue;
      }
      cv_.wait(lock);
    }
  }
  return !out->empty();
}

void ParallelScan::Finalize() {
  if (finalized_) return;
  finalized_ = true;
  Unthrottle();
  if (group_ != nullptr) group_->Wait();
  // Merge in deterministic order: prolog stream first, then morsel streams by
  // index. This fixes the floating-point accumulation order, so the merged
  // simulated time is bit-identical at any DOP.
  stats_ = AccessPathStats();
  Accumulate(&stats_, prolog_stats_);
  planning_->MergeInto(ctx().disk, ctx().cpu);
  BufferPoolStats pools = planning_->pool().stats();
  for (size_t i = 0; i < stacks_.size(); ++i) {
    Accumulate(&stats_, morsel_stats_[i]);
    stacks_[i]->MergeInto(ctx().disk, ctx().cpu);
    pools += stacks_[i]->pool().stats();
  }
  AddPoolStats(obs(), pools);
  planning_.reset();
  stacks_.clear();
}

void ParallelScan::CloseImpl() {
  Finalize();
  group_.reset();
  // Undrained batches (a consumer that Closed mid-stream) return to the
  // borrowed pool warm with the slots.
  {
    latch::LatchGuard lock(mu_);
    slots_.clear();
    slots_.shrink_to_fit();
    emit_slot_ = 0;
  }
  pending_.Release();
  pending_pos_ = 0;
  source_.reset();
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

AccessPathStats DrainKernel::RunMorsel(const Morsel& m, const ExecContext& ctx,
                                       const EmitFn& emit) {
  return DrainMorsel(scan_(m, ctx).get(), ctx, emit);
}

namespace {

// ---------------------------------------------------------------------------
// SortScan kernel: SortScan's leaf walk + TID sort in the prolog, and its
// sorted-TID cursor over each morsel's slice of the sorted array (one morsel
// per populated page-range bucket), filling pooled batches in place.
// ---------------------------------------------------------------------------

class ParallelSortScanKernel : public ParallelScanKernel {
 public:
  ParallelSortScanKernel(const BPlusTree* index, ScanPredicate predicate,
                         uint32_t morsel_pages)
      : index_(index),
        predicate_(std::move(predicate)),
        morsel_pages_(AlignMorselPages(morsel_pages, kSortScanChunkPages)) {}

  const char* name() const override { return "ParallelSortScan"; }

  std::vector<Morsel> Plan(const ExecContext& planning, const EmitFn&,
                           AccessPathStats*) override {
    tids_ = CollectSortedTids(index_, predicate_, planning);
    // One morsel per populated page-range bucket; each morsel's slice of the
    // sorted array is fixed here, so workers read disjoint slices.
    std::vector<Morsel> morsels;
    slices_.clear();
    for (size_t i = 0, j = 0; i < tids_.size(); i = j) {
      const PageId bucket = tids_[i].page_id / morsel_pages_;
      while (j < tids_.size() && tids_[j].page_id / morsel_pages_ == bucket) {
        ++j;
      }
      Morsel m;
      m.index = static_cast<uint32_t>(morsels.size());
      m.page_begin = bucket * morsel_pages_;
      m.page_end = m.page_begin + morsel_pages_;
      morsels.push_back(m);
      slices_.emplace_back(i, j);
    }
    return morsels;
  }

  AccessPathStats RunMorsel(const Morsel& m, const ExecContext& ctx,
                            const EmitFn& emit) override {
    const auto [begin, end] = slices_[m.index];
    SortedTidCursor cursor(index_->heap(), &predicate_, &tids_, begin, end);
    bool more = true;
    while (more) {
      PooledBatch batch = ctx.batch_pool->Acquire();
      more = cursor.Fill(ctx, batch.get());
      emit(std::move(batch));
    }
    return cursor.stats();
  }

 private:
  const BPlusTree* index_;
  ScanPredicate predicate_;
  uint32_t morsel_pages_;
  std::vector<Tid> tids_;
  std::vector<std::pair<size_t, size_t>> slices_;
};

// ---------------------------------------------------------------------------
// SwitchScan kernel: the index phase is inherently serial (the switch fires
// on the *global* produced cardinality), so SwitchScan's own index phase runs
// in the prolog; if the switch fires, FullScan's page loop runs over
// page-range morsels, all excluding the Tuple ID Cache frozen at the switch.
// Both phases are charged once (prolog, morsel), not per batch.
// ---------------------------------------------------------------------------

class ParallelSwitchScanKernel : public ParallelScanKernel {
 public:
  ParallelSwitchScanKernel(const BPlusTree* index, ScanPredicate predicate,
                           SwitchScanOptions scan_options,
                           uint32_t morsel_pages)
      : index_(index),
        predicate_(std::move(predicate)),
        scan_options_(scan_options),
        morsel_pages_(
            AlignMorselPages(morsel_pages, scan_options.read_ahead_pages)) {}

  const char* name() const override { return "ParallelSwitchScan"; }

  std::vector<Morsel> Plan(const ExecContext& planning, const EmitFn& emit,
                           AccessPathStats* stats) override {
    // Kept open (never Closed) until the next Plan: its produced-TID cache is
    // the morsels' exclusion. Its iterator is not touched after this call.
    index_phase_.emplace(index_, predicate_, scan_options_);
    index_phase_->SetExecContext(&planning);
    SMOOTHSCAN_CHECK(index_phase_->Open().ok());
    auto index_phase = [this](TupleBatch* out, ScanWork* work) {
      return index_phase_->IndexPhase(out, work);
    };
    Accumulate(stats, FillAndCharge(planning, emit, index_phase));
    if (!index_phase_->switched()) return {};
    return MorselSource::PageRanges(
        static_cast<PageId>(index_->heap()->num_pages()), morsel_pages_);
  }

  AccessPathStats RunMorsel(const Morsel& m, const ExecContext& ctx,
                            const EmitFn& emit) override {
    const HeapFile* heap = index_->heap();
    SeedPageRange(ctx, heap, m);
    FullScanOptions options;
    options.read_ahead_pages = scan_options_.read_ahead_pages;
    options.page_begin = m.page_begin;
    options.page_end = m.page_end;
    FullScan scan(heap, predicate_, options);
    scan.SetExecContext(&ctx);
    SMOOTHSCAN_CHECK(scan.Open().ok());
    const TupleIdCache* exclude = &index_phase_->produced();
    return FillAndCharge(ctx, emit, [&](TupleBatch* out, ScanWork* work) {
      return scan.Fill(out, exclude, work);
    });
  }

 private:
  const BPlusTree* index_;
  ScanPredicate predicate_;
  SwitchScanOptions scan_options_;
  uint32_t morsel_pages_;
  std::optional<SwitchScan> index_phase_;
};

// ---------------------------------------------------------------------------
// SmoothScan kernel: page-range morsels; the prolog walks the qualifying leaf
// range once (charged like the serial operator's walk) and buckets the
// entries by owning morsel. Each morsel runs SmoothScan over its bucket with
// regions clipped at the morsel's end, all morsels sharing one Page ID Cache
// (disjoint page ranges, so no bit is contended). The morph state carries
// across morsels without any cross-worker read: after the walk, the prolog
// dry-runs the region policy over the bitmap of pages holding a qualifying
// key, in morsel order, and hands each morsel the state the dry run reached
// at the end of the morsels before it. The seeds are a pure function of the
// index and the morsel plan, so region sizes never depend on scheduling.
// ---------------------------------------------------------------------------

class ParallelSmoothScanKernel : public ParallelScanKernel {
 public:
  ParallelSmoothScanKernel(const BPlusTree* index, ScanPredicate predicate,
                           SmoothScanOptions scan_options,
                           uint32_t morsel_pages)
      : index_(index),
        predicate_(std::move(predicate)),
        scan_options_(std::move(scan_options)),
        morsel_pages_(morsel_pages) {}

  const char* name() const override { return "ParallelSmoothScan"; }

  SmoothScanStats smooth_stats() const override {
    // Morsel-order merge, like Finalize's accounting merge.
    SmoothScanStats total;
    for (const SmoothScanStats& ss : sstats_) {
      total.card_mode1 += ss.card_mode1;
      total.card_mode2 += ss.card_mode2;
      total.probes += ss.probes;
      total.expansions += ss.expansions;
      total.shrinks += ss.shrinks;
      total.pages_seen += ss.pages_seen;
      total.pages_with_results += ss.pages_with_results;
      total.morph_checked_pages += ss.morph_checked_pages;
      total.morph_result_pages += ss.morph_result_pages;
      total.page_cache_hits += ss.page_cache_hits;
    }
    return total;
  }

  std::vector<Morsel> Plan(const ExecContext& planning, const EmitFn&,
                           AccessPathStats*) override {
    const PageId num_pages = static_cast<PageId>(index_->heap()->num_pages());
    std::vector<Morsel> morsels =
        MorselSource::PageRanges(num_pages, morsel_pages_);
    page_cache_ = std::make_unique<PageIdCache>(num_pages);
    buckets_.assign(morsels.size(), {});
    seeds_.assign(morsels.size(), SmoothScanMorsel());
    sstats_.assign(morsels.size(), SmoothScanStats());
    PageIdCache result_pages(num_pages);
    for (BPlusTree::Iterator it = index_->Seek(predicate_.lo, &planning);
         it.Valid() && it.key() < predicate_.hi; it.Next()) {
      buckets_[it.tid().page_id / morsel_pages_].push_back(it.tid());
      result_pages.Mark(it.tid().page_id);
    }
    // Without flattening the region never grows: there is no state to carry.
    if (scan_options_.enable_flattening) {
      SeedMorphState(morsels, result_pages, planning);
    }
    return morsels;
  }

  AccessPathStats RunMorsel(const Morsel& m, const ExecContext& ctx,
                            const EmitFn& emit) override {
    SmoothScanMorsel morsel = seeds_[m.index];
    morsel.targets = &buckets_[m.index];
    morsel.page_end = m.page_end;
    morsel.page_cache = page_cache_.get();
    SmoothScan scan(index_, predicate_, scan_options_, morsel);
    scan.SetObs(obs());
    const AccessPathStats stats = DrainMorsel(&scan, ctx, emit);
    sstats_[m.index] = scan.smooth_stats();
    return stats;
  }

 private:
  /// Dry run of SmoothScan's region loop (no heap I/O): follows every
  /// morsel's bucket in morsel order, marks each region's unmarked pages,
  /// clips regions at the morsel's end, counts a page as holding results when
  /// it holds a qualifying key, and steps the policy as FetchRegionAndHarvest
  /// does. Residual predicates are ignored, so with one the seeds are an
  /// estimate; either way they are deterministic. Charges one cache op per
  /// marked page on the planning stream.
  void SeedMorphState(const std::vector<Morsel>& morsels,
                      const PageIdCache& result_pages,
                      const ExecContext& planning) {
    PageIdCache marked(result_pages.num_pages());
    SmoothScanMorsel state;
    uint64_t expansions = 0;
    uint64_t shrinks = 0;
    for (size_t i = 0; i < morsels.size(); ++i) {
      seeds_[i] = state;
      for (const Tid& tid : buckets_[i]) {
        const PageId target = tid.page_id;
        if (marked.IsMarked(target)) continue;
        const PageId end =
            std::min<PageId>(target + state.region_pages, morsels[i].page_end);
        uint64_t region_seen = 0;
        uint64_t region_results = 0;
        for (PageId pid = target; pid < end; ++pid) {
          if (!marked.Mark(pid)) continue;
          ++region_seen;
          if (result_pages.IsMarked(pid)) ++region_results;
        }
        state.region_pages = MorphRegionStep(
            scan_options_.policy, state.region_pages,
            scan_options_.max_region_pages, state.pages_seen,
            state.pages_with_results, region_seen, region_results, &expansions,
            &shrinks);
        state.pages_seen += region_seen;
        state.pages_with_results += region_results;
      }
    }
    planning.cpu->ChargeCacheOp(state.pages_seen);
  }

  const BPlusTree* index_;
  ScanPredicate predicate_;
  SmoothScanOptions scan_options_;
  uint32_t morsel_pages_;

  std::unique_ptr<PageIdCache> page_cache_;
  std::vector<std::vector<Tid>> buckets_;
  /// Per-morsel morph seeds; RunMorsel fills in the rest of each morsel.
  std::vector<SmoothScanMorsel> seeds_;
  /// Per-morsel operator counters; slot i is written only by morsel i's
  /// worker.
  std::vector<SmoothScanStats> sstats_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

std::unique_ptr<ParallelScan> MakeParallelFullScan(
    const HeapFile* heap, ScanPredicate predicate, FullScanOptions scan_options,
    ParallelScanOptions options) {
  const uint32_t morsel_pages =
      AlignMorselPages(options.morsel_pages, scan_options.read_ahead_pages);
  auto plan = [heap, morsel_pages] {
    return MorselSource::PageRanges(static_cast<PageId>(heap->num_pages()),
                                    morsel_pages);
  };
  auto scan = [heap, predicate = std::move(predicate), scan_options](
                  const Morsel& m, const ExecContext& ctx) {
    SeedPageRange(ctx, heap, m);
    FullScanOptions range = scan_options;
    range.page_begin = m.page_begin;
    range.page_end = m.page_end;
    return std::make_unique<FullScan>(heap, predicate, range);
  };
  return std::make_unique<ParallelScan>(
      heap->engine(),
      std::make_unique<DrainKernel>("ParallelFullScan", std::move(plan),
                                    std::move(scan)),
      options);
}

std::unique_ptr<ParallelScan> MakeParallelIndexScan(
    const BPlusTree* index, ScanPredicate predicate,
    ParallelScanOptions options) {
  // Key-range morsels from the leaf-level histogram.
  auto plan = [index, lo = predicate.lo, hi = predicate.hi,
               parts = options.max_key_morsels] {
    return MorselSource::KeyRanges(index->PartitionKeyRange(lo, hi, parts));
  };
  auto scan = [index, predicate = std::move(predicate)](const Morsel& m,
                                                        const ExecContext&) {
    ScanPredicate range = predicate;
    range.lo = m.key_lo;
    range.hi = m.key_hi;
    return std::make_unique<IndexScan>(index, std::move(range));
  };
  return std::make_unique<ParallelScan>(
      index->heap()->engine(),
      std::make_unique<DrainKernel>("ParallelIndexScan", std::move(plan),
                                    std::move(scan)),
      options);
}

std::unique_ptr<ParallelScan> MakeParallelSortScan(
    const BPlusTree* index, ScanPredicate predicate,
    SortScanOptions scan_options, ParallelScanOptions options) {
  SMOOTHSCAN_CHECK(predicate.column == index->key_column());
  // Cross-morsel key order would need a merge above the workers; the serial
  // SortScan covers order-preserving plans.
  if (scan_options.preserve_order) return nullptr;
  return std::make_unique<ParallelScan>(
      index->heap()->engine(),
      std::make_unique<ParallelSortScanKernel>(index, std::move(predicate),
                                               options.morsel_pages),
      options);
}

std::unique_ptr<ParallelScan> MakeParallelSwitchScan(
    const BPlusTree* index, ScanPredicate predicate,
    SwitchScanOptions scan_options, ParallelScanOptions options) {
  SMOOTHSCAN_CHECK(predicate.column == index->key_column());
  return std::make_unique<ParallelScan>(
      index->heap()->engine(),
      std::make_unique<ParallelSwitchScanKernel>(
          index, std::move(predicate), scan_options, options.morsel_pages),
      options);
}

std::unique_ptr<ParallelScan> MakeParallelSmoothScan(
    const BPlusTree* index, ScanPredicate predicate,
    SmoothScanOptions scan_options, ParallelScanOptions options) {
  SMOOTHSCAN_CHECK(predicate.column == index->key_column());
  // The pre-trigger Mode 0 phase gates on the *global* produced cardinality,
  // the Result Cache needs cross-morsel key order, and the shared mode is a
  // cross-query serial feature; the parallel variant covers the paper's
  // default Eager + unordered configuration. Everything else keeps the
  // serial operator (null, per the factory contract).
  if (scan_options.trigger != MorphTrigger::kEager) return nullptr;
  if (scan_options.preserve_order) return nullptr;
  if (scan_options.shared_group != nullptr) return nullptr;
  return std::make_unique<ParallelScan>(
      index->heap()->engine(),
      std::make_unique<ParallelSmoothScanKernel>(
          index, std::move(predicate), std::move(scan_options),
          options.morsel_pages),
      options);
}

}  // namespace smoothscan
