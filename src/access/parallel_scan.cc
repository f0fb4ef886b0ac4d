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

/// Cursor over a serial operator restricted to one morsel: Open at start,
/// NextBatch per fill, Close at finish.
MorselCursor PathCursor(std::shared_ptr<AccessPath> path,
                        const ExecContext& ctx) {
  path->SetExecContext(&ctx);
  SMOOTHSCAN_CHECK(path->Open().ok());
  return {[path](TupleBatch* out) { return path->NextBatch(out); },
          [path = std::move(path)] {
            const AccessPathStats stats = path->stats();
            path->Close();
            return stats;
          }};
}

/// Cursor over a serial operator's phase that leaves charging to its caller:
/// the phase's ScanWork accumulates over every fill and is charged once at
/// finish — the granularity the prolog and morsel streams use.
MorselCursor WorkCursor(const ExecContext& ctx,
                        std::function<bool(TupleBatch*, ScanWork*)> fill) {
  auto work = std::make_shared<ScanWork>();
  return {[fill = std::move(fill), work](TupleBatch* out) {
            return fill(out, work.get());
          },
          [&ctx, work] {
            work->Charge(ctx.cpu);
            AccessPathStats stats;
            work->AddTo(&stats);
            return stats;
          }};
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

std::vector<Morsel> PageRangeMorsels(PageId num_pages, uint32_t morsel_pages) {
  SMOOTHSCAN_CHECK(morsel_pages > 0);
  std::vector<Morsel> morsels;
  for (PageId begin = 0; begin < num_pages; begin += morsel_pages) {
    Morsel m;
    m.index = static_cast<uint32_t>(morsels.size());
    m.page_begin = begin;
    m.page_end = std::min<PageId>(begin + morsel_pages, num_pages);
    morsels.push_back(m);
  }
  return morsels;
}

std::vector<Morsel> KeyRangeMorsels(const std::vector<int64_t>& bounds) {
  std::vector<Morsel> morsels;
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    SMOOTHSCAN_CHECK(bounds[i] <= bounds[i + 1]);
    if (bounds[i] == bounds[i + 1]) continue;  // Empty range.
    Morsel m;
    m.index = static_cast<uint32_t>(morsels.size());
    m.key_lo = bounds[i];
    m.key_hi = bounds[i + 1];
    morsels.push_back(m);
  }
  return morsels;
}

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
  // No task may outlive the slots it fills, and a parked morsel finishes
  // only once re-queued.
  Drain();
}

ExecContext ParallelScan::DefaultContext() const {
  return EngineContext(engine_);
}

std::unique_ptr<AccountingStack> ParallelScan::NewStack() const {
  auto stack = std::make_unique<AccountingStack>(
      engine_, ctx().pool->mirror(), /*num_shards=*/1);
  stack->SetBatchPool(ctx().batch_pool);
  return stack;
}

bool ParallelScan::FillSlot(size_t s, const MorselCursor& cursor,
                            BatchPool* pool) {
  for (;;) {
    PooledBatch batch = pool->Acquire();
    const bool more = cursor.fill(batch.get());
    bool park;
    {
      latch::LatchGuard lock(mu_);
      // Empty batches go straight back to the pool (the handle's destructor).
      if (!batch->empty()) {
        slots_[s].batches.push_back(std::move(batch));
        if (s > 0) ++queued_;  // The prolog (slot 0) never counts.
      }
      park = s > emit_slot_ && queued_ >= window();
    }
    cv_.notify_one();
    if (!more) return true;
    if (park) return false;
  }
}

void ParallelScan::RunSlots(size_t s) {
  while (s != 0) {
    Run& run = runs_[s];
    bool done;
    {
      // Worker-ring span around one run of the morsel (a parked morsel
      // resumes in a new span); the index payload lets a Perfetto view line
      // morsels up against the queue they drained from.
      const obs::ObsContext* o = obs();
      obs::TraceSpan morsel_span(o != nullptr ? o->trace : nullptr,
                                 o != nullptr ? o->query_id : 0, "morsel",
                                 "morsel_index", static_cast<int64_t>(s - 1));
      if (!run.cursor.fill) {
        run.cursor = kernel_->StartMorsel(morsels_[s - 1], run.stack->ctx());
      }
      done = FillSlot(s, run.cursor, run.stack->ctx().batch_pool);
      if (done) {
        run.stats = run.cursor.finish();
        run.cursor = MorselCursor();
      }
    }
    latch::LatchGuard lock(mu_);
    slots_[s].state = done ? RunState::kDone : RunState::kParked;
    s = PickLocked();
    if (s != 0) {
      slots_[s].state = RunState::kRunning;
    } else {
      --in_flight_;
    }
    cv_.notify_one();
  }
}

size_t ParallelScan::PickLocked() const {
  for (size_t s = std::max<size_t>(emit_slot_, 1); s < slots_.size(); ++s) {
    const RunState state = slots_[s].state;
    if (state == RunState::kUnstarted || state == RunState::kParked) {
      return s == emit_slot_ || queued_ < window() ? s : 0;
    }
  }
  return 0;
}

void ParallelScan::DispatchLocked() {
  std::vector<TaskScheduler::Task> tasks;
  size_t s;
  while (in_flight_ < options_.dop && (s = PickLocked()) != 0) {
    slots_[s].state = RunState::kRunning;
    ++in_flight_;
    tasks.push_back([this, s] { RunSlots(s); });
  }
  if (!tasks.empty()) scheduler_->Submit(std::move(tasks));
}

Status ParallelScan::OpenImpl() {
  Finalize();  // A re-Open mid-stream settles the previous cycle first.
  // Finalize() repopulates stats_ with the settled cycle's totals; this cycle
  // starts from zero, as the stats() contract requires.
  stats_ = AccessPathStats();
  scheduler_ = ctx().scheduler;
  SMOOTHSCAN_CHECK(scheduler_ != nullptr);
  {
    // No task is in flight (Finalize drained the last cycle), but the slot
    // state is latch-guarded, so reset it under the latch like everyone else.
    latch::LatchGuard lock(mu_);
    slots_.clear();
    slots_.resize(1);
    emit_slot_ = 0;
    queued_ = 0;
  }
  finalized_ = false;
  kernel_->obs_ = obs();

  // Serial prolog on the planning stream, filling slot 0 before any task
  // runs.
  runs_.clear();
  runs_.resize(1);
  runs_[0].stack = NewStack();
  const ExecContext& planning = runs_[0].stack->ctx();
  if (const MorselCursor prolog = kernel_->StartProlog(planning);
      prolog.fill) {
    FillSlot(0, prolog, planning.batch_pool);
    runs_[0].stats = prolog.finish();
  }
  morsels_ = kernel_->Plan(planning);
  runs_.resize(1 + morsels_.size());
  for (size_t s = 1; s < runs_.size(); ++s) runs_[s].stack = NewStack();

  latch::LatchGuard lock(mu_);
  slots_[0].state = RunState::kDone;
  slots_.resize(runs_.size());
  DispatchLocked();
  return Status::OK();
}

PooledBatch ParallelScan::Take() {
  latch::UniqueLatch lock(mu_);
  for (;;) {
    if (emit_slot_ >= slots_.size()) return PooledBatch();
    Slot& slot = slots_[emit_slot_];
    if (slot.head < slot.batches.size()) {
      PooledBatch batch = std::move(slot.batches[slot.head++]);
      // Below half the window, parked and unstarted morsels run again.
      if (emit_slot_ > 0 && --queued_ <= window() / 2) DispatchLocked();
      return batch;
    }
    if (slot.state == RunState::kDone) {
      slot.batches.clear();
      slot.head = 0;
      ++emit_slot_;
      continue;
    }
    // The consumer's morsel has nothing queued; parked or unstarted, it
    // runs at once.
    DispatchLocked();
    cv_.wait(lock);
  }
}

bool ParallelScan::NextBatchImpl(TupleBatch* out) {
  while (!out->full()) {
    if (!pending_) {
      pending_ = Take();
      pending_pos_ = 0;
      if (!pending_) {
        Finalize();  // End of stream: settle accounting before reporting it.
        return !out->empty();
      }
    }
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
    if (pending_pos_ >= n) pending_.Release();
  }
  return !out->empty();
}

void ParallelScan::Drain() {
  // Take() reports the end only once every slot is done, and each task marks
  // its last slot done and leaves in one critical section: after the loop no
  // task of this scan is in flight.
  pending_.Release();
  while (Take()) {
  }
}

void ParallelScan::Finalize() {
  if (finalized_) return;
  finalized_ = true;
  Drain();
  // Merge in deterministic order: prolog stream first, then morsel streams by
  // index. This fixes the floating-point accumulation order, so the merged
  // simulated time is bit-identical at any DOP.
  stats_ = AccessPathStats();
  BufferPoolStats pools;
  for (const Run& run : runs_) {
    Accumulate(&stats_, run.stats);
    run.stack->MergeInto(ctx().disk, ctx().cpu);
    pools += run.stack->pool().stats();
  }
  AddPoolStats(obs(), pools);
  runs_.clear();
}

void ParallelScan::CloseImpl() {
  Finalize();
  {
    latch::LatchGuard lock(mu_);
    slots_.clear();
    slots_.shrink_to_fit();
    emit_slot_ = 0;
  }
  morsels_.clear();
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

MorselCursor DrainKernel::StartMorsel(const Morsel& m, const ExecContext& ctx) {
  return PathCursor(scan_(m, ctx), ctx);
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

  std::vector<Morsel> Plan(const ExecContext& planning) override {
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

  MorselCursor StartMorsel(const Morsel& m, const ExecContext& ctx) override {
    const auto [begin, end] = slices_[m.index];
    auto cursor = std::make_shared<SortedTidCursor>(index_->heap(), &predicate_,
                                                    &tids_, begin, end);
    return {[cursor, &ctx](TupleBatch* out) { return cursor->Fill(ctx, out); },
            [cursor] { return cursor->stats(); }};
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
// page-range morsels, all excluding what lies below the index position where
// the switch fired.
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

  MorselCursor StartProlog(const ExecContext& planning) override {
    // Kept open (never Closed) until the next prolog: its stop position is
    // the morsels' exclusion. Its iterator is not touched after the
    // prolog ends.
    index_phase_.emplace(index_, predicate_, scan_options_);
    index_phase_->SetExecContext(&planning);
    SMOOTHSCAN_CHECK(index_phase_->Open().ok());
    return WorkCursor(planning, [this](TupleBatch* out, ScanWork* work) {
      return index_phase_->IndexPhase(out, work);
    });
  }

  std::vector<Morsel> Plan(const ExecContext&) override {
    if (!index_phase_->switched()) return {};
    return PageRangeMorsels(
        static_cast<PageId>(index_->heap()->num_pages()), morsel_pages_);
  }

  MorselCursor StartMorsel(const Morsel& m, const ExecContext& ctx) override {
    const HeapFile* heap = index_->heap();
    SeedPageRange(ctx, heap, m);
    FullScanOptions options;
    options.read_ahead_pages = scan_options_.read_ahead_pages;
    options.page_begin = m.page_begin;
    options.page_end = m.page_end;
    auto scan = std::make_shared<FullScan>(heap, predicate_, options);
    scan->SetExecContext(&ctx);
    SMOOTHSCAN_CHECK(scan->Open().ok());
    const IndexPosition* exclude = &index_phase_->stop();
    return WorkCursor(ctx, [scan, exclude](TupleBatch* out, ScanWork* work) {
      return scan->Fill(out, exclude, work);
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

  std::vector<Morsel> Plan(const ExecContext& planning) override {
    const PageId num_pages = static_cast<PageId>(index_->heap()->num_pages());
    std::vector<Morsel> morsels =
        PageRangeMorsels(num_pages, morsel_pages_);
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

  MorselCursor StartMorsel(const Morsel& m, const ExecContext& ctx) override {
    SmoothScanMorsel morsel = seeds_[m.index];
    morsel.targets = &buckets_[m.index];
    morsel.page_end = m.page_end;
    morsel.page_cache = page_cache_.get();
    auto scan =
        std::make_shared<SmoothScan>(index_, predicate_, scan_options_, morsel);
    scan->SetObs(obs());
    MorselCursor cursor = PathCursor(scan, ctx);
    // The operator's counters, once its Close added them to the registry.
    cursor.finish = [finish = std::move(cursor.finish), scan,
                     sstats = &sstats_[m.index]] {
      const AccessPathStats stats = finish();
      *sstats = scan->smooth_stats();
      return stats;
    };
    return cursor;
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
  /// Per-morsel morph seeds; StartMorsel fills in the rest of each morsel.
  std::vector<SmoothScanMorsel> seeds_;
  /// Per-morsel operator counters; slot i is written only by morsel i's
  /// cursor.
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
    return PageRangeMorsels(static_cast<PageId>(heap->num_pages()),
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
    return KeyRangeMorsels(index->PartitionKeyRange(lo, hi, parts));
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
