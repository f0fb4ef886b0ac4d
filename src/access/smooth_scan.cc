#include "access/smooth_scan.h"

#include <algorithm>

namespace smoothscan {

const char* MorphPolicyToString(MorphPolicy policy) {
  switch (policy) {
    case MorphPolicy::kGreedy:
      return "Greedy";
    case MorphPolicy::kSelectivityIncrease:
      return "SelectivityIncrease";
    case MorphPolicy::kElastic:
      return "Elastic";
  }
  return "?";
}

const char* MorphTriggerToString(MorphTrigger trigger) {
  switch (trigger) {
    case MorphTrigger::kEager:
      return "Eager";
    case MorphTrigger::kOptimizerDriven:
      return "OptimizerDriven";
    case MorphTrigger::kSlaDriven:
      return "SlaDriven";
  }
  return "?";
}

uint32_t MorphRegionStep(MorphPolicy policy, uint32_t region_pages,
                         uint32_t max_region_pages, uint64_t pages_seen_before,
                         uint64_t pages_with_results_before,
                         uint64_t region_pages_seen,
                         uint64_t region_result_pages, uint64_t* expansions,
                         uint64_t* shrinks) {
  const bool denser =
      pages_seen_before == 0 ||
      static_cast<double>(region_result_pages) *
              static_cast<double>(pages_seen_before) >=
          static_cast<double>(pages_with_results_before) *
              static_cast<double>(region_pages_seen);
  // Counters record *actual* morphing activity: a step that leaves the region
  // at the cap (or an Elastic halving already at one page) is a no-op and
  // must not count — otherwise Fig. 7's expansion/shrink series overstate how
  // much the operator morphed once the region saturates.
  const uint32_t grown = std::min(region_pages * 2, max_region_pages);
  const uint32_t shrunk = std::max(region_pages / 2, 1u);
  switch (policy) {
    case MorphPolicy::kGreedy:
      if (grown != region_pages) ++*expansions;
      region_pages = grown;
      break;
    case MorphPolicy::kSelectivityIncrease:
      if (denser) {
        if (grown != region_pages) ++*expansions;
        region_pages = grown;
      }
      break;
    case MorphPolicy::kElastic:
      if (denser) {
        if (grown != region_pages) ++*expansions;
        region_pages = grown;
      } else {
        if (shrunk != region_pages) ++*shrinks;
        region_pages = shrunk;
      }
      break;
  }
  return region_pages;
}

SmoothScan::SmoothScan(const BPlusTree* index, ScanPredicate predicate,
                       SmoothScanOptions options)
    : index_(index), predicate_(std::move(predicate)), options_(options) {
  SMOOTHSCAN_CHECK(predicate_.column == index_->key_column());
  SMOOTHSCAN_CHECK(options_.max_region_pages >= 1);
}

SmoothScan::SmoothScan(const BPlusTree* index, ScanPredicate predicate,
                       SmoothScanOptions options, SmoothScanMorsel morsel)
    : SmoothScan(index, std::move(predicate), std::move(options)) {
  SMOOTHSCAN_CHECK(morsel.targets != nullptr && morsel.page_cache != nullptr);
  SMOOTHSCAN_CHECK(options_.trigger == MorphTrigger::kEager &&
                   !options_.preserve_order && !options_.shared_group);
  morsel_ = morsel;
}

ExecContext SmoothScan::DefaultContext() const {
  return EngineContext(index_->heap()->engine());
}

Status SmoothScan::OpenImpl() {
  sstats_ = SmoothScanStats();
  spill_.clear();
  spill_next_ = spill_pos_ = 0;
  region_pages_ = morsel_.region_pages;
  mode0_stop_ = IndexPosition();
  result_cache_.reset();
  page_end_ = static_cast<PageId>(index_->heap()->num_pages());
  if (morsel_.targets != nullptr) {
    page_end_ = std::min(page_end_, morsel_.page_end);
    page_cache_ = morsel_.page_cache;
    next_target_ = 0;
  } else {
    owned_page_cache_ = std::make_unique<PageIdCache>(page_end_);
    page_cache_ = owned_page_cache_.get();
  }

  cache_skip_run_ = 0;

  switch (options_.trigger) {
    case MorphTrigger::kEager:
      morphing_ = true;
      active_policy_ = options_.policy;
      break;
    case MorphTrigger::kOptimizerDriven:
      morphing_ = false;
      pretrigger_bound_ = options_.optimizer_estimate;
      active_policy_ = options_.post_trigger_policy;
      break;
    case MorphTrigger::kSlaDriven:
      morphing_ = false;
      pretrigger_bound_ = options_.sla_trigger_cardinality;
      active_policy_ = options_.post_trigger_policy;
      break;
  }
  if (options_.preserve_order) {
    ResultCacheOptions rc_options;
    rc_options.max_resident_tuples = options_.result_cache_budget;
    rc_options.broker = options_.broker;
    result_cache_ = std::make_unique<ResultCache>(
        index_->RootSeparators(), index_->heap()->engine(), rc_options);
  }
  obs::EmitInstant(obs(), "smooth_open", "max_region_pages",
                   options_.max_region_pages, "region_pages", region_pages_,
                   nullptr, 0, "policy", MorphPolicyToString(active_policy_));
  if (morsel_.targets == nullptr) it_ = index_->Seek(predicate_.lo, &ctx());
  // A zero pre-trigger bound (e.g. an optimizer estimate of 0 tuples) means
  // the very first tuple already violates it: morph immediately.
  MaybeTrigger();
  return Status::OK();
}

void SmoothScan::CloseImpl() {
  FlushCacheSkipRun();
  if (page_cache_ != nullptr) {
    // Once per cycle (page_cache_ lives from Open to the first Close). Only
    // a non-eager trigger can fire, so only it registers morph_triggers.
    if (options_.trigger != MorphTrigger::kEager) {
      obs::AddCount(obs(), "smooth.morph_triggers", sstats_.triggered);
    }
    obs::AddCount(obs(), "smooth.region_grows", sstats_.expansions);
    obs::AddCount(obs(), "smooth.region_shrinks", sstats_.shrinks);
    obs::AddCount(obs(), "smooth.page_cache_hits", sstats_.page_cache_hits);
  }
  // Release every auxiliary structure (page cache, result cache and
  // its spill file references, buffered tuples, the index iterator). The
  // next Open() rebuilds them from scratch.
  it_.reset();
  owned_page_cache_.reset();
  page_cache_ = nullptr;
  if (result_cache_ != nullptr) {
    const ResultCacheStats& rc = result_cache_->spill_stats();
    sstats_.rc_spills += rc.spills;
    sstats_.rc_pressure_spills += rc.pressure_spills;
    sstats_.rc_restores += rc.restores;
    sstats_.rc_spilled_tuples += rc.spilled_tuples;
    sstats_.rc_restored_tuples += rc.restored_tuples;
    obs::AddCount(obs(), "rc.spills", rc.spills);
    obs::AddCount(obs(), "rc.pressure_spills", rc.pressure_spills);
    obs::AddCount(obs(), "rc.restores", rc.restores);
  }
  result_cache_.reset();
  spill_.clear();
  spill_next_ = spill_pos_ = 0;
}

void SmoothScan::MaybeTrigger() {
  if (morphing_) return;
  if (stats_.tuples_produced >= pretrigger_bound_) {
    morphing_ = true;
    mode0_stop_ = it_->position();
    sstats_.triggered = true;
    sstats_.trigger_cardinality = stats_.tuples_produced;
    obs::EmitInstant(obs(), "morph_trigger", "cardinality",
                     static_cast<int64_t>(stats_.tuples_produced),
                     "region_pages", region_pages_, nullptr, 0, "trigger",
                     MorphTriggerToString(options_.trigger));
  }
}

void SmoothScan::Mode0Step(TupleBatch* out) {
  const HeapFile* heap = index_->heap();
  const ExecContext& ctx = this->ctx();
  const Tid tid = it_->tid();
  it_->PrefetchHeapAhead();
  it_->Next();
  Tuple* slot = out->AppendSlot();
  heap->ReadInto(tid, ctx, slot);  // Single-tuple look-up: random I/O.
  ++stats_.heap_pages_probed;
  ++stats_.tuples_inspected;
  ctx.cpu->ChargeInspect();
  if (predicate_.residual && !predicate_.residual(*slot)) {
    out->PopLast();
    return;
  }
  ctx.cpu->ChargeCacheOp();  // The paper's Tuple ID Cache insert.
  ctx.cpu->ChargeProduce();
  ++stats_.tuples_produced;
  ++sstats_.card_mode0;
  MaybeTrigger();
}

int64_t SmoothScan::GlobalSelectivityPpm() const {
  const uint64_t seen = morsel_.pages_seen + sstats_.pages_seen;
  if (seen == 0) return 0;
  return static_cast<int64_t>(
      (morsel_.pages_with_results + sstats_.pages_with_results) * 1000000 /
      seen);
}

void SmoothScan::FlushCacheSkipRun() {
  if (cache_skip_run_ == 0) return;
  obs::EmitInstant(obs(), "page_cache_skip_run", "pages",
                   static_cast<int64_t>(cache_skip_run_));
  cache_skip_run_ = 0;
}

void SmoothScan::UpdatePolicy(uint64_t region_pages,
                              uint64_t region_result_pages) {
  if (!options_.enable_flattening) return;
  const uint32_t before = region_pages_;
  // Eq. 1 (local, this region) vs Eq. 2 (global, pages seen before it) —
  // captured before MorphRegionStep folds the region into the globals.
  const int64_t local_ppm =
      region_pages == 0 ? 0
                        : static_cast<int64_t>(region_result_pages * 1000000 /
                                               region_pages);
  const int64_t global_ppm = GlobalSelectivityPpm();
  region_pages_ = MorphRegionStep(
      active_policy_, region_pages_, options_.max_region_pages,
      morsel_.pages_seen + sstats_.pages_seen,
      morsel_.pages_with_results + sstats_.pages_with_results, region_pages,
      region_result_pages, &sstats_.expansions, &sstats_.shrinks);
  if (region_pages_ > before) {
    obs::EmitInstant(obs(), "morph_grow", "region_pages", region_pages_,
                     "local_sel_ppm", local_ppm, "global_sel_ppm", global_ppm,
                     "policy", MorphPolicyToString(active_policy_));
  } else if (region_pages_ < before) {
    obs::EmitInstant(obs(), "morph_shrink", "region_pages", region_pages_,
                     "local_sel_ppm", local_ppm, "global_sel_ppm", global_ppm,
                     "policy", MorphPolicyToString(active_policy_));
  }
}

void SmoothScan::FetchRegionAndHarvest(PageId target, TupleBatch* out) {
  const HeapFile* heap = index_->heap();
  const ExecContext& ctx = this->ctx();
  const Schema& schema = heap->schema();

  const uint32_t want = options_.enable_flattening ? region_pages_ : 1;
  const uint32_t count = std::min<uint32_t>(want, page_end_ - target);
  // Fetch only the pages of the region that were not processed before
  // ("pages processed in Mode 1 are skipped in Mode 2"), coalescing
  // contiguous unprocessed pages into single extent requests. In the
  // shared-SmoothScan mode a page a *peer* query probed that is still
  // resident in the shared pool is excluded from the charged extents too:
  // the peer paid its fetch, this scan only probes the resident copy.
  SharedSmoothGroup* shared = options_.shared_group.get();
  // Guards of peer-paid pages, indexed by region offset. Taking the guard IS
  // the classification: PinIfResident checks and pins under one shard latch,
  // so a page decided "free" stays pinned (and resident) until harvested — a
  // concurrent eviction can never turn the free ride into an uncharged read.
  std::vector<PageGuard> free_guards(shared != nullptr ? count : 0);
  auto take_free = [&](uint32_t i) -> bool {
    if (shared == nullptr) return false;
    if (free_guards[i]) return true;
    const PageId pid = target + i;
    if (!shared->cache.IsMarked(pid)) return false;
    free_guards[i] = shared->pool->PinIfResident(shared->file, pid);
    return static_cast<bool>(free_guards[i]);
  };
  for (uint32_t i = 0; i < count;) {
    if (page_cache_->IsMarked(target + i)) {
      ++i;
      continue;
    }
    if (take_free(i)) {
      ++sstats_.shared_free_pages;
      ++i;
      continue;
    }
    uint32_t run = 1;
    while (i + run < count && !page_cache_->IsMarked(target + i + run) &&
           !take_free(i + run)) {
      ++run;
    }
    ctx.pool->FetchExtent(heap->file_id(), target + i, run);
    i += run;
  }
  ++sstats_.probes;

  // Per-region CPU accounting, charged once (amortized) after the harvest.
  uint64_t inspected = 0;
  uint64_t produced = 0;
  uint64_t cache_ops = 0;
  uint64_t region_pages_seen = 0;
  uint64_t region_result_pages = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const PageId pid = target + i;
    if (page_cache_->IsMarked(pid)) continue;  // Harvested earlier.
    page_cache_->Mark(pid);
    // Publish the probe to peers: the page is fully analyzed and (having
    // just been fetched or pinned) resident for them to reuse.
    if (shared != nullptr) shared->cache.Mark(pid);
    ++cache_ops;
    ++stats_.heap_pages_probed;
    ++region_pages_seen;

    // A peer-paid page is read through its already-held shared-pool guard;
    // everything else was charged above and pins the scan's own pool.
    const uint32_t off = static_cast<uint32_t>(pid - target);
    const bool free_ride = shared != nullptr && free_guards[off];
    const PageGuard guard =
        free_ride ? PageGuard() : ctx.pool->Pin(heap->file_id(), pid);
    const Page& page = free_ride ? *free_guards[off] : *guard;
    bool page_has_result = false;
    for (uint16_t s = 0; s < page.num_slots(); ++s) {
      uint32_t size = 0;
      const uint8_t* data = page.GetTuple(s, &size);
      if (data == nullptr) continue;  // Tombstoned slot.
      ++inspected;
      const int64_t key =
          schema.ReadInt64Column(data, size, predicate_.column);
      if (!predicate_.MatchesKey(key)) continue;
      // Decode in place into the caller's batch (a spill batch once it is
      // full); the ordered scan decodes for the Result Cache instead.
      TupleBatch* dest = out == nullptr ? nullptr
                         : out->full()  ? SpillBatch()
                                        : out;
      Tuple ordered_tuple;
      Tuple* tuple = dest != nullptr ? dest->AppendSlot() : &ordered_tuple;
      schema.DeserializeInto(data, size, tuple);
      bool keep = !predicate_.residual || predicate_.residual(*tuple);
      const Tid tid{pid, s};
      if (keep) {
        page_has_result = true;
        // Under a non-eager trigger, tuples already produced in Mode 0 must
        // not be produced again.
        if (options_.trigger != MorphTrigger::kEager) {
          ++cache_ops;
          keep = !(IndexPosition{key, tid} < mode0_stop_);
        }
      }
      if (!keep) {
        if (dest != nullptr) dest->PopLast();
        continue;
      }
      if (count > 1) {
        ++sstats_.card_mode2;
      } else {
        ++sstats_.card_mode1;
      }
      ++produced;
      if (dest == nullptr) {
        ++cache_ops;
        result_cache_->Insert(key, tid, std::move(ordered_tuple));
        ++sstats_.rc_inserts;
        sstats_.rc_max_size =
            std::max(sstats_.rc_max_size, result_cache_->max_size());
      } else if (dest == out) {
        ++stats_.tuples_produced;
      }
    }
    if (page_has_result) ++region_result_pages;
    if (pid != target) {
      ++sstats_.morph_checked_pages;
      if (page_has_result) ++sstats_.morph_result_pages;
    }
  }
  stats_.tuples_inspected += inspected;
  ctx.cpu->ChargeInspect(inspected);
  ctx.cpu->ChargeProduce(produced);
  ctx.cpu->ChargeCacheOp(cache_ops);
  // The policy compares the region's local selectivity (Eq. 1) against the
  // global selectivity of the pages seen *before* this region (Eq. 2).
  UpdatePolicy(region_pages_seen, region_result_pages);
  sstats_.pages_seen += region_pages_seen;
  sstats_.pages_with_results += region_result_pages;
}

TupleBatch* SmoothScan::SpillBatch() {
  if (spill_.empty() || spill_.back()->full()) {
    spill_.push_back(ctx().batch_pool->Acquire());
  }
  return spill_.back().get();
}

void SmoothScan::TakeSpilled(TupleBatch* out) {
  PooledBatch& spilled = spill_[spill_next_];
  const size_t before = out->size();
  if (out->empty() && spill_pos_ == 0 &&
      spilled->capacity() == out->capacity()) {
    // Swap buffers, not rows; the caller's old storage goes to the pool warm.
    std::swap(*out, *spilled);
    spilled.Release();
    ++spill_next_;
  } else {
    while (spill_pos_ < spilled->size() && !out->full()) {
      std::swap(*out->AppendSlot(), spilled->row(spill_pos_++));
    }
    if (spill_pos_ == spilled->size()) {
      spilled.Release();
      ++spill_next_;
      spill_pos_ = 0;
    }
  }
  stats_.tuples_produced += out->size() - before;
  if (spill_next_ == spill_.size()) {
    spill_.clear();
    spill_next_ = 0;
  }
}

bool SmoothScan::PeekEntry(Tid* tid) const {
  if (morsel_.targets != nullptr) {
    if (next_target_ >= morsel_.targets->size()) return false;
    *tid = (*morsel_.targets)[next_target_];
    return true;
  }
  if (!it_->Valid() || it_->key() >= predicate_.hi) return false;
  *tid = it_->tid();
  return true;
}

void SmoothScan::AdvanceEntry() {
  if (morsel_.targets != nullptr) {
    ++next_target_;
  } else {
    it_->Next();
  }
}

void SmoothScan::NextUnordered(TupleBatch* out) {
  const ExecContext& ctx = this->ctx();
  while (!out->full()) {
    if (spill_next_ < spill_.size()) {
      TakeSpilled(out);
      continue;
    }
    Tid tid;
    if (!PeekEntry(&tid)) return;
    if (!morphing_) {
      Mode0Step(out);
      continue;
    }
    ctx.cpu->ChargeCacheOp();  // Page ID Cache bit check.
    if (page_cache_->IsMarked(tid.page_id)) {
      ++sstats_.page_cache_hits;
      ++cache_skip_run_;
      AdvanceEntry();  // Skip the leaf pointer (the X marks in Fig. 3).
      continue;
    }
    FlushCacheSkipRun();
    FetchRegionAndHarvest(tid.page_id, out);
    AdvanceEntry();
  }
}

void SmoothScan::NextOrdered(TupleBatch* out) {
  const ExecContext& ctx = this->ctx();
  while (!out->full()) {
    if (!it_->Valid() || it_->key() >= predicate_.hi) return;
    if (!morphing_) {
      // Plain index scan is naturally ordered.
      Mode0Step(out);
      continue;
    }
    const Tid tid = it_->tid();
    const int64_t key = it_->key();
    ++sstats_.rc_probes;
    ctx.cpu->ChargeCacheOp();
    std::optional<Tuple> cached = result_cache_->Take(key, tid);
    if (cached) {
      ++sstats_.rc_hits;  // Served from the cache without new I/O.
    } else {
      ctx.cpu->ChargeCacheOp();  // Page ID Cache bit check.
      if (!page_cache_->IsMarked(tid.page_id)) {
        FlushCacheSkipRun();
        FetchRegionAndHarvest(tid.page_id, /*out=*/nullptr);
        // The entry's tuple is now cached unless it failed the residual
        // predicate or was produced pre-trigger.
        cached = result_cache_->Take(key, tid);
      } else {
        ++sstats_.page_cache_hits;
        ++cache_skip_run_;
      }
    }
    it_->Next();
    if (!cached) continue;  // Residual failure / Mode-0 duplicate: skip.
    result_cache_->EvictBelow(key);
    ++stats_.tuples_produced;
    out->Append(std::move(*cached));
  }
}

bool SmoothScan::NextBatchImpl(TupleBatch* out) {
  if (options_.preserve_order) {
    NextOrdered(out);
  } else {
    NextUnordered(out);
  }
  return !out->empty();
}

}  // namespace smoothscan
