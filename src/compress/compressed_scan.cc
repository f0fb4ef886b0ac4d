#include "compress/compressed_scan.h"

#include <algorithm>

namespace smoothscan {

namespace {

/// Does block `meta` possibly hold keys in [lo, hi)? The zone consult every
/// skip decision rests on — callers charge one cache_op per consult.
bool BlockNeeded(const CompressedBlockMeta& meta, int64_t lo, int64_t hi) {
  return meta.key_max >= lo && meta.key_min < hi;
}

/// Reads the block blob out of a (pinned or storage-resident) sibling page.
void InitReader(const Page& page, CompressedBlockReader* reader) {
  uint32_t size = 0;
  const uint8_t* data = page.GetTuple(0, &size);
  SMOOTHSCAN_CHECK(data != nullptr);
  SMOOTHSCAN_CHECK(reader->Init(data, size));
}

}  // namespace

CompressedScan::CompressedScan(Engine* engine, CompressedExtentRef extent,
                               ScanPredicate predicate,
                               CompressedScanOptions options)
    : engine_(engine),
      extent_(std::move(extent)),
      predicate_(std::move(predicate)),
      options_(options) {
  SMOOTHSCAN_CHECK(extent_ != nullptr);
  SMOOTHSCAN_CHECK(options_.read_ahead_pages > 0);
  SMOOTHSCAN_CHECK(options_.page_begin <= options_.page_end);
  // The extent is keyed on one column; the path serves predicates on it.
  SMOOTHSCAN_CHECK(predicate_.column == extent_->key_column);
  // Index-only answers come from the runs alone — a residual would need the
  // payload columns this mode exists to avoid.
  SMOOTHSCAN_CHECK(!(options_.index_only && predicate_.residual));
  for (const Column& c : extent_->schema->columns()) {
    column_types_.push_back(c.type);
  }
}

CompressedScan::CompressedScan(ScanSharingCoordinator* coordinator,
                               CompressedExtentRef extent,
                               ScanPredicate predicate,
                               CompressedScanOptions options)
    : CompressedScan(coordinator->engine(), std::move(extent),
                     std::move(predicate), options) {
  shared_ = coordinator;
  // A shared lap visits every chunk; partial ranges are a morsel concept.
  SMOOTHSCAN_CHECK(options_.page_begin == 0);
  SMOOTHSCAN_CHECK(options_.page_end == kInvalidPageId);
}

Status CompressedScan::OpenImpl() {
  needed_.clear();
  spans_.clear();
  needed_idx_ = 0;
  span_idx_ = 0;
  block_ready_ = false;
  ranges_.clear();
  range_idx_ = 0;
  row_ = 0;
  chunk_ = nullptr;
  chunk_page_ = 0;
  shared_done_ = false;

  if (shared_ != nullptr) {
    // Zone consults are charged per chunk page as the lap encounters them.
    consumer_ = shared_->AttachExtent(extent_->file, extent_->num_pages());
    return Status::OK();
  }

  const PageId end =
      std::min<PageId>(extent_->num_pages(), options_.page_end);
  const PageId begin = std::min(options_.page_begin, end);
  const uint32_t ra = options_.read_ahead_pages;
  // One zone consult per block in range decides fetch-or-skip without I/O.
  ctx().cpu->ChargeCacheOp(end - begin);
  const int64_t lo = predicate_.lo;
  const int64_t hi = predicate_.hi;
  for (PageId p = begin; p < end; ++p) {
    if (!BlockNeeded(extent_->blocks[p], lo, hi)) continue;
    // Extend the current aligned-window span or start a new one: requests
    // never cross a read_ahead boundary, so morsel decompositions (aligned
    // to the same windows) issue the identical request sequence.
    if (!spans_.empty() && !needed_.empty() &&
        p / ra == needed_.back() / ra) {
      spans_.back().second =
          static_cast<uint32_t>(p - spans_.back().first + 1);
    } else {
      spans_.emplace_back(p, 1u);
    }
    needed_.push_back(p);
  }
  return Status::OK();
}

void CompressedScan::CloseImpl() {
  consumer_.Detach();
  chunk_ = nullptr;
  shared_done_ = true;
  needed_idx_ = needed_.size();
  block_ready_ = false;
}

bool CompressedScan::DecodeBlock(PageId page, const Page& page_ref) {
  (void)page;
  CompressedBlockReader reader;
  InitReader(page_ref, &reader);
  ranges_.clear();
  range_idx_ = 0;
  row_ = 0;
  const uint64_t checks =
      reader.MatchKeyRanges(predicate_.lo, predicate_.hi, &ranges_);
  stats_.tuples_inspected += checks;
  ctx().cpu->ChargeInspect(checks);
  if (ranges_.empty()) return false;
  // Run-expand the needed columns once per block; emission then streams out
  // of flat arrays across however many batches the block spans.
  if (options_.index_only) {
    cols_scratch_.resize(1);
    reader.ExpandColumn(extent_->key_column, &cols_scratch_[0]);
  } else {
    const size_t n = column_types_.size();
    cols_scratch_.resize(n);
    for (size_t c = 0; c < n; ++c) {
      reader.ExpandColumn(c, &cols_scratch_[c]);
    }
  }
  block_ready_ = true;
  return true;
}

uint64_t CompressedScan::EmitDecoded(TupleBatch* out) {
  Tuple* rows = out->fill_rows();
  size_t filled = out->fill_begin();
  const size_t cap = out->capacity();
  const bool has_residual = static_cast<bool>(predicate_.residual);
  const ValueType key_type = column_types_[extent_->key_column];
  const size_t n = column_types_.size();
  while (filled < cap && range_idx_ < ranges_.size()) {
    const auto [b, e] = ranges_[range_idx_];
    uint32_t r = std::max(row_, b);
    for (; r < e && filled < cap; ++r) {
      Tuple* decoded = &rows[filled];
      if (options_.index_only) {
        decoded->resize(1);
        Value* slot = decoded->data();
        if (key_type == ValueType::kDate) {
          slot->SetDate(static_cast<int64_t>(cols_scratch_[0][r]));
        } else {
          slot->SetInt64(static_cast<int64_t>(cols_scratch_[0][r]));
        }
      } else {
        decoded->resize(n);
        Value* slots = decoded->data();
        for (size_t c = 0; c < n; ++c) {
          const uint64_t bits = cols_scratch_[c][r];
          switch (column_types_[c]) {
            case ValueType::kInt64:
              slots[c].SetInt64(static_cast<int64_t>(bits));
              break;
            case ValueType::kDate:
              slots[c].SetDate(static_cast<int64_t>(bits));
              break;
            default: {
              double d;
              std::memcpy(&d, &bits, sizeof(d));
              slots[c].SetDouble(d);
              break;
            }
          }
        }
        if (has_residual && !predicate_.residual(*decoded)) continue;
      }
      ++filled;
    }
    row_ = r;
    if (r >= e) {
      ++range_idx_;
      row_ = 0;
    }
  }
  if (range_idx_ >= ranges_.size()) block_ready_ = false;
  const uint64_t produced = filled - out->fill_begin();
  out->set_filled(filled);
  stats_.tuples_produced += produced;
  ctx().cpu->ChargeProduce(produced);
  return produced;
}

bool CompressedScan::NextBatchPrivate(TupleBatch* out) {
  const FileId file = extent_->file;
  while (out->size() < out->capacity()) {
    if (block_ready_) {
      EmitDecoded(out);
      continue;
    }
    if (needed_idx_ >= needed_.size()) break;
    const PageId p = needed_[needed_idx_++];
    // Pull the aligned-window span covering p (one request, holes included —
    // a physical extent read cannot skip pages in the middle).
    while (span_idx_ < spans_.size() &&
           spans_[span_idx_].first + spans_[span_idx_].second <= p) {
      ++span_idx_;
    }
    if (span_idx_ < spans_.size() && spans_[span_idx_].first == p) {
      ctx().pool->FetchExtent(file, spans_[span_idx_].first,
                              spans_[span_idx_].second);
    }
    const PageGuard guard = ctx().pool->Pin(file, p);
    ++stats_.heap_pages_probed;
    DecodeBlock(p, *guard);
  }
  return !out->empty();
}

bool CompressedScan::NextBatchShared(TupleBatch* out) {
  const int64_t lo = predicate_.lo;
  const int64_t hi = predicate_.hi;
  while (out->size() < out->capacity() && !shared_done_) {
    if (block_ready_) {
      EmitDecoded(out);
      continue;
    }
    if (chunk_ == nullptr || chunk_page_ >= chunk_->num_pages) {
      chunk_ = consumer_.NextChunk();
      chunk_page_ = 0;
      if (chunk_ == nullptr) {
        shared_done_ = true;
        break;
      }
    }
    const uint32_t i = chunk_page_++;
    const PageId p = chunk_->first_page + i;
    // The group paid the fetch; this consumer pays only its zone consult
    // and (when the block qualifies) its decode.
    ctx().cpu->ChargeCacheOp(1);
    if (!BlockNeeded(extent_->blocks[p], lo, hi)) continue;
    ++stats_.heap_pages_probed;
    DecodeBlock(p, *chunk_->guards[i]);
  }
  return !out->empty();
}

bool CompressedScan::NextBatchImpl(TupleBatch* out) {
  return shared_ != nullptr ? NextBatchShared(out) : NextBatchPrivate(out);
}

uint64_t CompressedCountRange(const CompressedExtentRef& extent, int64_t lo,
                              int64_t hi, const ExecContext& ctx) {
  SMOOTHSCAN_CHECK(extent != nullptr);
  uint64_t count = 0;
  uint64_t consults = 0;
  uint64_t checks = 0;
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  for (PageId p = 0; p < extent->num_pages(); ++p) {
    const CompressedBlockMeta& meta = extent->blocks[p];
    ++consults;
    if (!BlockNeeded(meta, lo, hi)) continue;
    if (meta.key_min >= lo && meta.key_max < hi) {
      // Zone interval fully inside the probe: the whole block qualifies —
      // counted from metadata, no page touched.
      count += meta.tuples;
      continue;
    }
    // Straddling block: fetch (charged) and count on the runs.
    const PageGuard guard = ctx.pool->Fetch(extent->file, p);
    CompressedBlockReader reader;
    InitReader(*guard, &reader);
    ranges.clear();
    checks += reader.MatchKeyRanges(lo, hi, &ranges);
    for (const auto& [b, e] : ranges) count += e - b;
  }
  ctx.cpu->ChargeCacheOp(consults);
  ctx.cpu->ChargeInspect(checks);
  return count;
}

std::unique_ptr<ParallelScan> MakeParallelCompressedScan(
    Engine* engine, CompressedExtentRef extent, ScanPredicate predicate,
    CompressedScanOptions scan_options, ParallelScanOptions options) {
  if (extent == nullptr) return nullptr;
  const uint32_t morsel_pages =
      AlignMorselPages(options.morsel_pages, scan_options.read_ahead_pages);
  auto plan = [extent, morsel_pages] {
    return PageRangeMorsels(extent->num_pages(), morsel_pages);
  };
  auto scan = [engine, extent, predicate = std::move(predicate),
               scan_options](const Morsel& m, const ExecContext& ctx) {
    // Seed the morsel's stream at the last compressed page the serial scan
    // would have transferred before this range — the last *needed* page, a
    // pure function of the zone map and the predicate — so summed parallel
    // charges stay bit-identical to the serial scan's.
    for (PageId p = m.page_begin; p > 0; --p) {
      const CompressedBlockMeta& meta = extent->blocks[p - 1];
      if (meta.key_max >= predicate.lo && meta.key_min < predicate.hi) {
        ctx.disk->SeedPosition(extent->file, p - 1);
        break;
      }
    }
    CompressedScanOptions range = scan_options;
    range.page_begin = m.page_begin;
    range.page_end = m.page_end;
    return std::make_unique<CompressedScan>(engine, extent, predicate, range);
  };
  return std::make_unique<ParallelScan>(
      engine,
      std::make_unique<DrainKernel>("ParallelCompressedScan", std::move(plan),
                                    std::move(scan)),
      options);
}

}  // namespace smoothscan
