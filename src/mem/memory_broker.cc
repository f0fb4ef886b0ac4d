#include "mem/memory_broker.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"

namespace smoothscan {

const char* MemoryClassName(MemoryClass cls) {
  switch (cls) {
    case MemoryClass::kBufferPool:
      return "buffer_pool";
    case MemoryClass::kResultCache:
      return "result_cache";
    case MemoryClass::kSharedScanWindow:
      return "shared_scan_window";
    case MemoryClass::kExecBatches:
      return "exec_batches";
    case MemoryClass::kOther:
      return "other";
  }
  return "?";
}

void MemoryBroker::UpdatePressureLocked(uint64_t before, uint64_t after) {
  if (!pressured_.load(std::memory_order_relaxed)) {
    if (before <= options_.global_budget_bytes &&
        after > options_.global_budget_bytes) {
      pressured_.store(true, std::memory_order_relaxed);
      pressure_epoch_.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (after <= low_water_) {
    pressured_.store(false, std::memory_order_relaxed);
  }
}

MemoryBroker::Consumer MemoryBroker::Register(MemoryClass cls,
                                              std::string name) {
  latch::LatchGuard lock(mu_);
  size_t id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    id = entries_.size();
    entries_.emplace_back();
  }
  Entry& e = entries_[id];
  e = Entry();
  e.cls = cls;
  e.name = std::move(name);
  e.live = true;
  Consumer c;
  c.broker_ = this;
  c.id_ = id;
  return c;
}

void MemoryBroker::Charge(size_t id, uint64_t bytes) {
  if (bytes == 0) return;
  latch::LatchGuard lock(mu_);
  Entry& e = entries_[id];
  SMOOTHSCAN_CHECK(e.live);
  e.bytes += bytes;
  e.peak_bytes = std::max(e.peak_bytes, e.bytes);
  class_bytes_[static_cast<size_t>(e.cls)] += bytes;
  const uint64_t before = total_.load(std::memory_order_relaxed);
  const uint64_t after = before + bytes;
  total_.store(after, std::memory_order_relaxed);
  peak_total_ = std::max(peak_total_, after);
  UpdatePressureLocked(before, after);
}

void MemoryBroker::Uncharge(size_t id, uint64_t bytes) {
  if (bytes == 0) return;
  latch::LatchGuard lock(mu_);
  Entry& e = entries_[id];
  SMOOTHSCAN_CHECK(e.live && e.bytes >= bytes);
  e.bytes -= bytes;
  class_bytes_[static_cast<size_t>(e.cls)] -= bytes;
  const uint64_t before = total_.load(std::memory_order_relaxed);
  const uint64_t after = before - bytes;
  total_.store(after, std::memory_order_relaxed);
  UpdatePressureLocked(before, after);
}

void MemoryBroker::Unregister(size_t id) {
  latch::LatchGuard lock(mu_);
  Entry& e = entries_[id];
  SMOOTHSCAN_CHECK(e.live);
  class_bytes_[static_cast<size_t>(e.cls)] -= e.bytes;
  const uint64_t before = total_.load(std::memory_order_relaxed);
  const uint64_t after = before - e.bytes;
  total_.store(after, std::memory_order_relaxed);
  UpdatePressureLocked(before, after);
  e = Entry();
  free_ids_.push_back(id);
}

uint64_t MemoryBroker::ConsumerBytes(size_t id) const {
  latch::LatchGuard lock(mu_);
  return entries_[id].bytes;
}

uint64_t MemoryBroker::peak_total_bytes() const {
  latch::LatchGuard lock(mu_);
  return peak_total_;
}

uint64_t MemoryBroker::class_bytes(MemoryClass cls) const {
  latch::LatchGuard lock(mu_);
  return class_bytes_[static_cast<size_t>(cls)];
}

std::vector<MemoryConsumerStats> MemoryBroker::ConsumerSnapshots() const {
  latch::LatchGuard lock(mu_);
  std::vector<MemoryConsumerStats> out;
  for (const Entry& e : entries_) {
    if (!e.live) continue;
    MemoryConsumerStats s;
    s.name = e.name;
    s.cls = e.cls;
    s.bytes = e.bytes;
    s.peak_bytes = e.peak_bytes;
    out.push_back(std::move(s));
  }
  return out;
}

QueryMemoryScope::QueryMemoryScope(MemoryBroker* broker, uint64_t quota_bytes)
    : broker_(broker), quota_(quota_bytes) {
  if (broker_ != nullptr) {
    consumer_ = broker_->Register(MemoryClass::kExecBatches, "query_exec");
  }
}

void QueryMemoryScope::Charge(uint64_t bytes) {
  const uint64_t after =
      bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  uint64_t peak = peak_bytes_.load(std::memory_order_relaxed);
  while (after > peak && !peak_bytes_.compare_exchange_weak(
                             peak, after, std::memory_order_relaxed)) {
  }
  if (after > quota_) breaches_.fetch_add(1, std::memory_order_relaxed);
  consumer_.Charge(bytes);
}

void QueryMemoryScope::Uncharge(uint64_t bytes) {
  bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  consumer_.Uncharge(bytes);
}

bool QueryMemoryScope::OverQuota() const {
  if (bytes_.load(std::memory_order_relaxed) > quota_) return true;
  return broker_ != nullptr && broker_->UnderPressure();
}

void SetBrokerGauges(const MemoryBroker& broker,
                     obs::MetricsRegistry* registry) {
  auto set = [registry](const std::string& name, uint64_t v) {
    registry->gauge(name)->Set(static_cast<int64_t>(v));
  };
  set("broker.total_bytes", broker.total_bytes());
  set("broker.peak_total_bytes", broker.peak_total_bytes());
  set("broker.pressure_epochs", broker.pressure_epoch());
  set("broker.under_pressure", broker.UnderPressure() ? 1 : 0);
  for (size_t i = 0; i < kNumMemoryClasses; ++i) {
    const auto cls = static_cast<MemoryClass>(i);
    set(std::string("broker.class.") + MemoryClassName(cls) + ".bytes",
        broker.class_bytes(cls));
  }
}

}  // namespace smoothscan
