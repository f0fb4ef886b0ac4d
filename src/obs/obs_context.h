// ObsContext: the per-query observability handle threaded through the
// access/exec layers — which registry to count into, which collector to
// trace into, and which query id to stamp on events. All three members are
// optional; a default ObsContext (or a null pointer to one) disables
// everything at the first branch.
//
// Ownership: the QueryEngine (or a test/bench harness) owns the registry
// and collector; paths only borrow them for the duration of Open..Close.

#ifndef SMOOTHSCAN_OBS_OBS_CONTEXT_H_
#define SMOOTHSCAN_OBS_OBS_CONTEXT_H_

#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace smoothscan {
namespace obs {

struct ObsContext {
  MetricsRegistry* metrics = nullptr;
  TraceCollector* trace = nullptr;
  uint64_t query_id = 0;

  bool enabled() const { return metrics != nullptr || trace != nullptr; }
};

/// Null-safe instant helper: `EmitInstant(obs, "morph_grow", ...)` where
/// `obs` may be nullptr or have no collector.
inline void EmitInstant(const ObsContext* o, const char* name,
                        const char* k0 = nullptr, int64_t v0 = 0,
                        const char* k1 = nullptr, int64_t v1 = 0,
                        const char* k2 = nullptr, int64_t v2 = 0,
                        const char* sk = nullptr, const char* sv = nullptr) {
  if (o == nullptr || o->trace == nullptr) return;
  o->trace->Instant(o->query_id, name, k0, v0, k1, v1, k2, v2, sk, sv);
}

/// Null-safe counter fold: adds an owner's settled count `n` to `name` once
/// per closed scan or completed query (a name lookup, never per event).
/// Registers the counter even when `n` is 0.
inline void AddCount(const ObsContext* o, const char* name, uint64_t n) {
  if (o == nullptr || o->metrics == nullptr) return;
  o->metrics->counter(name)->Add(n);
}

}  // namespace obs
}  // namespace smoothscan

#endif  // SMOOTHSCAN_OBS_OBS_CONTEXT_H_
