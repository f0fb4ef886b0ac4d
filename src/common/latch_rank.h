// Ranked latches: the project's single mutex type, carrying both the Clang
// Thread Safety Analysis capability (compile-time "who holds what") and a
// runtime lock-hierarchy validator (deterministic "in what order").
//
// Every latch in the engine is a latch::Latch constructed with a LatchRank.
// A thread may only acquire a latch whose rank is *strictly lower* than
// every latch it already holds, so the documented layering
//
//   engine → registry eras → coordinator/shared group → compressed map →
//   parallel scan → scheduler → pool shard → pool page maps →
//   storage catalog → disk → batch pool → broker
//
// is checked on every acquisition. A rank inversion — the deadlock shape
// TSan only reports when the schedule cooperates — aborts deterministically
// with both latch names and the thread's held stack, on the first
// wrong-order acquisition, in any single-threaded test.
//
// The validator keeps a thread-local stack of held latches. It is compiled
// in unconditionally (one relaxed atomic load + branch per lock when
// disabled) and *enforces* when:
//   - the build is Debug (!NDEBUG), e.g. the ASan/UBSan CI job; or
//   - SMOOTHSCAN_LATCH_CHECKS=1 is set in the environment; or
//   - latch::SetChecksEnabled(true) was called (tests).
// SMOOTHSCAN_LATCH_CHECKS=0 force-disables it in Debug builds.
//
// Latch wraps std::mutex (not a spinlock), so TSan still instruments every
// acquisition and the condition_variable_any wait protocol is unchanged.

#ifndef SMOOTHSCAN_COMMON_LATCH_RANK_H_
#define SMOOTHSCAN_COMMON_LATCH_RANK_H_

#include <mutex>

#include "common/thread_annotations.h"

namespace smoothscan {
namespace latch {

/// Latch ranks, higher = acquired earlier (outermost). Gaps are deliberate:
/// a new latch class slots between neighbours without renumbering. The
/// comments name the nestings that pin each rank (see README "Correctness
/// tooling" for the full table).
enum class LatchRank : int {
  kUnranked = 0,  ///< Never lockable; reserved to reject unranked latches.

  // --- leaves (innermost) ------------------------------------------------
  kObsTraceRing = 102,  ///< obs::TraceRing::mu_ (one per worker thread).
                        ///< Events are emitted from under any engine latch
                        ///< (morph steps run under kParallelScan, publish
                        ///< instants under kRegistryTable), so rings sit at
                        ///< the very bottom; nothing is acquired under one.
  kObsTrace = 104,      ///< obs::TraceCollector::mu_ (ring directory).
                        ///< Registration happens on first emit from a
                        ///< thread — under arbitrary engine latches — and
                        ///< Export locks each ring (→ 102) under it.
  kObsMetrics = 105,    ///< obs::MetricsRegistry::mu_. Metric registration
                        ///< is legal from under any engine latch (paths
                        ///< register counters inside Open, which can run
                        ///< under kParallelScan); only leaf data under it.
  kObsSampler = 115,    ///< obs::RegistrySampler::mu_ (tick cv). Ranked
                        ///< above kBroker/kObsMetrics: a sampler tick reads
                        ///< broker snapshots and registry gauges under it.
  kBroker = 110,     ///< MemoryBroker::mu_. BatchPool charges its account
                     ///< scope while holding the pool latch, so the broker
                     ///< sits below the pool.
  kBatchPool = 130,  ///< BatchPool::mu_. Release() uncharges the memory
                     ///< scope (→ broker) under the pool latch.
  kNetPipe = 140,       ///< net::Pipe byte-buffer latch. Pure leaf: a pipe
                        ///< endpoint copies bytes under it and never calls
                        ///< back into the engine.
  kResultStream = 150,  ///< ResultStream::mu_ (handle batch queue). Pushed
                        ///< to by an executor holding no latches; the engine
                        ///< may finish a stream while holding kQueryEngine
                        ///< (queue-cancel), so it sits below 700 with room
                        ///< to spare.
  kNetWrite = 160,      ///< net connection write latch: serializes whole
                        ///< frames onto one transport. Held across
                        ///< Transport::WriteAll (→ kNetPipe), never across
                        ///< anything else.
  kDisk = 200,       ///< SimDisk::mu_ (one per logical access stream).
  kStorage = 250,    ///< StorageManager::mu_ (catalog/extent mutation).
  kPoolMaps = 290,   ///< BufferPool::maps_mu_ (page-map ranges). Taken
                     ///< under a shard latch when an insert falls outside
                     ///< its array; nothing is acquired under it.
  kPoolShard = 300,  ///< BufferPool Shard::mu. Misses append pages and
                     ///< charge the disk under the shard latch on the cold
                     ///< path; shards of one pool never nest (the mirror
                     ///< pool is only touched after the own-shard latch is
                     ///< released).

  // --- execution substrate ----------------------------------------------
  kScheduler = 420,      ///< TaskScheduler::mu_. SharedScanGroup::PumpLocked
                         ///< submits pump tasks under the group latch.
  kParallelScan = 440,   ///< ParallelScan::mu_. Recycling an emit slot runs
                         ///< PooledBatch dtors (→ batch pool) under it, and
                         ///< re-queuing a parked morsel submits (→ 420).
  kCompressedMap = 460,  ///< CompressedExtentMap::mu_. Rebuild evicts pool
                         ///< frames and truncates storage under it.

  // --- cross-query layers ------------------------------------------------
  kSharedGroup = 480,  ///< SharedScanGroup::mu_. ProduceOneLocked fetches
                       ///< through the pool and charges the broker scope.
  kCoordinator = 500,  ///< ScanSharingCoordinator::mu_. Holds while reading
                       ///< group stats / invalidating groups.

  // --- write eras ---------------------------------------------------------
  kRegistryHooks = 600,  ///< TableVersionRegistry::hook_mu_ (hook list).
  kRegistryTable = 620,  ///< TableState::mu. Publish runs hooks (→ 600 →
                         ///< coordinator → compressed map) under it.
  kRegistryMap = 640,    ///< TableVersionRegistry::map_mu_ (tables map;
                         ///< dropped before any table latch is taken, but
                         ///< ranked above so a future nesting stays legal).

  // --- top ----------------------------------------------------------------
  kQueryEngine = 700,  ///< QueryEngine::mu_ (admission lanes / gauges).

  // --- client / network front-end (above the engine: both call into
  // Submit/Cancel, which take kQueryEngine) -------------------------------
  kNetConn = 720,      ///< net server connection state (tag → handle map).
                       ///< Held only for map mutation; Cancel/Wait on the
                       ///< fetched handle run after release, so nothing
                       ///< engine-side nests under it in practice.
  kNetSession = 740,   ///< Session::mu_ (outstanding-query window). The
                       ///< engine's completion callback acquires it from an
                       ///< executor holding nothing; a submitting client may
                       ///< hold it while entering QueryEngine::SubmitSpec.
  kNetListener = 760,  ///< net::Server::mu_ (connection registry). Accepting
                       ///< a connection spawns a session (→ 740) and may
                       ///< consult engine depth (→ 700) under it.
};

/// True when acquisition-order checking is enforcing (see file comment).
bool ChecksEnabled();

/// Force checking on/off at runtime (tests; overrides build type and env).
void SetChecksEnabled(bool enabled);

class CAPABILITY("latch") Latch;

namespace internal {
// Validator hooks, out-of-line in latch_rank.cc. CheckAndPush aborts with a
// diagnostic on a rank inversion, a recursive acquisition, or an unranked
// latch; Pop is a no-op for latches acquired while checking was disabled.
void CheckAndPush(const Latch* l);
void Pop(const Latch* l);
}  // namespace internal

/// The project mutex: a std::mutex with a rank, a name, and the TSA
/// capability attribute. Satisfies BasicLockable, so it composes with
/// std::condition_variable_any; cv waits pop/re-push the held stack through
/// unlock()/lock() exactly like any other release/acquire.
class CAPABILITY("latch") Latch {
 public:
  Latch(LatchRank rank, const char* name) : rank_(rank), name_(name) {}
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void lock() ACQUIRE() {
    // Check (and record) *before* blocking: an inversion must abort rather
    // than sit in the deadlock it just created.
    internal::CheckAndPush(this);
    mu_.lock();
  }

  void unlock() RELEASE() {
    mu_.unlock();
    internal::Pop(this);
  }

  bool try_lock() TRY_ACQUIRE(true) {
    internal::CheckAndPush(this);
    if (mu_.try_lock()) return true;
    internal::Pop(this);
    return false;
  }

  LatchRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::mutex mu_;
  const LatchRank rank_;
  const char* const name_;
};

/// RAII scope lock, the std::lock_guard counterpart (TSA-visible).
class SCOPED_CAPABILITY LatchGuard {
 public:
  explicit LatchGuard(Latch& l) ACQUIRE(l) : l_(l) { l_.lock(); }
  ~LatchGuard() RELEASE() { l_.unlock(); }
  LatchGuard(const LatchGuard&) = delete;
  LatchGuard& operator=(const LatchGuard&) = delete;

 private:
  Latch& l_;
};

/// Movable-ownership lock for condition-variable waits and early release,
/// the std::unique_lock counterpart (TSA-visible).
class SCOPED_CAPABILITY UniqueLatch {
 public:
  explicit UniqueLatch(Latch& l) ACQUIRE(l) : l_(&l), owns_(true) {
    l_->lock();
  }
  ~UniqueLatch() RELEASE() {
    if (owns_) l_->unlock();
  }
  UniqueLatch(const UniqueLatch&) = delete;
  UniqueLatch& operator=(const UniqueLatch&) = delete;

  void lock() ACQUIRE() {
    l_->lock();
    owns_ = true;
  }
  void unlock() RELEASE() {
    owns_ = false;
    l_->unlock();
  }
  bool owns_lock() const { return owns_; }

 private:
  Latch* l_;
  bool owns_;
};

}  // namespace latch
}  // namespace smoothscan

#endif  // SMOOTHSCAN_COMMON_LATCH_RANK_H_
