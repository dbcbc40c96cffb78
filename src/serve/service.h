// service.h -- the in-process polarization-energy service.
//
// PolarizationService turns the one-shot calculator into a request
// server: clients submit() Requests and get a std::future<Response>;
// a dispatcher thread coalesces the bounded queue into batches and
// runs them on a WorkStealingPool. Per batch the service
//
//  1. sheds requests whose deadline expired while they queued
//     (admission control already rejected submits on a full queue);
//  2. groups byte-identical requests so each distinct input is
//     computed once and fanned out to every requester;
//  3. serves exact repeats from the structure cache (O(lookup)),
//     routes near-identical conformations through the incremental
//     refit path, and cold-builds the rest;
//  4. records per-stage times into ServiceStats.
//
// Parallelism is across requests by default: each request's pipeline
// runs serially inside one pool task. Set
// ServiceConfig::intra_request_parallelism for latency-critical
// single-stream workloads with large molecules: each request's plan
// build and kernels then fork on the pool. Either way a request's
// energy and Born radii are bit-identical to a serial
// gb::compute_gb_energy call, however it was batched: the pooled Born
// deposits are owner-computes (each accumulator slot written by one
// task in the serial order, see src/gb/traversal.h).
//
// This is the seam later scaling work plugs into: sharding replicates
// the service per NUMA domain behind a hash router, async backends
// replace the compute lambda, and remote serving wraps submit() in a
// transport. The request/response model is deliberately transport-
// free.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "src/parallel/pool.h"
#include "src/serve/request.h"
#include "src/serve/structure_cache.h"
#include "src/util/thread_annotations.h"

namespace octgb::serve {

/// Which service decision is reading the clock. Passed to
/// ServiceConfig::clock so tests can steer individual decisions (e.g.
/// jump time between batch start and settle to force a deterministic
/// deadline miss) without racing wall time.
enum class ClockEvent {
  kSubmit,      // submit(): request enqueue timestamp
  kBatchStart,  // process_batch(): shed check + queue-wait accounting
  kLinger,      // dispatch_loop(): coalescing window base
  kSettle,      // process_batch(): deadline-missed audit
};

/// All service knobs.
struct ServiceConfig {
  /// Workers in the compute pool (>= 1; the dispatcher acts as worker 0
  /// while a batch runs).
  int num_threads = 4;
  /// Bounded queue: submits beyond this are rejected immediately.
  std::size_t queue_capacity = 256;
  /// Max requests coalesced into one batch.
  std::size_t max_batch = 16;
  /// How long the dispatcher lingers for more requests once the queue
  /// is non-empty but below max_batch. Zero dispatches immediately.
  std::chrono::microseconds batch_linger{200};
  /// Structure-cache capacity in entries (0 disables caching).
  std::size_t cache_capacity = 64;
  /// Max RMS positional drift (Angstrom) for the refit path; beyond it
  /// a same-structure request falls back to a full rebuild. At MD-step
  /// drifts (<= ~0.1 A RMS) refit tracks a rebuild to ~1e-3 relative;
  /// past ~0.5 A the retained surface and inflated bounds drift out of
  /// the approximation class.
  double refit_max_rms = 0.5;
  /// Disable to force every non-identical request down the cold path.
  bool enable_refit = true;
  /// Re-key refit policy: re-key the drifted atoms and, when any Morton
  /// key escapes its leaf's octant range, rebuild the atoms octree from
  /// the new positions (counted in CacheStats::refit_fallbacks; the
  /// cached interaction plan is dropped, the surface and q-tree are
  /// still reused). Off by default: the stale-topology refit stays
  /// within the approximation class up to refit_max_rms and keeps plan
  /// reuse on every small-drift request.
  bool rekey_refit = false;
  /// Run each request's own kernels on the pool (latency mode) instead
  /// of parallelizing across requests (throughput mode, the default).
  /// Both modes return the same bits.
  bool intra_request_parallelism = false;
  /// Result sink: invoked once per settled request with the final
  /// Response, right after the request's future is fulfilled. Lets an
  /// open-loop load driver record per-request outcomes without ever
  /// blocking on futures (src/load/driver.h). Called with no service
  /// lock held, from the dispatcher thread for dispatched requests and
  /// from the submitting thread for admission-time rejects -- the
  /// callback must be thread-safe and should be cheap (it runs on the
  /// batch critical path). Null disables it.
  std::function<void(const Response&)> on_complete;
  /// Clock shim: when set, every scheduling-relevant timestamp the
  /// service takes goes through this callback instead of
  /// steady_clock::now(). Pair it with load::VirtualClock (anchored to
  /// a fixed steady_clock base) for deterministic deadline tests; null
  /// uses the real clock. Called from the submitting thread (kSubmit)
  /// and the dispatcher (the rest); must be thread-safe and monotonic
  /// per event site.
  std::function<std::chrono::steady_clock::time_point(ClockEvent)> clock;
};

/// Monotonic service counters + per-stage time sums, exported like
/// parallel::PoolStats. Cache-level counters live in CacheStats.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;   // queue full at submit
  std::uint64_t shed = 0;       // deadline expired while queued
  std::uint64_t completed = 0;  // responses with status kOk
  std::uint64_t failed = 0;
  /// Of `completed`: computed, but the response landed after the
  /// request's deadline. Disjoint from `shed` (expired before compute);
  /// goodput = completed - deadline_missed. Before this counter the two
  /// late outcomes were conflated into plain `completed`.
  std::uint64_t deadline_missed = 0;

  std::uint64_t cache_hits = 0;
  std::uint64_t refits = 0;
  std::uint64_t cold_builds = 0;
  /// Refit requests that reused the cached interaction plan (no
  /// traversal ran at all; see CacheEntry::plan).
  std::uint64_t plan_reuses = 0;
  /// Requests answered by another identical request in the same batch.
  std::uint64_t coalesced = 0;

  std::uint64_t batches = 0;
  std::uint64_t max_batch_size = 0;

  // Wall-clock sums (seconds) over completed requests.
  double queue_seconds = 0.0;
  double build_seconds = 0.0;
  double refit_seconds = 0.0;
  double kernel_seconds = 0.0;
};

/// One-shot consistent view of the service. stats/queue_depth/
/// in_flight are read under a single mu_ acquisition, so cross-field
/// invariants (completed == cache_hits + refits + cold_builds;
/// submitted == rejected + shed + completed + failed + queued +
/// in-flight work) hold exactly -- unlike calling stats(),
/// queue_depth() and cache_stats() back to back, which lock three
/// times and can interleave with a batch retiring. The cache block is
/// its own mutex and is internally consistent but taken second.
struct ServiceSnapshot {
  ServiceStats stats;
  std::size_t queue_depth = 0;
  std::size_t in_flight = 0;
  CacheStats cache;
};

/// In-process batched GB-energy server. Construction starts the
/// dispatcher; destruction drains the queue and joins.
class PolarizationService {
 public:
  explicit PolarizationService(const ServiceConfig& config = {});
  ~PolarizationService();

  PolarizationService(const PolarizationService&) = delete;
  PolarizationService& operator=(const PolarizationService&) = delete;

  /// Enqueues a request. On a full queue the returned future is
  /// already resolved with Status::kRejected.
  std::future<Response> submit(Request req) OCTGB_EXCLUDES(mu_);

  /// Convenience: submit + wait. Shares the queue, batcher and cache
  /// with concurrent submitters.
  Response serve_now(Request req);

  /// Blocks until every request submitted so far has a response.
  void drain() OCTGB_EXCLUDES(mu_);

  /// Drains, then stops the dispatcher. Idempotent; called by the
  /// destructor. Submits after stop() are rejected.
  void stop() OCTGB_EXCLUDES(mu_);

  ServiceStats stats() const OCTGB_EXCLUDES(mu_);
  CacheStats cache_stats() const;
  /// Tear-free combined snapshot; prefer this over separate accessor
  /// calls whenever two fields will be compared against each other.
  ServiceSnapshot snapshot() const OCTGB_EXCLUDES(mu_);
  /// Scheduler counters of the underlying pool.
  parallel::PoolStats pool_stats() const { return pool_.stats(); }
  /// Cross-field stat invariants over a tear-free snapshot (completed
  /// splits exactly into cache_hits + refits + cold_builds; unsettled
  /// submissions are bounded by queue depth + in-flight work; batch
  /// and coalescing counters respect their configured caps). Called
  /// from the OCTGB_VALIDATE checkpoint after every batch, and
  /// directly by tests.
  analysis::Report validate_invariants() const OCTGB_EXCLUDES(mu_);
  /// Serialization hooks for the sharded serving layer
  /// (src/cluster): a replication/migration pull exports the
  /// most-recent cached entry for `skey` (nullptr when none is
  /// resident; counts CacheStats::serializations), and a push from
  /// another shard injects a decoded entry into this service's cache
  /// (counts CacheStats::deserializations). Injected entries serve
  /// exact hits and refit bases exactly like locally built ones.
  std::shared_ptr<const CacheEntry> export_structure(std::uint64_t skey) {
    return cache_.peek_structure(skey);
  }
  void inject_entry(std::shared_ptr<const CacheEntry> entry) {
    if (!entry) return;
    cache_.insert(std::move(entry));
    cache_.note_deserialized();
  }

  std::size_t cache_size() const { return cache_.size(); }
  /// Approximate bytes retained by cached structures.
  std::size_t cache_memory_bytes() const { return cache_.memory_bytes(); }
  std::size_t queue_depth() const OCTGB_EXCLUDES(mu_);

  const ServiceConfig& config() const { return config_; }

 private:
  struct Pending {
    Request req;
    std::promise<Response> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Timestamp for a scheduling decision: config_.clock when the test
  /// shim is installed, steady_clock::now() otherwise.
  std::chrono::steady_clock::time_point now_at(ClockEvent ev) const;

  void dispatch_loop() OCTGB_EXCLUDES(mu_);
  void process_batch(std::vector<Pending>&& batch) OCTGB_EXCLUDES(mu_);
  /// Runs one request end to end (cache lookup, refit or cold build,
  /// kernels). `pool` is non-null only in intra-request mode.
  Response compute_one(const Request& req, double queue_wait,
                       parallel::WorkStealingPool* pool);
  Response make_terminal(const Request& req, Status status,
                         double queue_wait) const;

  ServiceConfig config_;
  StructureCache cache_;
  parallel::WorkStealingPool pool_;

  mutable util::Mutex mu_;
  util::CondVar queue_cv_;  // dispatcher wakeups
  util::CondVar idle_cv_;   // drain() wakeups
  std::deque<Pending> queue_ OCTGB_GUARDED_BY(mu_);
  /// Dequeued, response not yet set.
  std::size_t in_flight_ OCTGB_GUARDED_BY(mu_) = 0;
  bool stopping_ OCTGB_GUARDED_BY(mu_) = false;
  ServiceStats stats_ OCTGB_GUARDED_BY(mu_);

  std::thread dispatcher_;
};

}  // namespace octgb::serve
