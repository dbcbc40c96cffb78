// pool.h -- randomized work-stealing thread pool (the cilk++ substitute).
//
// Semantics follow the child-stealing model: TaskGroup::spawn pushes a
// child task onto the calling worker's deque; TaskGroup::wait executes
// local work and steals from random victims until all children of the
// group have completed. This gives the same greedy-scheduler guarantees
// (T_P <= T_1/P + O(T_inf)) the paper cites from Blumofe & Leiserson.
//
// Steal and execution counters are exported so the perfmodel layer and the
// tests can observe scheduling behaviour directly.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "src/parallel/deque.h"
#include "src/util/rng.h"
#include "src/util/thread_annotations.h"

namespace octgb::parallel {

/// Aggregated scheduler statistics, reset per `run`.
struct PoolStats {
  std::size_t tasks_executed = 0;
  std::size_t successful_steals = 0;
  std::size_t failed_steal_attempts = 0;
};

class WorkStealingPool;

namespace detail {
struct Task {
  std::function<void()> fn;
  std::atomic<std::size_t>* pending;  // owning TaskGroup's counter
};
}  // namespace detail

/// A fork-join scope. Usage inside pool code:
///
///   TaskGroup tg(pool);
///   tg.spawn([&] { left(); });
///   right();            // run one branch inline, cilk-style
///   tg.wait();          // joins; participates in work while waiting
///
/// A TaskGroup may only be waited on by the thread that created it.
class TaskGroup {
 public:
  explicit TaskGroup(WorkStealingPool& pool) : pool_(pool) {}
  ~TaskGroup() { wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void spawn(std::function<void()> fn);
  void wait();

 private:
  WorkStealingPool& pool_;
  std::atomic<std::size_t> pending_{0};
};

/// Work-stealing pool with a fixed number of workers. The calling thread
/// of `run` becomes worker 0 for the duration of the call, so `run` can be
/// invoked from any thread (each simmpi rank owns one pool in the hybrid
/// runtime).
class WorkStealingPool {
 public:
  /// `num_workers` includes the caller of run(); so num_workers=1 spawns
  /// no helper threads at all (serial elision, like cilk with one worker).
  explicit WorkStealingPool(int num_workers);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  int num_workers() const { return static_cast<int>(deques_.size()); }

  /// Executes `root` on this pool (caller acts as worker 0) and returns
  /// when `root` and all tasks transitively spawned from it finish.
  ///
  /// Safe to call from any thread, including concurrently: external
  /// callers are serialized on run_mu_ (worker 0's deque has a single
  /// owner end; two unserialized callers would race its bottom index).
  /// A call from a thread already bound to this pool (a kernel nesting
  /// run() inside an outer run()) executes inline without re-locking.
  void run(std::function<void()> root) OCTGB_EXCLUDES(run_mu_);

  /// Index of the pool worker the calling thread is, or -1.
  int current_worker_index() const;

  /// Statistics accumulated since construction (monotonic).
  PoolStats stats() const;

 private:
  friend class TaskGroup;

  struct alignas(64) WorkerState {
    ChaseLevDeque<detail::Task> deque;
    util::Xoshiro256 rng;
    std::atomic<std::size_t> executed{0};
    std::atomic<std::size_t> steals{0};
    std::atomic<std::size_t> failed_steals{0};
  };

  void helper_loop(int index);
  // Runs tasks until *done becomes zero. `index` is this thread's worker
  // slot. Used both by helpers (done = global quiescence flag) and by
  // TaskGroup::wait (done = group counter).
  void work_until(int index, const std::atomic<std::size_t>& done);
  bool try_run_one(int index);
  void execute(detail::Task* task, int index);
  void push_task(detail::Task* task);

  std::vector<std::unique_ptr<WorkerState>> deques_;
  std::vector<std::thread> helpers_;
  std::atomic<bool> shutdown_{false};
  /// Session-relative id from sched::next_object_id(); helper threads
  /// are named "o<id>.w<index>" for deterministic schedule traces.
  int sched_object_id_ = -1;
  /// Held by the external (non-worker) thread driving a run(): it is
  /// the owner of worker 0's deque for the duration of the call.
  util::Mutex run_mu_;
  /// The externally bound driver's id while a run() is in progress
  /// (diagnostics; worker 0's deque ownership follows this thread).
  std::thread::id run_owner_ OCTGB_GUARDED_BY(run_mu_);
  /// Cumulative counts already mirrored onto the telemetry metrics
  /// registry; run() flushes the delta since the previous flush.
  PoolStats reported_ OCTGB_GUARDED_BY(run_mu_);
};

/// Recursive binary-split parallel for over [begin, end). `grain` bounds
/// the size of a leaf chunk; `body(i0, i1)` processes [i0, i1) serially.
/// Must be called from inside pool.run (or works serially otherwise).
void parallel_for(WorkStealingPool& pool, std::size_t begin, std::size_t end,
                  std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// A complete parallel region over [begin, end): parallel_for inside
/// pool->run when a pool is supplied and the range is longer than
/// `grain`, one serial body(begin, end) call otherwise. Both paths
/// invoke the same body over the same index space, so a body that
/// writes only its own indices gives the same result either way.
void for_range(WorkStealingPool* pool, std::size_t begin, std::size_t end,
               std::size_t grain,
               const std::function<void(std::size_t, std::size_t)>& body);

/// Spawns both callables and joins.
void parallel_invoke(WorkStealingPool& pool, std::function<void()> a,
                     std::function<void()> b);

/// Recursive binary-split reduction over [begin, end): `body(lo, hi)`
/// produces a partial value for a chunk no larger than `grain`;
/// `combine(a, b)` merges two partials (must be associative; the
/// combination tree is deterministic, so floating-point results are
/// reproducible run-to-run for a fixed grain). Works from any thread
/// (serial fallback outside the pool).
template <typename T, typename Body, typename Combine>
T parallel_reduce(WorkStealingPool& pool, std::size_t begin,
                  std::size_t end, std::size_t grain, Body&& body,
                  Combine&& combine) {
  if (begin >= end) return T{};
  if (grain == 0) grain = 1;
  if (end - begin <= grain || pool.num_workers() == 1 ||
      pool.current_worker_index() < 0) {
    return body(begin, end);
  }
  struct Rec {
    WorkStealingPool& pool;
    std::size_t grain;
    Body& body;
    Combine& combine;
    T run(std::size_t b, std::size_t e) {
      if (e - b <= grain) return body(b, e);
      const std::size_t mid = b + (e - b) / 2;
      T left{};
      TaskGroup tg(pool);
      tg.spawn([this, b, mid, &left] { left = run(b, mid); });
      T right = run(mid, e);
      tg.wait();
      return combine(std::move(left), std::move(right));
    }
  } rec{pool, grain, body, combine};
  return rec.run(begin, end);
}

}  // namespace octgb::parallel
