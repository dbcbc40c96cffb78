#include "src/parallel/pool.h"

#include <chrono>
#include <cstdio>
#include <memory>

#include "src/analysis/sched/sched.h"
#include "src/telemetry/telemetry.h"

namespace octgb::parallel {

namespace {

// Thread-local binding of a thread to (pool, worker index). Set by the
// helper loop for helper threads and by run() for the caller.
struct TlsBinding {
  const WorkStealingPool* pool = nullptr;
  int index = -1;
};
thread_local TlsBinding tls_binding;

// Cheap exponential-ish backoff for idle workers: spin a little, then
// yield, then nap. Keeps the pool functional even when oversubscribed on
// few physical cores (this container has one).
void backoff(int& misses) {
  // Under an armed schedule explorer an idle worker must hand control
  // back (kPoll is only granted when nothing else is runnable) instead
  // of napping; one relaxed load when disarmed.
  analysis::sched::yield_point(analysis::sched::Point::kPoll);
  ++misses;
  if (misses < 16) {
    // busy spin
  } else if (misses < 64) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

}  // namespace

void TaskGroup::spawn(std::function<void()> fn) {
  if (tls_binding.pool != &pool_) {
    // Not on this pool: serial elision, run inline.
    fn();
    return;
  }
  pending_.fetch_add(1, std::memory_order_relaxed);
  // Ownership transfers through the lock-free deque as a raw pointer;
  // execute() is the single deleter. lint:allow(naked-new)
  auto* task = new detail::Task{std::move(fn), &pending_};
  pool_.push_task(task);
  // Schedule point on the spawn edge: PCT can preempt the producer
  // right after the task becomes stealable.
  analysis::sched::yield_point(analysis::sched::Point::kSpawn);
}

void TaskGroup::wait() {
  if (pending_.load(std::memory_order_acquire) == 0) return;
  const int index = pool_.current_worker_index();
  if (index >= 0) {
    pool_.work_until(index, pending_);
  }
  // Either we are a pool worker that drained the group, or (index < 0,
  // which cannot happen given spawn's inline fallback) nothing is pending.
  while (pending_.load(std::memory_order_acquire) != 0) {
    analysis::sched::yield_point(analysis::sched::Point::kPoll);
    std::this_thread::yield();
  }
}

WorkStealingPool::WorkStealingPool(int num_workers) {
  if (num_workers < 1) num_workers = 1;
  // Session-relative object id: helper threads of the k-th object
  // constructed after sched::arm() are named "o<k>.w<i>", so schedule
  // traces are byte-comparable across runs.
  sched_object_id_ = analysis::sched::next_object_id();
  deques_.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    auto state = std::make_unique<WorkerState>();
    state->rng = util::Xoshiro256(0x0775ea1ULL +
                                  static_cast<std::uint64_t>(i) * 0x9e3779b9ULL);
    deques_.push_back(std::move(state));
  }
  helpers_.reserve(static_cast<std::size_t>(num_workers - 1));
  for (int i = 1; i < num_workers; ++i) {
    helpers_.emplace_back([this, i] { helper_loop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  shutdown_.store(true, std::memory_order_release);
  for (auto& t : helpers_) t.join();
}

void WorkStealingPool::run(std::function<void()> root) {
  if (tls_binding.pool == this) {
    // Nested run() from a thread already bound to this pool (a kernel
    // invoked inside an outer run): already inside the serialized
    // region, just execute on the current worker slot.
    root();
    return;
  }
  // External driver: become worker 0. Serialize against other external
  // drivers -- the Chase-Lev deque has exactly one owner end, so two
  // concurrent worker-0 bindings would race push_bottom/pop_bottom.
  util::MutexLock lock(run_mu_);
  // detlint:allow(thread-id): reentrancy guard, equality-only check
  run_owner_ = std::this_thread::get_id();
  const TlsBinding saved = tls_binding;
  tls_binding = {this, 0};
  root();
  tls_binding = saved;
  run_owner_ = std::thread::id{};
#if defined(OCTGB_TELEMETRY_ENABLED)
  // Mirror the scheduler tallies for this run onto the registry. All
  // tasks spawned under root() have drained (every TaskGroup joins
  // before its frame unwinds), so the delta against the previous flush
  // is this run's work. Still under run_mu_, so deltas never race.
  const PoolStats now = stats();
  OCTGB_COUNTER_ADD("pool.tasks_executed",
                    now.tasks_executed - reported_.tasks_executed);
  OCTGB_COUNTER_ADD("pool.steals",
                    now.successful_steals - reported_.successful_steals);
  OCTGB_COUNTER_ADD(
      "pool.failed_steals",
      now.failed_steal_attempts - reported_.failed_steal_attempts);
  reported_ = now;
#endif
}

int WorkStealingPool::current_worker_index() const {
  return tls_binding.pool == this ? tls_binding.index : -1;
}

PoolStats WorkStealingPool::stats() const {
  PoolStats s;
  for (const auto& w : deques_) {
    s.tasks_executed += w->executed.load(std::memory_order_relaxed);
    s.successful_steals += w->steals.load(std::memory_order_relaxed);
    s.failed_steal_attempts +=
        w->failed_steals.load(std::memory_order_relaxed);
  }
  return s;
}

void WorkStealingPool::helper_loop(int index) {
  tls_binding = {this, index};
  char name[32];
  std::snprintf(name, sizeof(name), "o%d.w%d", sched_object_id_, index);
  analysis::sched::set_thread_name(name);
  int misses = 0;
  while (!shutdown_.load(std::memory_order_acquire)) {
    if (try_run_one(index)) {
      misses = 0;
    } else {
      backoff(misses);
    }
  }
  tls_binding = {};
}

void WorkStealingPool::work_until(int index,
                                  const std::atomic<std::size_t>& done) {
  int misses = 0;
  while (done.load(std::memory_order_acquire) != 0) {
    if (try_run_one(index)) {
      misses = 0;
    } else {
      backoff(misses);
    }
  }
}

bool WorkStealingPool::try_run_one(int index) {
  WorkerState& self = *deques_[static_cast<std::size_t>(index)];
  if (detail::Task* task = self.deque.pop_bottom()) {
    execute(task, index);
    return true;
  }
  const int n = num_workers();
  if (n == 1) return false;
  // Randomized victim selection, one attempt per call (the caller loops).
  const auto victim = static_cast<int>(
      self.rng.below(static_cast<std::uint64_t>(n - 1)));
  const int v = victim >= index ? victim + 1 : victim;
  if (detail::Task* task =
          deques_[static_cast<std::size_t>(v)]->deque.steal_top()) {
    self.steals.fetch_add(1, std::memory_order_relaxed);
    execute(task, index);
    return true;
  }
  self.failed_steals.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void WorkStealingPool::execute(detail::Task* task, int index) {
  analysis::sched::yield_point(analysis::sched::Point::kExec);
  task->fn();
  // acq_rel: the release half publishes fn's writes to whoever observes
  // the counter hit zero in TaskGroup::wait (which loads with acquire);
  // the acquire half orders this decrement after the task body.
  task->pending->fetch_sub(1, std::memory_order_acq_rel);
  deques_[static_cast<std::size_t>(index)]->executed.fetch_add(
      1, std::memory_order_relaxed);
  delete task;  // lint:allow(naked-new) sole deleter, see spawn()
}

void WorkStealingPool::push_task(detail::Task* task) {
  const int index = current_worker_index();
  // spawn() guarantees we are on a pool thread here.
  deques_[static_cast<std::size_t>(index)]->deque.push_bottom(task);
}

void parallel_for(WorkStealingPool& pool, std::size_t begin, std::size_t end,
                  std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  if (end - begin <= grain || pool.num_workers() == 1 ||
      pool.current_worker_index() < 0) {
    body(begin, end);
    return;
  }
  // Recursive binary splitting; one half spawned, one half run inline
  // (cilk-style), joined per level. `rec` outlives all children because
  // every TaskGroup waits before its frame unwinds.
  std::function<void(std::size_t, std::size_t)> rec =
      [&](std::size_t b, std::size_t e) {
        if (e - b <= grain) {
          body(b, e);
          return;
        }
        const std::size_t mid = b + (e - b) / 2;
        TaskGroup tg(pool);
        tg.spawn([&rec, b, mid] { rec(b, mid); });
        rec(mid, e);
        tg.wait();
      };
  rec(begin, end);
}

void for_range(WorkStealingPool* pool, std::size_t begin, std::size_t end,
               std::size_t grain,
               const std::function<void(std::size_t, std::size_t)>& body) {
  if (pool != nullptr && end - begin > grain) {
    pool->run([&] { parallel_for(*pool, begin, end, grain, body); });
  } else {
    body(begin, end);
  }
}

void parallel_invoke(WorkStealingPool& pool, std::function<void()> a,
                     std::function<void()> b) {
  TaskGroup tg(pool);
  tg.spawn(std::move(a));
  b();
  tg.wait();
}

}  // namespace octgb::parallel
