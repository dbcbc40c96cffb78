// sched_explore_test.cpp -- deterministic schedule exploration over the
// PR 2 race-stress scenarios (src/analysis/sched).
//
// Each scenario is re-run under the armed PCT scheduler across a sweep
// of seeds; every seed executes ONE deterministic interleaving, and the
// linearizability-style invariants of race_stress_test.cpp are asserted
// per interleaving. The sweep width comes from $OCTGB_SCHED_SEEDS
// (default 6, so tier-1 stays fast); the sched-smoke CI stage
// (scripts/ci.sh --sched-smoke-only) sets it to 250 and additionally
// sets $OCTGB_SCHED_MIN_TOTAL=1000, which arms the final SmokeTotal
// assertion that the four scenarios together covered >= 1000 schedules.
//
// The replay contract -- same seed, same params => byte-identical
// grant trace -- is asserted directly in ReplayIsByteIdentical, and the
// definitive-deadlock detector's abort in AbbaDeadlockAborts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/analysis/sched/sched.h"
#include "src/molecule/generators.h"
#include "src/parallel/pool.h"
#include "src/serve/service.h"
#include "src/serve/structure_cache.h"
#include "src/util/rng.h"
#include "src/util/thread_annotations.h"

namespace octgb {
namespace {

using namespace std::chrono_literals;
namespace sched = analysis::sched;

int seeds_from_env() {
  if (const char* e = std::getenv("OCTGB_SCHED_SEEDS")) {
    const int v = std::atoi(e);
    if (v > 0) return v;
  }
  return 6;
}

// Schedules executed by all scenario sweeps in this process; the
// SmokeTotal test (declared last, so it runs last when the binary is
// invoked directly rather than per-test under ctest) checks it against
// $OCTGB_SCHED_MIN_TOTAL.
std::atomic<std::uint64_t> g_total_schedules{0};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char ch : s) h = (h ^ ch) * 0x100000001b3ULL;
  return h;
}

// Common post-conditions every armed run must satisfy.
void check_report(const sched::RunReport& rep, int expected_participants) {
  EXPECT_GE(rep.participants, expected_participants);
  EXPECT_GT(rep.grants, 0u);
  EXPECT_FALSE(rep.trace_truncated);
  // The trace is one "name:point;" record per grant.
  std::uint64_t records = 0;
  for (char ch : rep.trace)
    if (ch == ';') ++records;
  EXPECT_EQ(records, rep.grants);
}

// A sweep asserts *schedule diversity*: distinct seeds must actually
// produce distinct interleavings, or the sweep is re-testing one
// schedule N times. The bound is deliberately loose (>= max(2, N/10)):
// tiny scenarios can collide on short traces.
void check_diversity(const std::vector<std::string>& traces) {
  std::unordered_set<std::uint64_t> distinct;
  for (const std::string& t : traces) distinct.insert(fnv1a(t));
  const std::size_t n = traces.size();
  const std::size_t want =
      n >= 2 ? std::max<std::size_t>(2, n / 10) : n;
  EXPECT_GE(distinct.size(), want)
      << "only " << distinct.size() << " distinct schedules in " << n
      << " seeds";
}

// ------------------------------------------------- scenario: pool drain

// Race-stress "RecursiveSpawnStealDrain", shrunk: one external driver
// (a participant) runs parallel_for + parallel_reduce on a 2-worker
// pool whose helper is the second participant; spawn/exec/steal/pop
// edges are all schedule points.
sched::RunReport run_pool_drain(std::uint64_t seed) {
  sched::PctParams params;
  params.seed = seed;
  params.expected_participants = 2;  // t.main + o0.w1
  // ~100-145 grants per run; see run_cache_scenario for why the
  // horizon must match the run length or the demotion points all land
  // past the end and the sweep degenerates.
  params.change_points = 4;
  params.horizon = 128;
  sched::arm(params);
  std::atomic<std::uint64_t> total{0};
  std::uint64_t sum = 0;
  constexpr std::size_t kRange = 192;
  {
    parallel::WorkStealingPool pool(2);
    {
      sched::Participant main_p("t.main");
      pool.run([&] {
        parallel::parallel_for(pool, 0, kRange, 16,
                               [&](std::size_t lo, std::size_t hi) {
                                 total.fetch_add(hi - lo,
                                                 std::memory_order_relaxed);
                               });
      });
      pool.run([&] {
        sum = parallel::parallel_reduce<std::uint64_t>(
            pool, 0, kRange, 16,
            [](std::size_t lo, std::size_t hi) {
              std::uint64_t s = 0;
              for (std::size_t i = lo; i < hi; ++i) s += i;
              return s;
            },
            [](std::uint64_t a, std::uint64_t b) { return a + b; });
      });
    }  // t.main leaves the session before the (real) helper join below
  }
  const sched::RunReport rep = sched::disarm();
  EXPECT_EQ(total.load(), kRange);
  EXPECT_EQ(sum, kRange * (kRange - 1) / 2);
  check_report(rep, 2);
  return rep;
}

TEST(SchedExploreTest, PoolDrainSweep) {
  const int kSeeds = seeds_from_env();
  std::vector<std::string> traces;
  for (int s = 1; s <= kSeeds; ++s) {
    traces.push_back(run_pool_drain(static_cast<std::uint64_t>(s)).trace);
    g_total_schedules.fetch_add(1);
  }
  check_diversity(traces);
}

// ------------------------------------------- scenario: evict vs. refit

std::shared_ptr<serve::CacheEntry> cache_entry(std::uint64_t key,
                                               std::uint64_t skey,
                                               geom::Vec3 pos) {
  auto e = std::make_shared<serve::CacheEntry>();
  e->key = key;
  e->skey = skey;
  e->positions = {pos};
  e->energy = static_cast<double>(key);
  return e;
}

// Race-stress "ParallelInsertLookupEvictRefit", shrunk to two
// participants hammering a 4-entry cache: inserts race the evictions
// they trigger, lookups race both, find_refit races entry replacement.
sched::RunReport run_cache_scenario(std::uint64_t seed) {
  sched::PctParams params;
  params.seed = seed;
  params.expected_participants = 2;
  // This scenario executes ~85 grants; with the default 4096-grant
  // horizon the seeded demotion points almost never land in-run and
  // every seed degenerates to "whoever wins the priority draw runs to
  // completion". Match the horizon to the run length so the seed
  // actually steers where preemptions fire.
  params.change_points = 4;
  params.horizon = 96;
  sched::arm(params);
  constexpr int kIters = 10;
  serve::StructureCache cache(4);
  auto worker = [&](const char* name, std::uint64_t rng_seed, int base) {
    sched::Participant part(name);
    util::Xoshiro256 rng(rng_seed);
    for (int i = 0; i < kIters; ++i) {
      const auto key = static_cast<std::uint64_t>(base + i + 1);
      const std::uint64_t skey = key % 3;
      const geom::Vec3 pos{rng.uniform(), rng.uniform(), rng.uniform()};
      cache.insert(cache_entry(key, skey, pos));
      const std::uint64_t probe = 1 + rng.below(key);
      if (auto hit = cache.find_exact(probe)) {
        EXPECT_EQ(hit->key, probe);
        EXPECT_EQ(hit->energy, static_cast<double>(probe));
      }
      double rms = -1.0;
      if (auto ref = cache.find_refit(skey, std::span(&pos, 1), 0.75, &rms)) {
        EXPECT_EQ(ref->skey, skey);
        EXPECT_GE(rms, 0.0);
      }
      EXPECT_LE(cache.size(), cache.capacity());
    }
  };
  std::thread a(worker, "t.a", 11, 0);
  std::thread b(worker, "t.b", 22, 100);
  a.join();
  b.join();
  const sched::RunReport rep = sched::disarm();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.insertions, static_cast<std::uint64_t>(2 * kIters));
  EXPECT_EQ(stats.evictions, stats.insertions - cache.size());
  EXPECT_LE(cache.size(), cache.capacity());
  check_report(rep, 2);
  return rep;
}

TEST(SchedExploreTest, CacheEvictVsRefitSweep) {
  const int kSeeds = seeds_from_env();
  std::vector<std::string> traces;
  for (int s = 1; s <= kSeeds; ++s) {
    traces.push_back(
        run_cache_scenario(static_cast<std::uint64_t>(s)).trace);
    g_total_schedules.fetch_add(1);
  }
  check_diversity(traces);
}

// The replay contract: a failing seed re-runs byte-identically, so a
// schedule-dependent assertion failure is reproducible by seed alone.
TEST(SchedExploreTest, ReplayIsByteIdentical) {
  // Warm-up run: the very first pass through a scenario pays extra
  // lock acquisitions registering process-wide lazy singletons
  // (telemetry counters chiefly), which later passes never see. The
  // contract is same-process-state replay, which is exactly what
  // re-running a failing seed does.
  run_cache_scenario(42);
  const sched::RunReport first = run_cache_scenario(42);
  const sched::RunReport second = run_cache_scenario(42);
  ASSERT_FALSE(first.trace.empty());
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.grants, second.grants);
  EXPECT_EQ(first.preemptions, second.preemptions);
  EXPECT_EQ(first.mutex_blocks, second.mutex_blocks);
  EXPECT_EQ(first.cv_blocks, second.cv_blocks);
  EXPECT_EQ(first.spurious_wakeups, second.spurious_wakeups);
  EXPECT_EQ(first.timed_timeouts, second.timed_timeouts);
  g_total_schedules.fetch_add(2);
}

// PCT parameters actually reach the schedule: more change points on
// the same seed must (for this scenario size) fire preemptions.
TEST(SchedExploreTest, ChangePointsInjectPreemptions) {
  sched::PctParams params;
  params.seed = 7;
  params.expected_participants = 2;
  params.change_points = 8;
  params.horizon = 64;  // dense: every change point lands in-run
  sched::arm(params);
  std::atomic<std::uint64_t> total{0};
  {
    parallel::WorkStealingPool pool(2);
    sched::Participant main_p("t.main");
    pool.run([&] {
      parallel::parallel_for(pool, 0, 128, 8,
                             [&](std::size_t lo, std::size_t hi) {
                               total.fetch_add(hi - lo,
                                               std::memory_order_relaxed);
                             });
    });
  }
  const sched::RunReport rep = sched::disarm();
  EXPECT_EQ(total.load(), 128u);
  EXPECT_GT(rep.preemptions, 0u);
  EXPECT_LE(rep.preemptions, 8u);
  g_total_schedules.fetch_add(1);
}

// ------------------------------------- scenario: admission + shedding

// Race-stress "AdmissionSheddingAndCachingUnderConcurrentSubmit",
// shrunk: two client participants submit a mix of fresh molecules,
// repeats and already-expired deadlines against a small service; the
// dispatcher and the pool helper are the other two participants. The
// main thread stays OUTSIDE the session and only joins/drains.
sched::RunReport run_service_scenario(std::uint64_t seed,
                                      std::chrono::microseconds linger) {
  sched::PctParams params;
  params.seed = seed;
  params.expected_participants = 4;  // o1.disp, o0.w1, t.c0, t.c1
  sched::arm(params);
  std::atomic<std::uint64_t> ok{0}, shed{0}, rejected{0}, failed{0};
  sched::RunReport rep;
  // 2 x 5 = 10 requests: NOT a multiple of max_batch (4), so in the
  // lingering configuration at least one batch must be taken partial
  // -- and the linger loop only releases a partial batch on a timed-
  // wait expiry, which pins timed_timeouts > 0 for every seed.
  constexpr int kPerClient = 5;
  {
    serve::ServiceConfig cfg;
    cfg.num_threads = 2;
    cfg.queue_capacity = 16;
    cfg.max_batch = 4;
    cfg.cache_capacity = 4;
    cfg.batch_linger = linger;
    serve::PolarizationService svc(cfg);

    std::vector<molecule::Molecule> mols;
    for (std::uint64_t s = 0; s < 2; ++s)
      mols.push_back(molecule::generate_ligand(10, 900 + s));

    auto client = [&](const char* name, int t) {
      sched::Participant part(name);
      std::vector<std::future<serve::Response>> futures;
      for (int i = 0; i < kPerClient; ++i) {
        serve::Request req;
        req.id = static_cast<std::uint64_t>(t * kPerClient + i);
        req.mol = mols[static_cast<std::size_t>(t + i) % mols.size()];
        if (i % 3 == 2) {
          req.deadline = std::chrono::steady_clock::now() - 1s;  // expired
        }
        futures.push_back(svc.submit(std::move(req)));
      }
      for (auto& f : futures) {
        sched::await(f);  // poll-yield, never a real block
        switch (f.get().status) {
          case serve::Status::kOk: ok.fetch_add(1); break;
          case serve::Status::kShed: shed.fetch_add(1); break;
          case serve::Status::kRejected: rejected.fetch_add(1); break;
          case serve::Status::kFailed: failed.fetch_add(1); break;
        }
      }
    };
    std::thread c0(client, "t.c0", 0);
    std::thread c1(client, "t.c1", 1);
    c0.join();
    c1.join();
    svc.drain();  // main is not a participant: real block is fine here
    rep = sched::disarm();

    const std::uint64_t total = 2 * kPerClient;
    EXPECT_EQ(ok.load() + shed.load() + rejected.load() + failed.load(),
              total);
    EXPECT_EQ(failed.load(), 0u);
    EXPECT_GE(ok.load(), 1u);
    const auto stats = svc.stats();
    EXPECT_EQ(stats.submitted, total);
    EXPECT_EQ(stats.completed, ok.load());
    EXPECT_EQ(stats.shed, shed.load());
    EXPECT_EQ(stats.rejected, rejected.load());
    const auto report = svc.validate_invariants();
    EXPECT_TRUE(report.ok()) << report.str();
  }
  check_report(rep, 4);
  return rep;
}

TEST(SchedExploreTest, ServiceAdmissionShedSweep) {
  const int kSeeds = seeds_from_env();
  std::vector<std::string> traces;
  for (int s = 1; s <= kSeeds; ++s) {
    traces.push_back(
        run_service_scenario(static_cast<std::uint64_t>(s), 0us).trace);
    g_total_schedules.fetch_add(1);
  }
  check_diversity(traces);
}

// ------------------------------------------- scenario: batch coalescing

// Non-zero linger exercises the dispatcher's deterministic timed waits
// (the wall deadline is replaced by a round countdown under the
// explorer) while duplicate submissions exercise in-batch coalescing.
TEST(SchedExploreTest, CoalescingLingerSweep) {
  const int kSeeds = seeds_from_env();
  std::vector<std::string> traces;
  std::uint64_t timed_waits = 0;
  for (int s = 1; s <= kSeeds; ++s) {
    const sched::RunReport rep =
        run_service_scenario(static_cast<std::uint64_t>(s), 300us);
    traces.push_back(rep.trace);
    timed_waits += rep.timed_timeouts;
    g_total_schedules.fetch_add(1);
  }
  check_diversity(traces);
  // Across the sweep the linger loop must have timed out at least once
  // deterministically (no notify arrives once the queue is drained and
  // the batch is below max_batch).
  EXPECT_GT(timed_waits, 0u);
}

// ------------------------------------------ regression: disarm teardown

// Threads that never name themselves, so they never enroll in a
// session: they wake every 20 us, two per core, so scenario threads are
// preempted at arbitrary points, the way a busy `ctest -j4` host
// preempts them. Pure spinners were tried and almost never preempted
// the hooks where the teardown race below lives.
class CpuHogs {
 public:
  CpuHogs() {
    const unsigned n =
        2 * std::clamp(std::thread::hardware_concurrency(), 2u, 8u);
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        while (!stop_.load(std::memory_order_acquire))
          std::this_thread::sleep_for(20us);
      });
    }
  }
  ~CpuHogs() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) t.join();
  }
  CpuHogs(const CpuHogs&) = delete;
  CpuHogs& operator=(const CpuHogs&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// disarm() force-deregisters a participant that holds the grant. If
// that participant has already passed its lock-free check and is about
// to take the controller lock in a hook, the hook must not write its
// (now Left) record back to Ready: it would leave a second time, the
// live count would reach -1 while disarm() still waits for the parked
// participants to drain, and disarm() would wait forever (seen as a
// "schedule stalled" abort with every participant `left`). Here
// "t.spin" yields in a tight loop, so it is inside a hook whenever the
// main thread disarms, and "t.park" polls a flag, parked behind it.
TEST(SchedExploreTest, DisarmRacingGrantedParticipantTerminates) {
  for (int s = 1; s <= 40; ++s) {
    sched::PctParams params;
    params.seed = static_cast<std::uint64_t>(s);
    params.expected_participants = 2;
    params.change_points = 0;
    params.record_trace = false;
    sched::arm(params);
    std::atomic<int> yields{0};
    std::atomic<bool> stop{false};
    std::thread spin([&] {
      sched::Participant p("t.spin");
      while (!stop.load(std::memory_order_acquire)) {
        sched::yield_point(sched::Point::kYield);
        yields.fetch_add(1, std::memory_order_relaxed);
      }
    });
    std::thread park([&] {
      sched::Participant p("t.park");
      sched::await_flag(stop);
    });
    while (yields.load(std::memory_order_relaxed) < s % 7 + 1)
      std::this_thread::yield();
    const sched::RunReport rep = sched::disarm();
    stop.store(true, std::memory_order_release);
    spin.join();
    park.join();
    EXPECT_EQ(rep.participants, 2);
    EXPECT_GT(rep.grants, 0u);
  }
}

// The service sweeps of both linger settings, re-run under CPU churn:
// the load under which the teardown race above made them abort in plain
// `ctest -j4` runs (there the dispatcher is still inside a hook when the
// main thread returns from drain() and disarms).
TEST(SchedExploreTest, ServiceSweepsUnderCpuContention) {
  CpuHogs hogs;
  const int kSeeds = seeds_from_env();
  for (int s = 1; s <= kSeeds; ++s) {
    run_service_scenario(static_cast<std::uint64_t>(s), 0us);
    run_service_scenario(static_cast<std::uint64_t>(s), 300us);
  }
}

// ---------------------------------------------------- deadlock detector

// Two participants acquire two util::Mutexes in opposite orders, with
// flag handshakes forcing both first-acquisitions before either second
// one: every schedule reaches the cycle, and the controller must abort
// with a wait-for report instead of hanging.
namespace {
// Body lives outside the macro: commas in declarations would split
// EXPECT_DEATH's arguments.
void run_abba_deadlock() {
  sched::PctParams params;
  params.seed = 5;
  params.expected_participants = 2;
  sched::arm(params);
  util::Mutex a;
  util::Mutex b;
  std::atomic<bool> fa{false};
  std::atomic<bool> fb{false};
  std::thread t1([&] {
    sched::Participant p("t.a");
    util::MutexLock la(a);
    fa.store(true);
    sched::await_flag(fb);
    util::MutexLock lb(b);
  });
  std::thread t2([&] {
    sched::Participant p("t.b");
    util::MutexLock lb(b);
    fb.store(true);
    sched::await_flag(fa);
    util::MutexLock la(a);
  });
  t1.join();
  t2.join();
  sched::disarm();
}
}  // namespace

TEST(SchedExploreTest, AbbaDeadlockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(run_abba_deadlock(), "deadlock");
}

// ------------------------------------------------------------- smoke gate

// Declared last on purpose: when ci.sh --sched-smoke-only runs this
// binary directly (one process, declaration order), every sweep above
// has already accumulated into g_total_schedules.
TEST(SchedSmokeTest, SmokeTotal) {
  const char* min = std::getenv("OCTGB_SCHED_MIN_TOTAL");
  if (min == nullptr)
    GTEST_SKIP() << "set OCTGB_SCHED_MIN_TOTAL to arm (ci.sh sched-smoke)";
  EXPECT_GE(g_total_schedules.load(),
            static_cast<std::uint64_t>(std::atoll(min)));
}

}  // namespace
}  // namespace octgb
