// sched.cpp -- controller for the deterministic PCT schedule explorer.
//
// The controller is a state machine guarded by one mutex: there is no
// scheduler thread. Whichever participant performs a state transition
// (yield, block, unlock, notify, join, leave) runs the scheduling
// decision inline and broadcasts; the chosen participant observes
// `current == my id` and resumes. Participants park in a single
// condition variable; the predicate also watches the global epoch so
// disarm() can release the whole fleet.
//
// This file deliberately uses the raw standard primitives that the
// rest of the repo is linted away from (raw-mutex rule): the scheduler
// cannot be built on top of util::Mutex because util::Mutex calls
// *into* the scheduler; src/analysis/sched/ is the sanctioned
// exemption, like src/load/clock.h for rawclock.

#include "src/analysis/sched/sched.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/telemetry/telemetry.h"
#include "src/util/rng.h"

namespace octgb::analysis::sched {

std::atomic<std::uint32_t> g_armed_epoch{0};
thread_local TlsState t_tls;

namespace {

constexpr std::uint64_t kBasePrioFloor = std::uint64_t{1} << 32;

std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer: cheap, well-distributed, stable across runs.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_name(const char* s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (; *s; ++s) h = (h ^ static_cast<unsigned char>(*s)) * 0x100000001b3ULL;
  return h;
}

enum class St : std::uint8_t {
  kReady,         // runnable, parked until granted
  kRunning,       // the (single) granted participant
  kMutexBlocked,  // parked on a util::Mutex held by someone else
  kCvBlocked,     // parked in a CondVar wait
  kTimedWait,     // parked in a CondVar timed wait (round countdown)
  kPolling,       // runnable but only when nothing is Ready
  kLeft,          // deregistered
};

const char* st_name(St s) {
  switch (s) {
    case St::kReady: return "ready";
    case St::kRunning: return "running";
    case St::kMutexBlocked: return "mutex-blocked";
    case St::kCvBlocked: return "cv-blocked";
    case St::kTimedWait: return "timed-wait";
    case St::kPolling: return "polling";
    case St::kLeft: return "left";
  }
  return "?";
}

struct Rec {
  std::string name;
  std::thread::id tid;
  std::uint64_t prio = 0;
  St st = St::kReady;
  void* res = nullptr;  // mutex / cv this rec is blocked on
  int rounds = 0;       // timed-wait countdown (in grants)
  bool timed_out = false;
  Point last_point = Point::kYield;
  util::Xoshiro256 rng{1};
};

struct Ctl {
  // lint:allow(mutex-unguarded) the scheduler sits below the annotation layer; every member of Ctl is guarded by mu
  std::mutex mu;
  std::condition_variable cv;  // single park spot; predicate disambiguates

  PctParams params;
  std::uint32_t epoch = 0;
  std::vector<std::unique_ptr<Rec>> recs;
  std::unordered_map<void*, std::thread::id> owner;  // mutex -> holder
  std::unordered_map<std::thread::id, int> tid2rec;
  int current = -1;    // granted participant, -1 = none
  int registered = 0;  // total ever joined this session
  int live = 0;        // joined and not yet left
  std::uint64_t grant_seq = 0;
  std::vector<std::uint64_t> change_points;
  std::size_t next_cp = 0;
  std::uint64_t low_prio_next = 0;   // descending pool for demotions
  std::uint64_t poll_rotation = 0;   // fair rotation over pollers

  std::uint64_t preemptions = 0, mutex_blocks = 0, cv_blocks = 0;
  std::uint64_t spurious = 0, timed_timeouts = 0;
  std::string trace;
  bool trace_truncated = false;

  std::atomic<int> object_ids{0};
  std::atomic<std::uint64_t> progress{0};  // watchdog heartbeat
  std::thread watchdog;
  std::atomic<bool> watchdog_stop{false};
};

// One controller for the process lifetime: parked threads from a
// session being torn down may still hold a reference, so the storage
// is never reclaimed -- arm() resets the fields instead.
Ctl& ctl() {
  static Ctl* c = new Ctl();  // lint:allow(naked-new) intentionally immortal
  return *c;
}

// lint:allow(mutex-unguarded) guards g_epoch_counter across arm()/disarm()
std::mutex g_arm_mu;
std::uint32_t g_epoch_counter = 0;

// Deregisters the calling thread at thread exit, so pool helpers and
// service dispatchers that were auto-registered never leave the
// session's live count dangling.
struct TlsLeaveGuard {
  bool engaged = false;
  ~TlsLeaveGuard() {
    if (engaged && t_tls.epoch != 0) participant_leave_slow();
  }
};
thread_local TlsLeaveGuard t_leave_guard;

[[noreturn]] void fatal_state_dump_locked(Ctl& c, const char* why) {
  std::fprintf(stderr, "octgb-sched: FATAL: %s (seed=%llu, grants=%llu)\n",
               why, static_cast<unsigned long long>(c.params.seed),
               static_cast<unsigned long long>(c.grant_seq));
  for (std::size_t i = 0; i < c.recs.size(); ++i) {
    const Rec& r = *c.recs[i];
    std::fprintf(stderr, "  [%zu] %-16s %-14s res=%p prio=%llu\n", i,
                 r.name.c_str(), st_name(r.st), r.res,
                 static_cast<unsigned long long>(r.prio));
  }
  std::fflush(stderr);
  std::abort();
}

// A cycle of mutex-blocked participants each waiting on a mutex held
// by the next is a *definitive* deadlock: no external event can break
// it (CV waits are excluded -- a notify can come from anywhere).
// Each rec has at most one outgoing wait-for edge, so this is cycle
// detection on a functional graph.
void check_deadlock_locked(Ctl& c) {
  const int n = static_cast<int>(c.recs.size());
  std::vector<int> next(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    const Rec& r = *c.recs[static_cast<std::size_t>(i)];
    if (r.st != St::kMutexBlocked) continue;
    auto own = c.owner.find(r.res);
    if (own == c.owner.end()) continue;  // holder outside the session
    auto rec = c.tid2rec.find(own->second);
    if (rec == c.tid2rec.end()) continue;  // non-participant holder
    next[static_cast<std::size_t>(i)] = rec->second;
  }
  std::vector<int> color(static_cast<std::size_t>(n), 0);  // 0 new 1 open 2 done
  for (int s = 0; s < n; ++s) {
    int i = s;
    while (i != -1 && color[static_cast<std::size_t>(i)] == 0) {
      color[static_cast<std::size_t>(i)] = 1;
      i = next[static_cast<std::size_t>(i)];
    }
    if (i != -1 && color[static_cast<std::size_t>(i)] == 1) {
      // walk the cycle once for the report
      std::fprintf(stderr, "octgb-sched: deadlock: wait-for cycle:\n");
      int j = i;
      do {
        const Rec& r = *c.recs[static_cast<std::size_t>(j)];
        std::fprintf(stderr, "  %s blocked on mutex %p\n", r.name.c_str(),
                     r.res);
        j = next[static_cast<std::size_t>(j)];
      } while (j != i);
      fatal_state_dump_locked(c, "definitive deadlock");
    }
    // close everything opened on this walk
    int k = s;
    while (k != -1 && color[static_cast<std::size_t>(k)] == 1) {
      color[static_cast<std::size_t>(k)] = 2;
      k = next[static_cast<std::size_t>(k)];
    }
  }
}

// The scheduling decision. Called with c.mu held after every state
// transition; no-op unless no participant currently holds the grant.
void schedule_locked(Ctl& c) {
  c.progress.fetch_add(1, std::memory_order_relaxed);
  if (c.current != -1) return;  // someone is running; they'll be back
  if (c.registered < c.params.expected_participants) return;  // barrier
  const int n = static_cast<int>(c.recs.size());

  // Every pick below orders by (prio desc, name asc), never by rec
  // index: indices follow OS thread-startup order, and a replay must
  // not depend on it.
  auto before = [&](int a, int b) {
    const Rec& ra = *c.recs[static_cast<std::size_t>(a)];
    const Rec& rb = *c.recs[static_cast<std::size_t>(b)];
    return ra.prio != rb.prio ? ra.prio > rb.prio : ra.name < rb.name;
  };
  auto pick_ready = [&]() {
    int best = -1;
    for (int i = 0; i < n; ++i) {
      if (c.recs[static_cast<std::size_t>(i)]->st == St::kReady &&
          (best == -1 || before(i, best)))
        best = i;
    }
    return best;
  };

  int best = pick_ready();
  if (best == -1) {
    // Pollers run only when nothing is Ready, rotating over the
    // (prio, name)-sorted poller list so a max-priority spinner
    // cannot starve the others.
    std::vector<int> polls;
    for (int i = 0; i < n; ++i)
      if (c.recs[static_cast<std::size_t>(i)]->st == St::kPolling)
        polls.push_back(i);
    if (!polls.empty()) {
      std::stable_sort(polls.begin(), polls.end(), before);
      best = polls[c.poll_rotation++ % polls.size()];
    }
  }
  if (best == -1) {
    // Nothing runnable: force the nearest timed wait to expire so a
    // lone linger loop cannot stall the schedule.
    int tw = -1;
    for (int i = 0; i < n; ++i) {
      const Rec& r = *c.recs[static_cast<std::size_t>(i)];
      if (r.st != St::kTimedWait) continue;
      if (tw == -1 ||
          r.rounds < c.recs[static_cast<std::size_t>(tw)]->rounds ||
          (r.rounds == c.recs[static_cast<std::size_t>(tw)]->rounds &&
           before(i, tw)))
        tw = i;
    }
    if (tw != -1) {
      Rec& r = *c.recs[static_cast<std::size_t>(tw)];
      r.st = St::kReady;
      r.timed_out = true;
      ++c.timed_timeouts;
      best = tw;
    }
  }
  if (best == -1) {
    check_deadlock_locked(c);  // aborts on a definitive cycle
    return;  // idle: an external unlock/notify/join must wake us
  }

  ++c.grant_seq;

  // PCT change point: demote the would-be winner to a fresh lowest
  // priority and re-pick, injecting a preemption exactly here.
  while (c.next_cp < c.change_points.size() &&
         c.grant_seq >= c.change_points[c.next_cp]) {
    ++c.next_cp;
    ++c.preemptions;
    c.recs[static_cast<std::size_t>(best)]->prio = c.low_prio_next--;
    const int re = pick_ready();
    if (re != -1) best = re;
  }

  // Timed waiters age by one round per grant.
  for (int i = 0; i < n; ++i) {
    Rec& r = *c.recs[static_cast<std::size_t>(i)];
    if (r.st == St::kTimedWait && --r.rounds <= 0) {
      r.st = St::kReady;
      r.timed_out = true;
      ++c.timed_timeouts;
    }
  }

  c.current = best;
  if (c.params.record_trace) {
    if (c.trace.size() >= (std::size_t{2} << 20)) {
      c.trace_truncated = true;
    } else {
      // "name:point;" per grant. Names, not rec indices: indices are
      // registration-order artifacts, names are session-stable.
      const Rec& b = *c.recs[static_cast<std::size_t>(best)];
      c.trace.append(b.name);
      c.trace.push_back(':');
      c.trace.push_back(
          static_cast<char>('0' + static_cast<int>(b.last_point)));
      c.trace.push_back(';');
    }
  }
}

// Mark the calling thread's rec as left, under c.mu.
void leave_locked(Ctl& c, int id) {
  if (id >= 0 && id < static_cast<int>(c.recs.size())) {
    Rec& r = *c.recs[static_cast<std::size_t>(id)];
    if (r.st != St::kLeft) {
      r.st = St::kLeft;
      --c.live;
    }
  }
  if (c.current == id) c.current = -1;
  schedule_locked(c);
  c.cv.notify_all();
  t_tls.epoch = 0;
  t_tls.id = -1;
}

// The calling thread's rec, looked up under c.mu, or nullptr when its
// registration went stale after the lock-free active_participant()
// check: disarm() force-deregisters a participant that holds the grant,
// and arm() may already have reset recs for the next session. Writing
// through the stale id would resurrect a Left rec -- it then parks,
// sees the epoch flip and leaves a second time, live drops to -1 and
// disarm()'s drain never completes -- or clobber another session's
// rec. A stale caller drops its TLS and falls back to the real
// primitives.
Rec* own_rec_locked(Ctl& c, std::uint32_t epoch) {
  const int id = t_tls.id;
  if (epoch == 0 || epoch != c.epoch ||
      g_armed_epoch.load(std::memory_order_relaxed) != epoch || id < 0 ||
      id >= static_cast<int>(c.recs.size()) ||
      c.recs[static_cast<std::size_t>(id)]->st == St::kLeft) {
    t_tls.epoch = 0;
    t_tls.id = -1;
    return nullptr;
  }
  return c.recs[static_cast<std::size_t>(id)].get();
}

// Park until granted (or the session ends). Returns false if the
// session ended while parked (the rec has been deregistered).
bool park_until_granted(Ctl& c, std::unique_lock<std::mutex>& lk,
                        std::uint32_t epoch) {
  c.cv.wait(lk, [&] {
    return g_armed_epoch.load(std::memory_order_relaxed) != epoch ||
           c.current == t_tls.id;
  });
  if (g_armed_epoch.load(std::memory_order_relaxed) != epoch) {
    leave_locked(c, t_tls.id);
    return false;
  }
  c.recs[static_cast<std::size_t>(t_tls.id)]->st = St::kRunning;
  return true;
}

// Register the calling thread and park at the start barrier. Assumes
// the thread is named. Returns false if the session ended first.
bool join_current_thread(Point kind) {
  Ctl& c = ctl();
  std::unique_lock<std::mutex> lk(c.mu);
  const std::uint32_t e = g_armed_epoch.load(std::memory_order_relaxed);
  if (e == 0 || e != c.epoch) return false;  // raced with disarm
  const int id = static_cast<int>(c.recs.size());
  if (id >= 250) fatal_state_dump_locked(c, "participant overflow (>=250)");
  auto rec = std::make_unique<Rec>();
  rec->name = t_tls.name[0] ? t_tls.name : ("anon" + std::to_string(id));
  // Priorities come from (seed, name) precisely so this id, which
  // only maps the OS thread to its record, cannot perturb the schedule.
  // detlint:allow(thread-id): registration identity only, never ordered
  rec->tid = std::this_thread::get_id();
  // Priorities derive from (seed, name), not registration order, so
  // OS-dependent thread startup order cannot perturb the schedule.
  rec->prio = mix64(c.params.seed ^ hash_name(rec->name.c_str())) |
              kBasePrioFloor;
  rec->rng = util::Xoshiro256(
      mix64(c.params.seed * 0x9e3779b97f4a7c15ULL ^ hash_name(rec->name.c_str())));
  rec->st = St::kReady;
  rec->last_point = kind;
  c.tid2rec[rec->tid] = id;
  c.recs.push_back(std::move(rec));
  ++c.registered;
  ++c.live;
  t_tls.epoch = e;
  t_tls.id = id;
  t_leave_guard.engaged = true;
  schedule_locked(c);
  c.cv.notify_all();
  return park_until_granted(c, lk, e);
}

// True if the calling thread is (or just became) an active
// participant; auto-joins named threads.
bool ensure_joined(Point kind) {
  if (active_participant()) return true;
  if (!armed() || t_tls.name[0] == 0) return false;
  return join_current_thread(kind);
}

void watchdog_main(Ctl* c, std::uint32_t epoch) {
  long stall_ms = 20000;
  // detlint:allow(env-read): watchdog stall knob, never affects results
  if (const char* env = std::getenv("OCTGB_SCHED_STALL_MS")) {
    const long v = std::atol(env);
    if (v > 0) stall_ms = v;
  }
  std::uint64_t last = c->progress.load(std::memory_order_relaxed);
  long idle_ms = 0;
  while (!c->watchdog_stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    idle_ms += 50;
    const std::uint64_t p = c->progress.load(std::memory_order_relaxed);
    if (p != last) {
      last = p;
      idle_ms = 0;
      continue;
    }
    if (idle_ms < stall_ms) continue;
    (void)epoch;
    // Stalled: either a participant blocked outside the scheduler's
    // view or a scenario bug (wrong expected_participants). Dump and
    // abort so CI surfaces the state instead of timing out silently.
    std::unique_lock<std::mutex> lk(c->mu, std::try_to_lock);
    if (lk.owns_lock()) {
      fatal_state_dump_locked(*c, "schedule stalled (OCTGB_SCHED_STALL_MS)");
    }
    std::fprintf(stderr, "octgb-sched: FATAL: stalled with controller busy\n");
    std::fflush(stderr);
    std::abort();
  }
}

}  // namespace

void set_thread_name(const char* name) {
  std::snprintf(t_tls.name, sizeof(t_tls.name), "%s", name ? name : "");
}

int next_object_id() {
  return ctl().object_ids.fetch_add(1, std::memory_order_relaxed);
}

void yield_point_slow(Point kind) {
  if (!ensure_joined(kind)) return;
  Ctl& c = ctl();
  const std::uint32_t e = t_tls.epoch;
  std::unique_lock<std::mutex> lk(c.mu);
  Rec* const own = own_rec_locked(c, e);
  if (own == nullptr) return;
  Rec& r = *own;
  r.last_point = kind;
  r.st = (kind == Point::kPoll) ? St::kPolling : St::kReady;
  if (c.current == t_tls.id) c.current = -1;
  schedule_locked(c);
  c.cv.notify_all();
  park_until_granted(c, lk, e);
}

bool cooperative_lock_slow(void* mu) {
  if (!ensure_joined(Point::kLockAcquire)) return false;
  // A schedule point *before* the acquire: lock order is exactly what
  // PCT needs to perturb.
  yield_point_slow(Point::kLockAcquire);
  if (!active_participant()) return false;  // session ended mid-yield
  auto* m = static_cast<std::mutex*>(mu);
  Ctl& c = ctl();
  const std::uint32_t e = t_tls.epoch;
  for (;;) {
    std::unique_lock<std::mutex> lk(c.mu);
    Rec* const own = own_rec_locked(c, e);
    if (own == nullptr) return false;  // caller real-locks
    // try_lock under c.mu closes the race with note_unlocked_slow,
    // which performs the real unlock *before* taking c.mu: if the
    // mutex was freed before we got here, this succeeds; if it is
    // freed later, the unlocker will find us parked and wake us.
    if (m->try_lock()) return true;
    Rec& r = *own;
    r.st = St::kMutexBlocked;
    r.res = mu;
    r.last_point = Point::kLockAcquire;
    ++c.mutex_blocks;
    if (c.current == t_tls.id) c.current = -1;
    check_deadlock_locked(c);  // catches cycles the moment they form
    schedule_locked(c);
    c.cv.notify_all();
    if (!park_until_granted(c, lk, e)) return false;  // caller real-locks
    c.recs[static_cast<std::size_t>(t_tls.id)]->res = nullptr;
  }
}

void note_locked_slow(void* mu) {
  Ctl& c = ctl();
  std::lock_guard<std::mutex> lk(c.mu);
  // detlint:allow(thread-id): hand-off assert bookkeeping, equality only
  c.owner[mu] = std::this_thread::get_id();
}

void note_unlocked_slow(void* mu) {
  Ctl& c = ctl();
  std::lock_guard<std::mutex> lk(c.mu);
  c.owner.erase(mu);
  bool woke = false;
  for (auto& rp : c.recs) {
    if (rp->st == St::kMutexBlocked && rp->res == mu) {
      rp->st = St::kReady;
      woke = true;
    }
  }
  if (woke) {
    schedule_locked(c);
    c.cv.notify_all();
  }
}

void cond_wait_slow(void* cv) {
  if (!active_participant()) return;  // behaves as a spurious wake
  Ctl& c = ctl();
  const std::uint32_t e = t_tls.epoch;
  std::unique_lock<std::mutex> lk(c.mu);
  Rec* const own = own_rec_locked(c, e);
  if (own == nullptr) return;  // behaves as a spurious wake
  Rec& r = *own;
  if (c.params.spurious_wake_denom > 0 &&
      r.rng.below(static_cast<std::uint64_t>(c.params.spurious_wake_denom)) ==
          0) {
    ++c.spurious;
    // Spurious wake is still a schedule point: park Ready, resume
    // when granted, return to the caller's predicate loop.
    r.last_point = Point::kCondWait;
    r.st = St::kReady;
    if (c.current == t_tls.id) c.current = -1;
    schedule_locked(c);
    c.cv.notify_all();
    park_until_granted(c, lk, e);
    return;
  }
  r.st = St::kCvBlocked;
  r.res = cv;
  r.last_point = Point::kCondWait;
  ++c.cv_blocks;
  if (c.current == t_tls.id) c.current = -1;
  schedule_locked(c);
  c.cv.notify_all();
  if (park_until_granted(c, lk, e))
    c.recs[static_cast<std::size_t>(t_tls.id)]->res = nullptr;
}

bool cond_wait_timed_slow(void* cv) {
  if (!active_participant()) return false;
  Ctl& c = ctl();
  const std::uint32_t e = t_tls.epoch;
  std::unique_lock<std::mutex> lk(c.mu);
  Rec* const own = own_rec_locked(c, e);
  if (own == nullptr) return false;
  Rec& r = *own;
  if (c.params.spurious_wake_denom > 0 &&
      r.rng.below(static_cast<std::uint64_t>(c.params.spurious_wake_denom)) ==
          0) {
    ++c.spurious;
    r.last_point = Point::kCondWait;
    r.st = St::kReady;
    if (c.current == t_tls.id) c.current = -1;
    schedule_locked(c);
    c.cv.notify_all();
    park_until_granted(c, lk, e);
    return false;  // not a timeout
  }
  r.st = St::kTimedWait;
  r.res = cv;
  r.rounds = c.params.timed_wait_rounds > 0 ? c.params.timed_wait_rounds : 1;
  r.timed_out = false;
  r.last_point = Point::kCondWait;
  ++c.cv_blocks;
  if (c.current == t_tls.id) c.current = -1;
  schedule_locked(c);
  c.cv.notify_all();
  if (!park_until_granted(c, lk, e)) return false;
  Rec& r2 = *c.recs[static_cast<std::size_t>(t_tls.id)];
  r2.res = nullptr;
  return r2.timed_out;
}

void notify_slow(void* cv, bool all) {
  Ctl& c = ctl();
  std::lock_guard<std::mutex> lk(c.mu);
  // Deterministic wake order: priority descending, id ascending.
  int woken = 0;
  for (;;) {
    int best = -1;
    for (int i = 0; i < static_cast<int>(c.recs.size()); ++i) {
      Rec& r = *c.recs[static_cast<std::size_t>(i)];
      if ((r.st != St::kCvBlocked && r.st != St::kTimedWait) || r.res != cv)
        continue;
      if (best == -1 ||
          r.prio > c.recs[static_cast<std::size_t>(best)]->prio)
        best = i;
    }
    if (best == -1) break;
    Rec& r = *c.recs[static_cast<std::size_t>(best)];
    r.st = St::kReady;
    r.timed_out = false;
    ++woken;
    if (!all) break;
  }
  if (woken > 0) {
    schedule_locked(c);
    c.cv.notify_all();
  }
}

void participant_leave_slow() {
  if (t_tls.epoch == 0) {
    t_tls.id = -1;
    return;
  }
  Ctl& c = ctl();
  std::lock_guard<std::mutex> lk(c.mu);
  if (t_tls.epoch == c.epoch) {
    leave_locked(c, t_tls.id);
  } else {
    t_tls.epoch = 0;
    t_tls.id = -1;
  }
}

Participant::Participant(const char* name) {
  set_thread_name(name);
  if (armed()) yield_point_slow(Point::kYield);  // registers + barrier
}

Participant::~Participant() {
  if (t_tls.epoch != 0) participant_leave_slow();
  // Un-name the thread: a sticky name would auto-enroll this thread
  // (often gtest's main) into the *next* armed scenario the moment it
  // touches any interposed primitive.
  set_thread_name("");
}

void arm(const PctParams& params) {
  std::lock_guard<std::mutex> arm_lk(g_arm_mu);
  Ctl& c = ctl();
  if (g_armed_epoch.load(std::memory_order_relaxed) != 0) {
    std::fprintf(stderr, "octgb-sched: FATAL: arm() while already armed\n");
    std::fflush(stderr);
    std::abort();
  }
  {
    std::lock_guard<std::mutex> lk(c.mu);
    c.params = params;
    if (++g_epoch_counter == 0) ++g_epoch_counter;  // skip the disarmed value
    c.epoch = g_epoch_counter;
    c.recs.clear();
    c.owner.clear();
    c.tid2rec.clear();
    c.current = -1;
    c.registered = c.live = 0;
    c.grant_seq = 0;
    c.change_points.clear();
    util::Xoshiro256 rng(mix64(params.seed ^ 0xc0ffee5eedULL));
    const std::uint64_t horizon = params.horizon > 0 ? params.horizon : 1;
    for (int i = 0; i < params.change_points; ++i)
      c.change_points.push_back(1 + rng.below(horizon));
    std::stable_sort(c.change_points.begin(), c.change_points.end());
    c.next_cp = 0;
    c.low_prio_next = 1000000;
    c.poll_rotation = 0;
    c.preemptions = c.mutex_blocks = c.cv_blocks = 0;
    c.spurious = c.timed_timeouts = 0;
    c.trace.clear();
    c.trace_truncated = false;
    c.object_ids.store(0, std::memory_order_relaxed);
    c.progress.store(0, std::memory_order_relaxed);
  }
  c.watchdog_stop.store(false, std::memory_order_release);
  c.watchdog = std::thread(watchdog_main, &c, c.epoch);
  g_armed_epoch.store(c.epoch, std::memory_order_seq_cst);
}

RunReport disarm() {
  std::lock_guard<std::mutex> arm_lk(g_arm_mu);
  if (active_participant()) participant_leave_slow();  // defensive
  Ctl& c = ctl();
  RunReport rep;
  {
    std::unique_lock<std::mutex> lk(c.mu);
    g_armed_epoch.store(0, std::memory_order_seq_cst);
    c.progress.fetch_add(1, std::memory_order_relaxed);
    // A participant that holds the grant is off executing real code
    // and cannot observe the epoch flip until its next hook -- which
    // the disarmed fast path never takes (pool helpers between tasks
    // are the common case). Force-deregister it here; its stale TLS
    // reconciles lazily (participant_leave_slow and ensure_joined
    // both re-check the epoch before touching recs).
    for (std::size_t i = 0; i < c.recs.size(); ++i) {
      Rec& r = *c.recs[i];
      if (r.st == St::kRunning) {
        r.st = St::kLeft;
        --c.live;
        if (c.current == static_cast<int>(i)) c.current = -1;
      }
    }
    c.cv.notify_all();
    // Parked participants wake on the epoch flip, deregister, and
    // fall back to the real primitives; the rest deregister at their
    // Participant dtor or thread exit. Wait for the fleet to drain so
    // the next arm() can safely reset the controller.
    c.cv.wait(lk, [&] { return c.live == 0; });
    rep.grants = c.grant_seq;
    rep.preemptions = c.preemptions;
    rep.mutex_blocks = c.mutex_blocks;
    rep.cv_blocks = c.cv_blocks;
    rep.spurious_wakeups = c.spurious;
    rep.timed_timeouts = c.timed_timeouts;
    rep.participants = c.registered;
    rep.trace_truncated = c.trace_truncated;
    rep.trace = c.trace;
  }
  c.watchdog_stop.store(true, std::memory_order_release);
  if (c.watchdog.joinable()) c.watchdog.join();
  OCTGB_COUNTER_ADD("sched.grants", rep.grants);
  OCTGB_COUNTER_ADD("sched.preemptions", rep.preemptions);
  OCTGB_COUNTER_ADD("sched.mutex_blocks", rep.mutex_blocks);
  OCTGB_COUNTER_ADD("sched.cv_blocks", rep.cv_blocks);
  OCTGB_COUNTER_ADD("sched.spurious_wakeups", rep.spurious_wakeups);
  OCTGB_COUNTER_ADD("sched.timed_timeouts", rep.timed_timeouts);
  OCTGB_COUNTER_ADD("sched.sessions", 1);
  return rep;
}

}  // namespace octgb::analysis::sched
