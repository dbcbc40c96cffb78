// workloads.cpp -- the benchmark's workloads: cold_protein_20k and
// hybrid_capsid_20k, and md_refit_2k, which BENCHMARK.json holds out.
//
// Every workload follows the same shape: set-ups (inputs are generated as
// PQR text; setup_s is the median of all of them, some run before the
// window and some after), an untimed warm-up, the timed window with
// tracing off, then -- in a traced run -- the direct-call ledger, and last
// the output checks against the naive reference. Nothing after the window
// is timed as part of it.
#include <algorithm>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "harness.h"
#include "ledger.h"
#include "src/molecule/generators.h"
#include "src/parallel/pool.h"
#include "src/runtime/drivers.h"
#include "src/serve/service.h"
#include "src/telemetry/telemetry.h"
#include "src/util/hostinfo.h"

namespace perfbench {

namespace {

namespace serve = octgb::serve;
namespace telemetry = octgb::telemetry;
using octgb::molecule::Molecule;
using octgb::parallel::WorkStealingPool;

// cold_protein_20k: one outstanding request, the requests cycling over
// kColdInputs structures (distinct within a window at ~4.5 s a request);
// consecutive requests always differ, so each misses the one-entry cache.
constexpr std::size_t kColdAtoms = 20000;
constexpr std::size_t kColdInputs = 9;
constexpr std::size_t kColdCache = 1;
// Inputs checked against the naive reference per run: one 20k-atom
// reference takes ~15 s on kWorkers threads.
constexpr std::size_t kColdChecks = 1;

// md_refit_2k (held out of BENCHMARK.json; see HELD in run.py): four
// base structures, 32 jittered conformations each
// (0.05 A per coordinate, ~0.09 A RMS -- an MD step, far below the
// service's 0.5 A refit limit). Every 4th request repeats the request
// two before it. (Sixteen bases averaged the per-molecule work better
// but made peak memory swing by 10-20% between runs of one seed.)
constexpr std::size_t kMdAtoms = 2000;
constexpr std::size_t kMdBases = 4;
constexpr std::size_t kMdVariants = 32;
constexpr double kMdSigma = 0.05;
constexpr std::size_t kMdCache = 16;
constexpr int kMdOutstanding = 4;
constexpr std::size_t kMdMinRequests = 100;  // >= 10 samples beyond p90
constexpr std::size_t kMdLedgerInputs = 8;
constexpr std::size_t kMdChecks = 8;

// hybrid_capsid_20k: OCT_MPI+CILK on 2 ranks x 2 threads, the solves
// cycling over kCapsidInputs capsids. Several capsids make a set-up long
// enough for a steady median: one capsid's ~0.2 s set-up moved by 40%
// between runs.
constexpr std::size_t kCapsidAtoms = 20000;
constexpr int kRanks = 2;
constexpr std::size_t kCapsidInputs = 6;
constexpr std::size_t kCapsidChecks = 1;  // every solve of it

constexpr int kDeterminismReps = 5;
// Tracer-off/tracer-on pairs of ledger calls behind trace.overhead_frac.
constexpr int kOverheadPairs = 3;

// Set-ups per run; setup_s is their median. Each generates its inputs on
// kWorkers threads: single-threaded, the set-up ran at two speeds ~1.5x
// apart. The host's speed shifts over tens of seconds, so the set-ups are
// spread over the run: kSetupRepsBefore before the window (the last one's
// inputs are used), kSetupRepsLater discarded ones after the window and
// as many after the checks.
constexpr int kSetupRepsBefore = 3;
constexpr int kSetupRepsLater = 2;

/// `set_up(false)` kSetupRepsLater times: set-ups timed but not used.
template <typename SetUp>
void later_set_ups(const SetUp& set_up) {
  for (int rep = 0; rep < kSetupRepsLater; ++rep) set_up(false);
}

/// Responses delivered by the service's on_complete hook, stamped on
/// arrival so client-side scheduling never inflates a latency.
class CompletionSink {
 public:
  using Item = std::pair<serve::Response, Clock::time_point>;

  void push(const serve::Response& r) {
    const Clock::time_point now = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_.emplace_back(r, now);
    }
    cv_.notify_one();
  }

  std::vector<Item> wait_some() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !done_.empty(); });
    return std::exchange(done_, {});
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Item> done_;
};

serve::ServiceConfig service_config(std::size_t cache_capacity,
                                    bool intra_request, CompletionSink& sink) {
  serve::ServiceConfig c;
  c.num_threads = kWorkers;
  c.cache_capacity = cache_capacity;
  c.intra_request_parallelism = intra_request;
  c.on_complete = [&sink](const serve::Response& r) { sink.push(r); };
  return c;
}

struct Outcome {
  std::size_t input = 0;
  double latency = 0.0;
  serve::Response resp;
};

struct LoopResult {
  std::vector<Outcome> outcomes;  // in completion order
  std::size_t attempted = 0;
  double window_s = 0.0;
};

/// Closed loop over stream positions first, first+1, ...: keeps
/// `outstanding` requests in flight; position i sends texts[input_of(i)],
/// parsed on this (the only client) thread. A latency runs from the
/// start of the parse to the response. Issuing stops at `max_requests`,
/// or once `seconds` have passed and `min_requests` were issued.
LoopResult closed_loop(serve::PolarizationService& svc, CompletionSink& sink,
                       const std::vector<std::string>& texts,
                       const std::function<std::size_t(std::size_t)>& input_of,
                       std::size_t first, std::size_t max_requests,
                       int outstanding, double seconds,
                       std::size_t min_requests) {
  LoopResult out;
  std::map<std::uint64_t, std::pair<Clock::time_point, std::size_t>> inflight;
  const Clock::time_point start = Clock::now();
  Clock::time_point last = start;
  for (;;) {
    while (static_cast<int>(inflight.size()) < outstanding &&
           out.attempted < max_requests &&
           (seconds_since(start) < seconds || out.attempted < min_requests)) {
      const std::uint64_t id = first + out.attempted++;
      const std::size_t input = input_of(id);
      const Clock::time_point t0 = Clock::now();
      serve::Request req;
      req.id = id;
      req.want_born_radii = true;  // for the output check
      try {
        req.mol = parse_pqr(texts[input]);
      } catch (...) {
        Outcome o;
        o.input = input;
        o.resp.id = id;
        o.resp.status = serve::Status::kFailed;
        out.outcomes.push_back(o);
        continue;
      }
      inflight[id] = {t0, input};
      svc.submit(std::move(req));  // the sink delivers the response
    }
    if (inflight.empty()) break;
    for (auto& [resp, t] : sink.wait_some()) {
      const auto it = inflight.find(resp.id);
      if (it == inflight.end()) continue;  // not from this loop
      Outcome o;
      o.input = it->second.second;
      o.latency = std::chrono::duration<double>(t - it->second.first).count();
      o.resp = std::move(resp);
      out.outcomes.push_back(std::move(o));
      last = std::max(last, t);
      inflight.erase(it);
    }
  }
  out.window_s = std::chrono::duration<double>(last - start).count();
  return out;
}

void record_window(const LoopResult& lr, Record& rec) {
  double failed = 0;
  for (const Outcome& o : lr.outcomes) {
    if (o.resp.status == serve::Status::kOk) {
      rec.sample("latency_s", o.latency);
      rec.sample("serve.queue_s", o.resp.t_queue);
    } else {
      ++failed;
    }
  }
  rec.value["attempted"] = double(lr.attempted);
  rec.value["failed"] = failed;
  rec.value["window_s"] = lr.window_s;
  rec.value["peak_rss_mb"] = double(octgb::util::peak_rss_bytes()) / 1e6;
}

struct ServiceMark {
  serve::ServiceSnapshot snap;
  octgb::parallel::PoolStats pool;
  explicit ServiceMark(const serve::PolarizationService& svc)
      : snap(svc.snapshot()), pool(svc.pool_stats()) {}
};

/// serve.* and parallel.* over the window, from the service's own
/// snapshots (taken before and after it).
void record_service(const serve::PolarizationService& svc,
                    const ServiceMark& m0, Record& rec) {
  const ServiceMark m1(svc);
  const serve::ServiceStats& a = m0.snap.stats;
  const serve::ServiceStats& b = m1.snap.stats;
  const double completed = std::max<double>(1.0, double(b.completed - a.completed));
  const double refits = double(b.refits - a.refits);
  rec.value["serve.hit_frac"] = double(b.cache_hits - a.cache_hits) / completed;
  rec.value["serve.refit_frac"] = refits / completed;
  rec.value["serve.plan_reuse_frac"] =
      double(b.plan_reuses - a.plan_reuses) / std::max(1.0, refits);
  rec.value["serve.coalesced_frac"] = double(b.coalesced - a.coalesced) / completed;
  rec.value["serve.batch_size_mean"] =
      double(b.completed - a.completed + b.failed - a.failed) /
      std::max<double>(1.0, double(b.batches - a.batches));
  rec.value["serve.cache_mb"] = double(svc.cache_memory_bytes()) / 1e6;
  const double steals = double(m1.pool.successful_steals - m0.pool.successful_steals);
  const double misses =
      double(m1.pool.failed_steal_attempts - m0.pool.failed_steal_attempts);
  rec.value["parallel.tasks"] =
      double(m1.pool.tasks_executed - m0.pool.tasks_executed) / completed;
  rec.value["parallel.steal_success_frac"] = steals / std::max(1.0, steals + misses);
}

/// `count` evenly spaced items of `all` (all of them when there are fewer).
template <typename T>
std::vector<T> evenly(const std::vector<T>& all, std::size_t count) {
  if (all.size() <= count) return all;
  std::vector<T> picked;
  for (std::size_t k = 0; k < count; ++k) {
    picked.push_back(all[k * all.size() / count]);
  }
  return picked;
}

/// `count` evenly spaced successful outcomes, for the naive check.
std::vector<const Outcome*> sample_ok(const LoopResult& lr, std::size_t count) {
  std::vector<const Outcome*> ok;
  for (const Outcome& o : lr.outcomes) {
    if (o.resp.status == serve::Status::kOk) ok.push_back(&o);
  }
  return evenly(ok, count);
}

/// Traced-run extras shared by the workloads, on one built pipeline:
/// kernel scaling, repeated-solve determinism and one OCT_MPI+CILK solve.
void ledger_extras(const Pipeline& p, bool runtime, Record& rec) {
  kernel_scaling(p, rec);
  determinism(p, kDeterminismReps, rec);
  if (runtime) runtime_solve(p.mol, rec);
}

/// Starts the traced ledger: runs `ledger_call` kOverheadPairs times with
/// the tracer on, into `rec`, and as often with it off, into a scratch
/// record, the two alternating and each pair starting with the other
/// mode. trace.overhead_frac is the median over the pairs of on / off - 1.
/// Leaves the tracer on.
template <typename Fn>
void begin_trace(Fn&& ledger_call, Record& rec) {
  telemetry::TraceRecorder& tracer = telemetry::TraceRecorder::instance();
  tracer.reset();
  Record scratch;
  const auto call = [&](bool on) {
    tracer.set_enabled(on);
    return ledger_call(on ? rec : scratch);
  };
  std::vector<double> overhead;
  for (int k = 0; k < kOverheadPairs; ++k) {
    const bool on_first = k % 2 == 1;
    const double first = call(on_first);
    const double second = call(!on_first);
    overhead.push_back(on_first ? first / second - 1.0 : second / first - 1.0);
  }
  tracer.set_enabled(true);
  std::sort(overhead.begin(), overhead.end());
  rec.value["trace.overhead_frac"] = overhead[overhead.size() / 2];
}

void end_trace(const Options& opt) {
  telemetry::TraceRecorder& tracer = telemetry::TraceRecorder::instance();
  tracer.set_enabled(false);
  if (!opt.trace_out.empty() && !tracer.flush(opt.trace_out)) {
    throw std::runtime_error("cannot write trace " + opt.trace_out);
  }
}

}  // namespace

void run_cold_protein(const Options& opt, Record& rec) {
  rec.text["atoms"] = std::to_string(kColdAtoms);
  rec.text["workers"] = std::to_string(kWorkers);
  rec.text["cache_capacity"] = std::to_string(kColdCache);
  rec.text["outstanding"] = "1";
  rec.text["service_mode"] = "intra_request";
  const auto cycle = [](std::size_t i) { return i % kColdInputs; };

  CompletionSink sink;  // outlives the services that call into it
  std::vector<std::string> texts;
  std::unique_ptr<serve::PolarizationService> svc;
  const auto set_up = [&](bool keep) {
    if (keep) {  // one copy of the inputs at a time: peak_rss_mb includes set-up
      texts.clear();
      svc.reset();
    }
    std::vector<std::string> t(kColdInputs);
    std::unique_ptr<serve::PolarizationService> s;
    const Clock::time_point t0 = Clock::now();
    side_by_side(kColdInputs, kWorkers, [&](std::size_t k) {
      t[k] = pqr_text(octgb::molecule::generate_protein(
          kColdAtoms, derive_seed(opt.seed, 1, k)));
    });
    s = std::make_unique<serve::PolarizationService>(
        service_config(kColdCache, true, sink));
    rec.sample("setup_s", seconds_since(t0));
    if (keep) {
      texts = std::move(t);
      svc = std::move(s);
    }
  };
  for (int rep = 0; rep < kSetupRepsBefore; ++rep) set_up(true);

  // Warm-up: input 0 fills the one-entry cache, so the window's peak
  // memory (one cached entry + one request in flight) is reached from
  // its first request on.
  closed_loop(*svc, sink, texts, cycle, 0, 1, 1, 0.0, 1);

  const ServiceMark mark(*svc);
  const LoopResult lr = closed_loop(*svc, sink, texts, cycle, 1,
                                    static_cast<std::size_t>(-1), 1,
                                    opt.seconds, 1);
  record_window(lr, rec);
  record_service(*svc, mark, rec);
  svc.reset();  // idle pool workers must not share the cores below
  later_set_ups(set_up);

  if (opt.trace) {
    WorkStealingPool pool(kWorkers);
    Pipeline built;
    begin_trace([&](Record& r) {
      return ledger_cold(texts[lr.outcomes.at(0).input], &pool, r, &built);
    }, rec);
    refit_probe(built, derive_seed(opt.seed, 5, 0), &pool, rec);
    ledger_extras(built, true, rec);
    end_trace(opt);
  }

  std::vector<CheckInput> inputs;
  for (const Outcome* o : sample_ok(lr, kColdChecks)) {
    inputs.push_back(
        {o->resp.id, &texts[o->input], {o->resp.energy}, o->resp.born_radii});
  }
  check_against_naive(inputs, rec);
  later_set_ups(set_up);
}

void run_md_refit(const Options& opt, Record& rec) {
  rec.text["atoms"] = std::to_string(kMdAtoms);
  rec.text["workers"] = std::to_string(kWorkers);
  rec.text["cache_capacity"] = std::to_string(kMdCache);
  rec.text["outstanding"] = std::to_string(kMdOutstanding);
  rec.text["service_mode"] = "throughput";
  const std::size_t n_conf = kMdBases * kMdVariants;
  const auto identity = [](std::size_t i) { return i; };
  // texts: [0, kMdBases) the bases, then conformation c at kMdBases + c,
  // a jitter of base c % kMdBases.
  const auto stream = [n_conf](std::size_t i) {
    if (i % 4 == 3) i -= 2;  // exact repeat of the request two back
    const std::size_t j = i - (i + 1) / 4;  // ordinal among non-repeats
    return kMdBases + j % n_conf;
  };

  CompletionSink sink;
  std::vector<std::string> texts;
  std::unique_ptr<serve::PolarizationService> svc;
  const auto set_up = [&](bool keep) {
    if (keep) {  // one copy of the inputs at a time: peak_rss_mb includes set-up
      texts.clear();
      svc.reset();
    }
    std::vector<std::string> t(kMdBases + n_conf);
    std::vector<Molecule> bases(kMdBases);
    std::unique_ptr<serve::PolarizationService> s;
    const Clock::time_point t0 = Clock::now();
    side_by_side(kMdBases, kWorkers, [&](std::size_t b) {
      bases[b] = octgb::molecule::generate_protein(kMdAtoms,
                                                   derive_seed(opt.seed, 2, b));
      t[b] = pqr_text(bases[b]);
    });
    side_by_side(n_conf, kWorkers, [&](std::size_t c) {
      t[kMdBases + c] = pqr_text(
          jitter(bases[c % kMdBases], kMdSigma, derive_seed(opt.seed, 3, c)));
    });
    s = std::make_unique<serve::PolarizationService>(
        service_config(kMdCache, false, sink));
    // Each base is served once, so the window has no cold builds.
    closed_loop(*s, sink, t, identity, 0, kMdBases, kMdOutstanding, 0.0,
                kMdBases);
    rec.sample("setup_s", seconds_since(t0));
    if (keep) {
      texts = std::move(t);
      svc = std::move(s);
    }
  };
  for (int rep = 0; rep < kSetupRepsBefore; ++rep) set_up(true);

  // Warm-up: two cache capacities of the stream fill the cache.
  const std::size_t warm = 2 * kMdCache;
  closed_loop(*svc, sink, texts, stream, 0, warm, kMdOutstanding, 0.0, warm);

  const ServiceMark mark(*svc);
  const LoopResult lr =
      closed_loop(*svc, sink, texts, stream, warm, static_cast<std::size_t>(-1),
                  kMdOutstanding, opt.seconds, kMdMinRequests);
  record_window(lr, rec);
  record_service(*svc, mark, rec);
  svc.reset();
  later_set_ups(set_up);

  // The bases are rebuilt the way set-up built them (serially, one
  // request per task): the ledger's refit base, and the surface every
  // refit and repeat in the window reused (the checks' diagnostic).
  std::map<std::size_t, Pipeline> bases;
  Record base_rec;
  const auto base_of = [&](std::size_t input) -> const Pipeline& {
    const std::size_t b = (input - kMdBases) % kMdBases;
    if (!bases.count(b)) ledger_cold(texts[b], nullptr, base_rec, &bases[b]);
    return bases[b];
  };

  if (opt.trace) {
    std::vector<std::size_t> refit_inputs;
    for (const Outcome& o : lr.outcomes) {
      if (o.resp.path == serve::Path::kRefit &&
          refit_inputs.size() < kMdLedgerInputs) {
        refit_inputs.push_back(o.input);
      }
    }
    if (refit_inputs.empty()) throw std::runtime_error("md: no refit request");
    const Pipeline& base0 = base_of(refit_inputs[0]);
    begin_trace([&](Record& r) {
      return ledger_refit(texts[refit_inputs[0]], base0, r);
    }, rec);
    for (std::size_t k = 1; k < refit_inputs.size(); ++k) {
      ledger_refit(texts[refit_inputs[k]], base_of(refit_inputs[k]), rec);
    }
    // The bases' surface, octree and plan samples are the md set-up's
    // layers; their kernel samples are not the window's and stay out.
    for (const char* name :
         {"surface.field_s", "surface.marching_s", "surface.quadrature_s",
          "surface.triangles", "surface.qpoints_per_atom", "octree.build_s",
          "gb.plan_s", "gb.plan_items", "gb.plan_bytes_per_atom"}) {
      rec.samples[name] = base_rec.samples[name];
    }
    ledger_extras(base0, true, rec);
    end_trace(opt);
  }

  std::vector<CheckInput> inputs;
  for (const Outcome* o : sample_ok(lr, kMdChecks)) {
    // Refits and repeats of refits reused their base's surface.
    const bool own_surface = o->resp.path == serve::Path::kColdBuild;
    inputs.push_back({o->resp.id, &texts[o->input], {o->resp.energy},
                      o->resp.born_radii,
                      own_surface ? nullptr : &base_of(o->input).surf});
  }
  check_against_naive(inputs, rec);
  later_set_ups(set_up);
}

void run_hybrid_capsid(const Options& opt, Record& rec) {
  rec.text["atoms"] = std::to_string(kCapsidAtoms);
  rec.text["ranks"] = std::to_string(kRanks);
  rec.text["threads_per_rank"] = std::to_string(kWorkers / kRanks);
  rec.text["outstanding"] = "1";
  std::vector<std::string> texts;
  std::vector<Molecule> mols;
  const auto set_up = [&](bool keep) {
    if (keep) {  // one copy of the inputs at a time: peak_rss_mb includes set-up
      texts.clear();
      mols.clear();
    }
    std::vector<std::string> t(kCapsidInputs);
    std::vector<Molecule> m(kCapsidInputs);
    const Clock::time_point t0 = Clock::now();
    side_by_side(kCapsidInputs, kWorkers, [&](std::size_t k) {
      t[k] = pqr_text(octgb::molecule::generate_capsid(
          kCapsidAtoms, derive_seed(opt.seed, 4, k)));
      m[k] = parse_pqr(t[k]);
    });
    rec.sample("setup_s", seconds_since(t0));
    if (keep) {
      texts = std::move(t);
      mols = std::move(m);
    }
  };
  for (int rep = 0; rep < kSetupRepsBefore; ++rep) set_up(true);

  // Closed loop, one solve at a time; each solve builds its own ranks,
  // surface and trees, so no cache carries over. An untimed warm-up solve
  // takes the process's first-solve cost (fresh memory), ~1.5 s more than
  // the solves after it, which a user of repeated solves pays once.
  {
    Record scratch;
    runtime_solve(mols[0], scratch);
  }
  const std::uint64_t tasks0 = counter_value("pool.tasks_executed");
  std::vector<CheckInput> solved(kCapsidInputs);
  double failed = 0;
  std::size_t attempted = 0;
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < opt.seconds) {
    const std::size_t input = attempted++ % kCapsidInputs;
    const Clock::time_point t0 = Clock::now();
    try {
      octgb::runtime::DriverResult d = runtime_solve(mols[input], rec);
      rec.sample("latency_s", seconds_since(t0));
      CheckInput& c = solved[input];
      if (c.energies.empty()) {
        c = {input, &texts[input], {}, std::move(d.born_radii)};
      }
      c.energies.push_back(d.energy);
    } catch (...) {
      ++failed;
    }
  }
  const double completed = double(attempted) - failed;
  rec.value["attempted"] = double(attempted);
  rec.value["failed"] = failed;
  rec.value["window_s"] = seconds_since(start);
  rec.value["peak_rss_mb"] = double(octgb::util::peak_rss_bytes()) / 1e6;
  rec.value["parallel.tasks"] =
      double(counter_value("pool.tasks_executed") - tasks0) /
      std::max(1.0, completed);
  // No service on this path: its serve.* values are zero by definition.
  for (const char* name : {"serve.queue_s", "serve.cache_mb"}) {
    rec.value[name] = 0.0;
  }
  later_set_ups(set_up);

  if (opt.trace) {
    WorkStealingPool pool(kWorkers);
    Pipeline built;
    begin_trace([&](Record& r) { return ledger_cold(texts[0], &pool, r, &built); },
                rec);
    refit_probe(built, derive_seed(opt.seed, 5, 0), &pool, rec);
    const octgb::parallel::PoolStats ps = pool.stats();
    const double steals = double(ps.successful_steals);
    rec.value["parallel.steal_success_frac"] =
        steals / std::max(1.0, steals + double(ps.failed_steal_attempts));
    ledger_extras(built, false, rec);
    {
      Record scratch;  // one traced solve, for the trace file only
      runtime_solve(mols[0], scratch);
    }
    end_trace(opt);
  }

  std::vector<CheckInput> done;
  for (CheckInput& c : solved) {
    if (!c.energies.empty()) done.push_back(std::move(c));
  }
  check_against_naive(evenly(done, kCapsidChecks), rec);
  later_set_ups(set_up);
}

}  // namespace perfbench
