// Tests for the serving layer: content hashing, the LRU structure
// cache (hit / miss / eviction / refit-candidate selection), and the
// batched PolarizationService (bit-exact replay, refit tolerance,
// deadline shedding, admission control, coalescing).
#include <gtest/gtest.h>

#include <barrier>
#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/gb/calculator.h"
#include "src/load/clock.h"
#include "src/gb/kernels_batch.h"
#include "src/molecule/generators.h"
#include "src/serve/content_hash.h"
#include "src/serve/service.h"
#include "src/serve/structure_cache.h"
#include "src/util/rng.h"

namespace octgb {
namespace {

using namespace std::chrono_literals;

serve::Request make_request(std::uint64_t id, molecule::Molecule mol,
                            serve::Tier tier = serve::Tier::kExact,
                            bool want_radii = false) {
  serve::Request req;
  req.id = id;
  req.mol = std::move(mol);
  req.tier = tier;
  req.want_born_radii = want_radii;
  return req;
}

molecule::Molecule jittered(const molecule::Molecule& mol, double sigma,
                            std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  molecule::Molecule out(mol.name() + "-jittered");
  for (std::size_t i = 0; i < mol.size(); ++i) {
    molecule::Atom atom = mol.atom(i);
    atom.position += {sigma * rng.normal(), sigma * rng.normal(),
                      sigma * rng.normal()};
    out.add_atom(atom);
  }
  return out;
}

// ---------------------------------------------------------------- hashing

TEST(ContentHashTest, DeterministicAndSensitive) {
  const auto mol = molecule::generate_ligand(40, 1);
  const gb::CalculatorParams params;
  const auto key = serve::content_key(mol, params);
  EXPECT_EQ(key, serve::content_key(mol, params));

  auto moved = jittered(mol, 1e-9, 2);  // one ulp-ish nudge
  EXPECT_NE(key, serve::content_key(moved, params));

  gb::CalculatorParams other = params;
  other.approx.eps_epol = 0.3;
  EXPECT_NE(key, serve::content_key(mol, other));
  other = params;
  other.approx.approx_math = true;
  EXPECT_NE(key, serve::content_key(mol, other));
}

TEST(ContentHashTest, StructureKeyIgnoresPositionsOnly) {
  const auto mol = molecule::generate_ligand(40, 3);
  const gb::CalculatorParams params;
  const auto moved = jittered(mol, 2.0, 4);
  EXPECT_EQ(serve::structure_key(mol, params),
            serve::structure_key(moved, params));
  EXPECT_NE(serve::content_key(mol, params),
            serve::content_key(moved, params));

  // Charges are structure, not conformation.
  molecule::Molecule recharged = mol;
  recharged.shift_charges(0.01);
  EXPECT_NE(serve::structure_key(mol, params),
            serve::structure_key(recharged, params));
}

TEST(ContentHashTest, RmsDisplacement) {
  std::vector<geom::Vec3> a{{0, 0, 0}, {1, 0, 0}};
  std::vector<geom::Vec3> b{{0, 0, 2}, {1, 0, 2}};
  EXPECT_DOUBLE_EQ(serve::rms_displacement(a, b), 2.0);
  EXPECT_DOUBLE_EQ(serve::rms_displacement(a, a), 0.0);
  std::vector<geom::Vec3> mismatched{{0, 0, 0}};
  EXPECT_TRUE(std::isinf(serve::rms_displacement(a, mismatched)));
}

// ------------------------------------------------------------------ cache

std::shared_ptr<serve::CacheEntry> dummy_entry(std::uint64_t key,
                                               std::uint64_t skey,
                                               geom::Vec3 pos) {
  auto e = std::make_shared<serve::CacheEntry>();
  e->key = key;
  e->skey = skey;
  e->positions = {pos};
  e->energy = static_cast<double>(key);
  return e;
}

TEST(StructureCacheTest, HitMissAndLruEviction) {
  serve::StructureCache cache(2);
  EXPECT_EQ(cache.find_exact(1), nullptr);  // miss on empty
  cache.insert(dummy_entry(1, 100, {0, 0, 0}));
  cache.insert(dummy_entry(2, 200, {0, 0, 0}));
  ASSERT_NE(cache.find_exact(1), nullptr);  // bumps 1 to MRU
  cache.insert(dummy_entry(3, 300, {0, 0, 0}));  // evicts 2 (LRU)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.find_exact(1), nullptr);
  EXPECT_EQ(cache.find_exact(2), nullptr);
  EXPECT_NE(cache.find_exact(3), nullptr);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.exact_hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(StructureCacheTest, InsertReplacesExistingKey) {
  serve::StructureCache cache(4);
  cache.insert(dummy_entry(7, 70, {0, 0, 0}));
  auto replacement = dummy_entry(7, 70, {1, 1, 1});
  replacement->energy = -42.0;
  cache.insert(replacement);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(cache.find_exact(7)->energy, -42.0);
}

TEST(StructureCacheTest, RefitPicksSmallestDriftWithinThreshold) {
  serve::StructureCache cache(4);
  cache.insert(dummy_entry(1, 500, {0, 0, 0}));
  cache.insert(dummy_entry(2, 500, {0, 0, 0.3}));
  cache.insert(dummy_entry(3, 999, {0, 0, 0.1}));  // other structure

  const std::vector<geom::Vec3> probe{{0, 0, 0.25}};
  double rms = -1.0;
  auto best = cache.find_refit(500, probe, 0.5, &rms);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->key, 2u);  // 0.05 away beats 0.25 away
  EXPECT_NEAR(rms, 0.05, 1e-12);

  // Candidates exist but drift exceeds the threshold -> fallback.
  const std::vector<geom::Vec3> far{{0, 0, 9.0}};
  EXPECT_EQ(cache.find_refit(500, far, 0.5), nullptr);
  // No entry with that structure at all -> plain miss, not a fallback.
  EXPECT_EQ(cache.find_refit(12345, probe, 0.5), nullptr);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.refit_hits, 1u);
  EXPECT_EQ(stats.refit_fallbacks, 1u);
}

TEST(StructureCacheTest, EvictionRacingRefitLookupKeepsEntryAlive) {
  // Deterministic interleaving (via barrier phases) of the race the
  // TSan stress test hammers nondeterministically: thread A obtains a
  // refit candidate, thread B evicts that entry before A touches it.
  // The shared_ptr handoff must keep the entry alive and intact, and
  // subsequent refit lookups must see only the survivors.
  serve::StructureCache cache(2);
  cache.insert(dummy_entry(1, 500, {0, 0, 0}));

  std::barrier sync(2);
  std::shared_ptr<const serve::CacheEntry> held;
  std::thread looker([&] {
    double rms = -1.0;
    held = cache.find_refit(500, std::vector<geom::Vec3>{{0, 0, 0.1}}, 0.5,
                            &rms);
    ASSERT_NE(held, nullptr);
    EXPECT_NEAR(rms, 0.1, 1e-12);
    sync.arrive_and_wait();  // phase 1: candidate held, let B evict
    sync.arrive_and_wait();  // phase 2: eviction finished
    // The entry was evicted while we held it: still fully readable.
    EXPECT_EQ(held->key, 1u);
    ASSERT_EQ(held->positions.size(), 1u);
    EXPECT_DOUBLE_EQ(held->energy, 1.0);
  });

  sync.arrive_and_wait();  // phase 1: A holds its candidate
  // Two inserts push key 1 (LRU after A's bump... it is MRU; fill past
  // capacity so it falls off the back regardless).
  cache.insert(dummy_entry(2, 600, {1, 0, 0}));
  cache.insert(dummy_entry(3, 700, {2, 0, 0}));
  cache.insert(dummy_entry(4, 800, {3, 0, 0}));
  EXPECT_EQ(cache.find_exact(1), nullptr);  // evicted
  // No resident entry with skey 500 remains: a refit probe reports a
  // clean miss, not a dangling candidate.
  EXPECT_EQ(cache.find_refit(500, std::vector<geom::Vec3>{{0, 0, 0.1}}, 0.5),
            nullptr);
  sync.arrive_and_wait();  // phase 2
  looker.join();

  // A's reference was the last one; dropping it frees the entry (no
  // way to observe the free directly here -- ASan/TSan stages do).
  held.reset();
  EXPECT_LE(cache.size(), cache.capacity());
}

TEST(StructureCacheTest, ZeroCapacityNeverStores) {
  serve::StructureCache cache(0);
  cache.insert(dummy_entry(1, 10, {0, 0, 0}));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find_exact(1), nullptr);
}

// ---------------------------------------------------------------- service

serve::ServiceConfig test_config() {
  serve::ServiceConfig cfg;
  cfg.num_threads = 2;
  cfg.batch_linger = std::chrono::microseconds(0);
  return cfg;
}

TEST(ServeTest, ExactRepeatIsCacheHitAndBitIdenticalToDriver) {
  const auto mol = molecule::generate_protein(400, 21);
  serve::PolarizationService svc(test_config());

  const auto cold = svc.serve_now(make_request(1, mol));
  ASSERT_EQ(cold.status, serve::Status::kOk);
  EXPECT_EQ(cold.path, serve::Path::kColdBuild);

  const auto hit = svc.serve_now(make_request(2, mol));
  ASSERT_EQ(hit.status, serve::Status::kOk);
  EXPECT_EQ(hit.path, serve::Path::kCacheHit);
  EXPECT_EQ(hit.energy, cold.energy);  // bit-for-bit replay
  EXPECT_EQ(hit.num_qpoints, cold.num_qpoints);

  // The serve path is the one-shot driver, bit for bit.
  const gb::GBResult driver = gb::compute_gb_energy(mol);
  EXPECT_EQ(cold.energy, driver.energy);
  EXPECT_EQ(cold.num_qpoints, driver.num_qpoints);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.cold_builds, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(ServeTest, BornRadiiReturnedFromColdAndCachedPaths) {
  const auto mol = molecule::generate_ligand(60, 23);
  serve::PolarizationService svc(test_config());
  const auto cold =
      svc.serve_now(make_request(1, mol, serve::Tier::kExact, true));
  const auto hit =
      svc.serve_now(make_request(2, mol, serve::Tier::kExact, true));
  ASSERT_EQ(cold.born_radii.size(), mol.size());
  ASSERT_EQ(hit.path, serve::Path::kCacheHit);
  EXPECT_EQ(hit.born_radii, cold.born_radii);

  const gb::GBResult driver = gb::compute_gb_energy(mol);
  EXPECT_EQ(cold.born_radii, driver.born_radii);
}

TEST(ServeTest, IntraRequestParallelismBitIdenticalToSerialDriver) {
  // Latency mode forks each request's plan build and kernels on the
  // pool. Owner-computes deposits make that reproduce the serial
  // one-shot driver bit for bit, radii included.
  const auto mol = molecule::generate_protein(3000, 27);
  serve::ServiceConfig cfg = test_config();
  cfg.num_threads = 4;
  cfg.intra_request_parallelism = true;
  serve::PolarizationService svc(cfg);
  const auto resp =
      svc.serve_now(make_request(1, mol, serve::Tier::kExact, true));
  ASSERT_EQ(resp.status, serve::Status::kOk);
  ASSERT_EQ(resp.path, serve::Path::kColdBuild);

  const gb::GBResult driver = gb::compute_gb_energy(mol);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(resp.energy),
            std::bit_cast<std::uint64_t>(driver.energy))
      << "served " << resp.energy << " driver " << driver.energy;
  ASSERT_EQ(resp.born_radii.size(), driver.born_radii.size());
  for (std::size_t a = 0; a < mol.size(); ++a) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(resp.born_radii[a]),
              std::bit_cast<std::uint64_t>(driver.born_radii[a]))
        << "atom " << a;
  }
}

TEST(ServeTest, BatchResultsBitIdenticalToSequentialRuns) {
  // A burst of distinct molecules batched together must produce, per
  // request, exactly the serial one-shot result (inter-request
  // parallelism keeps each pipeline serial inside one task).
  serve::ServiceConfig cfg = test_config();
  cfg.num_threads = 4;
  cfg.max_batch = 8;
  cfg.batch_linger = std::chrono::milliseconds(20);
  serve::PolarizationService svc(cfg);

  std::vector<molecule::Molecule> mols;
  for (std::uint64_t s = 0; s < 5; ++s) {
    mols.push_back(molecule::generate_ligand(40 + 5 * s, 100 + s));
  }
  std::vector<std::future<serve::Response>> futures;
  for (std::size_t i = 0; i < mols.size(); ++i) {
    futures.push_back(svc.submit(make_request(i, mols[i])));
  }
  for (std::size_t i = 0; i < mols.size(); ++i) {
    const auto resp = futures[i].get();
    ASSERT_EQ(resp.status, serve::Status::kOk);
    EXPECT_EQ(resp.id, i);
    const gb::GBResult driver = gb::compute_gb_energy(mols[i]);
    EXPECT_EQ(resp.energy, driver.energy) << "molecule " << i;
  }
}

TEST(ServeTest, RefitMatchesRebuildWithinTolerance) {
  const auto mol = molecule::generate_protein(400, 25);
  const auto moved = jittered(mol, 0.05, 26);  // MD-step scale drift

  serve::PolarizationService svc(test_config());
  svc.serve_now(make_request(1, mol));  // seed the cache
  const auto refit = svc.serve_now(make_request(2, moved));
  ASSERT_EQ(refit.status, serve::Status::kOk);
  ASSERT_EQ(refit.path, serve::Path::kRefit);

  const gb::GBResult rebuild = gb::compute_gb_energy(moved);
  EXPECT_LT(gb::relative_error(refit.energy, rebuild.energy), 1e-2);

  // An unperturbed repeat of the refit conformation replays it exactly.
  const auto repeat = svc.serve_now(make_request(3, moved));
  EXPECT_EQ(repeat.path, serve::Path::kCacheHit);
  EXPECT_EQ(repeat.energy, refit.energy);
}

TEST(ServeTest, RefitReusesCachedInteractionPlan) {
  // With the two-phase engine, a refit request inherits the base
  // entry's interaction plan and runs zero traversal; the counter in
  // ServiceStats proves the reuse actually happened.
  const auto mol = molecule::generate_protein(400, 31);
  serve::PolarizationService svc(test_config());
  const auto cold = svc.serve_now(make_request(1, mol));
  ASSERT_EQ(cold.path, serve::Path::kColdBuild);
  EXPECT_FALSE(cold.plan_reused);

  // A drifting stream: every step refits against the previous entry
  // and reuses the plan built once by the cold request.
  auto conf = mol;
  for (std::uint64_t step = 0; step < 3; ++step) {
    conf = jittered(conf, 0.02, 40 + step);
    const auto resp = svc.serve_now(make_request(2 + step, conf));
    ASSERT_EQ(resp.status, serve::Status::kOk);
    ASSERT_EQ(resp.path, serve::Path::kRefit) << "step " << step;
    EXPECT_TRUE(resp.plan_reused) << "step " << step;
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.refits, 3u);
  EXPECT_EQ(stats.plan_reuses, 3u);
}

TEST(ServeTest, LargeDriftFallsBackToRebuild) {
  const auto mol = molecule::generate_protein(300, 27);
  serve::ServiceConfig cfg = test_config();
  cfg.refit_max_rms = 0.2;
  serve::PolarizationService svc(cfg);
  svc.serve_now(make_request(1, mol));
  const auto resp = svc.serve_now(make_request(2, jittered(mol, 2.0, 28)));
  ASSERT_EQ(resp.status, serve::Status::kOk);
  EXPECT_EQ(resp.path, serve::Path::kColdBuild);
  EXPECT_GE(svc.cache_stats().refit_fallbacks, 1u);
  EXPECT_EQ(svc.stats().refits, 0u);
}

TEST(ServeTest, RekeyRefitRebuildsWhenKeysEscape) {
  // rekey_refit policy: drift that passes the RMS gate but pushes some
  // atom's Morton key out of its leaf octant rebuilds the atoms octree
  // inside the refit path. The response still reports kRefit (surface
  // and q-tree are reused), but the cached interaction plan -- bound to
  // the old topology -- must NOT be reused, and the rebuild is counted
  // as a refit fallback.
  const auto mol = molecule::generate_protein(400, 33);
  serve::ServiceConfig cfg = test_config();
  cfg.rekey_refit = true;
  cfg.refit_max_rms = 2.0;  // admit the drift; the key check decides
  serve::PolarizationService svc(cfg);
  svc.serve_now(make_request(1, mol));

  const auto moved = jittered(mol, 0.4, 34);  // far beyond a leaf cell
  const auto resp = svc.serve_now(make_request(2, moved));
  ASSERT_EQ(resp.status, serve::Status::kOk);
  ASSERT_EQ(resp.path, serve::Path::kRefit);
  EXPECT_FALSE(resp.plan_reused);
  EXPECT_GE(svc.cache_stats().refit_fallbacks, 1u);
  // The atoms tree is exact for the new positions; the remaining gap
  // against a cold one-shot run is the deliberately reused (stale)
  // surface and q-tree, bounded here rather than matched.
  const gb::GBResult rebuild = gb::compute_gb_energy(moved);
  EXPECT_LT(gb::relative_error(resp.energy, rebuild.energy), 0.15);

  // Tiny drift against the rebuilt entry stays inside every leaf
  // octant: no fallback this time, and its (fresh) plan is reused.
  const auto fallbacks_before = svc.cache_stats().refit_fallbacks;
  const auto small = svc.serve_now(
      make_request(3, jittered(moved, 1e-4, 35)));
  ASSERT_EQ(small.path, serve::Path::kRefit);
  EXPECT_TRUE(small.plan_reused);
  EXPECT_EQ(svc.cache_stats().refit_fallbacks, fallbacks_before);
}

TEST(ServeTest, RefitDisabledForcesColdBuilds) {
  const auto mol = molecule::generate_protein(300, 29);
  serve::ServiceConfig cfg = test_config();
  cfg.enable_refit = false;
  serve::PolarizationService svc(cfg);
  svc.serve_now(make_request(1, mol));
  const auto resp = svc.serve_now(make_request(2, jittered(mol, 0.05, 30)));
  EXPECT_EQ(resp.path, serve::Path::kColdBuild);
}

TEST(ServeTest, ExpiredDeadlineIsShedUncomputed) {
  const auto mol = molecule::generate_protein(300, 31);
  serve::PolarizationService svc(test_config());

  serve::Request expired = make_request(1, mol);
  expired.deadline = std::chrono::steady_clock::now() - 1s;
  const auto shed = svc.serve_now(std::move(expired));
  EXPECT_EQ(shed.status, serve::Status::kShed);
  EXPECT_EQ(shed.path, serve::Path::kNone);
  EXPECT_EQ(shed.energy, 0.0);

  serve::Request alive = make_request(2, mol);
  alive.deadline = std::chrono::steady_clock::now() + 1h;
  const auto ok = svc.serve_now(std::move(alive));
  EXPECT_EQ(ok.status, serve::Status::kOk);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  // Shed requests never ran the pipeline.
  EXPECT_EQ(stats.cold_builds, 1u);
}

TEST(ServeTest, FullQueueRejectsAtSubmit) {
  const auto mol = molecule::generate_protein(600, 33);
  serve::ServiceConfig cfg = test_config();
  cfg.queue_capacity = 1;
  cfg.max_batch = 1;
  serve::PolarizationService svc(cfg);

  // Flood faster than 600-atom pipelines can drain a capacity-1 queue.
  std::vector<std::future<serve::Response>> futures;
  for (std::uint64_t i = 0; i < 8; ++i) {
    futures.push_back(svc.submit(make_request(i, mol)));
  }
  std::uint64_t ok = 0, rejected = 0;
  for (auto& f : futures) {
    const auto resp = f.get();
    resp.status == serve::Status::kOk ? ++ok : ++rejected;
    if (resp.status == serve::Status::kRejected) {
      EXPECT_EQ(resp.path, serve::Path::kNone);
    }
  }
  EXPECT_GE(ok, 1u);
  EXPECT_GE(rejected, 1u);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.completed, ok);
}

TEST(ServeTest, IdenticalRequestsInOneBurstComputeOnce) {
  const auto mol = molecule::generate_protein(400, 35);
  serve::ServiceConfig cfg = test_config();
  cfg.max_batch = 16;
  cfg.batch_linger = std::chrono::milliseconds(20);
  serve::PolarizationService svc(cfg);

  std::vector<std::future<serve::Response>> futures;
  for (std::uint64_t i = 0; i < 6; ++i) {
    futures.push_back(svc.submit(make_request(i, mol)));
  }
  std::vector<serve::Response> responses;
  for (auto& f : futures) responses.push_back(f.get());
  for (const auto& r : responses) {
    ASSERT_EQ(r.status, serve::Status::kOk);
    EXPECT_EQ(r.energy, responses.front().energy);
  }
  // However the burst splits into batches, the pipeline ran exactly
  // once: followers coalesce in-batch, later batches hit the cache.
  const auto stats = svc.stats();
  EXPECT_EQ(stats.cold_builds, 1u);
  // Every response is either the one cold build or a replay (in-batch
  // coalesced followers are counted in cache_hits as well).
  EXPECT_EQ(stats.cache_hits + stats.cold_builds, 6u);
  EXPECT_LE(stats.coalesced, stats.cache_hits);
}

TEST(ServeTest, CacheDisabledRecomputesRepeats) {
  const auto mol = molecule::generate_protein(300, 37);
  serve::ServiceConfig cfg = test_config();
  cfg.cache_capacity = 0;
  serve::PolarizationService svc(cfg);
  const auto a = svc.serve_now(make_request(1, mol));
  const auto b = svc.serve_now(make_request(2, mol));
  EXPECT_EQ(a.path, serve::Path::kColdBuild);
  EXPECT_EQ(b.path, serve::Path::kColdBuild);
  EXPECT_EQ(a.energy, b.energy);  // same serial pipeline either way
  EXPECT_EQ(svc.cache_size(), 0u);
}

TEST(ServeTest, TiersResolveToDistinctCacheEntries) {
  const auto mol = molecule::generate_protein(300, 39);
  serve::PolarizationService svc(test_config());
  const auto exact =
      svc.serve_now(make_request(1, mol, serve::Tier::kExact));
  const auto fast =
      svc.serve_now(make_request(2, mol, serve::Tier::kFast));
  ASSERT_EQ(exact.status, serve::Status::kOk);
  ASSERT_EQ(fast.status, serve::Status::kOk);
  EXPECT_EQ(fast.path, serve::Path::kColdBuild);  // not a hit: new key
  EXPECT_NE(exact.content_key, fast.content_key);
  // Same physics, coarser surface + approximation: within a few
  // percent, different bits.
  EXPECT_LT(gb::relative_error(fast.energy, exact.energy), 0.1);
  EXPECT_EQ(svc.cache_size(), 2u);
}

TEST(ServeTest, EmptyMoleculeFailsGracefully) {
  serve::PolarizationService svc(test_config());
  const auto resp = svc.serve_now(make_request(1, molecule::Molecule{}));
  // Either a clean failure or a zero-energy success is acceptable; the
  // service must not crash, hang, or reject.
  EXPECT_NE(resp.status, serve::Status::kRejected);
  EXPECT_EQ(svc.stats().submitted, 1u);
}

TEST(ServeTest, DrainWaitsForAllOutstandingWork) {
  const auto mol = molecule::generate_protein(400, 41);
  serve::ServiceConfig cfg = test_config();
  cfg.max_batch = 2;
  serve::PolarizationService svc(cfg);
  std::vector<std::future<serve::Response>> futures;
  for (std::uint64_t i = 0; i < 4; ++i) {
    futures.push_back(svc.submit(make_request(i, jittered(mol, 0.01, i))));
  }
  svc.drain();
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
    EXPECT_EQ(f.get().status, serve::Status::kOk);
  }
  EXPECT_EQ(svc.queue_depth(), 0u);
}

TEST(ServeTest, SnapshotIsTearFreeAndInternallyConsistent) {
  const auto mol = molecule::generate_protein(300, 47);
  serve::ServiceConfig cfg = test_config();
  cfg.max_batch = 3;
  serve::PolarizationService svc(cfg);
  std::vector<std::future<serve::Response>> futures;
  for (std::uint64_t i = 0; i < 8; ++i) {
    // Mix of repeats (cache hits / coalesces) and fresh structures.
    futures.push_back(svc.submit(
        make_request(i, i % 2 == 0 ? mol : jittered(mol, 0.02, i))));
  }
  // Snapshots taken *while* batches retire must satisfy the invariants
  // documented on ServiceSnapshot -- this is exactly the tear the
  // separate stats()/queue_depth() accessors could expose.
  for (int probe = 0; probe < 50; ++probe) {
    const serve::ServiceSnapshot snap = svc.snapshot();
    const auto& s = snap.stats;
    EXPECT_EQ(s.completed, s.cache_hits + s.refits + s.cold_builds)
        << "probe " << probe;
    EXPECT_GE(s.submitted,
              s.rejected + s.shed + s.completed + s.failed)
        << "probe " << probe;
    EXPECT_LE(snap.queue_depth, cfg.queue_capacity);
  }
  for (auto& f : futures) f.get();
  svc.drain();
  const serve::ServiceSnapshot snap = svc.snapshot();
  const auto& s = snap.stats;
  // Quiescent: everything submitted is fully accounted for.
  EXPECT_EQ(s.submitted, s.rejected + s.shed + s.completed + s.failed);
  EXPECT_EQ(s.completed, s.cache_hits + s.refits + s.cold_builds);
  EXPECT_EQ(snap.queue_depth, 0u);
  EXPECT_EQ(snap.in_flight, 0u);
  EXPECT_EQ(s.completed, 8u);
}

TEST(ServeTest, OnCompleteSeesEverySettledRequest) {
  const auto mol = molecule::generate_protein(200, 77);

  std::mutex mu;
  std::vector<serve::Response> seen;

  serve::ServiceConfig cfg = test_config();
  cfg.queue_capacity = 2;  // force at least one admission reject
  cfg.on_complete = [&mu, &seen](const serve::Response& r) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(r);
  };

  constexpr int kRequests = 12;
  {
    serve::PolarizationService svc(cfg);
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
      futures.push_back(svc.submit(make_request(
          static_cast<std::uint64_t>(i), jittered(mol, 0.3, 1000 + i))));
    }
    // The callback fires *after* the future resolves: everything a
    // future reports must already be (or immediately become) visible.
    for (auto& f : futures) f.get();
    svc.drain();
  }

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kRequests));
  std::vector<bool> got(kRequests, false);
  bool any_rejected = false;
  for (const serve::Response& r : seen) {
    ASSERT_LT(r.id, static_cast<std::uint64_t>(kRequests));
    EXPECT_FALSE(got[r.id]) << "duplicate callback for id " << r.id;
    got[r.id] = true;
    if (r.status == serve::Status::kRejected) any_rejected = true;
  }
  EXPECT_TRUE(any_rejected);  // the tiny queue must have rejected some
}

TEST(ServeTest, DeadlineMissedCountsCompletedButLate) {
  // The service reads every scheduling timestamp through cfg.clock, so
  // the old machine-speed guesswork (retry with doubling deadlines on
  // a 2000-atom molecule) is gone: a load::VirtualClock anchored to a
  // fixed steady_clock base puts the batch start *inside* the deadline
  // (not shed) and the settle audit *past* it (missed),
  // deterministically on any machine.
  const auto mol = molecule::generate_protein(300, 99);
  const auto base = std::chrono::steady_clock::now();
  auto state = std::make_shared<std::pair<std::mutex, load::VirtualClock>>();
  serve::ServiceConfig cfg = test_config();
  cfg.clock = [base, state](serve::ClockEvent ev) {
    std::lock_guard<std::mutex> lock(state->first);
    load::VirtualClock& vc = state->second;
    // Each per-batch settle audit jumps virtual time by 20ms: past the
    // first request's 10ms deadline, far inside the second one's 10s.
    if (ev == serve::ClockEvent::kSettle)
      vc.advance_to(vc.now_ns() + 20 * load::kNsPerMs);
    return base + std::chrono::nanoseconds(vc.now_ns());
  };
  serve::PolarizationService svc(cfg);

  serve::Request req = make_request(1, mol);
  req.deadline = base + 10ms;
  const serve::Response resp = svc.serve_now(std::move(req));

  ASSERT_EQ(resp.status, serve::Status::kOk);  // computed, not shed
  EXPECT_TRUE(resp.deadline_missed);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.deadline_missed, 1u);
  EXPECT_EQ(stats.shed, 0u);

  // A comfortable deadline on a now-cached molecule is not a miss.
  serve::Request ok = make_request(2, mol);
  ok.deadline = base + 10s;
  const serve::Response hit = svc.serve_now(std::move(ok));
  ASSERT_EQ(hit.status, serve::Status::kOk);
  EXPECT_FALSE(hit.deadline_missed);
  EXPECT_EQ(svc.stats().deadline_missed, 1u);
  // Goodput arithmetic: completed - deadline_missed counts only the
  // in-deadline completion.
  EXPECT_EQ(svc.stats().completed - svc.stats().deadline_missed, 1u);
}

TEST(ServeTest, StatsAccumulateStageTimes) {
  const auto mol = molecule::generate_protein(300, 43);
  serve::PolarizationService svc(test_config());
  svc.serve_now(make_request(1, mol));
  svc.serve_now(make_request(2, jittered(mol, 0.05, 44)));
  svc.serve_now(make_request(3, mol));
  const auto stats = svc.stats();
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_GT(stats.build_seconds, 0.0);
  EXPECT_GT(stats.refit_seconds, 0.0);
  EXPECT_GT(stats.kernel_seconds, stats.refit_seconds);
  EXPECT_GE(stats.queue_seconds, 0.0);
}

}  // namespace
}  // namespace octgb
