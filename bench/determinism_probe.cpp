// determinism_probe -- the divergence oracle as a CI gate.
//
// Runs the digest battery of tests/determinism_oracle_test.cpp as a
// standalone binary (scripts/ci.sh --detlint-only): every strict-
// contract pipeline (scripts/detlint/contracts.txt) executes at 1, 2
// and 8 workers plus a serial reference, its complete output folded
// into an FNV-1a digest (src/analysis/digest.h). Any digest that
// differs from the serial reference -- one reordered element, one ulp
// of float drift -- fails the probe with exit 1.
//
// The probe prints the digest table (hex) so two CI runs, or two
// machines, can be diffed by eye, and records the combined digest in
// BENCH_determinism.json: a cross-PR tripwire for silent determinism
// regressions (the checksum should only move when an algorithm
// legitimately changes).
//
// The GB rows cover the path requests run: pooled batched kernels over
// a 20k-atom plan (SIMD and scalar engines), fused single-tree E_pol
// equal to the kAuto replay of that plan, and repeated OCT_MPI+CILK
// solves of a 20k-atom capsid on 2 ranks x 2 workers.
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/analysis/digest.h"
#include "src/gb/born.h"
#include "src/gb/epol.h"
#include "src/gb/interaction_lists.h"
#include "src/gb/kernels_batch.h"
#include "src/gb/naive.h"
#include "src/load/shard_sim.h"
#include "src/load/sim.h"
#include "src/load/traffic.h"
#include "src/molecule/generators.h"
#include "src/octree/octree.h"
#include "src/parallel/pool.h"
#include "src/runtime/drivers.h"
#include "src/surface/quadrature.h"
#include "src/util/rng.h"
#include "src/util/table.h"

namespace octgb {
namespace {

using analysis::Digest;

constexpr int kWorkerCounts[] = {1, 2, 8};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t digest_tree(const octree::Octree& tree) {
  const octree::OctreeFlatData flat = tree.to_flat();
  Digest d;
  d.u64(flat.nodes.size());
  for (const octree::Node& n : flat.nodes) {
    d.u32(n.begin).u32(n.end).u32(n.parent);
    d.u32(n.children.first).byte(n.children.count);
    d.byte(n.depth).boolean(n.leaf);
    d.f64(n.center.x).f64(n.center.y).f64(n.center.z);
    d.f64(n.radius);
  }
  d.span_u<std::uint32_t>(flat.point_index);
  d.span_u<std::uint32_t>(flat.leaves);
  d.span_u<std::uint32_t>(flat.level_offset);
  d.span_u<std::uint64_t>(flat.keys);
  d.span_u<std::uint64_t>(flat.node_key_lo);
  d.u64(flat.chunk_sums.size());
  for (const geom::Vec3& v : flat.chunk_sums) d.f64(v.x).f64(v.y).f64(v.z);
  d.span_u<std::uint32_t>(flat.inv_index);
  d.span_u<std::uint32_t>(flat.pos_leaf);
  return d.value();
}

std::uint64_t digest_plan(const gb::InteractionPlan& plan) {
  Digest d;
  for (const auto* list : {&plan.born_near, &plan.born_far, &plan.epol_near,
                           &plan.epol_far}) {
    d.u64(list->size());
    for (const gb::NodePair& p : *list) d.u32(p.target).u32(p.source);
  }
  d.span_u<std::uint8_t>(plan.epol_near_weight);
  return d.value();
}

std::uint64_t digest_outcomes(const std::vector<load::SimOutcome>& outcomes) {
  Digest d;
  d.u64(outcomes.size());
  for (const load::SimOutcome& o : outcomes) {
    d.u64(o.id).i64(o.arrival_ns).i64(o.dispatch_ns).i64(o.complete_ns);
    d.i64(o.deadline_ns);
    d.byte(static_cast<std::uint8_t>(o.status));
    d.byte(static_cast<std::uint8_t>(o.path));
    d.boolean(o.deadline_met).u64(o.atoms);
  }
  return d.value();
}

std::vector<geom::Vec3> positions_of(const molecule::Molecule& mol) {
  std::vector<geom::Vec3> out;
  out.reserve(mol.size());
  for (std::size_t i = 0; i < mol.size(); ++i) {
    out.push_back(mol.atom(i).position);
  }
  return out;
}

struct Probe {
  const char* pipeline;
  // digest as a function of the worker count (0 = serial reference)
  std::uint64_t (*run)(int workers);
};

// Shared inputs, built once (serially) so every probe run sees
// byte-identical inputs and any divergence is the pipeline's own.
struct World {
  molecule::Molecule mol = molecule::generate_protein(1500, 41);
  std::vector<geom::Vec3> points = positions_of(mol);
  surface::QuadratureSurface surf = surface::build_surface(mol);
  std::vector<double> born =
      gb::born_radii_naive_r6(mol, surf).radii;
  std::vector<load::RequestEvent> trace;
  octree::OctreeParams oct;

  World() {
    oct.leaf_capacity = 8;
    oct.parallel_grain = 64;
    load::ArrivalSpec arrival;
    arrival.kind = load::ArrivalKind::kBursty;
    arrival.rate_rps = 20000.0;
    load::WorkloadSpec workload;
    workload.repeat_frac = 0.5;
    trace = load::generate_trace(arrival, workload, 3000, 0xd16e57);
  }
};

World& world() {
  static World w;
  return w;
}

parallel::WorkStealingPool* maybe_pool(int workers,
                                       parallel::WorkStealingPool& storage) {
  return workers == 0 ? nullptr : &storage;
}

std::uint64_t probe_tree_build(int workers) {
  World& w = world();
  parallel::WorkStealingPool pool(workers == 0 ? 1 : workers);
  const octree::Octree tree(w.points, w.oct, maybe_pool(workers, pool));
  return digest_tree(tree);
}

std::uint64_t probe_tree_refit(int workers) {
  World& w = world();
  auto moved = w.points;
  util::Xoshiro256 rng(7);
  for (auto& p : moved) {
    p.x += 0.05 * rng.normal();
    p.y += 0.05 * rng.normal();
    p.z += 0.05 * rng.normal();
  }
  moved[10].x += 4.0;
  parallel::WorkStealingPool pool(workers == 0 ? 1 : workers);
  octree::Octree tree(w.points, w.oct, maybe_pool(workers, pool));
  tree.refit_rekey(moved, maybe_pool(workers, pool));
  return digest_tree(tree);
}

std::uint64_t probe_surface(int workers) {
  World& w = world();
  parallel::WorkStealingPool pool(workers == 0 ? 1 : workers);
  const surface::QuadratureSurface surf =
      surface::build_surface(w.mol, {}, maybe_pool(workers, pool));
  Digest d;
  d.u64(surf.size());
  for (std::size_t q = 0; q < surf.size(); ++q) {
    d.f64(surf.points[q].x).f64(surf.points[q].y).f64(surf.points[q].z);
    d.f64(surf.normals[q].x).f64(surf.normals[q].y).f64(surf.normals[q].z);
    d.f64(surf.weights[q]);
  }
  return d.value();
}

std::uint64_t probe_plan(int workers) {
  World& w = world();
  parallel::WorkStealingPool pool(workers == 0 ? 1 : workers);
  const auto trees = gb::build_born_octrees(w.mol, w.surf, w.oct,
                                            maybe_pool(workers, pool));
  const auto plan = gb::build_interaction_plan(trees, gb::ApproxParams{},
                                               maybe_pool(workers, pool));
  return Digest{}
      .u64(digest_tree(trees.atoms))
      .u64(digest_tree(trees.qpoints))
      .u64(digest_plan(plan))
      .value();
}

std::uint64_t probe_epol(int workers) {
  World& w = world();
  parallel::WorkStealingPool pool(workers == 0 ? 1 : workers);
  const octree::Octree tree(w.points, w.oct, maybe_pool(workers, pool));
  const double e = gb::epol_octree(tree, w.mol, w.born, gb::ApproxParams{},
                                   {}, maybe_pool(workers, pool))
                       .energy;
  return std::bit_cast<std::uint64_t>(e);
}

// The production GB path at 20k atoms: a plan replayed by the pooled
// batched kernels. Surface, trees and plan are built once (pooled; all
// three are bit-identical at any worker count) and shared by the rows.
struct GbWorld {
  molecule::Molecule mol = molecule::generate_protein(20000, 3);
  surface::QuadratureSurface surf;
  gb::BornOctrees trees;
  gb::InteractionPlan plan;
  std::vector<double> born;  // kAuto replay, fixed input of the E_pol row

  GbWorld() {
    parallel::WorkStealingPool pool(4);
    surf = surface::build_surface(mol, {}, &pool);
    trees = gb::build_born_octrees(mol, surf, {}, &pool);
    plan = gb::build_interaction_plan(trees, gb::ApproxParams{}, &pool);
    born = gb::born_radii_batched(trees, mol, surf, plan, gb::ApproxParams{},
                                  &pool)
               .radii;
  }
};

GbWorld& gb_world() {
  static GbWorld w;
  return w;
}

std::uint64_t batched_digest(int workers, gb::SimdMode mode) {
  GbWorld& w = gb_world();
  parallel::WorkStealingPool pool(workers == 0 ? 1 : workers);
  parallel::WorkStealingPool* p = maybe_pool(workers, pool);
  const gb::ApproxParams approx;
  const auto born = gb::born_radii_batched(w.trees, w.mol, w.surf, w.plan,
                                           approx, p, mode);
  const double e = gb::epol_batched(w.trees.atoms, w.mol, born.radii, w.plan,
                                    approx, {}, p, mode)
                       .energy;
  Digest d;
  d.u64(born.radii.size());
  for (const double r : born.radii) d.f64(r);
  return d.f64(e).value();
}

std::uint64_t probe_batched_auto(int workers) {
  return batched_digest(workers, gb::SimdMode::kAuto);
}

std::uint64_t probe_batched_scalar(int workers) {
  return batched_digest(workers, gb::SimdMode::kForceScalar);
}

// Fused single-tree E_pol against the kAuto replay of the 20k plan, on
// fixed Born radii. Both run the same kernels over the same pairs in
// the same order, so they must agree bit for bit at every worker count;
// a mismatch folds the worker count into the digest, so the row
// diverges.
std::uint64_t probe_epol_fused_20k(int workers) {
  GbWorld& w = gb_world();
  parallel::WorkStealingPool pool(workers == 0 ? 1 : workers);
  parallel::WorkStealingPool* p = maybe_pool(workers, pool);
  const gb::ApproxParams approx;
  const double fused =
      gb::epol_octree(w.trees.atoms, w.mol, w.born, approx, {}, p).energy;
  const double batched = gb::epol_batched(w.trees.atoms, w.mol, w.born,
                                          w.plan, approx, {}, p)
                             .energy;
  Digest d;
  d.f64(fused);
  if (std::bit_cast<std::uint64_t>(fused) !=
      std::bit_cast<std::uint64_t>(batched)) {
    d.i64(workers + 1);
  }
  return d.value();
}

std::uint64_t probe_oct_mpi_cilk(int workers) {
  // Ranks x threads is the driver's configuration, not an
  // implementation detail, so the probe pins 2 x 2 and uses the worker
  // axis as repeated solves (as probe_load_sim does).
  (void)workers;
  static const molecule::Molecule capsid = molecule::generate_capsid(20000, 11);
  const runtime::DriverResult r = runtime::run_oct_mpi_cilk(capsid, 2, 2);
  Digest d;
  d.u64(r.born_radii.size());
  for (const double x : r.born_radii) d.f64(x);
  return d.f64(r.energy).value();
}

std::uint64_t probe_load_sim(int workers) {
  // num_threads is a *model parameter* of the sim (more modeled
  // workers legitimately finish sooner), so the probe pins it and uses
  // the worker axis as repeated runs: the digest must not move.
  (void)workers;
  World& w = world();
  load::PolicyConfig policy;
  policy.num_threads = 4;
  load::ServiceSim sim(policy, load::CostModel{});
  return digest_outcomes(sim.run(w.trace));
}

std::uint64_t probe_shard_sim(int workers) {
  (void)workers;  // as probe_load_sim: repeated-run determinism
  World& w = world();
  load::ShardSimConfig config;
  config.router.num_shards = 4;
  config.router.shard_window = 4;
  config.router.hot_threshold = 4;
  config.router.migrate_check_period = 32;
  config.router.migrate_skew = 1.05;
  config.router.migrate_batch = 4;
  config.policy.num_threads = 2;
  const auto result = load::run_shard_sim(config, w.trace);
  Digest d;
  d.u64(digest_outcomes(result.outcomes));
  d.span_u<int>(result.shard_of);
  d.u64(result.router.migrations).u64(result.router.replications);
  d.u64(result.router.dispatched).u64(result.router.shed);
  return d.value();
}

constexpr Probe kProbes[] = {
    {"octree_build", probe_tree_build},
    {"octree_refit_rekey", probe_tree_refit},
    {"surface_qpoints", probe_surface},
    {"interaction_plan", probe_plan},
    {"epol_energy", probe_epol},
    {"born_epol_batched_simd", probe_batched_auto},
    {"born_epol_batched_scalar", probe_batched_scalar},
    {"epol_fused_eq_batched_20k", probe_epol_fused_20k},
    {"oct_mpi_cilk_capsid", probe_oct_mpi_cilk},
    {"load_sim", probe_load_sim},
    {"shard_sim", probe_shard_sim},
};

}  // namespace
}  // namespace octgb

int main() {
  using namespace octgb;
  bench::banner("determinism",
                "divergence oracle: strict-contract pipelines digest "
                "bit-identically across worker counts (DESIGN.md sec. 17)");

  util::Table table({"pipeline", "serial", "workers=1", "workers=2",
                     "workers=8", "verdict"});
  int divergent = 0;
  Digest combined;
  for (const Probe& probe : kProbes) {
    const std::uint64_t serial = probe.run(0);
    bool ok = true;
    table.row().cell(probe.pipeline).cell(hex(serial));
    for (const int workers : kWorkerCounts) {
      const std::uint64_t got = probe.run(workers);
      ok = ok && got == serial;
      table.cell(hex(got));
    }
    table.cell(ok ? "ok" : "DIVERGED");
    if (!ok) ++divergent;
    combined.str(probe.pipeline).u64(serial);
  }
  bench::emit(table, "determinism");
  bench::json().set_atoms(world().mol.size());
  bench::json().field("combined_digest", hex(combined.value()));
  bench::json().field("divergent_pipelines", static_cast<double>(divergent));

  if (divergent > 0) {
    std::printf("determinism probe: %d pipeline(s) DIVERGED\n", divergent);
    return 1;
  }
  std::printf("determinism probe: all %zu pipelines bit-identical\n",
              std::size(kProbes));
  return 0;
}
