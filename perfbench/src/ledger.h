// ledger.h -- the traced run's direct layer calls.
//
// Each function calls one layer's public entry point after another, in
// the order the serving layer runs them, times every call with the
// steady clock, wraps it in a span of this harness's own, and reads the
// registry counters at the same boundaries. Samples land in the Record
// under the per-layer metric names of BENCHMARK.json.
#pragma once

#include <string>

#include "harness.h"
#include "src/gb/interaction_lists.h"
#include "src/molecule/molecule.h"
#include "src/parallel/pool.h"
#include "src/runtime/drivers.h"
#include "src/surface/quadrature.h"

namespace perfbench {

/// What a direct-call cold solve builds; refit calls reuse it as the
/// base structure, the way the service reuses a cached entry.
struct Pipeline {
  octgb::molecule::Molecule mol;
  octgb::surface::QuadratureSurface surf;
  octgb::gb::BornOctrees trees;
  octgb::gb::InteractionPlan plan;
};

/// Cold path: parse, density field, marching, quadrature, octrees, plan,
/// Born, E_pol. `pool` null runs every layer serially. Returns the sum of
/// the layer times; `keep` (optional) receives the built structures.
double ledger_cold(const std::string& text, octgb::parallel::WorkStealingPool* pool,
                   Record& rec, Pipeline* keep = nullptr);

/// Refit path of a cached structure: parse, refit a copy of the base's
/// atoms octree, then Born and E_pol on the base's plan, serially (the
/// service's throughput mode runs each request in one task). Returns the
/// layer sum.
double ledger_refit(const std::string& text, const Pipeline& base, Record& rec);

/// octree.refit_s on a structure that is not refit by its workload: one
/// refit of a copy of the atoms octree to an MD-step jitter.
void refit_probe(const Pipeline& p, std::uint64_t seed,
                 octgb::parallel::WorkStealingPool* pool, Record& rec);

/// Plan, Born and E_pol at 1 and at kWorkers workers:
/// gb.{plan,born,epol}_speedup_4w.
void kernel_scaling(const Pipeline& p, Record& rec);

/// Born + E_pol `reps` times at kWorkers workers on one plan:
/// gb.epol_bits_distinct (distinct E_pol bit patterns).
void determinism(const Pipeline& p, int reps, Record& rec);

/// One OCT_MPI+CILK solve (2 ranks x 2 threads): runtime.* phase times
/// and simmpi.* counter deltas.
octgb::runtime::DriverResult runtime_solve(const octgb::molecule::Molecule& mol,
                                           Record& rec);

}  // namespace perfbench
