// calculator.h -- one-call GB polarization energy.
//
// The facade runs the full pipeline of the paper's shared-memory
// algorithm: quadrature surface -> octrees -> r^6 Born radii ->
// STILL E_pol, with per-phase wall-clock timings for the benchmark
// harness. Distributed execution (OCT_MPI / OCT_MPI+CILK) lives in
// src/runtime; the naive quadratic reference is included here for
// error measurements.
#pragma once

#include <cstddef>
#include <vector>

#include "src/gb/born.h"
#include "src/gb/epol.h"
#include "src/gb/types.h"
#include "src/molecule/molecule.h"
#include "src/octree/octree.h"
#include "src/parallel/pool.h"
#include "src/surface/quadrature.h"

namespace octgb::gb {

/// Traversal strategy for the octree solver.
enum class Traversal {
  kSingleTree,  // this paper's algorithm (Figures 2-4)
  kDualTree,    // prior shared-memory algorithm [6], used by OCT_CILK
};

/// Born-radius integral kernel. The paper uses the surface r^6 form
/// (Eq. 4, better for globular solutes); the r^4 Coulomb-field form
/// (Eq. 3) is provided for comparison.
enum class BornKernel {
  kSurfaceR6,
  kSurfaceR4,
};

/// All knobs in one bundle.
struct CalculatorParams {
  ApproxParams approx;
  surface::SurfaceParams surface;
  octree::OctreeParams octree;
  Physics physics;
  BornKernel kernel = BornKernel::kSurfaceR6;
};

/// Output of a full pipeline run.
struct GBResult {
  std::vector<double> born_radii;  // per atom, Angstrom
  double energy = 0.0;             // kcal/mol
  std::size_t num_qpoints = 0;

  // Per-phase wall-clock seconds. t_plan is the interaction-list
  // walk of the two-phase engine; zero on the fused paths (r^4 and
  // dual-tree).
  double t_surface = 0.0;
  double t_tree_build = 0.0;
  double t_plan = 0.0;
  double t_born = 0.0;
  double t_epol = 0.0;

  double total_seconds() const {
    return t_surface + t_tree_build + t_plan + t_born + t_epol;
  }
};

/// Runs the full octree pipeline on `mol`. If `pool` is non-null the Born
/// and E_pol phases run under the work-stealing scheduler.
GBResult compute_gb_energy(const molecule::Molecule& mol,
                           const CalculatorParams& params = {},
                           parallel::WorkStealingPool* pool = nullptr,
                           Traversal traversal = Traversal::kSingleTree);

/// Runs the exact quadratic reference (naive Born radii + naive E_pol) on
/// the same surface pipeline. O(M * m + M^2): minutes beyond ~50k atoms.
GBResult compute_gb_energy_naive(const molecule::Molecule& mol,
                                 const CalculatorParams& params = {});

/// Relative error |a - b| / |b| guarded against b == 0.
double relative_error(double value, double reference);

}  // namespace octgb::gb
