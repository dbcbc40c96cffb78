// kernels_batch.h -- phase 2 of the two-phase GB execution engine.
//
// Executes an InteractionPlan (src/gb/interaction_lists.h) instead of
// re-traversing the octrees. Two engines share the plan:
//
//  * scalar: replays every work item through the *exported fused-engine
//    blocks* (born_exact_leaf_pair, born_far_deposit, epol_exact_block,
//    epol_far_block), so a replay, serial or pooled, is bit-for-bit
//    identical to the fused evaluators (born_radii_octree, epol_octree)
//    -- same walk (src/gb/traversal.h), same expression trees, same
//    summation order per accumulator slot;
//  * SIMD: gathers atoms / q-points once into structure-of-arrays
//    scratch permuted to Morton order (tree.point_index()), then runs
//    4-wide AVX2+FMA row kernels over the contiguous leaf ranges. The
//    approximate-math functions (util/fastmath.h) are vectorized with
//    lane-identical algorithms, so per-element values match the scalar
//    engine and only the reduction order differs (relative error
//    ~1e-15, asserted < 1e-10 by tests/kernels_batch_test).
//
// Engine selection is runtime: the AVX2 code is compiled into its own
// TU with -mavx2 -mfma (CMake option OCTGB_SIMD, default ON) and only
// entered when the CPU reports AVX2+FMA. SimdMode::kForceScalar pins the
// scalar engine regardless, which is what the golden tests and the A/B
// benches use.
//
// Which engine a request runs is the caller's choice, not a switch: the
// calculator's single-tree r^6 path and the serving layer replay a plan
// (cached per structure, SIMD); src/runtime, r^4, dual-tree and docking
// evaluate fused and hold no plan.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/gb/born.h"
#include "src/gb/epol.h"
#include "src/gb/interaction_lists.h"
#include "src/gb/types.h"
#include "src/molecule/molecule.h"
#include "src/octree/octree.h"
#include "src/parallel/pool.h"
#include "src/surface/quadrature.h"

namespace octgb::gb {

/// Engine choice for the plan executors.
enum class SimdMode {
  kAuto,         // SIMD when compiled in and CPU-supported
  kForceScalar,  // bit-exact fused-equivalent replay
};

/// True when the library was built with the AVX2 TU (OCTGB_SIMD=ON).
bool simd_compiled();

/// True when simd_compiled() and this CPU reports AVX2 and FMA.
bool simd_available();

/// What kAuto resolves to: simd_available().
bool simd_enabled();

/// SoA scratch for the Born phase: atom centers in T_A Morton order and
/// q-point data in T_Q Morton order, so every leaf's data is one
/// contiguous aligned run the row kernels stream through.
struct BornSoA {
  std::vector<double> ax, ay, az;               // atoms, sorted order
  std::vector<double> qx, qy, qz;               // q-points, sorted order
  std::vector<double> qnx, qny, qnz, qw;        // normals and weights
};

BornSoA build_born_soa(const BornOctrees& trees,
                       const molecule::Molecule& mol,
                       const surface::QuadratureSurface& surf);

/// SoA scratch for the E_pol phase: positions, charges and Born radii
/// in T_A Morton order.
struct EpolSoA {
  std::vector<double> x, y, z, q, born;
};

EpolSoA build_epol_soa(const octree::Octree& tree,
                       const molecule::Molecule& mol,
                       std::span<const double> born_radii);

// Row kernels (exposed for bench/micro_kernels). `use_simd` falls back
// to the scalar loop when the AVX2 engine is unavailable.

/// Born r^6 row: sum over q-points [qb, qe) of the SoA against one atom
/// at (x, y, z). Scalar path evaluates born_term exactly as the fused
/// engine does.
double born_row(const BornSoA& soa, std::uint32_t qb, std::uint32_t qe,
                double x, double y, double z, bool use_simd);

/// f_GB row: sum over atoms [ub, ue) of the SoA against one atom at
/// (px, py, pz) with charge qv and Born radius rv. The caller must
/// exclude the self index (see epol_exact_block's diagonal split).
double epol_row(const EpolSoA& soa, std::uint32_t ub, std::uint32_t ue,
                double px, double py, double pz, double qv, double rv,
                bool approx_math, bool use_simd);

/// Bin-vs-bin far block (SIMD variant of epol_far_block): packs the
/// non-empty bins of v once, then streams u's bins 4-wide.
double epol_far_bins(const ChargeBins& bins, std::uint32_t u_node,
                     std::uint32_t v_node, double d2, bool approx_math,
                     bool use_simd);

/// Plan-driven Born radii: replays plan.born_near / plan.born_far into a
/// workspace and runs the shared PUSH-INTEGRALS-TO-ATOMS sweep. Pooled
/// runs equal the serial run's bits in either mode (each chunk owns the
/// slots it writes). With SimdMode::kForceScalar (or SIMD unavailable)
/// the result reproduces born_radii_octree bit-for-bit.
BornRadiiResult born_radii_batched(const BornOctrees& trees,
                                   const molecule::Molecule& mol,
                                   const surface::QuadratureSurface& surf,
                                   const InteractionPlan& plan,
                                   const ApproxParams& params,
                                   parallel::WorkStealingPool* pool = nullptr,
                                   SimdMode mode = SimdMode::kAuto);

/// Plan-driven E_pol: replays plan.epol_near / plan.epol_far into
/// per-leaf accumulators (one near, one far -- the same two-accumulator
/// split the fused epol_octree keeps per leaf) and reduces them in leaf
/// order.
EpolResult epol_batched(const octree::Octree& tree,
                        const molecule::Molecule& mol,
                        std::span<const double> born_radii,
                        const InteractionPlan& plan,
                        const ApproxParams& params,
                        const Physics& physics = {},
                        parallel::WorkStealingPool* pool = nullptr,
                        SimdMode mode = SimdMode::kAuto);

}  // namespace octgb::gb
