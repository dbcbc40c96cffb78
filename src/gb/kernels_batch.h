// kernels_batch.h -- phase 2 of the two-phase GB execution engine, and
// the E_pol block kernels of every tree engine.
//
// Executes an InteractionPlan (src/gb/interaction_lists.h) instead of
// re-traversing the octrees. Two engines share the plan:
//
//  * scalar: Born replays every work item through the *exported
//    fused-engine blocks* (born_exact_leaf_pair, born_far_deposit), so a
//    replay, serial or pooled, is bit-for-bit identical to
//    born_radii_octree; E_pol runs the scalar block kernels below;
//  * SIMD: gathers atoms / q-points once into structure-of-arrays
//    scratch permuted to Morton order (tree.point_index()), then runs
//    4-wide AVX2+FMA row kernels over the contiguous leaf ranges. The
//    exact-math exp is the project's own (kernel_exp / exp_pd, equal bit
//    for bit), the approximate-math functions (util/fastmath.h) are
//    vectorized step for step, so per-element values match the scalar
//    engine to a few ulps and the reduction order differs (relative
//    error ~1e-15, asserted < 1e-10 by tests/kernels_batch_test).
//
// E_pol has one near kernel (epol_near_block) and one far kernel
// (epol_far_bins). The plan replay, the fused single-tree walk
// (approx_epol / epol_octree) and the dual-tree walk (epol_dualtree) all
// call them, the fused engines with the SIMD choice of SimdMode::kAuto,
// so fused E_pol equals batched kAuto E_pol bit for bit in every build.
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
  kForceScalar,  // scalar replay: Born bit-exact with the fused engine
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

// Row and block kernels. `use_simd` selects the AVX2 kernel and must
// only be true when simd_available(); builds without the AVX2 TU always
// run the scalar loop.

/// Born r^6 row: sum over q-points [qb, qe) of the SoA against one atom
/// at (x, y, z). Scalar path evaluates born_term exactly as the fused
/// engine does.
double born_row(const BornSoA& soa, std::uint32_t qb, std::uint32_t qe,
                double x, double y, double z, bool use_simd);

/// f_GB row: sum over atoms [ub, ue) of the SoA against one atom at
/// (px, py, pz) with charge qv and Born radius rv. The caller must
/// exclude the self index (see epol_near_block's diagonal).
double epol_row(const EpolSoA& soa, std::uint32_t ub, std::uint32_t ue,
                double px, double py, double pz, double qv, double rv,
                bool approx_math, bool use_simd);

/// The E_pol near kernel: the exact STILL block of the atoms [vb, ve)
/// (leaf V) against [ub, ue) (leaf U), in sorted SoA positions, times
/// `weight` -- 1 for a one-way pair, 2 for a mutual pair evaluated once
/// (see epol_near_weight in src/gb/traversal.h). A diagonal block
/// (U == V) is always symmetric: twice its upper triangle plus the self
/// terms q_v^2 / R_v (f_GB(i,i) = R_i), whatever `weight` says.
double epol_near_block(const EpolSoA& soa, std::uint32_t ub,
                       std::uint32_t ue, std::uint32_t vb, std::uint32_t ve,
                       int weight, bool approx_math, bool use_simd);

/// The E_pol far kernel: bin-vs-bin block of one (U, V) node pair at
/// center distance^2 d2, sum over non-empty bin combinations of
/// q_U[i] q_V[j] / f_GB(R_i, R_j). The SIMD variant packs the non-empty
/// bins of v once, then streams u's bins 4-wide.
double epol_far_bins(const ChargeBins& bins, std::uint32_t u_node,
                     std::uint32_t v_node, double d2, bool approx_math,
                     bool use_simd);

/// kernel_exp over a span, through exp_pd when `use_simd` and the AVX2
/// engine is available (exposed for tests/kernels_batch_test, which
/// checks the lanes against the scalar twin and libm).
void exp_batch(std::span<const double> x, std::span<double> out,
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

/// The monopole deposit of every plan.born_far item, in list order, as
/// born_radii_batched computes it in `mode` (exposed for
/// tests/kernels_batch_test: the AVX2 far kernel must equal
/// born_far_deposit item for item).
std::vector<double> born_far_terms(const BornOctrees& trees,
                                   const InteractionPlan& plan,
                                   SimdMode mode);

/// Plan-driven E_pol: replays plan.epol_near (with its weights) and
/// plan.epol_far into per-leaf accumulators (one near, one far -- the
/// same two-accumulator split the fused approx_epol keeps per leaf) and
/// reduces them in leaf order. With kAuto the energy equals the fused
/// epol_octree's bit for bit.
EpolResult epol_batched(const octree::Octree& tree,
                        const molecule::Molecule& mol,
                        std::span<const double> born_radii,
                        const InteractionPlan& plan,
                        const ApproxParams& params,
                        const Physics& physics = {},
                        parallel::WorkStealingPool* pool = nullptr,
                        SimdMode mode = SimdMode::kAuto);

}  // namespace octgb::gb
