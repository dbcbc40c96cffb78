// kernels_batch_simd.h -- internal contract between the dispatch TU
// (kernels_batch.cpp, compiled with the project's baseline flags) and
// the AVX2 TU (kernels_batch_avx2.cpp, compiled with -mavx2 -mfma
// -ffp-contract=off).
// Only raw-pointer signatures cross the boundary so the AVX2 TU stays
// independent of the library's data structures; nothing here is part of
// the public API.
#pragma once

#include <cstddef>
#include <cstdint>

#ifdef OCTGB_SIMD_AVX2

namespace octgb::gb::simd {

/// Born r^6 row over q-points [qb, qe): sum of
/// w_q * (p_q - x) . n_q / |p_q - x|^6 for the atom at (x, y, z).
double born_row_avx2(const double* qx, const double* qy, const double* qz,
                     const double* nx, const double* ny, const double* nz,
                     const double* w, std::uint32_t qb, std::uint32_t qe,
                     double x, double y, double z);

/// Far-field monopole deposits for a *run* of `n` plan items sharing
/// one source q-leaf (within a slot owner born_far is grouped by
/// q-leaf). `pairs` is the raw NodePair storage of the run (pairs[2i] =
/// target a-node id); acx/acy/acz are atom-node centers by node id;
/// qcx..qwz the shared q-leaf center and weighted normal, broadcast
/// across lanes. Keeping the source fixed turns six of the nine
/// per-quad gathers into hoisted broadcasts -- the kernel becomes three
/// gathers plus arithmetic. Deposits go into node_s[target] with a
/// plain `+=` (the caller's chunk owns the slots). Each lane evaluates
/// far_deposit's scalar expression with the same separately rounded
/// operations (the TU is built with -ffp-contract=off), so a deposit
/// equals born_far_deposit's bit for bit. Only floor(n/4)*4 items are
/// processed; the caller runs the tail through born_far_deposit.
std::uint32_t born_far_run_avx2(const std::uint32_t* pairs,
                                std::uint32_t n, const double* acx,
                                const double* acy, const double* acz,
                                double qcx, double qcy, double qcz,
                                double qwx, double qwy, double qwz,
                                double* node_s);

/// f_GB row over atoms [ub, ue): sum of q_u * qv / f_GB for the atom at
/// (px, py, pz) with charge qv, Born radius rv. `approx_math` selects
/// the lane-vectorized fastmath algorithms vs. exact sqrt/exp.
double epol_row_avx2(const double* ux, const double* uy, const double* uz,
                     const double* uq, const double* uborn,
                     std::uint32_t ub, std::uint32_t ue, double px,
                     double py, double pz, double qv, double rv,
                     bool approx_math);

/// Whole near-field block U x V: the f_GB rows of the v atoms [vb, ve)
/// against the u atoms [ub, ue), all from the same SoA arrays (one
/// octree), times `weight` (1, or 2 for a mutual pair evaluated once).
/// A diagonal block (ub == vb, ue == ve) sums its upper triangle,
/// doubles it and adds the exact q_v^2 / R_v self terms; `weight` does
/// not apply there. Keeping the v loop on this side of the TU boundary
/// saves one call + broadcast setup per v atom, which adds up over
/// millions of ~leaf-sized rows.
double epol_near_block_avx2(const double* ux, const double* uy,
                            const double* uz, const double* uq,
                            const double* uborn, std::uint32_t ub,
                            std::uint32_t ue, std::uint32_t vb,
                            std::uint32_t ve, double weight,
                            bool approx_math);

/// Far-field inner row: sum over j of qu * qv[j] / f_GB(d2, ru * rv[j])
/// for `n` packed non-empty bins of the v node.
double epol_far_row_avx2(const double* qv, const double* rv,
                         std::uint32_t n, double qu, double ru, double d2,
                         bool approx_math);

/// exp_pd over n arguments (the last n mod 4 as one masked pass):
/// out[i] == kernel_exp(x[i]) bit for bit.
void exp_avx2(const double* x, double* out, std::size_t n);

}  // namespace octgb::gb::simd

#endif  // OCTGB_SIMD_AVX2
