// kernel_primitives.h -- the per-pair arithmetic of the GB hot kernels.
//
// These inline functions are the single source of truth for the floating-
// point expression trees of the r^6/r^4 Born integrand and the STILL f_GB
// pair term. Every evaluator includes them:
//
//  * the fused visitors of the src/gb/traversal.h walks (src/gb/born.cpp,
//    src/gb/epol.cpp, the atom-division pseudo-leaves in
//    src/runtime/drivers.cpp), where the kernels run inline during the
//    walk, and
//  * the batched plan executor (src/gb/kernels_batch.cpp), where the same
//    pairs are replayed from an InteractionPlan over SoA scratch arrays.
//
// Sharing the expression *tree* (not just the formula) is what makes the
// batched scalar path bit-identical to the fused path under a fixed
// reduction order: the compiler contracts multiplies and adds into FMAs
// per expression shape, so two textually different implementations of the
// same formula may round differently. Do not duplicate these bodies.
//
// Deposits into shared accumulators are plain `+=`: every pooled
// caller gives each slot to exactly one task (owner-computes, see
// slot_owners in src/gb/traversal.h), which writes it in the serial
// order, so a pooled run reproduces the serial bits.
#pragma once

#include "src/geom/vec3.h"

namespace octgb::gb {

/// Inverse kernel denominator: 1/d^Power given d^2, for the r^6 (Eq. 4)
/// and r^4 (Eq. 3, Coulomb-field) Born integrals.
template <int Power>
inline double inv_pow(double d2) {
  static_assert(Power == 4 || Power == 6);
  if constexpr (Power == 4) {
    return 1.0 / (d2 * d2);
  } else {
    return 1.0 / (d2 * d2 * d2);
  }
}

/// One q-point's contribution to the Born integral of the atom at `x`:
/// w_q (d . n_q) / |d|^Power with d = p_q - x.
template <int Power>
inline double born_term(const geom::Vec3& q_point, const geom::Vec3& q_normal,
                        double q_weight, const geom::Vec3& x) {
  const geom::Vec3 d = q_point - x;
  const double r2 = d.norm2();
  return q_weight * d.dot(q_normal) * inv_pow<Power>(r2);
}

/// STILL pair term q_u q_v / f_GB(u, v) given r^2 and R_u R_v.
template <typename Math>
inline double fgb_term(double qu, double qv, double r2, double rr) {
  const double f2 = r2 + rr * Math::exp(-r2 / (4.0 * rr));
  return qu * qv * Math::rsqrt(f2);
}

/// Born self-energy term f_GB(i, i) = R_i.
inline double fgb_self_term(double q, double born) { return q * q / born; }

}  // namespace octgb::gb
