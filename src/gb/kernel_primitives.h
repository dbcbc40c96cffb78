// kernel_primitives.h -- the per-pair arithmetic of the GB hot kernels.
//
// These inline functions are the single source of truth for the floating-
// point expression trees of the r^6/r^4 Born integrand and the STILL f_GB
// pair term. Every evaluator includes them:
//
//  * the fused Born visitors of the src/gb/traversal.h walks
//    (src/gb/born.cpp) and the atom-division pseudo-leaves in
//    src/runtime/drivers.cpp, where the kernels run inline during the
//    walk, and
//  * the E_pol block kernels of src/gb/kernels_batch.cpp, which every
//    E_pol tree engine calls -- the plan replay, the fused single-tree
//    walk and the dual-tree walk alike -- and the batched Born replay.
//
// Sharing the expression *tree* (not just the formula) is what makes two
// callers of the same scalar kernel agree bit for bit under a fixed
// reduction order. Outside the AVX2 TU the project's baseline flags have
// no FMA, so nothing here is contracted; the AVX2 TU is compiled with
// -ffp-contract=off and spells every FMA it wants as an intrinsic. Do not
// duplicate these bodies.
//
// kernel_exp is the project's own exp for the exact-math GB kernels: the
// scalar twin of exp_pd in src/gb/kernels_batch_avx2.cpp, operation for
// operation, so a lane of exp_pd equals kernel_exp of its argument bit
// for bit. The ground-truth paths (util::ExactMath, the naive O(N^2)
// reference in src/gb/naive.cpp) keep libm.
//
// Deposits into shared accumulators are plain `+=`: every pooled
// caller gives each slot to exactly one task (owner-computes, see
// slot_owners in src/gb/traversal.h), which writes it in the serial
// order, so a pooled run reproduces the serial bits.
#pragma once

#include <bit>
#include <cstdint>

#include "src/geom/vec3.h"
#include "src/util/fastmath.h"

namespace octgb::gb {

/// Constants of kernel_exp / exp_pd. Cody-Waite reduction
/// x = k ln2 + r with ln2 split in two: kLn2Hi has 22 trailing zero bits,
/// so k * kLn2Hi is exact for |k| < 2^21 and x - k * kLn2Hi loses
/// nothing; kLn2Lo carries the next 53 bits.
namespace exp_detail {
inline constexpr double kLog2e = 0x1.71547652b82fep0;
inline constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
/// 1.5 * 2^52: adding it rounds x log2(e) to the nearest integer k and
/// leaves k in the low mantissa bits, so k is read without a
/// float-to-int conversion (which could raise FE_INVALID).
inline constexpr double kShifter = 0x1.8p52;
/// Clamp range of the argument, applied before anything else: the
/// scaling below then never overflows or leaves the normal exponent
/// range of its two factors. Arguments above kMaxArg are not used by
/// any kernel (the f_GB exponent is <= 0) and saturate.
inline constexpr double kMinArg = -746.0;
inline constexpr double kMaxArg = 709.0;
/// Below this, exp(x) rounds to +0 in IEEE double (ln 2^-1075); the
/// result is forced to exactly 0.
inline constexpr double kUnderflow = -0x1.74910d52d3051p9;
/// Taylor coefficients 1/n!, n = 0..13. On |r| <= ln2/2 the truncation
/// error of the degree-13 polynomial is below 6e-18 relative, far under
/// half an ulp.
inline constexpr double kPoly[] = {
    1.0,           1.0,            0.5,
    1.0 / 6.0,     1.0 / 24.0,     1.0 / 120.0,
    1.0 / 720.0,   1.0 / 5040.0,   1.0 / 40320.0,
    1.0 / 362880.0, 1.0 / 3628800.0, 1.0 / 39916800.0,
    1.0 / 479001600.0, 1.0 / 6227020800.0};
}  // namespace exp_detail

/// e^x for the exact-math kernels: within 2 ulp of libm's exp over
/// [-745, 0] (tests/kernels_batch_test checks 2^20 arguments plus the
/// edges; the reduction and the polynomial each add under an ulp, as
/// every step rounds separately). Exactly +0 below ln 2^-1075, where
/// libm also returns 0; subnormal results are rounded once. No finite
/// or infinite argument raises FE_INVALID, FE_DIVBYZERO or FE_OVERFLOW
/// (a NaN argument signals FE_INVALID in the clamp compares and maps to
/// the clamp bound, in both twins). Every step is one separately
/// rounded IEEE operation, in exp_pd's order.
inline double kernel_exp(double x) {
  using namespace exp_detail;
  const bool under = x < kUnderflow;
  // MAXPD / MINPD semantics (a > b ? a : b), NaN included.
  x = x > kMinArg ? x : kMinArg;
  x = x < kMaxArg ? x : kMaxArg;
  const double t = x * kLog2e + kShifter;
  const double kd = t - kShifter;
  const std::int64_t k =
      std::bit_cast<std::int64_t>(t) - std::bit_cast<std::int64_t>(kShifter);
  const double r = (x - kd * kLn2Hi) - kd * kLn2Lo;
  // Estrin's scheme: four levels of independent mul/add pairs instead
  // of a 13-deep Horner chain, so the vector lanes are not latency-bound.
  const double r2 = r * r;
  const double r4 = r2 * r2;
  const double r8 = r4 * r4;
  const double q0 = kPoly[0] + kPoly[1] * r;
  const double q1 = kPoly[2] + kPoly[3] * r;
  const double q2 = kPoly[4] + kPoly[5] * r;
  const double q3 = kPoly[6] + kPoly[7] * r;
  const double q4 = kPoly[8] + kPoly[9] * r;
  const double q5 = kPoly[10] + kPoly[11] * r;
  const double q6 = kPoly[12] + kPoly[13] * r;
  const double s0 = q0 + q1 * r2;
  const double s1 = q2 + q3 * r2;
  const double s2 = q4 + q5 * r2;
  const double t0 = s0 + s1 * r4;
  const double t1 = s2 + q6 * r4;
  const double p = t0 + t1 * r8;
  // 2^k as two normal factors 2^k1 * 2^k2 (k1 = floor(k/2), computed
  // on the positive k + 2048 so a logical shift suffices): p * 2^k1 is
  // exact, and the second product rounds once, also into the subnormal
  // range.
  const std::int64_t k1 = ((k + 2048) >> 1) - 1024;
  const std::int64_t k2 = k - k1;
  const double scale1 = std::bit_cast<double>(
      static_cast<std::uint64_t>(k1 + 1023) << 52);
  const double scale2 = std::bit_cast<double>(
      static_cast<std::uint64_t>(k2 + 1023) << 52);
  const double y = (p * scale1) * scale2;
  return under ? 0.0 : y;
}

/// Math policy of the exact-math E_pol kernels: the project's exp and a
/// correctly rounded 1/sqrt. util::ApproxMath is the approximate-math
/// counterpart; util::ExactMath (libm) stays the reference's policy.
struct KernelMath {
  static double exp(double x) { return kernel_exp(x); }
  static double rsqrt(double x) { return util::ExactMath::rsqrt(x); }
};

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
