// Golden tests for the two-phase engine (interaction lists + batched
// kernels) and the shared E_pol kernels: the scalar Born replay must
// reproduce the fused traversal BIT-FOR-BIT, fused E_pol must equal the
// kAuto replay bit for bit (both call the same kernels), and the two
// engines agree within 1e-10 relative (only the 4-wide reduction order
// differs), across math policies, parallel execution and edge shapes.
// The project's exp is checked against libm and lane for lane against
// its scalar twin, and the symmetric E_pol plan against a direct walk.
#include <gtest/gtest.h>

#include <bit>
#include <cfenv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>

#include "src/gb/born.h"
#include "src/gb/epol.h"
#include "src/gb/interaction_lists.h"
#include "src/gb/kernel_primitives.h"
#include "src/gb/kernels_batch.h"
#include "src/gb/traversal.h"
#include "src/molecule/generators.h"
#include "src/parallel/pool.h"
#include "src/surface/quadrature.h"

namespace octgb::gb {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

double rel_diff(double a, double b) {
  const double denom = std::max(std::abs(a), std::abs(b));
  return denom == 0.0 ? 0.0 : std::abs(a - b) / denom;  // lint:allow(float-eq) exact zero guard
}

struct Fixture {
  molecule::Molecule mol;
  surface::QuadratureSurface surf;
  BornOctrees trees;
  ApproxParams params;
  InteractionPlan plan;

  explicit Fixture(std::size_t atoms, bool approx_math = true) {
    mol = molecule::generate_protein(atoms, 99);
    surf = surface::build_surface(mol);
    trees = build_born_octrees(mol, surf);
    params.approx_math = approx_math;
    plan = build_interaction_plan(trees, params);
  }
};

void expect_monotone_cover(const std::vector<std::uint32_t>& chunks,
                           std::size_t size) {
  ASSERT_GE(chunks.size(), 1u);
  EXPECT_EQ(chunks.front(), 0u);
  EXPECT_EQ(chunks.back(), size);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_LE(chunks[i - 1], chunks[i]);
  }
}

TEST(InteractionPlanTest, ListsNonEmptyAndChunksWellFormed) {
  const Fixture f(1200);
  EXPECT_GT(f.plan.born_near.size(), 0u);
  EXPECT_GT(f.plan.epol_near.size(), 0u);
  EXPECT_GT(f.plan.num_items(), 0u);
  EXPECT_GT(f.plan.memory_bytes(), 0u);
  expect_monotone_cover(f.plan.born_near_chunks, f.plan.born_near.size());
  expect_monotone_cover(f.plan.born_far_chunks, f.plan.born_far.size());
  expect_monotone_cover(f.plan.epol_near_chunks, f.plan.epol_near.size());
  expect_monotone_cover(f.plan.epol_far_chunks, f.plan.epol_far.size());
  // A compact protein at this size must exercise both classes of the
  // E_pol traversal; the Born far field appears once trees are deep
  // enough (guaranteed at 1200 atoms with default leaf capacity).
  EXPECT_GT(f.plan.born_far.size(), 0u);
  EXPECT_GT(f.plan.epol_far.size(), 0u);
}

TEST(InteractionPlanTest, ParallelBuildIsDeterministic) {
  const Fixture f(900);
  parallel::WorkStealingPool pool(4);
  const InteractionPlan par = build_interaction_plan(f.trees, f.params,
                                                     &pool);
  ASSERT_EQ(par.born_near.size(), f.plan.born_near.size());
  ASSERT_EQ(par.epol_far.size(), f.plan.epol_far.size());
  for (std::size_t i = 0; i < par.born_near.size(); ++i) {
    EXPECT_EQ(par.born_near[i].target, f.plan.born_near[i].target);
    EXPECT_EQ(par.born_near[i].source, f.plan.born_near[i].source);
  }
  for (std::size_t i = 0; i < par.epol_far.size(); ++i) {
    EXPECT_EQ(par.epol_far[i].target, f.plan.epol_far[i].target);
    EXPECT_EQ(par.epol_far[i].source, f.plan.epol_far[i].source);
  }
}

TEST(InteractionPlanTest, ThrowsOnNonPositiveEps) {
  const Fixture f(300);
  ApproxParams bad = f.params;
  bad.eps_born = 0.0;
  EXPECT_THROW(build_interaction_plan(f.trees, bad),
               std::invalid_argument);
  bad = f.params;
  bad.eps_epol = -1.0;
  EXPECT_THROW(build_interaction_plan(f.trees, bad),
               std::invalid_argument);
}

class BatchedVsFused : public ::testing::TestWithParam<bool> {};

TEST_P(BatchedVsFused, ScalarBornRadiiBitExact) {
  const Fixture f(1000, GetParam());
  const auto fused = born_radii_octree(f.trees, f.mol, f.surf, f.params);
  const auto batched =
      born_radii_batched(f.trees, f.mol, f.surf, f.plan, f.params,
                         nullptr, SimdMode::kForceScalar);
  ASSERT_EQ(batched.radii.size(), fused.radii.size());
  for (std::size_t a = 0; a < fused.radii.size(); ++a) {
    EXPECT_EQ(bits(batched.radii[a]), bits(fused.radii[a])) << "atom " << a;
  }
}

TEST_P(BatchedVsFused, FusedEpolEqualsBatchedAuto) {
  // Fused and batched E_pol run the same near/far kernels with the same
  // SIMD choice, over the same pairs in the same order.
  const Fixture f(1000, GetParam());
  const auto born = born_radii_octree(f.trees, f.mol, f.surf, f.params);
  const auto fused =
      epol_octree(f.trees.atoms, f.mol, born.radii, f.params);
  const auto batched =
      epol_batched(f.trees.atoms, f.mol, born.radii, f.plan, f.params, {},
                   nullptr, SimdMode::kAuto);
  EXPECT_EQ(bits(batched.energy), bits(fused.energy));
  // Without the AVX2 engine kAuto is the scalar engine.
  const auto scalar =
      epol_batched(f.trees.atoms, f.mol, born.radii, f.plan, f.params, {},
                   nullptr, SimdMode::kForceScalar);
  if (!simd_enabled()) {
    EXPECT_EQ(bits(scalar.energy), bits(fused.energy));
  } else {
    EXPECT_LT(rel_diff(scalar.energy, fused.energy), 1e-10);
  }
}

TEST_P(BatchedVsFused, SimdWithinTightTolerance) {
  if (!simd_available()) GTEST_SKIP() << "no AVX2+FMA on this host";
  const Fixture f(1000, GetParam());
  const auto fused = born_radii_octree(f.trees, f.mol, f.surf, f.params);
  const auto simd =
      born_radii_batched(f.trees, f.mol, f.surf, f.plan, f.params,
                         nullptr, SimdMode::kAuto);
  ASSERT_EQ(simd.radii.size(), fused.radii.size());
  for (std::size_t a = 0; a < fused.radii.size(); ++a) {
    EXPECT_LT(rel_diff(simd.radii[a], fused.radii[a]), 1e-10)
        << "atom " << a;
  }
  const auto fused_e =
      epol_octree(f.trees.atoms, f.mol, fused.radii, f.params);
  const auto simd_e =
      epol_batched(f.trees.atoms, f.mol, fused.radii, f.plan, f.params,
                   {}, nullptr, SimdMode::kAuto);
  EXPECT_LT(rel_diff(simd_e.energy, fused_e.energy), 1e-10);
}

TEST_P(BatchedVsFused, PooledExecutionMatchesSerial) {
  // Chunks own their accumulator slots, so a pooled replay deposits in
  // the serial order: same bits at any worker count, in either engine.
  const Fixture f(800, GetParam());
  for (const SimdMode mode : {SimdMode::kForceScalar, SimdMode::kAuto}) {
    const auto serial = born_radii_batched(f.trees, f.mol, f.surf, f.plan,
                                           f.params, nullptr, mode);
    const auto e_serial =
        epol_batched(f.trees.atoms, f.mol, serial.radii, f.plan, f.params,
                     {}, nullptr, mode);
    for (const int workers : {2, 4}) {
      parallel::WorkStealingPool pool(workers);
      const auto pooled = born_radii_batched(f.trees, f.mol, f.surf, f.plan,
                                             f.params, &pool, mode);
      for (std::size_t a = 0; a < serial.radii.size(); ++a) {
        ASSERT_EQ(bits(pooled.radii[a]), bits(serial.radii[a]))
            << "mode=" << static_cast<int>(mode) << " workers=" << workers
            << " atom " << a;
      }
      const auto e_pooled =
          epol_batched(f.trees.atoms, f.mol, serial.radii, f.plan, f.params,
                       {}, &pool, mode);
      EXPECT_EQ(bits(e_pooled.energy), bits(e_serial.energy))
          << "mode=" << static_cast<int>(mode) << " workers=" << workers;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MathPolicies, BatchedVsFused,
                         ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "approx" : "exact";
                         });

TEST(BatchedEdgeTest, SingleAtomMoleculeBitExact) {
  const Fixture f(1);
  const auto fused = born_radii_octree(f.trees, f.mol, f.surf, f.params);
  const auto batched =
      born_radii_batched(f.trees, f.mol, f.surf, f.plan, f.params,
                         nullptr, SimdMode::kForceScalar);
  ASSERT_EQ(batched.radii.size(), 1u);
  EXPECT_EQ(bits(batched.radii[0]), bits(fused.radii[0]));
  const auto fused_e =
      epol_octree(f.trees.atoms, f.mol, fused.radii, f.params);
  for (const SimdMode mode : {SimdMode::kAuto, SimdMode::kForceScalar}) {
    // One atom: the self term alone, the same in either engine.
    const auto batched_e = epol_batched(f.trees.atoms, f.mol, fused.radii,
                                        f.plan, f.params, {}, nullptr, mode);
    EXPECT_EQ(bits(batched_e.energy), bits(fused_e.energy));
  }
}

TEST(BatchedEdgeTest, EmptyTreesYieldEmptyPlanAndZeroEnergy) {
  const BornOctrees empty;
  const InteractionPlan plan = build_interaction_plan(empty, {});
  EXPECT_EQ(plan.num_items(), 0u);
  const octree::Octree no_tree;
  molecule::Molecule none("empty");
  const auto epol = epol_batched(no_tree, none, {}, plan, {});
  EXPECT_EQ(epol.energy, 0.0);  // lint:allow(float-eq) exact empty-input contract
}

TEST(BatchedEdgeTest, AllEqualBornRadiiBitExact) {
  const Fixture f(600);
  const std::vector<double> born(f.mol.size(), 2.5);
  const auto fused = epol_octree(f.trees.atoms, f.mol, born, f.params);
  const auto batched =
      epol_batched(f.trees.atoms, f.mol, born, f.plan, f.params, {},
                   nullptr, SimdMode::kAuto);
  EXPECT_EQ(bits(batched.energy), bits(fused.energy));
  const auto scalar =
      epol_batched(f.trees.atoms, f.mol, born, f.plan, f.params, {},
                   nullptr, SimdMode::kForceScalar);
  if (!simd_enabled()) {
    EXPECT_EQ(bits(scalar.energy), bits(fused.energy));
  } else {
    EXPECT_LT(rel_diff(scalar.energy, fused.energy), 1e-10);
  }
}

TEST(BatchedRowTest, SimdRowsMatchScalarRows) {
  if (!simd_available()) GTEST_SKIP() << "no AVX2+FMA on this host";
  const Fixture f(500);
  const BornSoA bsoa = build_born_soa(f.trees, f.mol, f.surf);
  const std::uint32_t qn = static_cast<std::uint32_t>(bsoa.qw.size());
  // Odd-length range exercises the vector body and the scalar tail.
  const std::uint32_t qe = std::min<std::uint32_t>(qn, 37);
  const double scalar = born_row(bsoa, 0, qe, 1.0, -2.0, 0.5, false);
  const double simd = born_row(bsoa, 0, qe, 1.0, -2.0, 0.5, true);
  EXPECT_LT(rel_diff(simd, scalar), 1e-10);

  const auto born = born_radii_octree(f.trees, f.mol, f.surf, f.params);
  const EpolSoA esoa = build_epol_soa(f.trees.atoms, f.mol, born.radii);
  const std::uint32_t ue =
      std::min<std::uint32_t>(static_cast<std::uint32_t>(esoa.q.size()), 29);
  for (const bool approx : {true, false}) {
    const double es = epol_row(esoa, 0, ue, 0.3, 0.7, -1.1, 0.4, 2.0,
                               approx, false);
    const double ev = epol_row(esoa, 0, ue, 0.3, 0.7, -1.1, 0.4, 2.0,
                               approx, true);
    EXPECT_LT(rel_diff(ev, es), 1e-10) << "approx=" << approx;
  }
}

TEST(BatchedRowTest, SimdFarBinsMatchScalar) {
  if (!simd_available()) GTEST_SKIP() << "no AVX2+FMA on this host";
  const Fixture f(800);
  const auto born = born_radii_octree(f.trees, f.mol, f.surf, f.params);
  const ChargeBins bins = build_charge_bins(
      f.trees.atoms, f.mol.charges(), born.radii, f.params.eps_epol);
  const std::uint32_t root = f.trees.atoms.root_index();
  for (const bool approx : {true, false}) {
    const double scalar =
        epol_far_bins(bins, root, root, 900.0, approx, false);
    const double simd = epol_far_bins(bins, root, root, 900.0, approx,
                                      true);
    EXPECT_LT(rel_diff(simd, scalar), 1e-10) << "approx=" << approx;
  }
}

// ---------------------------------------------------------------- exp

// Distance in units in the last place between two doubles of one sign.
std::uint64_t ulp_distance(double a, double b) {
  const auto ia = std::bit_cast<std::int64_t>(a);
  const auto ib = std::bit_cast<std::int64_t>(b);
  return static_cast<std::uint64_t>(ia > ib ? ia - ib : ib - ia);
}

// 2^20 arguments spread over [-745, 0] plus the edges: signed zeros,
// the underflow cutoff and its neighbours, the subnormal-result range
// and the normal/subnormal boundary. The count is not a multiple of 4,
// so a SIMD pass ends in a masked tail.
std::vector<double> exp_arguments() {
  constexpr std::size_t kGrid = std::size_t{1} << 20;
  std::vector<double> x;
  x.reserve(kGrid + 32);
  for (std::size_t i = 0; i < kGrid; ++i) {
    x.push_back(-745.0 * static_cast<double>(i) /
                static_cast<double>(kGrid - 1));
  }
  const double inf = std::numeric_limits<double>::infinity();
  const double cutoff = exp_detail::kUnderflow;
  const double min_normal = std::log(std::numeric_limits<double>::min());
  for (const double e :
       {-0.0, 0.0, cutoff, std::nextafter(cutoff, 0.0),
        std::nextafter(cutoff, -inf), -745.0, -744.9, -740.0, -730.0,
        -720.0, -710.0, min_normal, std::nextafter(min_normal, 0.0),
        std::nextafter(min_normal, -inf), -708.0, -1e-300, -5e-324,
        -745.2, -746.0, -1000.0, -0.5 * std::log(2.0),
        0.5 * std::log(2.0)}) {
    x.push_back(e);
  }
  x.push_back(-1.0);  // 2^20 + 23 arguments: 3 tail lanes
  return x;
}

TEST(KernelExpTest, WithinTwoUlpOfLibm) {
  std::uint64_t worst = 0;
  double worst_at = 0.0;
  for (const double x : exp_arguments()) {
    const std::uint64_t d = ulp_distance(kernel_exp(x), std::exp(x));  // lint:allow(fastmath) libm is the reference
    if (d > worst) {
      worst = d;
      worst_at = x;
    }
  }
  EXPECT_LE(worst, 2u) << "at x = " << worst_at;
  // Exactly +0 below the cutoff (where libm rounds to 0 as well) and
  // exactly 1 at -0.
  const double below = std::nextafter(exp_detail::kUnderflow, -1e9);
  EXPECT_EQ(bits(kernel_exp(below)), 0u);
  EXPECT_EQ(bits(kernel_exp(-1000.0)), 0u);
  EXPECT_EQ(bits(kernel_exp(-0.0)), bits(1.0));
}

TEST(KernelExpTest, EachLaneEqualsScalarTwin) {
  const std::vector<double> x = exp_arguments();
  std::vector<double> lanes(x.size());
  exp_batch(x, lanes, simd_available());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (bits(lanes[i]) != bits(kernel_exp(x[i]))) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
  // Every masked-tail length, at every lane offset.
  for (std::size_t len = 1; len < 8; ++len) {
    for (std::size_t off = 0; off < 4; ++off) {
      const std::span<const double> in(x.data() + x.size() - 12 + off, len);
      std::vector<double> out(len);
      exp_batch(in, out, simd_available());
      for (std::size_t i = 0; i < len; ++i) {
        EXPECT_EQ(bits(out[i]), bits(kernel_exp(in[i])))
            << "len " << len << " offset " << off << " lane " << i;
      }
    }
  }
}

TEST(KernelExpTest, RaisesNoInvalidDivByZeroOrOverflow) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> x = {-inf,  -1e308, -1000.0, -746.5, -745.2,
                                 exp_detail::kUnderflow, -700.0, -0.0,
                                 0.0,   1.0,    709.5,   1e308,  inf};
  std::vector<double> lanes(x.size());
  std::vector<double> scalar(x.size());
  std::feclearexcept(FE_ALL_EXCEPT);
  exp_batch(x, lanes, simd_available());
  for (std::size_t i = 0; i < x.size(); ++i) scalar[i] = kernel_exp(x[i]);
  EXPECT_EQ(std::fetestexcept(FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW), 0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(bits(lanes[i]), bits(scalar[i])) << "x = " << x[i];
    EXPECT_TRUE(std::isfinite(scalar[i])) << "x = " << x[i];
  }
}

// ------------------------------------------------- symmetric E_pol plan

// Every ordered leaf pair a direct walk_epol reaches is covered exactly
// once by the plan: as a weight-1 item, as a weight-2 item, or as the
// dropped mirror of a weight-2 item; and the plan covers nothing else.
TEST(SymmetricPlanTest, EveryWalkPairCoveredOnce) {
  const Fixture f(2000);
  const octree::Octree& tree = f.trees.atoms;
  const auto leaves = tree.leaves();
  std::vector<std::uint32_t> ordinal(tree.num_nodes(), 0);
  for (std::uint32_t ord = 0; ord < leaves.size(); ++ord) {
    ordinal[leaves[ord]] = ord;
  }
  ASSERT_EQ(f.plan.epol_near_weight.size(), f.plan.epol_near.size());
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> covered;
  std::size_t weight2 = 0;
  for (std::size_t i = 0; i < f.plan.epol_near.size(); ++i) {
    const NodePair p = f.plan.epol_near[i];
    const int w = f.plan.epol_near_weight[i];
    ASSERT_TRUE(w == 1 || w == 2) << "item " << i << " weight " << w;
    ++covered[{p.target, p.source}];
    if (w == 2 && p.source != leaves[p.target]) {
      ++weight2;
      ++covered[{ordinal[p.source], leaves[p.target]}];
    }
  }
  EXPECT_GT(weight2, 0u);

  const EpolFarTest far{1.0 + 2.0 / f.params.eps_epol};
  std::size_t walked = 0;
  for (std::uint32_t ord = 0; ord < leaves.size(); ++ord) {
    const octree::Node& v = tree.node(leaves[ord]);
    walk_epol(
        tree, v.center, v.radius, far,
        [&](std::uint32_t u) {
          ++walked;
          const auto it = covered.find({ord, u});
          ASSERT_NE(it, covered.end()) << "pair (" << ord << "," << u
                                       << ") not covered";
          EXPECT_EQ(it->second, 1)
              << "pair (" << ord << "," << u << ") covered " << it->second
              << " times";
        },
        [](std::uint32_t, double) {});
  }
  EXPECT_EQ(covered.size(), walked) << "the plan covers pairs no walk makes";
  EXPECT_LT(f.plan.epol_near.size(), walked);
}

// ------------------------------------------------ Born far lane-exact

// The AVX2 far kernel evaluates born_far_deposit's expression with the
// same rounded operations, so every deposit of a 20k-atom plan is the
// scalar deposit bit for bit, whatever quad of its run it falls in.
TEST(BornFarLaneExactTest, EveryDepositEqualsScalarAt20k) {
  const auto mol = molecule::generate_protein(20000, 3);
  parallel::WorkStealingPool pool(4);
  const auto surf = surface::build_surface(mol, {}, &pool);
  const auto trees = build_born_octrees(mol, surf, {}, &pool);
  const InteractionPlan plan =
      build_interaction_plan(trees, ApproxParams{}, &pool);
  const std::vector<double> simd =
      born_far_terms(trees, plan, SimdMode::kAuto);
  const std::vector<double> scalar =
      born_far_terms(trees, plan, SimdMode::kForceScalar);
  ASSERT_EQ(simd.size(), plan.born_far.size());
  ASSERT_EQ(scalar.size(), plan.born_far.size());
  ASSERT_GT(plan.born_far.size(), 0u);
  std::size_t mismatches = 0;
  std::size_t first = 0;
  for (std::size_t i = 0; i < simd.size(); ++i) {
    if (bits(simd[i]) != bits(scalar[i]) && mismatches++ == 0) first = i;
  }
  EXPECT_EQ(mismatches, 0u) << "first at item " << first << ": "
                            << simd[first] << " vs " << scalar[first];
}

}  // namespace
}  // namespace octgb::gb
