// Golden tests for the two-phase engine (interaction lists + batched
// kernels): the scalar replay must reproduce the fused traversal
// BIT-FOR-BIT (same expression trees, same summation order), the SIMD
// engine within 1e-10 relative (only the 4-wide reduction order
// differs), across math policies, parallel execution and edge shapes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "src/gb/born.h"
#include "src/gb/epol.h"
#include "src/gb/interaction_lists.h"
#include "src/gb/kernels_batch.h"
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

TEST_P(BatchedVsFused, ScalarEpolBitExact) {
  const Fixture f(1000, GetParam());
  const auto born = born_radii_octree(f.trees, f.mol, f.surf, f.params);
  const auto fused =
      epol_octree(f.trees.atoms, f.mol, born.radii, f.params);
  const auto batched =
      epol_batched(f.trees.atoms, f.mol, born.radii, f.plan, f.params, {},
                   nullptr, SimdMode::kForceScalar);
  EXPECT_EQ(bits(batched.energy), bits(fused.energy));
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
  const auto batched_e =
      epol_batched(f.trees.atoms, f.mol, fused.radii, f.plan, f.params,
                   {}, nullptr, SimdMode::kForceScalar);
  EXPECT_EQ(bits(batched_e.energy), bits(fused_e.energy));
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
                   nullptr, SimdMode::kForceScalar);
  EXPECT_EQ(bits(batched.energy), bits(fused.energy));
  if (simd_available()) {
    const auto simd = epol_batched(f.trees.atoms, f.mol, born, f.plan,
                                   f.params, {}, nullptr, SimdMode::kAuto);
    EXPECT_LT(rel_diff(simd.energy, fused.energy), 1e-10);
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

}  // namespace
}  // namespace octgb::gb
