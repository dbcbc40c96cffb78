// Tests for the polarization energy: naive reference physics, charge
// bins, octree/dual-tree accuracy vs naive, and the calculator facade.
#include <gtest/gtest.h>

#include <cmath>

#include "src/gb/calculator.h"
#include "src/gb/epol.h"
#include "src/gb/naive.h"
#include "src/molecule/generators.h"
#include "src/surface/quadrature.h"

namespace octgb::gb {
namespace {

TEST(NaiveEpolTest, SingleChargeBornSelfEnergy) {
  // One atom: E = -tau/2 k q^2 / R (the Born equation).
  molecule::Molecule mol("ion");
  mol.add_atom({{0, 0, 0}, 2.0, -1.0, molecule::Element::Other});
  const std::vector<double> born{2.0};
  const Physics phys;
  const auto res = epol_naive(mol, born, phys);
  const double expected = -0.5 * phys.tau() * phys.coulomb_k * 1.0 / 2.0;
  EXPECT_NEAR(res.energy, expected, 1e-12);
  EXPECT_LT(res.energy, 0.0);  // polarization energy is negative
}

TEST(NaiveEpolTest, TwoChargesMatchHandComputedFgb) {
  molecule::Molecule mol("pair");
  mol.add_atom({{0, 0, 0}, 1.5, 0.4, molecule::Element::C});
  mol.add_atom({{3, 0, 0}, 1.5, -0.7, molecule::Element::O});
  const std::vector<double> born{1.9, 2.1};
  const Physics phys;
  const double r2 = 9.0;
  const double rr = 1.9 * 2.1;
  const double fgb = std::sqrt(r2 + rr * std::exp(-r2 / (4.0 * rr)));
  const double sum = 0.4 * 0.4 / 1.9 + 0.7 * 0.7 / 2.1 +
                     2.0 * 0.4 * (-0.7) / fgb;
  EXPECT_NEAR(epol_naive(mol, born, phys).energy,
              -0.5 * phys.tau() * phys.coulomb_k * sum, 1e-10);
}

TEST(NaiveEpolTest, FgbLimits) {
  // f_GB -> R at r = 0 and -> r at large separation.
  EXPECT_NEAR(gb_pair_term(1, 1, 0.0, 2.0, 2.0), 1.0 / 2.0, 1e-12);
  const double far = 1000.0;
  EXPECT_NEAR(gb_pair_term(1, 1, far * far, 2.0, 2.0), 1.0 / far, 1e-9);
}

TEST(NaiveEpolTest, ApproxMathWithinHalfPercent) {
  const auto mol = molecule::generate_protein(300, 17);
  const auto surf = surface::build_surface(mol);
  const auto born = born_radii_naive_r6(mol, surf);
  const double exact = epol_naive(mol, born.radii, {}, false).energy;
  const double approx = epol_naive(mol, born.radii, {}, true).energy;
  EXPECT_NEAR(approx, exact, 5e-3 * std::abs(exact));
}

TEST(ChargeBinsTest, RootBinSumsAllCharges) {
  const auto mol = molecule::generate_protein(500, 23);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  const auto born = born_radii_naive_r6(mol, surf);
  const auto bins =
      build_charge_bins(trees.atoms, mol.charges(), born.radii, 0.9);
  double root_total = 0.0;
  for (int k = 0; k < bins.num_bins; ++k) root_total += bins.at(0, k);
  EXPECT_NEAR(root_total, mol.net_charge(), 1e-9);
}

TEST(ChargeBinsTest, AbsoluteChargePreservedPerNode) {
  // Node histogram row must sum to the sum of its atoms' charges.
  const auto mol = molecule::generate_protein(400, 29);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  const auto born = born_radii_naive_r6(mol, surf);
  const auto bins =
      build_charge_bins(trees.atoms, mol.charges(), born.radii, 0.5);
  const auto index = trees.atoms.point_index();
  for (std::size_t n = 0; n < trees.atoms.num_nodes(); n += 7) {
    const auto& node = trees.atoms.node(n);
    double direct = 0.0;
    for (std::uint32_t ai = node.begin; ai < node.end; ++ai) {
      direct += mol.charges()[index[ai]];
    }
    double binned = 0.0;
    for (int k = 0; k < bins.num_bins; ++k) binned += bins.at(n, k);
    EXPECT_NEAR(binned, direct, 1e-9 + 1e-12 * std::abs(direct));
  }
}

TEST(ChargeBinsTest, BinCountGrowsAsEpsShrinks) {
  const auto mol = molecule::generate_protein(600, 37);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  const auto born = born_radii_naive_r6(mol, surf);
  const auto coarse =
      build_charge_bins(trees.atoms, mol.charges(), born.radii, 0.9);
  const auto fine =
      build_charge_bins(trees.atoms, mol.charges(), born.radii, 0.05);
  EXPECT_GE(fine.num_bins, coarse.num_bins);
}

TEST(ChargeBinsTest, InvalidEpsThrows) {
  const auto mol = molecule::generate_ligand(10, 1);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  std::vector<double> born(mol.size(), 1.5);
  EXPECT_THROW(
      build_charge_bins(trees.atoms, mol.charges(), born, 0.0),
      std::invalid_argument);
}

struct EpolCase {
  std::size_t atoms;
  double eps;
  double tolerance;  // relative energy error vs naive (same radii)
};

class OctreeEpolAccuracy : public ::testing::TestWithParam<EpolCase> {};

TEST_P(OctreeEpolAccuracy, MatchesNaiveWithinTolerance) {
  const auto& tc = GetParam();
  const auto mol = molecule::generate_protein(tc.atoms, 61);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  const auto born = born_radii_naive_r6(mol, surf);
  const double reference = epol_naive(mol, born.radii).energy;

  ApproxParams params;
  params.eps_epol = tc.eps;
  const double approx =
      epol_octree(trees.atoms, mol, born.radii, params).energy;
  EXPECT_LT(relative_error(approx, reference), tc.tolerance)
      << "eps=" << tc.eps << " naive=" << reference
      << " octree=" << approx;
}

INSTANTIATE_TEST_SUITE_P(
    EpsSweep, OctreeEpolAccuracy,
    ::testing::Values(EpolCase{500, 0.1, 0.002}, EpolCase{500, 0.3, 0.01},
                      EpolCase{500, 0.9, 0.05}, EpolCase{2000, 0.9, 0.05},
                      EpolCase{2000, 0.1, 0.002}));

TEST(OctreeEpolTest, ErrorIsMonotoneIshInEps) {
  const auto mol = molecule::generate_protein(800, 67);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  const auto born = born_radii_naive_r6(mol, surf);
  const double reference = epol_naive(mol, born.radii).energy;

  auto err = [&](double eps) {
    ApproxParams params;
    params.eps_epol = eps;
    return relative_error(
        epol_octree(trees.atoms, mol, born.radii, params).energy,
        reference);
  };
  EXPECT_LT(err(0.1), err(0.9) + 0.002);
  EXPECT_LT(err(0.1), 0.003);
}

TEST(OctreeEpolTest, DualTreeAgreesWithNaive) {
  const auto mol = molecule::generate_protein(700, 71);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  const auto born = born_radii_naive_r6(mol, surf);
  const double reference = epol_naive(mol, born.radii).energy;
  ApproxParams params;
  params.eps_epol = 0.3;
  const double dual =
      epol_dualtree(trees.atoms, mol, born.radii, params).energy;
  EXPECT_LT(relative_error(dual, reference), 0.01);
}

TEST(OctreeEpolTest, ParallelMatchesSerial) {
  const auto mol = molecule::generate_protein(1000, 73);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  const auto born = born_radii_naive_r6(mol, surf);
  ApproxParams params;
  const double serial =
      epol_octree(trees.atoms, mol, born.radii, params).energy;
  parallel::WorkStealingPool pool(4);
  const double par =
      epol_octree(trees.atoms, mol, born.radii, params, {}, &pool).energy;
  EXPECT_EQ(par, serial);  // per-leaf sums reduce in leaf order
}

TEST(OctreeEpolTest, LeafSegmentsSumToWhole) {
  // Figure 4 step 6: partial energies over leaf segments sum to the
  // total (this is what MPI_Allreduce merges).
  const auto mol = molecule::generate_protein(600, 79);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  const auto born = born_radii_naive_r6(mol, surf);
  ApproxParams params;
  const auto bins = build_charge_bins(trees.atoms, mol.charges(),
                                      born.radii, params.eps_epol);
  const std::size_t n = trees.atoms.num_leaves();
  const double whole =
      approx_epol(trees.atoms, mol, bins, born.radii, 0, n, params);
  double pieces = 0.0;
  const std::size_t step = n / 4 + 1;
  for (std::size_t lo = 0; lo < n; lo += step) {
    pieces += approx_epol(trees.atoms, mol, bins, born.radii, lo,
                          std::min(lo + step, n), params);
  }
  EXPECT_NEAR(pieces, whole, 1e-9 * std::abs(whole));
}

TEST(CalculatorTest, FullPipelineCloseToNaive) {
  const auto mol = molecule::generate_protein(900, 83);
  CalculatorParams params;  // paper defaults: eps 0.9 / 0.9
  const GBResult octree_run = compute_gb_energy(mol, params);
  const GBResult naive_run = compute_gb_energy_naive(mol, params);
  EXPECT_LT(relative_error(octree_run.energy, naive_run.energy), 0.05);
  EXPECT_LT(octree_run.energy, 0.0);
  EXPECT_EQ(octree_run.born_radii.size(), mol.size());
  EXPECT_GT(octree_run.num_qpoints, 0u);
  EXPECT_GT(octree_run.t_born + octree_run.t_epol, 0.0);
}

TEST(CalculatorTest, DualTreeTraversalCloseToSingle) {
  const auto mol = molecule::generate_protein(600, 89);
  CalculatorParams params;
  const GBResult single =
      compute_gb_energy(mol, params, nullptr, Traversal::kSingleTree);
  const GBResult dual =
      compute_gb_energy(mol, params, nullptr, Traversal::kDualTree);
  EXPECT_LT(relative_error(dual.energy, single.energy), 0.05);
}

TEST(CalculatorTest, EnergyScalesWithSystemSize) {
  // More atoms => more (negative) polarization energy, roughly linearly.
  CalculatorParams params;
  const double e1 =
      compute_gb_energy(molecule::generate_protein(300, 7), params).energy;
  const double e2 =
      compute_gb_energy(molecule::generate_protein(2400, 7), params).energy;
  EXPECT_LT(e2, e1);              // more negative
  EXPECT_GT(e2 / e1, 3.0);        // grows superlinearly in count band
  EXPECT_LT(e2 / e1, 30.0);
}

TEST(CalculatorTest, RelativeErrorHelper) {
  EXPECT_DOUBLE_EQ(relative_error(11.0, 10.0), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(relative_error(5.0, 0.0), 1.0);
}

}  // namespace
}  // namespace octgb::gb
