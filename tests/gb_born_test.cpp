// Tests for Born radii: naive r^4/r^6 references against analytic
// spheres, and the octree solvers (single-tree and dual-tree) against
// the naive reference with eps -> 0 convergence.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/gb/born.h"
#include "src/gb/naive.h"
#include "src/gb/traversal.h"
#include "src/molecule/generators.h"
#include "src/surface/quadrature.h"

namespace octgb::gb {
namespace {

molecule::Molecule single_atom(double radius) {
  molecule::Molecule mol("atom");
  mol.add_atom({{0, 0, 0}, radius, -0.5, molecule::Element::O});
  return mol;
}

surface::QuadratureSurface dense_sphere_surface(const molecule::Molecule& m) {
  // probe = 0: these tests validate the Born math against *analytic*
  // spheres of the atoms' own radii.
  return surface::sphere_sampled_surface(m, 400, /*probe=*/0.0);
}

TEST(NaiveBornTest, SingleAtomBornRadiusEqualsItsRadius) {
  // For a lone atom the molecular surface is its own sphere, so both the
  // r^4 and the r^6 integrals give exactly R = r.
  const double r = 1.8;
  const auto mol = single_atom(r);
  const auto surf = dense_sphere_surface(mol);

  const auto r6 = born_radii_naive_r6(mol, surf);
  ASSERT_EQ(r6.radii.size(), 1u);
  EXPECT_NEAR(r6.radii[0], r, 1e-4);

  const auto r4 = born_radii_naive_r4(mol, surf);
  EXPECT_NEAR(r4.radii[0], r, 1e-4);
}

TEST(NaiveBornTest, OffCenterAtomInLargeSphereSeesLargerRadius) {
  // Place a tiny reporter atom well inside a big sphere: its Born radius
  // reflects the big sphere's surface, so R >> its intrinsic radius.
  molecule::Molecule mol("host");
  mol.add_atom({{0, 0, 0}, 8.0, 0.0, molecule::Element::Other});  // host
  mol.add_atom({{2.0, 0, 0}, 1.0, 0.0, molecule::Element::H});    // probe
  const auto surf = surface::sphere_sampled_surface(mol, 600, 0.0);
  const auto r6 = born_radii_naive_r6(mol, surf);
  EXPECT_NEAR(r6.radii[0], 8.0, 0.05);
  // Analytic r^6 Born radius of a point at offset d inside a sphere of
  // radius A: R^3 = A^3 (1 - d^2/A^2)^3 / (1 + d^2 A^2 ... ) -- rather
  // than quote the closed form, assert the qualitative invariants: the
  // probe is buried, so R is far above its vdW radius but below the
  // host radius.
  EXPECT_GT(r6.radii[1], 4.0);
  EXPECT_LT(r6.radii[1], 8.0);
}

TEST(NaiveBornTest, BornRadiusClampedByIntrinsicRadius) {
  // An atom poking far out of the surface of another: the integral may
  // go small/negative; the result must clamp at the vdW radius.
  molecule::Molecule mol("stickout");
  mol.add_atom({{0, 0, 0}, 1.5, 0.0, molecule::Element::C});
  mol.add_atom({{40, 0, 0}, 1.2, 0.0, molecule::Element::H});
  // Surface of only the first atom (as if the second were outside it).
  const auto iso = single_atom(1.5);
  const auto surf = dense_sphere_surface(iso);
  const auto r6 = born_radii_naive_r6(mol, surf);
  EXPECT_GE(r6.radii[1], 1.2);  // clamp holds for the faraway atom
}

TEST(NaiveBornTest, ApproxMathCloseToExact) {
  const auto mol = molecule::generate_protein(200, 31);
  const auto surf = surface::build_surface(mol);
  const auto exact = born_radii_naive_r6(mol, surf, false);
  const auto approx = born_radii_naive_r6(mol, surf, true);
  for (std::size_t i = 0; i < mol.size(); ++i) {
    EXPECT_NEAR(approx.radii[i], exact.radii[i], 1e-3 * exact.radii[i]);
  }
}

TEST(NaiveBornTest, DeeperAtomsHaveLargerBornRadii) {
  // The physical monotonicity the model encodes: atoms near the center
  // of a globule interact less with solvent => larger Born radius.
  const auto mol = molecule::generate_protein(800, 12);
  const auto surf = surface::build_surface(mol);
  const auto res = born_radii_naive_r6(mol, surf);
  const geom::Vec3 c = mol.centroid();
  // Average Born radius of the innermost 10% vs outermost 10%.
  std::vector<std::pair<double, double>> by_depth;  // (dist, R)
  for (std::size_t i = 0; i < mol.size(); ++i) {
    by_depth.push_back({geom::distance(mol.atom(i).position, c),
                        res.radii[i]});
  }
  std::sort(by_depth.begin(), by_depth.end());
  const std::size_t k = mol.size() / 10;
  double inner = 0.0, outer = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    inner += by_depth[i].second;
    outer += by_depth[by_depth.size() - 1 - i].second;
  }
  EXPECT_GT(inner / k, 1.3 * outer / k);
}

struct OctreeBornCase {
  std::size_t atoms;
  double eps;
  double tolerance;  // max mean relative radius error vs naive
};

class OctreeBornAccuracy : public ::testing::TestWithParam<OctreeBornCase> {};

TEST_P(OctreeBornAccuracy, MatchesNaiveWithinTolerance) {
  const auto& tc = GetParam();
  const auto mol = molecule::generate_protein(tc.atoms, 41);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  ApproxParams params;
  params.eps_born = tc.eps;

  const auto naive = born_radii_naive_r6(mol, surf);
  const auto oct = born_radii_octree(trees, mol, surf, params);
  ASSERT_EQ(oct.radii.size(), naive.radii.size());
  double total_rel = 0.0;
  for (std::size_t i = 0; i < mol.size(); ++i) {
    total_rel += std::abs(oct.radii[i] - naive.radii[i]) / naive.radii[i];
  }
  EXPECT_LT(total_rel / static_cast<double>(mol.size()), tc.tolerance)
      << "eps=" << tc.eps;
}

INSTANTIATE_TEST_SUITE_P(
    EpsSweep, OctreeBornAccuracy,
    ::testing::Values(OctreeBornCase{600, 0.1, 0.002},
                      OctreeBornCase{600, 0.5, 0.01},
                      OctreeBornCase{600, 0.9, 0.02},
                      OctreeBornCase{2000, 0.9, 0.02}));

TEST(OctreeBornTest, ErrorShrinksWithEps) {
  const auto mol = molecule::generate_protein(1000, 55);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  const auto naive = born_radii_naive_r6(mol, surf);

  auto mean_err = [&](double eps) {
    ApproxParams params;
    params.eps_born = eps;
    const auto oct = born_radii_octree(trees, mol, surf, params);
    double total = 0.0;
    for (std::size_t i = 0; i < mol.size(); ++i) {
      total += std::abs(oct.radii[i] - naive.radii[i]) / naive.radii[i];
    }
    return total / static_cast<double>(mol.size());
  };
  const double e01 = mean_err(0.1);
  const double e09 = mean_err(0.9);
  EXPECT_LE(e01, e09 + 1e-12);
  EXPECT_LT(e01, 0.005);
}

TEST(OctreeBornTest, DualTreeAgreesWithSingleTree) {
  const auto mol = molecule::generate_protein(1200, 77);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  ApproxParams params;
  params.eps_born = 0.5;
  const auto single = born_radii_octree(trees, mol, surf, params);
  const auto dual = born_radii_dualtree(trees, mol, surf, params);
  // Different traversals, same approximation class: radii agree to well
  // within the eps-controlled tolerance.
  for (std::size_t i = 0; i < mol.size(); ++i) {
    EXPECT_NEAR(dual.radii[i], single.radii[i], 0.02 * single.radii[i]);
  }
}

TEST(OctreeBornTest, ParallelMatchesSerialExactly) {
  // Owner-computes deposits: every accumulator slot sees the serial
  // q-leaf order, so pooled radii equal the serial bits.
  const auto mol = molecule::generate_protein(1500, 88);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  ApproxParams params;
  const auto serial = born_radii_octree(trees, mol, surf, params);
  const auto serial_r4 = born_radii_octree_r4(trees, mol, surf, params);
  parallel::WorkStealingPool pool(4);
  const auto par = born_radii_octree(trees, mol, surf, params, &pool);
  const auto par_r4 = born_radii_octree_r4(trees, mol, surf, params, &pool);
  for (std::size_t i = 0; i < mol.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(par.radii[i]),
              std::bit_cast<std::uint64_t>(serial.radii[i]))
        << "atom " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(par_r4.radii[i]),
              std::bit_cast<std::uint64_t>(serial_r4.radii[i]))
        << "atom " << i;
  }
}

TEST(OctreeBornTest, DualTreeBitIdenticalAcrossWorkerCounts) {
  const auto mol = molecule::generate_protein(1500, 89);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  ApproxParams params;
  const auto serial = born_radii_dualtree(trees, mol, surf, params);
  for (const int workers : {1, 2, 4, 8}) {
    parallel::WorkStealingPool pool(workers);
    const auto par = born_radii_dualtree(trees, mol, surf, params, &pool);
    ASSERT_EQ(par.radii.size(), serial.radii.size());
    for (std::size_t i = 0; i < mol.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(par.radii[i]),
                std::bit_cast<std::uint64_t>(serial.radii[i]))
          << "workers=" << workers << " atom " << i;
    }
  }
}

TEST(OctreeBornTest, SlotOwnersPartitionNodesAndAtoms) {
  for (const std::size_t atoms : {1u, 40u, 2000u}) {
    const auto mol = molecule::generate_protein(atoms, 5);
    const octree::Octree tree(mol.positions());
    const std::vector<SlotOwner> owners = slot_owners(tree);
    ASSERT_FALSE(owners.empty());
    std::vector<int> node_owners(tree.num_nodes(), 0);
    std::vector<int> atom_owners(tree.num_points(), 0);
    for (const SlotOwner& o : owners) {
      if (o.cut != 0) {
        ASSERT_EQ(o.root, tree.root_index()) << "top owner walks from root";
        for (std::size_t n = 0; n < tree.num_nodes(); ++n) {
          if (o.visits(tree.node(n))) ++node_owners[n];
        }
        continue;
      }
      std::vector<std::uint32_t> stack{o.root};
      while (!stack.empty()) {
        const octree::Node& node = tree.node(stack.back());
        ++node_owners[stack.back()];
        stack.pop_back();
        if (node.leaf) {
          for (std::uint32_t i = node.begin; i < node.end; ++i) {
            ++atom_owners[i];
          }
        }
        for (const auto c : node.children) stack.push_back(c);
      }
    }
    // Leaves above the cut hold atoms too: they are subtree owners.
    for (std::size_t n = 0; n < tree.num_nodes(); ++n) {
      EXPECT_EQ(node_owners[n], 1) << atoms << " atoms, node " << n;
    }
    for (std::size_t i = 0; i < tree.num_points(); ++i) {
      EXPECT_EQ(atom_owners[i], 1) << atoms << " atoms, point " << i;
    }
  }
}

TEST(OctreeBornTest, SegmentedPushCoversExactlyItsRange) {
  // The distributed driver computes radii for disjoint atom segments on
  // different ranks. Verify segments tile the result.
  const auto mol = molecule::generate_protein(700, 99);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  ApproxParams params;
  BornWorkspace ws(trees);
  approx_integrals(trees, mol, surf, 0, trees.qpoints.num_leaves(), params,
                   ws);

  std::vector<double> full(mol.size(), -1.0);
  push_integrals_to_atoms(trees, mol, ws, 0, mol.size(), params, full);

  std::vector<double> pieced(mol.size(), -1.0);
  const std::size_t third = mol.size() / 3;
  push_integrals_to_atoms(trees, mol, ws, 0, third, params, pieced);
  push_integrals_to_atoms(trees, mol, ws, third, 2 * third, params, pieced);
  push_integrals_to_atoms(trees, mol, ws, 2 * third, mol.size(), params,
                          pieced);
  for (std::size_t i = 0; i < mol.size(); ++i) {
    EXPECT_DOUBLE_EQ(pieced[i], full[i]) << i;
  }
}

TEST(OctreeBornTest, SegmentedIntegralsMergeLikeAllreduce) {
  // Figure 4 steps 2-3: q-leaf segments computed on different "ranks"
  // and merged by summing workspaces must equal the all-at-once run.
  const auto mol = molecule::generate_protein(600, 13);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  ApproxParams params;

  BornWorkspace all(trees);
  approx_integrals(trees, mol, surf, 0, trees.qpoints.num_leaves(), params,
                   all);

  const std::size_t nleaves = trees.qpoints.num_leaves();
  const std::size_t half = nleaves / 2;
  BornWorkspace w0(trees), w1(trees);
  approx_integrals(trees, mol, surf, 0, half, params, w0);
  approx_integrals(trees, mol, surf, half, nleaves, params, w1);
  for (std::size_t i = 0; i < all.node_s.size(); ++i) {
    EXPECT_NEAR(w0.node_s[i] + w1.node_s[i], all.node_s[i],
                1e-12 + 1e-9 * std::abs(all.node_s[i]));
  }
  for (std::size_t i = 0; i < all.atom_s.size(); ++i) {
    EXPECT_NEAR(w0.atom_s[i] + w1.atom_s[i], all.atom_s[i],
                1e-12 + 1e-9 * std::abs(all.atom_s[i]));
  }
}

TEST(OctreeBornTest, InvalidEpsilonThrows) {
  const auto mol = molecule::generate_ligand(20, 1);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  ApproxParams params;
  params.eps_born = 0.0;
  BornWorkspace ws(trees);
  EXPECT_THROW(approx_integrals(trees, mol, surf, 0, 1, params, ws),
               std::invalid_argument);
}

TEST(OctreeBornTest, R4PathMatchesNaiveR4) {
  const auto mol = molecule::generate_protein(700, 47);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  const auto naive = born_radii_naive_r4(mol, surf);
  ApproxParams params;
  params.eps_born = 0.3;
  const auto oct = born_radii_octree_r4(trees, mol, surf, params);
  double total_rel = 0.0;
  for (std::size_t i = 0; i < mol.size(); ++i) {
    total_rel += std::abs(oct.radii[i] - naive.radii[i]) / naive.radii[i];
  }
  EXPECT_LT(total_rel / static_cast<double>(mol.size()), 0.01);
}

TEST(OctreeBornTest, R4AndR6GiveDifferentButCorrelatedRadii) {
  // Eq. 3 (Coulomb-field) vs Eq. 4 (r^6): r^6 gives systematically
  // different (typically smaller for buried atoms) radii, but the two
  // orderings agree -- they measure the same burial.
  const auto mol = molecule::generate_protein(600, 53);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  ApproxParams params;
  const auto r6 = born_radii_octree(trees, mol, surf, params);
  const auto r4 = born_radii_octree_r4(trees, mol, surf, params);
  double mean6 = 0.0, mean4 = 0.0;
  for (std::size_t i = 0; i < mol.size(); ++i) {
    mean6 += r6.radii[i];
    mean4 += r4.radii[i];
  }
  mean6 /= static_cast<double>(mol.size());
  mean4 /= static_cast<double>(mol.size());
  double cov = 0.0;
  for (std::size_t i = 0; i < mol.size(); ++i) {
    cov += (r6.radii[i] - mean6) * (r4.radii[i] - mean4);
  }
  EXPECT_GT(cov, 0.0);  // positively correlated
  EXPECT_GT(std::abs(mean6 - mean4), 1e-3);  // but not the same model
}

TEST(OctreeBornTest, StrictCriterionIsMoreAccurateAndDoesLessPruning) {
  const auto mol = molecule::generate_protein(1500, 59);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  const auto naive = born_radii_naive_r6(mol, surf);
  auto mean_err = [&](bool strict) {
    ApproxParams params;
    params.strict_born_criterion = strict;
    const auto oct = born_radii_octree(trees, mol, surf, params);
    double total = 0.0;
    for (std::size_t i = 0; i < mol.size(); ++i) {
      total += std::abs(oct.radii[i] - naive.radii[i]) / naive.radii[i];
    }
    return total / static_cast<double>(mol.size());
  };
  EXPECT_LE(mean_err(true), mean_err(false) + 1e-12);
  EXPECT_LT(mean_err(true), 1e-6);  // ~19x separation: essentially exact
}

TEST(OctreeBornTest, QNodeAggregatesSumChildren) {
  const auto mol = molecule::generate_protein(400, 3);
  const auto surf = surface::build_surface(mol);
  const auto trees = build_born_octrees(mol, surf);
  // Root aggregate equals the sum over all q-points.
  geom::Vec3 expected;
  for (std::size_t q = 0; q < surf.size(); ++q) {
    expected += surf.normals[q] * surf.weights[q];
  }
  const geom::Vec3 root = trees.q_weighted_normal[0];
  EXPECT_NEAR(root.x, expected.x, 1e-9 * (1.0 + std::abs(expected.x)));
  EXPECT_NEAR(root.y, expected.y, 1e-9 * (1.0 + std::abs(expected.y)));
  EXPECT_NEAR(root.z, expected.z, 1e-9 * (1.0 + std::abs(expected.z)));
}

}  // namespace
}  // namespace octgb::gb
