#include "src/gb/born.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "src/analysis/contracts.h"
#include "src/gb/kernel_primitives.h"
#include "src/gb/traversal.h"
#include "src/util/fastmath.h"
#if defined(OCTGB_VALIDATE_BUILD)
#include "src/analysis/validate.h"
#endif

namespace octgb::gb {

namespace {

constexpr double kFourPi = 4.0 * std::numbers::pi;

// The inputs of one APPROX-INTEGRALS run: T_A over `mol`, and T_Q over
// `surf` with its ñ_Q aggregates. Docking pairs trees of two molecules.
struct IntegralInputs {
  const octree::Octree& atoms;
  const molecule::Molecule& mol;
  const octree::Octree& qpoints;
  std::span<const geom::Vec3> q_normals;
  const surface::QuadratureSurface& surf;
};

// Exact kernel contributions of q-leaf `q_leaf` to every atom of atom
// leaf `a_leaf`.
template <int Power>
void exact_leaf_pair(const IntegralInputs& in, std::uint32_t a_leaf,
                     std::uint32_t q_leaf, BornWorkspace& ws) {
  const octree::Node& a_node = in.atoms.node(a_leaf);
  const octree::Node& q_node = in.qpoints.node(q_leaf);
  const auto a_index = in.atoms.point_index();
  const auto q_index = in.qpoints.point_index();
  const auto positions = in.mol.positions();
  for (std::uint32_t ai = a_node.begin; ai < a_node.end; ++ai) {
    const std::uint32_t a = a_index[ai];
    const geom::Vec3 x = positions[a];
    double acc = 0.0;
    for (std::uint32_t qi = q_node.begin; qi < q_node.end; ++qi) {
      const std::uint32_t q = q_index[qi];
      acc += born_term<Power>(in.surf.points[q], in.surf.normals[q],
                              in.surf.weights[q], x);
    }
    ws.atom_s[a] += acc;
  }
}

// Far-field monopole deposit of q-node `q` into atom-node `a`'s
// accumulator; d2 is their squared center distance.
template <int Power>
void far_deposit(const octree::Octree& atoms, const octree::Octree& qpoints,
                 std::span<const geom::Vec3> q_normals, std::uint32_t a,
                 std::uint32_t q, double d2, BornWorkspace& ws) {
  const geom::Vec3 diff = qpoints.node(q).center - atoms.node(a).center;
  ws.node_s[a] += q_normals[q].dot(diff) * inv_pow<Power>(d2);
}

// APPROX-INTEGRALS (Figure 2) for the q-leaves [qleaf_begin, qleaf_end)
// of in.qpoints: one task per slot owner of in.atoms, each replaying the
// q-leaves in order with one walk_born per leaf, so the bits do not
// depend on the pool.
template <int Power>
void integrals(const IntegralInputs& in, std::size_t qleaf_begin,
               std::size_t qleaf_end, const ApproxParams& params,
               BornWorkspace& ws, parallel::WorkStealingPool* pool) {
  if (in.atoms.empty() || in.qpoints.empty()) return;
  const BornFarTest far{born_far_factor2(params)};
  const auto leaves = in.qpoints.leaves();
  qleaf_end = std::min(qleaf_end, leaves.size());
  if (qleaf_begin >= qleaf_end) return;

  const std::vector<SlotOwner> owners = slot_owners(in.atoms);
  parallel::for_range(
      pool, 0, owners.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t o = lo; o < hi; ++o) {
          for (std::size_t i = qleaf_begin; i < qleaf_end; ++i) {
            const std::uint32_t q = leaves[i];
            walk_born(
                in.atoms, in.qpoints.node(q), far,
                [&](std::uint32_t a, double d2) {
                  far_deposit<Power>(in.atoms, in.qpoints, in.q_normals, a,
                                     q, d2, ws);
                },
                [&](std::uint32_t a) {
                  exact_leaf_pair<Power>(in, a, q, ws);
                },
                owners[o]);
          }
        }
      });
}

IntegralInputs inputs_of(const BornOctrees& trees,
                         const molecule::Molecule& mol,
                         const surface::QuadratureSurface& surf) {
  return {trees.atoms, mol, trees.qpoints, trees.q_weighted_normal, surf};
}

// Top-down sweep over the atoms of sorted positions [begin, end):
// leaf(a, sum) with sum = atom_s[a] + the node_s of a's ancestors,
// accumulated root first. Subtrees above 4096 atoms fork with a pool.
template <typename Leaf>
void sweep_integrals(const octree::Octree& atoms, const BornWorkspace& ws,
                     std::uint32_t a_idx, double prefix, std::size_t begin,
                     std::size_t end, const Leaf& leaf,
                     parallel::WorkStealingPool* pool) {
  const octree::Node& node = atoms.node(a_idx);
  if (node.end <= begin || node.begin >= end) return;  // outside segment
  const double total = prefix + ws.node_s[a_idx];
  if (node.leaf) {
    const auto a_index = atoms.point_index();
    const auto lo = std::max<std::size_t>(node.begin, begin);
    const auto hi = std::min<std::size_t>(node.end, end);
    for (std::size_t ai = lo; ai < hi; ++ai) {
      const std::uint32_t a = a_index[ai];
      leaf(a, ws.atom_s[a] + total);
    }
    return;
  }
  if (pool != nullptr && node.count() > 4096) {
    parallel::TaskGroup tg(*pool);
    for (const auto child : node.children) {
      tg.spawn([&, child] {
        sweep_integrals(atoms, ws, child, total, begin, end, leaf, pool);
      });
    }
    tg.wait();
  } else {
    for (const auto child : node.children) {
      sweep_integrals(atoms, ws, child, total, begin, end, leaf, nullptr);
    }
  }
}

// The Born radius map: R = max(r, (s / 4pi)^(-1/3)) for r^6 (Eq. 4),
// R = max(r, 4pi / s) for r^4 (Eq. 3).
template <typename Math, int Power>
void push_radii(const BornOctrees& trees, const molecule::Molecule& mol,
                const BornWorkspace& ws, std::size_t begin, std::size_t end,
                std::span<double> out, parallel::WorkStealingPool* pool) {
  const auto radii = mol.radii();
  const auto leaf = [&](std::uint32_t a, double sum) {
    const double s = sum / kFourPi;
    double r_eff;
    if constexpr (Power == 4) {
      r_eff = s > 0.0 ? 1.0 / s : radii[a];  // Eq. 3: 1/R = s/4pi
    } else {
      r_eff = s > 0.0 ? Math::invcbrt(s) : radii[a];  // Eq. 4
    }
    out[a] = std::max(radii[a], r_eff);
  };
  sweep_integrals(trees.atoms, ws, trees.atoms.root_index(), 0.0, begin, end,
                  leaf, pool);
}

// PUSH-INTEGRALS-TO-ATOMS with the r^Power radius map.
template <int Power>
void push_integrals(const BornOctrees& trees, const molecule::Molecule& mol,
                    const BornWorkspace& ws, std::size_t atom_begin,
                    std::size_t atom_end, const ApproxParams& params,
                    std::span<double> out_radii,
                    parallel::WorkStealingPool* pool) {
  if (trees.atoms.empty()) return;
  atom_end = std::min(atom_end, trees.atoms.num_points());
  if (atom_begin >= atom_end) return;
  auto launch = [&](parallel::WorkStealingPool* p) {
    if (params.approx_math) {
      push_radii<util::ApproxMath, Power>(trees, mol, ws, atom_begin,
                                          atom_end, out_radii, p);
    } else {
      push_radii<util::ExactMath, Power>(trees, mol, ws, atom_begin,
                                         atom_end, out_radii, p);
    }
  };
  if (pool != nullptr) {
    pool->run([&] { launch(pool); });
  } else {
    launch(nullptr);
  }

#if defined(OCTGB_VALIDATE_BUILD)
  if (analysis::test_corruption("born_sign")) {
    // Mutation self-test hook (scripts/ci.sh --validate-only): flip the
    // sign of one computed radius so the checkpoint below must fire.
    out_radii[trees.atoms.point_index()[atom_begin]] *= -1.0;
  }
  if (atom_begin == 0 && atom_end == mol.size()) {
    // Segment calls (distributed ranks) leave the rest of out_radii
    // untouched, so only full-range pushes can be deep-checked.
    OCTGB_VALIDATE_CHECKPOINT(
        analysis::validate_born_radii(mol.radii(), out_radii),
        "PUSH-INTEGRALS radii");
  }
#endif
}

// Single-tree Born radii with the r^Power kernel: all q-leaves, all atoms.
template <int Power>
BornRadiiResult born_radii_single_tree(const BornOctrees& trees,
                                       const molecule::Molecule& mol,
                                       const surface::QuadratureSurface& surf,
                                       const ApproxParams& params,
                                       parallel::WorkStealingPool* pool) {
  BornWorkspace ws(trees);
  integrals<Power>(inputs_of(trees, mol, surf), 0,
                   trees.qpoints.num_leaves(), params, ws, pool);
  BornRadiiResult out;
  out.radii.assign(mol.size(), 0.0);
  push_integrals<Power>(trees, mol, ws, 0, mol.size(), params, out.radii,
                        pool);
  return out;
}

}  // namespace

double born_far_factor2(const ApproxParams& params) {
  const double eps = params.eps_born;
  if (eps <= 0.0) {
    throw std::invalid_argument("ApproxParams: eps must be > 0");
  }
  double f;
  if (params.strict_born_criterion) {
    // lint:allow(sqrt-domain) eps > 0 was just validated above
    const double k = std::pow(1.0 + eps, 1.0 / 6.0);
    f = (k + 1.0) / (k - 1.0);
  } else {
    f = 1.0 + 2.0 / eps;
  }
  return f * f;
}

void born_exact_leaf_pair(const BornOctrees& trees,
                          const molecule::Molecule& mol,
                          const surface::QuadratureSurface& surf,
                          std::uint32_t a_leaf, std::uint32_t q_leaf,
                          BornWorkspace& ws) {
  exact_leaf_pair<6>(inputs_of(trees, mol, surf), a_leaf, q_leaf, ws);
}

void born_far_deposit(const BornOctrees& trees, std::uint32_t a_node,
                      std::uint32_t q_leaf, BornWorkspace& ws) {
  // Recomputes the same distance expression the walk classified with,
  // so the deposited value is identical to the fused path's.
  const double d2 = geom::distance2(trees.atoms.node(a_node).center,
                                    trees.qpoints.node(q_leaf).center);
  far_deposit<6>(trees.atoms, trees.qpoints, trees.q_weighted_normal, a_node,
                 q_leaf, d2, ws);
}

std::vector<geom::Vec3> q_weighted_normals(
    const octree::Octree& q_tree, const surface::QuadratureSurface& surf,
    parallel::WorkStealingPool* pool) {
  // Bottom-up, a level at a time (deep to shallow), so every child sum
  // is complete before its parent reads it. Within a level nodes are
  // independent; each node sums its own inputs in a fixed order, so
  // parallel and serial sweeps agree bit for bit.
  std::vector<geom::Vec3> out(q_tree.num_nodes(), geom::Vec3{});
  const auto q_index = q_tree.point_index();
  auto sweep = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const octree::Node& node = q_tree.node(i);
      geom::Vec3 sum;
      if (node.leaf) {
        for (std::uint32_t qi = node.begin; qi < node.end; ++qi) {
          const std::uint32_t q = q_index[qi];
          sum += surf.normals[q] * surf.weights[q];
        }
      } else {
        for (const auto child : node.children) sum += out[child];
      }
      out[i] = sum;
    }
  };
  const auto level_offset = q_tree.level_offset();
  for (std::size_t level = level_offset.size(); level-- > 1;) {
    const std::size_t lo = level_offset[level - 1];
    const std::size_t hi = level_offset[level];
    if (pool != nullptr && pool->num_workers() > 1 && hi - lo > 128) {
      pool->run(
          [&] { parallel::parallel_for(*pool, lo, hi, 64, sweep); });
    } else {
      sweep(lo, hi);
    }
  }
  return out;
}

BornOctrees build_born_octrees(const molecule::Molecule& mol,
                               const surface::QuadratureSurface& surf,
                               const octree::OctreeParams& params,
                               parallel::WorkStealingPool* pool) {
  BornOctrees trees;
  trees.atoms = octree::Octree(mol.positions(), params, pool);
  trees.qpoints = octree::Octree(surf.points, params, pool);
  trees.q_weighted_normal = q_weighted_normals(trees.qpoints, surf, pool);
  return trees;
}

void approx_integrals(const BornOctrees& trees,
                      const molecule::Molecule& mol,
                      const surface::QuadratureSurface& surf,
                      std::size_t qleaf_begin, std::size_t qleaf_end,
                      const ApproxParams& params, BornWorkspace& ws,
                      parallel::WorkStealingPool* pool) {
  integrals<6>(inputs_of(trees, mol, surf), qleaf_begin, qleaf_end, params,
               ws, pool);
}

void push_integrals_to_atoms(const BornOctrees& trees,
                             const molecule::Molecule& mol,
                             const BornWorkspace& ws,
                             std::size_t atom_begin, std::size_t atom_end,
                             const ApproxParams& params,
                             std::span<double> out_radii,
                             parallel::WorkStealingPool* pool) {
  push_integrals<6>(trees, mol, ws, atom_begin, atom_end, params, out_radii,
                    pool);
}

void approx_integrals_cross(const octree::Octree& atoms_tree,
                            const molecule::Molecule& atoms_mol,
                            const octree::Octree& q_tree,
                            std::span<const geom::Vec3> q_node_normals,
                            const surface::QuadratureSurface& surf,
                            const ApproxParams& params, BornWorkspace& ws,
                            parallel::WorkStealingPool* pool) {
  integrals<6>({atoms_tree, atoms_mol, q_tree, q_node_normals, surf}, 0,
               q_tree.num_leaves(), params, ws, pool);
}

void collect_integrals_to_atoms(const octree::Octree& atoms_tree,
                                const BornWorkspace& ws,
                                std::span<double> out_sums) {
  if (atoms_tree.empty()) return;
  sweep_integrals(
      atoms_tree, ws, atoms_tree.root_index(), 0.0, 0,
      atoms_tree.num_points(),
      [&](std::uint32_t a, double sum) { out_sums[a] = sum; }, nullptr);
}

BornRadiiResult born_radii_octree(const BornOctrees& trees,
                                  const molecule::Molecule& mol,
                                  const surface::QuadratureSurface& surf,
                                  const ApproxParams& params,
                                  parallel::WorkStealingPool* pool) {
  return born_radii_single_tree<6>(trees, mol, surf, params, pool);
}

BornRadiiResult born_radii_octree_r4(const BornOctrees& trees,
                                     const molecule::Molecule& mol,
                                     const surface::QuadratureSurface& surf,
                                     const ApproxParams& params,
                                     parallel::WorkStealingPool* pool) {
  return born_radii_single_tree<4>(trees, mol, surf, params, pool);
}

BornRadiiResult born_radii_dualtree(const BornOctrees& trees,
                                    const molecule::Molecule& mol,
                                    const surface::QuadratureSurface& surf,
                                    const ApproxParams& params,
                                    parallel::WorkStealingPool* pool) {
  BornWorkspace ws(trees);
  if (!trees.atoms.empty() && !trees.qpoints.empty()) {
    // Owner-computes: one serial walk_dual per subtree owner against the
    // T_Q root. The subtrees partition the atoms, so every atom/q-point
    // pair is covered once, and each owner's slots see one fixed order
    // at any worker count. The top owner's nodes take no deposits here.
    const IntegralInputs in = inputs_of(trees, mol, surf);
    const BornFarTest far{born_far_factor2(params)};
    const std::vector<SlotOwner> owners = slot_owners(trees.atoms);
    parallel::for_range(
        pool, 0, owners.size(), 1, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t o = lo; o < hi; ++o) {
            if (owners[o].cut != 0) continue;  // the top owner
            walk_dual(
                trees.atoms, trees.qpoints, far,
                [&](std::uint32_t a, std::uint32_t q, double d2) {
                  far_deposit<6>(trees.atoms, trees.qpoints,
                                 trees.q_weighted_normal, a, q, d2, ws);
                  return 0.0;
                },
                [&](std::uint32_t a, std::uint32_t q) {
                  exact_leaf_pair<6>(in, a, q, ws);
                  return 0.0;
                },
                nullptr, owners[o].root);
          }
        });
  }
  BornRadiiResult out;
  out.radii.assign(mol.size(), 0.0);
  push_integrals_to_atoms(trees, mol, ws, 0, mol.size(), params, out.radii,
                          pool);
  return out;
}

}  // namespace octgb::gb
