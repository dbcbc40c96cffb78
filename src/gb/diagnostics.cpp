#include "src/gb/diagnostics.h"

#include <algorithm>
#include <cmath>

#include "src/gb/traversal.h"

namespace octgb::gb {

namespace {

// A far box taken at center distance^2 d2, s = r_node + r_target.
void count_far(double s, double d2, TraversalStats& stats) {
  ++stats.far_boxes;
  const double d = std::sqrt(d2);
  if (d > s) {
    stats.max_kernel_spread =
        std::max(stats.max_kernel_spread, (d + s) / (d - s));
  }
}

void count_near(const octree::Node& node, const octree::Node& target,
                TraversalStats& stats) {
  ++stats.exact_blocks;
  stats.exact_pairs += node.count() * target.count();
}

}  // namespace

TraversalStats born_traversal_stats(const BornOctrees& trees,
                                    const ApproxParams& params) {
  TraversalStats stats;
  if (trees.atoms.empty() || trees.qpoints.empty()) return stats;
  stats.naive_pairs =
      trees.atoms.num_points() * trees.qpoints.num_points();
  const BornFarTest far{born_far_factor2(params)};
  for (const auto qleaf : trees.qpoints.leaves()) {
    const octree::Node& q = trees.qpoints.node(qleaf);
    walk_born(
        trees.atoms, q, far,
        [&](std::uint32_t a, double d2) {
          count_far(trees.atoms.node(a).radius + q.radius, d2, stats);
        },
        [&](std::uint32_t a) { count_near(trees.atoms.node(a), q, stats); });
  }
  return stats;
}

TraversalStats epol_traversal_stats(const octree::Octree& atoms_tree,
                                    const ApproxParams& params) {
  TraversalStats stats;
  if (atoms_tree.empty()) return stats;
  stats.naive_pairs = atoms_tree.num_points() * atoms_tree.num_points();
  const EpolFarTest far{1.0 + 2.0 / params.eps_epol};
  for (const auto vleaf : atoms_tree.leaves()) {
    const octree::Node& v = atoms_tree.node(vleaf);
    walk_epol(
        atoms_tree, v.center, v.radius, far,
        [&](std::uint32_t u) { count_near(atoms_tree.node(u), v, stats); },
        [&](std::uint32_t u, double d2) {
          count_far(atoms_tree.node(u).radius + v.radius, d2, stats);
        });
  }
  return stats;
}

}  // namespace octgb::gb
