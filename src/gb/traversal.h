// traversal.h -- the three octree walks of the GB pipeline.
//
// Every engine that needs to know which node pairs interact walks the
// trees through one of these templates; what happens to each pair is a
// visitor (a lambda, inlined like a hand-written loop):
//
//  * walk_born: APPROX-INTEGRALS (Figure 2). One T_Q leaf against T_A
//    from the root: far test first, then leaf, then the children.
//    Visitors: the fused r^6/r^4 integrals, the docking cross-tree
//    integrals and the interaction-plan builder. A SlotOwner restricts
//    the walk to one owner's share of T_A (see slot_owners).
//  * walk_epol: APPROX-EPOL (Figure 3). One target V, given as a bounding
//    sphere, against T_A from the root: leaf first (leaves are always
//    exact), then the far test, then the children. Visitors: the fused
//    E_pol, the plan builder and the atom-division pseudo-leaves. The
//    fused E_pol and the plan builder weigh each near leaf pair with
//    epol_near_weight, so a pair near in both walks is evaluated once.
//  * walk_dual: the simultaneous two-tree traversal of the prior
//    shared-memory work [Chowdhury & Bajaj 2010] used by OCT_CILK, for
//    both phases.
//
// The walks fix the visit order, and with it the summation order of
// every accumulator a visitor feeds, so all engines that share a walk
// see the pairs in the same sequence.
//
// Owner-computes. A walk_born per q-leaf visits each T_A node at most
// once, so in the serial loop over q-leaves every accumulator slot
// (node_s of a node, atom_s of an atom) receives its deposits in
// q-leaf order. slot_owners() splits T_A's slots among disjoint
// owners; an owner that replays the q-leaves in order, walking only
// its own nodes, reproduces the serial bits of its slots exactly. The
// pooled Born phases run one owner per task, with plain `+=` deposits:
// no atomics, no private buffers, no merge, and the same bits at every
// worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/geom/vec3.h"
#include "src/octree/octree.h"
#include "src/parallel/det_reduce.h"
#include "src/parallel/pool.h"

namespace octgb::gb {

/// Born far test: far iff d^2 > (r_A + r_Q)^2 * factor2, with factor2
/// from born_far_factor2().
struct BornFarTest {
  double factor2;
  bool operator()(double radius_sum, double d2) const {
    return d2 > radius_sum * radius_sum * factor2 && d2 > 0.0;
  }
};

/// E_pol far test: far iff d^2 > ((r_U + r_V) * (1 + 2/eps))^2. The two
/// tests round differently, so each phase keeps its own expression.
struct EpolFarTest {
  double far_mult;
  bool operator()(double radius_sum, double d2) const {
    const double s = radius_sum * far_mult;
    return d2 > s * s && d2 > 0.0;
  }
};

/// One owner of T_A's Born accumulator slots. A subtree owner
/// (cut == 0) holds every node and atom under `root`; the top owner
/// (cut > 0, root = the tree root) holds the internal nodes shallower
/// than the cut. The default owner is the whole tree.
struct SlotOwner {
  std::uint32_t root = 0;
  int cut = 0;

  /// True when node `n` of the owner's walk is the owner's to visit.
  bool visits(const octree::Node& n) const {
    return cut == 0 || (!n.leaf && n.depth < cut);
  }
};

/// The owner-computes split of `atoms`: the top owner first (when the
/// cut is below the root), then one subtree owner per leaf above the
/// cut depth and per node at it, in node order. The cut is the
/// shallowest level holding at least kMinOwners nodes (or the deepest
/// level), so the split depends on the tree alone, never on a worker
/// count. Every node and atom has exactly one owner.
inline std::vector<SlotOwner> slot_owners(const octree::Octree& atoms) {
  constexpr std::uint32_t kMinOwners = 32;
  std::vector<SlotOwner> owners;
  if (atoms.empty()) return owners;
  const auto level = atoms.level_offset();
  int cut = 0;
  while (cut < atoms.height() &&
         level[static_cast<std::size_t>(cut) + 1] -
                 level[static_cast<std::size_t>(cut)] <
             kMinOwners) {
    ++cut;
  }
  if (cut > 0) owners.push_back({atoms.root_index(), cut});
  // Nodes are stored level by level: [0, level[cut + 1]) is every node
  // at or above the cut.
  for (std::uint32_t n = 0; n < level[static_cast<std::size_t>(cut) + 1];
       ++n) {
    const octree::Node& node = atoms.node(n);
    if (node.leaf || node.depth == cut) owners.push_back({n, 0});
  }
  return owners;
}

// Explicit-stack capacity of the single-tree walks: >= 7 * max_depth + 8
// entries. Explicit rather than recursive because leaf tasks run on
// scheduler worker stacks shared with deep spawn trees.
inline constexpr int kWalkStack = 256;

/// Born single-tree walk of T_Q node `q` against `atoms`:
/// on_far(a, d2) for far nodes, on_near(a) for near leaves. With an
/// owner, only the owner's nodes are visited, each exactly when the
/// whole-tree walk visits it: a subtree owner's walk starts at its
/// root once every ancestor tests near (a far ancestor takes the
/// deposit instead), and the top owner stops at the cut.
template <typename OnFar, typename OnNear>
void walk_born(const octree::Octree& atoms, const octree::Node& q,
               BornFarTest far, OnFar&& on_far, OnNear&& on_near,
               const SlotOwner& owner = {}) {
  for (std::uint32_t p = atoms.node(owner.root).parent;
       p != octree::Node::kInvalid; p = atoms.node(p).parent) {
    const octree::Node& anc = atoms.node(p);
    if (far(anc.radius + q.radius, geom::distance2(anc.center, q.center))) {
      return;
    }
  }
  std::uint32_t stack[kWalkStack];
  int top = 0;
  stack[top++] = owner.root;
  while (top > 0) {
    const std::uint32_t a = stack[--top];
    const octree::Node& node = atoms.node(a);
    if (!owner.visits(node)) continue;
    const double d2 = geom::distance2(node.center, q.center);
    if (far(node.radius + q.radius, d2)) {
      on_far(a, d2);
    } else if (node.leaf) {
      on_near(a);
    } else {
      for (const auto child : node.children) stack[top++] = child;
    }
  }
}

/// E_pol single-tree walk of the sphere (v_center, v_radius) against
/// `tree`: on_near(u) for every leaf reached, on_far(u, d2) for far
/// internal nodes.
template <typename OnNear, typename OnFar>
void walk_epol(const octree::Octree& tree, const geom::Vec3& v_center,
               double v_radius, EpolFarTest far, OnNear&& on_near,
               OnFar&& on_far) {
  std::uint32_t stack[kWalkStack];
  int top = 0;
  stack[top++] = tree.root_index();
  while (top > 0) {
    const std::uint32_t u = stack[--top];
    const octree::Node& node = tree.node(u);
    if (node.leaf) {
      on_near(u);
      continue;
    }
    const double d2 = geom::distance2(node.center, v_center);
    if (far(node.radius + v_radius, d2)) {
      on_far(u, d2);
      continue;
    }
    for (const auto child : node.children) stack[top++] = child;
  }
}

/// True when the near pair (source leaf u, target leaf v) of walk_epol
/// is mutual: the walk of u's own sphere reaches leaf v as well, that
/// is, no proper ancestor of v passes `far` against u's sphere. Each
/// test is the one walk_epol makes at that ancestor, expression for
/// expression, so the answer agrees with the walk bit for bit.
inline bool epol_mutual(const octree::Octree& tree, std::uint32_t u,
                        std::uint32_t v, EpolFarTest far) {
  const octree::Node& u_node = tree.node(u);
  for (std::uint32_t p = tree.node(v).parent; p != octree::Node::kInvalid;
       p = tree.node(p).parent) {
    const octree::Node& anc = tree.node(p);
    if (far(anc.radius + u_node.radius,
            geom::distance2(anc.center, u_node.center))) {
      return false;
    }
  }
  return true;
}

/// Weight of the near pair (source leaf u, target leaf v) reached by
/// walk_epol, under the symmetric rule: a mutual pair is evaluated once,
/// weight 2, by the target with the higher leaf ordinal (leaves are in
/// ascending point-range order, so ordinals compare as `begin`), and its
/// mirror gets weight 0 (dropped); a one-way pair keeps weight 1. A
/// diagonal block (u == v) is always symmetric and has weight 2: its
/// kernel sums the upper triangle twice plus the self terms. The plan
/// builder and the fused E_pol walk both decide through this function.
inline int epol_near_weight(const octree::Octree& tree, std::uint32_t u,
                            std::uint32_t v, EpolFarTest far) {
  if (u == v) return 2;
  if (!epol_mutual(tree, u, v, far)) return 1;
  return tree.node(u).begin < tree.node(v).begin ? 2 : 0;
}

/// Dual-tree walk from (root_a, tb's root). A pair is terminal when far
/// (on_far(a, b, d2)) or when both nodes are leaves (on_near(a, b));
/// otherwise the non-leaf side splits, the larger radius when both are
/// internal. Visitors return a term; the walk returns their sum.
///
/// Breadth-first expansion to ~kFrontier pairs (evaluating terminal
/// pairs met on the way), then a depth-first walk per frontier pair as
/// one task each. The expansion does not depend on `pool`, and the
/// per-pair sums reduce in frontier order, so the sum is bit-identical
/// at any worker count, serial included.
template <typename Far, typename OnFar, typename OnNear>
double walk_dual(const octree::Octree& ta, const octree::Octree& tb,
                 Far far, OnFar&& on_far, OnNear&& on_near,
                 parallel::WorkStealingPool* pool,
                 std::uint32_t root_a = 0) {
  constexpr std::size_t kFrontier = 4096;
  using Pair = std::pair<std::uint32_t, std::uint32_t>;

  auto step = [&](Pair pr, auto&& push) -> double {
    const octree::Node& a = ta.node(pr.first);
    const octree::Node& b = tb.node(pr.second);
    const double d2 = geom::distance2(a.center, b.center);
    if (far(a.radius + b.radius, d2)) return on_far(pr.first, pr.second, d2);
    if (a.leaf && b.leaf) return on_near(pr.first, pr.second);
    if (!a.leaf && (b.leaf || a.radius >= b.radius)) {
      for (const auto child : a.children) push(Pair{child, pr.second});
    } else {
      for (const auto child : b.children) push(Pair{pr.first, child});
    }
    return 0.0;
  };

  std::vector<Pair> frontier{{root_a, tb.root_index()}};
  double expanded_sum = 0.0;
  while (!frontier.empty() && frontier.size() < kFrontier) {
    std::vector<Pair> next;
    next.reserve(frontier.size() * 4);
    for (const Pair& pr : frontier) {
      expanded_sum += step(pr, [&](Pair p) { next.push_back(p); });
    }
    frontier = std::move(next);
  }

  const auto subtree = [&](std::size_t i) {
    double sum = 0.0;
    std::vector<Pair> stack{frontier[i]};
    while (!stack.empty()) {
      const Pair pr = stack.back();
      stack.pop_back();
      sum += step(pr, [&](Pair p) { stack.push_back(p); });
    }
    return sum;
  };
  return expanded_sum +
         parallel::run_deterministic_sum(pool, 0, frontier.size(), subtree);
}

}  // namespace octgb::gb
