#include "src/gb/interaction_lists.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "src/analysis/contracts.h"
#include "src/gb/traversal.h"
#include "src/telemetry/telemetry.h"
#if defined(OCTGB_VALIDATE_BUILD)
#include "src/analysis/validate.h"
#endif

namespace octgb::gb {

namespace {

// Work items produced by one builder task: one slot owner's Born pairs,
// or one contiguous range of E_pol target leaves. The builder fills one
// of these per task and concatenates them in task order, so the plan
// does not depend on the pool.
struct LocalLists {
  std::vector<NodePair> born_near;
  std::vector<NodePair> born_far;
  std::vector<NodePair> epol_near;
  std::vector<NodePair> epol_far;
};

// Splits `items` into chunks of roughly equal estimated cost, cutting
// only at the group starts in `groups` (ascending, 0 first, items.size()
// last), so no group is ever split between chunks. Greedy forward scan:
// close the current chunk at the first group end where it holds >=
// total/target cost.
template <typename CostFn>
std::vector<std::uint32_t> make_chunks(const std::vector<NodePair>& items,
                                       const std::vector<std::uint32_t>& groups,
                                       std::size_t target_chunks,
                                       CostFn&& cost) {
  std::vector<std::uint32_t> offsets{0};
  if (items.empty()) {
    return offsets;
  }
  double total = 0.0;
  for (const NodePair& item : items) total += cost(item);
  const double per_chunk =
      total / static_cast<double>(std::max<std::size_t>(1, target_chunks));
  double acc = 0.0;
  for (std::size_t g = 0; g + 1 < groups.size(); ++g) {
    for (std::uint32_t i = groups[g]; i < groups[g + 1]; ++i) {
      acc += cost(items[i]);
    }
    if (acc >= per_chunk && groups[g + 1] < items.size()) {
      offsets.push_back(groups[g + 1]);
      acc = 0.0;
    }
  }
  offsets.push_back(static_cast<std::uint32_t>(items.size()));
  return offsets;
}

}  // namespace

std::size_t InteractionPlan::memory_bytes() const {
  const auto pair_bytes = [](const std::vector<NodePair>& v) {
    return v.capacity() * sizeof(NodePair);
  };
  const auto off_bytes = [](const std::vector<std::uint32_t>& v) {
    return v.capacity() * sizeof(std::uint32_t);
  };
  return pair_bytes(born_near) + pair_bytes(born_far) +
         pair_bytes(epol_near) + pair_bytes(epol_far) +
         off_bytes(born_near_chunks) + off_bytes(born_far_chunks) +
         off_bytes(epol_near_chunks) + off_bytes(epol_far_chunks);
}

InteractionPlan build_interaction_plan(const BornOctrees& trees,
                                       const ApproxParams& params,
                                       parallel::WorkStealingPool* pool) {
  OCTGB_TRACE_SCOPE("gb/plan_build");
  if (params.eps_epol <= 0.0) {
    throw std::invalid_argument("ApproxParams: eps must be > 0");
  }
  const BornFarTest born_far{born_far_factor2(params)};  // throws on bad eps
  const EpolFarTest epol_far{1.0 + 2.0 / params.eps_epol};

  InteractionPlan plan;
  const bool have_born = !trees.atoms.empty() && !trees.qpoints.empty();
  const bool have_epol = !trees.atoms.empty();

  const auto q_leaves =
      have_born ? trees.qpoints.leaves() : std::span<const std::uint32_t>{};
  const auto a_leaves =
      have_epol ? trees.atoms.leaves() : std::span<const std::uint32_t>{};

  // One task per Born slot owner (each replays every q-leaf in order),
  // then one per fixed range of E_pol target leaves, as one index space
  // so a single pass load-balances both phases.
  const std::vector<SlotOwner> owners =
      have_born ? slot_owners(trees.atoms) : std::vector<SlotOwner>{};
  constexpr std::size_t kEpolRanges = 256;
  const std::size_t na = a_leaves.size();
  const std::size_t epol_ranges = std::min(na, kEpolRanges);
  const std::size_t num_tasks = owners.size() + epol_ranges;
  if (num_tasks == 0) return plan;

  // The fused evaluators' walks, recording each pair instead of
  // evaluating it. E_pol items record V's ordinal in tree.leaves() so the
  // executor can keep per-leaf accumulators in a flat array.
  std::vector<LocalLists> buckets(num_tasks);
  const auto task = [&](std::size_t t) {
    LocalLists& out = buckets[t];
    if (t < owners.size()) {
      for (const std::uint32_t q : q_leaves) {
        walk_born(
            trees.atoms, trees.qpoints.node(q), born_far,
            [&](std::uint32_t a, double) { out.born_far.push_back({a, q}); },
            [&](std::uint32_t a) { out.born_near.push_back({a, q}); },
            owners[t]);
      }
      return;
    }
    const std::size_t r = t - owners.size();
    for (std::size_t v = na * r / epol_ranges;
         v < na * (r + 1) / epol_ranges; ++v) {
      const octree::Node& v_node = trees.atoms.node(a_leaves[v]);
      const auto vi = static_cast<std::uint32_t>(v);
      walk_epol(
          trees.atoms, v_node.center, v_node.radius, epol_far,
          [&](std::uint32_t u) { out.epol_near.push_back({vi, u}); },
          [&](std::uint32_t u, double) { out.epol_far.push_back({vi, u}); });
    }
  };
  parallel::for_range(pool, 0, num_tasks, 1,
                      [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t t = lo; t < hi; ++t) task(t);
                      });

  // Concatenates one list of every bucket in task order: the Born lists
  // come out owner-major (q-leaf order within an owner), the E_pol lists
  // in target-leaf order. Returns the bucket boundaries, the only places
  // the list's chunks may be cut, so no slot is written by two chunks.
  const auto concat = [&](std::vector<NodePair> LocalLists::*list,
                          std::vector<NodePair>& out) {
    std::size_t total = 0;
    for (const LocalLists& b : buckets) total += (b.*list).size();
    out.reserve(total);
    std::vector<std::uint32_t> groups{0};
    for (const LocalLists& b : buckets) {
      out.insert(out.end(), (b.*list).begin(), (b.*list).end());
      groups.push_back(static_cast<std::uint32_t>(out.size()));
    }
    return groups;
  };
  const auto born_near_groups = concat(&LocalLists::born_near, plan.born_near);
  const auto born_far_groups = concat(&LocalLists::born_far, plan.born_far);
  const auto epol_near_groups = concat(&LocalLists::epol_near, plan.epol_near);
  const auto epol_far_groups = concat(&LocalLists::epol_far, plan.epol_far);

  // Cost-balanced chunk tables for the executor, cut only at bucket
  // boundaries. Near pairs cost the product of their point counts; a
  // far deposit is one kernel call; a bin-bin block touches a handful of
  // non-empty bin combinations (the bins do not exist yet -- the plan is
  // Born-radius independent -- so a flat estimate stands in).
  constexpr std::size_t kTargetChunks = 64;
  constexpr double kFarBinCost = 8.0;
  const auto count_of = [](const octree::Octree& t, std::uint32_t n) {
    return static_cast<double>(t.node(n).count());
  };
  plan.born_near_chunks = make_chunks(
      plan.born_near, born_near_groups, kTargetChunks, [&](const NodePair& p) {
        return count_of(trees.atoms, p.target) *
               count_of(trees.qpoints, p.source);
      });
  plan.born_far_chunks =
      make_chunks(plan.born_far, born_far_groups, kTargetChunks,
                  [](const NodePair&) { return 1.0; });
  plan.epol_near_chunks = make_chunks(
      plan.epol_near, epol_near_groups, kTargetChunks,
      [&](const NodePair& p) {
        return count_of(trees.atoms, a_leaves[p.target]) *
               count_of(trees.atoms, p.source);
      });
  plan.epol_far_chunks =
      make_chunks(plan.epol_far, epol_far_groups, kTargetChunks,
                  [](const NodePair&) { return kFarBinCost; });

#if defined(OCTGB_VALIDATE_BUILD)
  if (analysis::test_corruption("plan_drop") && !plan.born_near.empty()) {
    // Mutation self-test hook (scripts/ci.sh --validate-only): drop one
    // near pair so the coverage proof in the checkpoint below must fire.
    plan.born_near.pop_back();
    if (plan.born_near_chunks.size() >= 2) {
      plan.born_near_chunks.back() =
          static_cast<std::uint32_t>(plan.born_near.size());
    }
  }
#endif
  OCTGB_VALIDATE_CHECKPOINT(analysis::validate_plan(trees, plan, params),
                            "interaction plan");
  return plan;
}

}  // namespace octgb::gb
