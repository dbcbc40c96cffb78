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
// or one contiguous range of E_pol target leaves. The builder copies
// each bucket to its prefix-summed offset in the plan, so the plan does
// not depend on the pool.
struct LocalLists {
  std::vector<NodePair> born_near;
  std::vector<NodePair> born_far;
  std::vector<NodePair> epol_near;
  std::vector<std::uint8_t> epol_near_weight;
  std::vector<NodePair> epol_far;
};

// Splits a list into chunks of roughly equal estimated cost, cutting
// only at the bucket starts in `groups` (ascending, 0 first, the list
// size last), so no bucket is ever split between chunks. Greedy forward
// scan: close the current chunk at the first bucket end where it holds
// >= total/target cost. Costs are sums of small integers, exact in
// double, so per-bucket sums cut exactly where a per-item scan would.
std::vector<std::uint32_t> make_chunks(const std::vector<std::uint32_t>& groups,
                                       const std::vector<double>& group_cost,
                                       std::size_t target_chunks) {
  std::vector<std::uint32_t> offsets{0};
  const std::uint32_t size = groups.back();
  if (size == 0) return offsets;
  double total = 0.0;
  for (const double c : group_cost) total += c;
  const double per_chunk =
      total / static_cast<double>(std::max<std::size_t>(1, target_chunks));
  double acc = 0.0;
  for (std::size_t g = 0; g + 1 < groups.size(); ++g) {
    acc += group_cost[g];
    if (acc >= per_chunk && groups[g + 1] < size) {
      offsets.push_back(groups[g + 1]);
      acc = 0.0;
    }
  }
  offsets.push_back(size);
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
         epol_near_weight.capacity() * sizeof(std::uint8_t) +
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
  // executor can keep per-leaf accumulators in a flat array, and the
  // weight the fused walk gives the pair (a dropped mirror is not
  // recorded). Each task also sums the estimated kernel cost of its
  // bucket of each list: a near pair costs the product of its point
  // counts, a far deposit one kernel call, and a bin-bin block a handful
  // of non-empty bin combinations (the bins do not exist yet -- the plan
  // is Born-radius independent -- so a flat estimate stands in).
  constexpr double kFarBinCost = 8.0;
  const auto count_of = [](const octree::Octree& t, std::uint32_t n) {
    return static_cast<double>(t.node(n).count());
  };
  std::vector<LocalLists> buckets(num_tasks);
  std::vector<double> born_near_cost(num_tasks, 0.0);
  std::vector<double> born_far_cost(num_tasks, 0.0);
  std::vector<double> epol_near_cost(num_tasks, 0.0);
  std::vector<double> epol_far_cost(num_tasks, 0.0);
  const auto task = [&](std::size_t t) {
    LocalLists& out = buckets[t];
    if (t < owners.size()) {
      double cost = 0.0;
      for (const std::uint32_t q : q_leaves) {
        walk_born(
            trees.atoms, trees.qpoints.node(q), born_far,
            [&](std::uint32_t a, double) { out.born_far.push_back({a, q}); },
            [&](std::uint32_t a) {
              out.born_near.push_back({a, q});
              cost += count_of(trees.atoms, a) * count_of(trees.qpoints, q);
            },
            owners[t]);
      }
      born_near_cost[t] = cost;
      born_far_cost[t] = static_cast<double>(out.born_far.size());
      return;
    }
    const std::size_t r = t - owners.size();
    double cost = 0.0;
    for (std::size_t v = na * r / epol_ranges;
         v < na * (r + 1) / epol_ranges; ++v) {
      const std::uint32_t v_leaf = a_leaves[v];
      const octree::Node& v_node = trees.atoms.node(v_leaf);
      const auto vi = static_cast<std::uint32_t>(v);
      walk_epol(
          trees.atoms, v_node.center, v_node.radius, epol_far,
          [&](std::uint32_t u) {
            const int w = epol_near_weight(trees.atoms, u, v_leaf, epol_far);
            if (w == 0) return;
            out.epol_near.push_back({vi, u});
            out.epol_near_weight.push_back(static_cast<std::uint8_t>(w));
            cost += count_of(trees.atoms, v_leaf) * count_of(trees.atoms, u);
          },
          [&](std::uint32_t u, double) { out.epol_far.push_back({vi, u}); });
    }
    epol_near_cost[t] = cost;
    epol_far_cost[t] = kFarBinCost * static_cast<double>(out.epol_far.size());
  };
  parallel::for_range(pool, 0, num_tasks, 1,
                      [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t t = lo; t < hi; ++t) task(t);
                      });

  // Bucket boundaries of each list (prefix sums of the bucket sizes):
  // the Born lists come out owner-major (q-leaf order within an owner),
  // the E_pol lists in target-leaf order. They are the only places a
  // list's chunks may be cut, so no slot is written by two chunks.
  const auto offsets_of = [&](std::vector<NodePair> LocalLists::*list) {
    std::vector<std::uint32_t> groups{0};
    groups.reserve(num_tasks + 1);
    for (const LocalLists& b : buckets) {
      groups.push_back(groups.back() +
                       static_cast<std::uint32_t>((b.*list).size()));
    }
    return groups;
  };
  const auto born_near_groups = offsets_of(&LocalLists::born_near);
  const auto born_far_groups = offsets_of(&LocalLists::born_far);
  const auto epol_near_groups = offsets_of(&LocalLists::epol_near);
  const auto epol_far_groups = offsets_of(&LocalLists::epol_far);
  plan.born_near.resize(born_near_groups.back());
  plan.born_far.resize(born_far_groups.back());
  plan.epol_near.resize(epol_near_groups.back());
  plan.epol_near_weight.resize(epol_near_groups.back());
  plan.epol_far.resize(epol_far_groups.back());
  // One copy task per bucket, each writing its own disjoint ranges and
  // releasing the bucket.
  parallel::for_range(
      pool, 0, num_tasks, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t t = lo; t < hi; ++t) {
          LocalLists& b = buckets[t];
          std::copy(b.born_near.begin(), b.born_near.end(),
                    plan.born_near.begin() + born_near_groups[t]);
          std::copy(b.born_far.begin(), b.born_far.end(),
                    plan.born_far.begin() + born_far_groups[t]);
          std::copy(b.epol_near.begin(), b.epol_near.end(),
                    plan.epol_near.begin() + epol_near_groups[t]);
          std::copy(b.epol_near_weight.begin(), b.epol_near_weight.end(),
                    plan.epol_near_weight.begin() + epol_near_groups[t]);
          std::copy(b.epol_far.begin(), b.epol_far.end(),
                    plan.epol_far.begin() + epol_far_groups[t]);
          b = LocalLists{};
        }
      });

  // Cost-balanced chunk tables for the executor, cut only at bucket
  // boundaries, from the per-bucket costs the walks summed.
  constexpr std::size_t kTargetChunks = 64;
  plan.born_near_chunks =
      make_chunks(born_near_groups, born_near_cost, kTargetChunks);
  plan.born_far_chunks =
      make_chunks(born_far_groups, born_far_cost, kTargetChunks);
  plan.epol_near_chunks =
      make_chunks(epol_near_groups, epol_near_cost, kTargetChunks);
  plan.epol_far_chunks =
      make_chunks(epol_far_groups, epol_far_cost, kTargetChunks);

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
