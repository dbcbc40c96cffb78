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

// Work items produced by one contiguous range of source leaves. The
// parallel builder fills one of these per range and concatenates them in
// range order, so the merged lists are identical to a serial build.
struct LocalLists {
  std::vector<NodePair> born_near;
  std::vector<NodePair> born_far;
  std::vector<NodePair> epol_near;
  std::vector<NodePair> epol_far;
};

// Splits `items` into chunks of roughly equal estimated cost. Greedy
// forward scan: close the current chunk once it holds >= total/target
// cost. Offsets always start at 0 and end at items.size().
template <typename CostFn>
std::vector<std::uint32_t> make_chunks(const std::vector<NodePair>& items,
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
  for (std::size_t i = 0; i < items.size(); ++i) {
    acc += cost(items[i]);
    if (acc >= per_chunk && i + 1 < items.size()) {
      offsets.push_back(static_cast<std::uint32_t>(i + 1));
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

  // Both phases iterate source leaves; process them as one index space
  // [0, nq + na) so a single range partition load-balances both.
  const std::size_t nq = q_leaves.size();
  const std::size_t total_leaves = nq + a_leaves.size();
  if (total_leaves == 0) return plan;

  // The fused evaluators' walks, recording each pair instead of
  // evaluating it. E_pol items record V's ordinal in tree.leaves() so the
  // executor can keep per-leaf accumulators in a flat array.
  auto range_body = [&](std::size_t lo, std::size_t hi, LocalLists& out) {
    for (std::size_t i = lo; i < hi && i < nq; ++i) {
      const std::uint32_t q = q_leaves[i];
      walk_born(
          trees.atoms, trees.qpoints.node(q), born_far,
          [&](std::uint32_t a, double) { out.born_far.push_back({a, q}); },
          [&](std::uint32_t a) { out.born_near.push_back({a, q}); });
    }
    for (std::size_t i = std::max(lo, nq); i < hi; ++i) {
      const auto v = static_cast<std::uint32_t>(i - nq);
      const octree::Node& v_node = trees.atoms.node(a_leaves[v]);
      walk_epol(
          trees.atoms, v_node.center, v_node.radius, epol_far,
          [&](std::uint32_t u) { out.epol_near.push_back({v, u}); },
          [&](std::uint32_t u, double) { out.epol_far.push_back({v, u}); });
    }
  };

  // Fixed range decomposition (not dynamic chunking) keeps the merge
  // order -- and therefore the plan -- independent of thread timing.
  const std::size_t num_ranges =
      pool == nullptr ? 1
                      : std::min<std::size_t>(total_leaves,
                                              pool->num_workers() * 4);
  std::vector<LocalLists> buckets(num_ranges);
  if (num_ranges <= 1) {
    range_body(0, total_leaves, buckets[0]);
  } else {
    pool->run([&] {
      parallel::TaskGroup tg(*pool);
      for (std::size_t r = 0; r < num_ranges; ++r) {
        const std::size_t lo = total_leaves * r / num_ranges;
        const std::size_t hi = total_leaves * (r + 1) / num_ranges;
        tg.spawn([&, lo, hi, r] { range_body(lo, hi, buckets[r]); });
      }
      tg.wait();
    });
  }

  for (const LocalLists& b : buckets) {
    plan.born_near.insert(plan.born_near.end(), b.born_near.begin(),
                          b.born_near.end());
    plan.born_far.insert(plan.born_far.end(), b.born_far.begin(),
                         b.born_far.end());
    plan.epol_near.insert(plan.epol_near.end(), b.epol_near.begin(),
                          b.epol_near.end());
    plan.epol_far.insert(plan.epol_far.end(), b.epol_far.begin(),
                         b.epol_far.end());
  }

  // Cost-balanced chunk tables for the executor. Near pairs cost the
  // product of their point counts; a far deposit is one kernel call; a
  // bin-bin block touches a handful of non-empty bin combinations (the
  // bins do not exist yet -- the plan is Born-radius independent -- so
  // a flat estimate stands in).
  constexpr std::size_t kTargetChunks = 64;
  constexpr double kFarBinCost = 8.0;
  const auto count_of = [](const octree::Octree& t, std::uint32_t n) {
    return static_cast<double>(t.node(n).count());
  };
  plan.born_near_chunks = make_chunks(
      plan.born_near, kTargetChunks, [&](const NodePair& p) {
        return count_of(trees.atoms, p.target) *
               count_of(trees.qpoints, p.source);
      });
  plan.born_far_chunks = make_chunks(plan.born_far, kTargetChunks,
                                     [](const NodePair&) { return 1.0; });
  plan.epol_near_chunks = make_chunks(
      plan.epol_near, kTargetChunks, [&](const NodePair& p) {
        return count_of(trees.atoms, a_leaves[p.target]) *
               count_of(trees.atoms, p.source);
      });
  plan.epol_far_chunks =
      make_chunks(plan.epol_far, kTargetChunks,
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
