#include "src/gb/epol.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/analysis/contracts.h"
#include "src/gb/kernels_batch.h"
#include "src/gb/traversal.h"
#include "src/parallel/det_reduce.h"
#include "src/telemetry/telemetry.h"
#if defined(OCTGB_VALIDATE_BUILD)
#include "src/analysis/validate.h"
#endif

namespace octgb::gb {

int ChargeBins::bin_of(double born) const {
  if (born <= r_min) return 0;
  // lint:allow(narrow-cast) log-bin truncation is the binning rule itself
  const int k = static_cast<int>(std::log(born / r_min) * inv_log1p);
  return std::clamp(k, 0, num_bins - 1);
}

ChargeBins build_charge_bins(const octree::Octree& tree,
                             std::span<const double> charges,
                             std::span<const double> born_radii,
                             double eps, int max_bins) {
  if (eps <= 0.0) {
    throw std::invalid_argument("build_charge_bins: eps must be > 0");
  }
  ChargeBins bins;
  if (tree.empty()) return bins;

  double r_min = born_radii[0], r_max = born_radii[0];
  for (const double r : born_radii) {
    r_min = std::min(r_min, r);
    r_max = std::max(r_max, r);
  }
  bins.r_min = r_min;
  const double log1p = std::log(1.0 + eps);
  const int m = std::max(
      1, static_cast<int>(std::ceil(std::log(r_max / r_min) / log1p)));
  bins.num_bins = std::min(m, max_bins);
  // If capped, widen the effective bins so the range is still covered.
  const double eff_log1p =
      std::max(log1p, std::log(r_max / r_min) /
                          std::max(1, bins.num_bins));
  bins.inv_log1p = 1.0 / eff_log1p;
  bins.bin_radius.resize(static_cast<std::size_t>(bins.num_bins));
  for (int k = 0; k < bins.num_bins; ++k) {
    // Geometric bin midpoint: R_min (1+eps_eff)^(k + 1/2).
    bins.bin_radius[static_cast<std::size_t>(k)] =
        r_min *
        std::exp(eff_log1p * (k + 0.5));  // lint:allow(fastmath) bin setup, not a kernel
  }

  bins.q.assign(tree.num_nodes() * static_cast<std::size_t>(bins.num_bins),
                0.0);
  const auto index = tree.point_index();
  // Reverse sweep: leaves fill from their atoms, parents sum children.
  for (std::size_t n = tree.num_nodes(); n-- > 0;) {
    const octree::Node& node = tree.node(n);
    double* row = &bins.q[n * static_cast<std::size_t>(bins.num_bins)];
    if (node.leaf) {
      for (std::uint32_t ai = node.begin; ai < node.end; ++ai) {
        const std::uint32_t a = index[ai];
        row[bins.bin_of(born_radii[a])] += charges[a];
      }
    } else {
      for (const auto child : node.children) {
        if (child == octree::Node::kInvalid) continue;
        const double* crow =
            &bins.q[child * static_cast<std::size_t>(bins.num_bins)];
        for (int k = 0; k < bins.num_bins; ++k) row[k] += crow[k];
      }
    }
  }

  // CSR lists of non-empty bins per node, so the far-field kernel skips
  // the empty combinations instead of re-discovering them every call.
  bins.nz_offset.assign(tree.num_nodes() + 1, 0);
  bins.nz_bin.reserve(tree.num_nodes() * 2);
  for (std::size_t n = 0; n < tree.num_nodes(); ++n) {
    const double* row = &bins.q[n * static_cast<std::size_t>(bins.num_bins)];
    for (int k = 0; k < bins.num_bins; ++k) {
      if (row[k] != 0.0) {  // lint:allow(float-eq) empty charge bin, stored exact
        bins.nz_bin.push_back(static_cast<std::uint16_t>(k));
      }
    }
    bins.nz_offset[n + 1] = static_cast<std::uint32_t>(bins.nz_bin.size());
  }

#if defined(OCTGB_VALIDATE_BUILD)
  if (analysis::test_corruption("bin_charge") && !bins.q.empty()) {
    // Mutation self-test hook: perturb the root histogram so the charge
    // conservation check in the checkpoint below must fire.
    bins.q[0] += 1.0;
  }
#endif
  OCTGB_VALIDATE_CHECKPOINT(
      analysis::validate_charge_bins(tree, bins, charges), "charge bins");
  return bins;
}

double approx_epol(const octree::Octree& tree,
                   const molecule::Molecule& mol, const ChargeBins& bins,
                   std::span<const double> born_radii,
                   std::size_t leaf_begin, std::size_t leaf_end,
                   const ApproxParams& params,
                   parallel::WorkStealingPool* pool) {
  if (tree.empty()) return 0.0;
  leaf_end = std::min(leaf_end, tree.num_leaves());
  if (leaf_begin >= leaf_end) return 0.0;
  OCTGB_TRACE_SCOPE("gb/epol_kernels");
  const EpolFarTest far{1.0 + 2.0 / params.eps_epol};
  const EpolSoA soa = build_epol_soa(tree, mol, born_radii);
  const bool use_simd = simd_enabled();
  const auto leaves = tree.leaves();
  // Kernel sum of one leaf V against the whole tree (walk_epol). Near
  // blocks (weighted by the symmetric rule) and far blocks accumulate
  // separately and combine once per leaf, as epol_batched's two
  // accumulators do, so the plan replay reproduces this summation order
  // exactly. Per-leaf sums reduce in leaf order: the same bits at any
  // worker count.
  const auto one_leaf = [&](std::size_t i) {
    const std::uint32_t v = leaves[i];
    const octree::Node& v_node = tree.node(v);
    double sum_near = 0.0;
    double sum_far = 0.0;
    [[maybe_unused]] std::uint64_t weight2 = 0;  // telemetry only
    walk_epol(
        tree, v_node.center, v_node.radius, far,
        [&](std::uint32_t u) {
          const int w = epol_near_weight(tree, u, v, far);
          if (w == 0) return;  // the mirror's target evaluates it
          weight2 += w == 2 ? 1 : 0;
          const octree::Node& u_node = tree.node(u);
          sum_near += epol_near_block(soa, u_node.begin, u_node.end,
                                      v_node.begin, v_node.end, w,
                                      params.approx_math, use_simd);
        },
        [&](std::uint32_t u, double d2) {
          sum_far += epol_far_bins(bins, u, v, d2, params.approx_math,
                                   use_simd);
        });
    OCTGB_COUNTER_ADD("gb.epol_near_weight2", weight2);
    return sum_near + sum_far;
  };
  return parallel::run_deterministic_sum(pool, leaf_begin, leaf_end,
                                         one_leaf);
}

EpolResult epol_octree(const octree::Octree& tree,
                       const molecule::Molecule& mol,
                       std::span<const double> born_radii,
                       const ApproxParams& params, const Physics& physics,
                       parallel::WorkStealingPool* pool) {
  const ChargeBins bins =
      build_charge_bins(tree, mol.charges(), born_radii, params.eps_epol);
  const double sum = approx_epol(tree, mol, bins, born_radii, 0,
                                 tree.num_leaves(), params, pool);
  EpolResult out;
  out.energy = -0.5 * physics.tau() * physics.coulomb_k * sum;
  return out;
}

EpolResult epol_dualtree(const octree::Octree& tree,
                         const molecule::Molecule& mol,
                         std::span<const double> born_radii,
                         const ApproxParams& params, const Physics& physics,
                         parallel::WorkStealingPool* pool) {
  EpolResult out;
  if (tree.empty()) return out;
  const ChargeBins bins =
      build_charge_bins(tree, mol.charges(), born_radii, params.eps_epol);
  const EpolFarTest far{1.0 + 2.0 / params.eps_epol};
  const EpolSoA soa = build_epol_soa(tree, mol, born_radii);
  const bool use_simd = simd_enabled();
  // Far boxes may pair internal nodes on both sides (every node has a
  // charge histogram); leaf-leaf blocks take weight 1, the diagonal
  // blocks their symmetric kernel.
  const double sum = walk_dual(
      tree, tree, far,
      [&](std::uint32_t u, std::uint32_t v, double d2) {
        return epol_far_bins(bins, u, v, d2, params.approx_math, use_simd);
      },
      [&](std::uint32_t u, std::uint32_t v) {
        const octree::Node& u_node = tree.node(u);
        const octree::Node& v_node = tree.node(v);
        return epol_near_block(soa, u_node.begin, u_node.end, v_node.begin,
                               v_node.end, 1, params.approx_math, use_simd);
      },
      pool);
  out.energy = -0.5 * physics.tau() * physics.coulomb_k * sum;
  return out;
}

}  // namespace octgb::gb
