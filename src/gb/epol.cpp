#include "src/gb/epol.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/analysis/contracts.h"
#include "src/gb/kernel_primitives.h"
#include "src/gb/traversal.h"
#include "src/parallel/det_reduce.h"
#include "src/util/fastmath.h"
#if defined(OCTGB_VALIDATE_BUILD)
#include "src/analysis/validate.h"
#endif

namespace octgb::gb {

namespace {

// Off-diagonal STILL kernel of leaf V's atom (pv, qv, rv) against the
// sorted atom positions [ui_begin, ui_end) of leaf U. Branch-free: the
// caller has already excluded the u == v diagonal by construction.
template <typename Math>
double exact_row(const octree::Octree& tree, const molecule::Molecule& mol,
                 std::span<const double> born_radii, std::uint32_t ui_begin,
                 std::uint32_t ui_end, const geom::Vec3& pv, double qv,
                 double rv) {
  const auto index = tree.point_index();
  const auto positions = mol.positions();
  const auto charges = mol.charges();
  double sum = 0.0;
  for (std::uint32_t ui = ui_begin; ui < ui_end; ++ui) {
    const std::uint32_t u = index[ui];
    const double r2 = geom::distance2(positions[u], pv);
    const double rr = born_radii[u] * rv;
    sum += fgb_term<Math>(charges[u], qv, r2, rr);
  }
  return sum;
}

template <typename Math>
double exact_block(const octree::Octree& tree,
                   const molecule::Molecule& mol,
                   std::span<const double> born_radii,
                   const octree::Node& u_node, const octree::Node& v_node) {
  const auto index = tree.point_index();
  const auto positions = mol.positions();
  const auto charges = mol.charges();
  // Distinct leaves own disjoint sorted ranges, so u == v can only occur
  // in the diagonal block where both nodes are the same leaf.
  const bool diagonal =
      u_node.begin == v_node.begin && u_node.end == v_node.end;
  double sum = 0.0;
  for (std::uint32_t vi = v_node.begin; vi < v_node.end; ++vi) {
    const std::uint32_t v = index[vi];
    const geom::Vec3 pv = positions[v];
    const double qv = charges[v];
    const double rv = born_radii[v];
    if (diagonal) {
      // Split around the self term so the pair loops stay branch-free
      // while preserving the reference summation order (u < v pairs,
      // then the diagonal, then u > v pairs).
      sum += exact_row<Math>(tree, mol, born_radii, u_node.begin, vi, pv,
                             qv, rv);
      sum += fgb_self_term(qv, rv);  // f_GB(i,i) = R_i
      sum += exact_row<Math>(tree, mol, born_radii, vi + 1, u_node.end, pv,
                             qv, rv);
    } else {
      sum += exact_row<Math>(tree, mol, born_radii, u_node.begin,
                             u_node.end, pv, qv, rv);
    }
  }
  return sum;
}

template <typename Math>
double far_block(const ChargeBins& bins, std::uint32_t u_idx,
                 std::uint32_t v_idx, double d2) {
  // Only non-empty bin combinations contribute; iterating the CSR lists
  // (ascending, like the dense scan they replace) skips the mostly-empty
  // histogram rows without perturbing the summation order.
  double sum = 0.0;
  const std::uint32_t u_lo = bins.nz_offset[u_idx];
  const std::uint32_t u_hi = bins.nz_offset[u_idx + 1];
  const std::uint32_t v_lo = bins.nz_offset[v_idx];
  const std::uint32_t v_hi = bins.nz_offset[v_idx + 1];
  for (std::uint32_t ki = u_lo; ki < u_hi; ++ki) {
    const int i = bins.nz_bin[ki];
    const double qu = bins.at(u_idx, i);
    const double ru = bins.bin_radius[static_cast<std::size_t>(i)];
    for (std::uint32_t kj = v_lo; kj < v_hi; ++kj) {
      const int j = bins.nz_bin[kj];
      const double qv = bins.at(v_idx, j);
      const double rr = ru * bins.bin_radius[static_cast<std::size_t>(j)];
      sum += fgb_term<Math>(qu, qv, d2, rr);
    }
  }
  return sum;
}

// Kernel sum of one leaf V against the whole tree (walk_epol). Near
// (exact) and far (binned) contributions accumulate separately and
// combine once per leaf: the batched plan executor replays the same
// pairs through per-class passes, and this split makes the two engines'
// reduction orders identical.
template <typename Math>
double epol_one_leaf(const octree::Octree& tree,
                     const molecule::Molecule& mol, const ChargeBins& bins,
                     std::span<const double> born_radii, std::uint32_t vleaf,
                     EpolFarTest far) {
  const octree::Node& v_node = tree.node(vleaf);
  double sum_near = 0.0;
  double sum_far = 0.0;
  walk_epol(
      tree, v_node.center, v_node.radius, far,
      [&](std::uint32_t u) {
        sum_near +=
            exact_block<Math>(tree, mol, born_radii, tree.node(u), v_node);
      },
      [&](std::uint32_t u, double d2) {
        sum_far += far_block<Math>(bins, u, vleaf, d2);
      });
  return sum_near + sum_far;
}

template <typename Math>
double epol_range(const octree::Octree& tree, const molecule::Molecule& mol,
                  const ChargeBins& bins,
                  std::span<const double> born_radii, std::size_t leaf_begin,
                  std::size_t leaf_end, EpolFarTest far,
                  parallel::WorkStealingPool* pool) {
  const auto leaves = tree.leaves();
  // Per-leaf slots summed in leaf order: bit-identical to the serial
  // loop at any worker count. The old fetch_add reduction summed
  // chunk partials in completion order, so the pooled energy drifted
  // by ulps run-to-run (found by detlint shared-float-accum; regression
  // test DeterminismOracleTest.EpolBitIdenticalAcrossWorkerCounts).
  const auto one_leaf = [&](std::size_t i) {
    return epol_one_leaf<Math>(tree, mol, bins, born_radii, leaves[i], far);
  };
  return parallel::run_deterministic_sum(pool, leaf_begin, leaf_end,
                                         one_leaf);
}

// Kernel sum of the whole tree against itself (walk_dual). The charge
// histograms exist for every node, so far boxes may pair internal nodes
// on both sides.
template <typename Math>
double dual_sum(const octree::Octree& tree, const molecule::Molecule& mol,
                const ChargeBins& bins, std::span<const double> born_radii,
                EpolFarTest far, parallel::WorkStealingPool* pool) {
  return walk_dual(
      tree, tree, far,
      [&](std::uint32_t u, std::uint32_t v, double d2) {
        return far_block<Math>(bins, u, v, d2);
      },
      [&](std::uint32_t u, std::uint32_t v) {
        return exact_block<Math>(tree, mol, born_radii, tree.node(u),
                                 tree.node(v));
      },
      pool);
}

}  // namespace

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

double epol_exact_block(const octree::Octree& tree,
                        const molecule::Molecule& mol,
                        std::span<const double> born_radii,
                        std::uint32_t u_leaf, std::uint32_t v_leaf,
                        bool approx_math) {
  const octree::Node& u = tree.node(u_leaf);
  const octree::Node& v = tree.node(v_leaf);
  return approx_math
             ? exact_block<util::ApproxMath>(tree, mol, born_radii, u, v)
             : exact_block<util::ExactMath>(tree, mol, born_radii, u, v);
}

double epol_far_block(const ChargeBins& bins, std::uint32_t u_node,
                      std::uint32_t v_node, double d2, bool approx_math) {
  return approx_math
             ? far_block<util::ApproxMath>(bins, u_node, v_node, d2)
             : far_block<util::ExactMath>(bins, u_node, v_node, d2);
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
  const EpolFarTest far{1.0 + 2.0 / params.eps_epol};
  return params.approx_math
             ? epol_range<util::ApproxMath>(tree, mol, bins, born_radii,
                                            leaf_begin, leaf_end, far, pool)
             : epol_range<util::ExactMath>(tree, mol, bins, born_radii,
                                           leaf_begin, leaf_end, far, pool);
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
  const double sum =
      params.approx_math
          ? dual_sum<util::ApproxMath>(tree, mol, bins, born_radii, far, pool)
          : dual_sum<util::ExactMath>(tree, mol, bins, born_radii, far, pool);
  out.energy = -0.5 * physics.tau() * physics.coulomb_k * sum;
  return out;
}

}  // namespace octgb::gb
