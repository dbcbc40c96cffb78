#include "src/gb/kernels_batch.h"

#include <functional>

#include "src/analysis/contracts.h"
#include "src/gb/kernel_primitives.h"
#include "src/gb/kernels_batch_simd.h"
#include "src/telemetry/telemetry.h"
#include "src/util/fastmath.h"

namespace octgb::gb {

namespace {

bool cpu_has_avx2_fma() {
#if defined(OCTGB_SIMD_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

// Runs the chunks of one plan list: serially in chunk order without a
// pool, as parallel tasks of one chunk each with a pool. A chunk owns
// every accumulator slot it writes (the plan cuts chunks only at owner
// or target boundaries), so both give the same bits. `body(b, e)`
// processes items [b, e).
void run_chunks(parallel::WorkStealingPool* pool,
                const std::vector<std::uint32_t>& chunks,
                const std::function<void(std::uint32_t, std::uint32_t)>&
                    body) {
  if (chunks.size() < 2) return;
  const std::size_t n = chunks.size() - 1;
  if (pool == nullptr) {
    for (std::size_t c = 0; c < n; ++c) body(chunks[c], chunks[c + 1]);
    return;
  }
  pool->run([&] {
    parallel::parallel_for(*pool, 0, n, 1,
                           [&](std::size_t lo, std::size_t hi) {
                             // Worker-side span; the serial path above
                             // stays unspanned so the pool-free replay
                             // configuration keeps an untouched hot
                             // loop.
                             OCTGB_TRACE_SCOPE("gb/kernel_chunk");
                             for (std::size_t c = lo; c < hi; ++c) {
                               body(chunks[c], chunks[c + 1]);
                             }
                           });
  });
}

// Flat node-center / q-weighted-normal arrays for the SIMD far row:
// indexed by node id so plan items can be gathered without touching
// the (much wider) octree::Node records.
struct NodeCenterSoA {
  std::vector<double> acx, acy, acz;       // atom-node centers
  std::vector<double> qcx, qcy, qcz;       // q-node centers
  std::vector<double> qwx, qwy, qwz;       // q-node weighted normals
};

NodeCenterSoA build_node_center_soa(const BornOctrees& trees) {
  NodeCenterSoA soa;
  const std::size_t na = trees.atoms.num_nodes();
  soa.acx.resize(na);
  soa.acy.resize(na);
  soa.acz.resize(na);
  for (std::size_t n = 0; n < na; ++n) {
    const geom::Vec3& c = trees.atoms.node(static_cast<std::uint32_t>(n))
                              .center;
    soa.acx[n] = c.x;
    soa.acy[n] = c.y;
    soa.acz[n] = c.z;
  }
  const std::size_t nq = trees.qpoints.num_nodes();
  soa.qcx.resize(nq);
  soa.qcy.resize(nq);
  soa.qcz.resize(nq);
  soa.qwx.resize(nq);
  soa.qwy.resize(nq);
  soa.qwz.resize(nq);
  for (std::size_t n = 0; n < nq; ++n) {
    const geom::Vec3& c = trees.qpoints.node(static_cast<std::uint32_t>(n))
                              .center;
    soa.qcx[n] = c.x;
    soa.qcy[n] = c.y;
    soa.qcz[n] = c.z;
    const geom::Vec3& w = trees.q_weighted_normal[n];
    soa.qwx[n] = w.x;
    soa.qwy[n] = w.y;
    soa.qwz[n] = w.z;
  }
  return soa;
}

// Deposits the born_far items [i, j) -- one run sharing a source q-leaf,
// so every target in it is distinct -- into ws.node_s: through the AVX2
// kernel when `far` (node centers) is given, its last n % 4 items and
// every item otherwise through born_far_deposit. Both give each item
// the same bits.
void born_far_run(const BornOctrees& trees, const NodeCenterSoA* far,
                  const std::vector<NodePair>& items, std::uint32_t i,
                  std::uint32_t j, BornWorkspace& ws) {
  const std::uint32_t src = items[i].source;
  std::uint32_t done = 0;
#ifdef OCTGB_SIMD_AVX2
  if (far != nullptr) {
    const NodeCenterSoA& c = *far;
    static_assert(sizeof(NodePair) == 2 * sizeof(std::uint32_t));
    done = simd::born_far_run_avx2(
        reinterpret_cast<const std::uint32_t*>(items.data() + i), j - i,
        c.acx.data(), c.acy.data(), c.acz.data(), c.qcx[src], c.qcy[src],
        c.qcz[src], c.qwx[src], c.qwy[src], c.qwz[src], ws.node_s.data());
  }
#else
  (void)far;
#endif
  for (std::uint32_t k = i + done; k < j; ++k) {
    born_far_deposit(trees, items[k].target, src, ws);
  }
}

// Calls run(i, j) for each maximal run of items [b, e) sharing a source.
template <typename Run>
void for_each_source_run(const std::vector<NodePair>& items, std::uint32_t b,
                         std::uint32_t e, Run&& run) {
  std::uint32_t i = b;
  while (i < e) {
    std::uint32_t j = i + 1;
    while (j < e && items[j].source == items[i].source) ++j;
    run(i, j);
    i = j;
  }
}

template <typename Math>
double epol_row_scalar(const EpolSoA& soa, std::uint32_t ub,
                       std::uint32_t ue, double px, double py, double pz,
                       double qv, double rv) {
  double sum = 0.0;
  for (std::uint32_t ui = ub; ui < ue; ++ui) {
    const geom::Vec3 d{soa.x[ui] - px, soa.y[ui] - py, soa.z[ui] - pz};
    sum += fgb_term<Math>(soa.q[ui], qv, d.norm2(), soa.born[ui] * rv);
  }
  return sum;
}

// Scalar twin of epol_near_block_avx2: same rows, same diagonal rule
// (upper triangle doubled plus the self terms), scalar row sums.
template <typename Math>
double near_block_scalar(const EpolSoA& soa, std::uint32_t ub,
                         std::uint32_t ue, std::uint32_t vb,
                         std::uint32_t ve, double weight) {
  const bool diagonal = ub == vb && ue == ve;
  double pairs = 0.0;
  double self = 0.0;
  for (std::uint32_t vi = vb; vi < ve; ++vi) {
    if (diagonal) self += fgb_self_term(soa.q[vi], soa.born[vi]);
    pairs += epol_row_scalar<Math>(soa, diagonal ? vi + 1 : ub, ue,
                                   soa.x[vi], soa.y[vi], soa.z[vi],
                                   soa.q[vi], soa.born[vi]);
  }
  return diagonal ? 2.0 * pairs + self : weight * pairs;
}

template <typename Math>
double far_block_scalar(const ChargeBins& bins, std::uint32_t u_idx,
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

}  // namespace

bool simd_compiled() {
#ifdef OCTGB_SIMD_AVX2
  return true;
#else
  return false;
#endif
}

bool simd_available() {
  static const bool ok = cpu_has_avx2_fma();
  return ok;
}

bool simd_enabled() { return simd_available(); }

BornSoA build_born_soa(const BornOctrees& trees,
                       const molecule::Molecule& mol,
                       const surface::QuadratureSurface& surf) {
  BornSoA soa;
  const auto a_index = trees.atoms.point_index();
  const auto positions = mol.positions();
  soa.ax.resize(a_index.size());
  soa.ay.resize(a_index.size());
  soa.az.resize(a_index.size());
  for (std::size_t i = 0; i < a_index.size(); ++i) {
    const geom::Vec3& p = positions[a_index[i]];
    soa.ax[i] = p.x;
    soa.ay[i] = p.y;
    soa.az[i] = p.z;
  }
  const auto q_index = trees.qpoints.point_index();
  soa.qx.resize(q_index.size());
  soa.qy.resize(q_index.size());
  soa.qz.resize(q_index.size());
  soa.qnx.resize(q_index.size());
  soa.qny.resize(q_index.size());
  soa.qnz.resize(q_index.size());
  soa.qw.resize(q_index.size());
  for (std::size_t i = 0; i < q_index.size(); ++i) {
    const std::uint32_t q = q_index[i];
    soa.qx[i] = surf.points[q].x;
    soa.qy[i] = surf.points[q].y;
    soa.qz[i] = surf.points[q].z;
    soa.qnx[i] = surf.normals[q].x;
    soa.qny[i] = surf.normals[q].y;
    soa.qnz[i] = surf.normals[q].z;
    soa.qw[i] = surf.weights[q];
  }
  return soa;
}

EpolSoA build_epol_soa(const octree::Octree& tree,
                       const molecule::Molecule& mol,
                       std::span<const double> born_radii) {
  EpolSoA soa;
  const auto index = tree.point_index();
  const auto positions = mol.positions();
  const auto charges = mol.charges();
  soa.x.resize(index.size());
  soa.y.resize(index.size());
  soa.z.resize(index.size());
  soa.q.resize(index.size());
  soa.born.resize(index.size());
  for (std::size_t i = 0; i < index.size(); ++i) {
    const std::uint32_t a = index[i];
    soa.x[i] = positions[a].x;
    soa.y[i] = positions[a].y;
    soa.z[i] = positions[a].z;
    soa.q[i] = charges[a];
    soa.born[i] = born_radii[a];
  }
  return soa;
}

double born_row(const BornSoA& soa, std::uint32_t qb, std::uint32_t qe,
                double x, double y, double z, bool use_simd) {
#ifdef OCTGB_SIMD_AVX2
  if (use_simd) {
    return simd::born_row_avx2(soa.qx.data(), soa.qy.data(),
                               soa.qz.data(), soa.qnx.data(),
                               soa.qny.data(), soa.qnz.data(),
                               soa.qw.data(), qb, qe, x, y, z);
  }
#else
  (void)use_simd;
#endif
  double sum = 0.0;
  for (std::uint32_t qi = qb; qi < qe; ++qi) {
    sum += born_term<6>({soa.qx[qi], soa.qy[qi], soa.qz[qi]},
                        {soa.qnx[qi], soa.qny[qi], soa.qnz[qi]},
                        soa.qw[qi], {x, y, z});
  }
  return sum;
}

double epol_row(const EpolSoA& soa, std::uint32_t ub, std::uint32_t ue,
                double px, double py, double pz, double qv, double rv,
                bool approx_math, bool use_simd) {
#ifdef OCTGB_SIMD_AVX2
  if (use_simd) {
    return simd::epol_row_avx2(soa.x.data(), soa.y.data(), soa.z.data(),
                               soa.q.data(), soa.born.data(), ub, ue, px,
                               py, pz, qv, rv, approx_math);
  }
#else
  (void)use_simd;
#endif
  return approx_math ? epol_row_scalar<util::ApproxMath>(soa, ub, ue, px,
                                                         py, pz, qv, rv)
                     : epol_row_scalar<KernelMath>(soa, ub, ue, px, py, pz,
                                                   qv, rv);
}

double epol_near_block(const EpolSoA& soa, std::uint32_t ub,
                       std::uint32_t ue, std::uint32_t vb, std::uint32_t ve,
                       int weight, bool approx_math, bool use_simd) {
  const auto w = static_cast<double>(weight);
#ifdef OCTGB_SIMD_AVX2
  if (use_simd) {
    return simd::epol_near_block_avx2(soa.x.data(), soa.y.data(),
                                      soa.z.data(), soa.q.data(),
                                      soa.born.data(), ub, ue, vb, ve, w,
                                      approx_math);
  }
#else
  (void)use_simd;
#endif
  return approx_math
             ? near_block_scalar<util::ApproxMath>(soa, ub, ue, vb, ve, w)
             : near_block_scalar<KernelMath>(soa, ub, ue, vb, ve, w);
}

void exp_batch(std::span<const double> x, std::span<double> out,
               bool use_simd) {
  OCTGB_REQUIRE(out.size() >= x.size(), "exp_batch: output too short");
#ifdef OCTGB_SIMD_AVX2
  if (use_simd && simd_available()) {
    simd::exp_avx2(x.data(), out.data(), x.size());
    return;
  }
#else
  (void)use_simd;
#endif
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = kernel_exp(x[i]);
}

double epol_far_bins(const ChargeBins& bins, std::uint32_t u_node,
                     std::uint32_t v_node, double d2, bool approx_math,
                     bool use_simd) {
#ifdef OCTGB_SIMD_AVX2
  // Pack v's non-empty bins once, then stream them 4-wide per u bin.
  // Bin counts are capped at build_charge_bins' max_bins (default 256);
  // pathological caller-supplied caps fall back to the scalar kernel.
  constexpr std::uint32_t kMaxPack = 256;
  const std::uint32_t v_lo = bins.nz_offset[v_node];
  const std::uint32_t v_hi = bins.nz_offset[v_node + 1];
  const std::uint32_t nv = v_hi - v_lo;
  if (use_simd && nv <= kMaxPack) {
    double qv_packed[kMaxPack];
    double rv_packed[kMaxPack];
    for (std::uint32_t k = 0; k < nv; ++k) {
      const int j = bins.nz_bin[v_lo + k];
      qv_packed[k] = bins.at(v_node, j);
      rv_packed[k] = bins.bin_radius[static_cast<std::size_t>(j)];
    }
    double sum = 0.0;
    const std::uint32_t u_lo = bins.nz_offset[u_node];
    const std::uint32_t u_hi = bins.nz_offset[u_node + 1];
    for (std::uint32_t ki = u_lo; ki < u_hi; ++ki) {
      const int i = bins.nz_bin[ki];
      sum += simd::epol_far_row_avx2(
          qv_packed, rv_packed, nv, bins.at(u_node, i),
          bins.bin_radius[static_cast<std::size_t>(i)], d2, approx_math);
    }
    return sum;
  }
#else
  (void)use_simd;
#endif
  return approx_math
             ? far_block_scalar<util::ApproxMath>(bins, u_node, v_node, d2)
             : far_block_scalar<KernelMath>(bins, u_node, v_node, d2);
}

BornRadiiResult born_radii_batched(const BornOctrees& trees,
                                   const molecule::Molecule& mol,
                                   const surface::QuadratureSurface& surf,
                                   const InteractionPlan& plan,
                                   const ApproxParams& params,
                                   parallel::WorkStealingPool* pool,
                                   SimdMode mode) {
  OCTGB_TRACE_SCOPE("gb/born_kernels");
  // Dispatch preconditions: the chunk tables must span their pair lists
  // exactly, or run_chunks would silently skip (or overrun) work items.
  OCTGB_REQUIRE(plan.born_near_chunks.empty() ||
                    plan.born_near_chunks.back() == plan.born_near.size(),
                "born_near chunk table does not cover its pair list");
  OCTGB_REQUIRE(plan.born_far_chunks.empty() ||
                    plan.born_far_chunks.back() == plan.born_far.size(),
                "born_far chunk table does not cover its pair list");
  OCTGB_REQUIRE(mol.size() == trees.atoms.num_points() &&
                    surf.points.size() == trees.qpoints.num_points(),
                "plan/tree built over different molecule or surface");
  BornWorkspace ws(trees);
  const bool use_simd = mode == SimdMode::kAuto && simd_enabled();
#if defined(OCTGB_TELEMETRY_ENABLED)
  OCTGB_COUNTER_ADD("gb.born_near_pairs", plan.born_near.size());
  OCTGB_COUNTER_ADD("gb.born_far_pairs", plan.born_far.size());
  {
    // Row = one atom's accumulation against one near q-leaf; the pair
    // list is tiny next to the rows themselves, so this pass is cheap.
    std::uint64_t rows = 0;
    for (const NodePair p : plan.born_near) {
      rows += trees.atoms.node(p.target).count();
    }
    if (use_simd) {
      OCTGB_COUNTER_ADD("gb.born_rows_simd", rows);
    } else {
      OCTGB_COUNTER_ADD("gb.born_rows_scalar", rows);
    }
  }
#endif
  if (use_simd) {
    const BornSoA soa = build_born_soa(trees, mol, surf);
    const auto a_index = trees.atoms.point_index();
    run_chunks(pool, plan.born_near_chunks,
               [&](std::uint32_t b, std::uint32_t e) {
                 for (std::uint32_t i = b; i < e; ++i) {
                   const NodePair p = plan.born_near[i];
                   const octree::Node& a_node = trees.atoms.node(p.target);
                   const octree::Node& q_node =
                       trees.qpoints.node(p.source);
                   for (std::uint32_t ai = a_node.begin; ai < a_node.end;
                        ++ai) {
                     const double acc =
                         born_row(soa, q_node.begin, q_node.end,
                                  soa.ax[ai], soa.ay[ai], soa.az[ai],
                                  /*use_simd=*/true);
                     ws.atom_s[a_index[ai]] += acc;
                   }
                 }
               });
  } else {
    run_chunks(pool, plan.born_near_chunks,
               [&](std::uint32_t b, std::uint32_t e) {
                 for (std::uint32_t i = b; i < e; ++i) {
                   const NodePair p = plan.born_near[i];
                   born_exact_leaf_pair(trees, mol, surf, p.target,
                                        p.source, ws);
                 }
               });
  }
  // The far list is the bulk of the plan (one monopole deposit per
  // item), so the SIMD engine runs a dedicated 4-item-per-pass kernel.
  // Within an owner the list is grouped by source q-leaf, so it is runs
  // of items with a constant source: the kernel hoists the six q-side
  // loads out of each run and vectorizes only the target gathers.
  const NodeCenterSoA far_soa =
      use_simd ? build_node_center_soa(trees) : NodeCenterSoA{};
  const NodeCenterSoA* far = use_simd ? &far_soa : nullptr;
  run_chunks(pool, plan.born_far_chunks,
             [&](std::uint32_t b, std::uint32_t e) {
               for_each_source_run(
                   plan.born_far, b, e, [&](std::uint32_t i, std::uint32_t j) {
                     born_far_run(trees, far, plan.born_far, i, j, ws);
                   });
             });
  BornRadiiResult out;
  out.radii.assign(mol.size(), 0.0);
  push_integrals_to_atoms(trees, mol, ws, 0, mol.size(), params,
                          out.radii, pool);
  return out;
}

std::vector<double> born_far_terms(const BornOctrees& trees,
                                   const InteractionPlan& plan,
                                   SimdMode mode) {
  const bool use_simd = mode == SimdMode::kAuto && simd_enabled();
  const NodeCenterSoA far_soa =
      use_simd ? build_node_center_soa(trees) : NodeCenterSoA{};
  const NodeCenterSoA* far = use_simd ? &far_soa : nullptr;
  // Each run deposits into zeroed slots with distinct targets, so after
  // the run a target's slot holds exactly its item's deposit.
  BornWorkspace ws(trees);
  std::vector<double> terms(plan.born_far.size());
  for_each_source_run(
      plan.born_far, 0, static_cast<std::uint32_t>(plan.born_far.size()),
      [&](std::uint32_t i, std::uint32_t j) {
        born_far_run(trees, far, plan.born_far, i, j, ws);
        for (std::uint32_t k = i; k < j; ++k) {
          double& slot = ws.node_s[plan.born_far[k].target];
          terms[k] = slot;
          slot = 0.0;
        }
      });
  return terms;
}

EpolResult epol_batched(const octree::Octree& tree,
                        const molecule::Molecule& mol,
                        std::span<const double> born_radii,
                        const InteractionPlan& plan,
                        const ApproxParams& params, const Physics& physics,
                        parallel::WorkStealingPool* pool, SimdMode mode) {
  EpolResult out;
  if (tree.empty()) return out;
  OCTGB_TRACE_SCOPE("gb/epol_kernels");
  OCTGB_REQUIRE(plan.epol_near_chunks.empty() ||
                    plan.epol_near_chunks.back() == plan.epol_near.size(),
                "epol_near chunk table does not cover its pair list");
  OCTGB_REQUIRE(plan.epol_far_chunks.empty() ||
                    plan.epol_far_chunks.back() == plan.epol_far.size(),
                "epol_far chunk table does not cover its pair list");
  OCTGB_REQUIRE(plan.epol_near_weight.size() == plan.epol_near.size(),
                "epol_near weights do not match its pair list");
  OCTGB_REQUIRE(born_radii.size() == tree.num_points() &&
                    mol.size() == tree.num_points(),
                "born radii / molecule size mismatch with tree");
  const ChargeBins bins =
      build_charge_bins(tree, mol.charges(), born_radii, params.eps_epol);
  const auto leaves = tree.leaves();
  // One near and one far accumulator per leaf V -- the same
  // two-accumulator split approx_epol keeps, so the final leaf-order
  // reduction reproduces the fused engine's summation order exactly.
  std::vector<double> near_acc(leaves.size(), 0.0);
  std::vector<double> far_acc(leaves.size(), 0.0);
  const bool use_simd = mode == SimdMode::kAuto && simd_enabled();
#if defined(OCTGB_TELEMETRY_ENABLED)
  OCTGB_COUNTER_ADD("gb.epol_near_pairs", plan.epol_near.size());
  OCTGB_COUNTER_ADD("gb.epol_far_pairs", plan.epol_far.size());
  {
    std::uint64_t rows = 0;
    std::uint64_t weight2 = 0;
    for (std::size_t i = 0; i < plan.epol_near.size(); ++i) {
      rows += tree.node(leaves[plan.epol_near[i].target]).count();
      weight2 += plan.epol_near_weight[i] == 2 ? 1 : 0;
    }
    OCTGB_COUNTER_ADD("gb.epol_near_weight2", weight2);
    if (use_simd) {
      OCTGB_COUNTER_ADD("gb.epol_rows_simd", rows);
    } else {
      OCTGB_COUNTER_ADD("gb.epol_rows_scalar", rows);
    }
  }
#endif

  const EpolSoA soa = build_epol_soa(tree, mol, born_radii);
  run_chunks(pool, plan.epol_near_chunks,
             [&](std::uint32_t b, std::uint32_t e) {
               for (std::uint32_t i = b; i < e; ++i) {
                 const NodePair p = plan.epol_near[i];
                 const octree::Node& u_node = tree.node(p.source);
                 const octree::Node& v_node = tree.node(leaves[p.target]);
                 near_acc[p.target] += epol_near_block(
                     soa, u_node.begin, u_node.end, v_node.begin,
                     v_node.end, plan.epol_near_weight[i],
                     params.approx_math, use_simd);
               }
             });

  run_chunks(pool, plan.epol_far_chunks,
             [&](std::uint32_t b, std::uint32_t e) {
               for (std::uint32_t i = b; i < e; ++i) {
                 const NodePair p = plan.epol_far[i];
                 const octree::Node& u_node = tree.node(p.source);
                 const octree::Node& v_node = tree.node(leaves[p.target]);
                 // Same distance expression the walk classified
                 // with, so the kernel value matches the fused path's.
                 const double d2 =
                     geom::distance2(u_node.center, v_node.center);
                 far_acc[p.target] +=
                     epol_far_bins(bins, p.source, leaves[p.target], d2,
                                   params.approx_math, use_simd);
               }
             });

  double sum = 0.0;
  for (std::size_t v = 0; v < leaves.size(); ++v) {
    sum += near_acc[v] + far_acc[v];
  }
  out.energy = -0.5 * physics.tau() * physics.coulomb_k * sum;
  return out;
}

}  // namespace octgb::gb
