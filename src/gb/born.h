// born.h -- octree-accelerated r^6 Born radii (Figure 2 of the paper).
//
// Two traversal strategies are provided, both walks of
// src/gb/traversal.h with the kernels below as visitors:
//
//  * approx_integrals / push_integrals_to_atoms: the *single-tree* scheme
//    of this paper's distributed algorithms (walk_born) -- each leaf Q of
//    the q-point octree is pushed through the atoms octree; far (A, Q)
//    pairs deposit a monopole contribution into the node accumulator s_A,
//    near leaf pairs compute exactly into per-atom accumulators s_a; a
//    final top-down pass sums ancestor contributions and applies
//        R_a = max(r_a, ((s_a + sum_ancestors s_A) / 4pi)^(-1/3)).
//
//  * born_radii_dualtree: the *simultaneous* two-octree traversal of the
//    prior shared-memory work [Chowdhury & Bajaj 2010] (walk_dual), used
//    by the OCT_CILK driver (Section IV: "The major difference of our
//    approach from [6] is that we only traverse one octree instead of
//    two").
//
// These fused entry points evaluate each pair as the walk finds it and
// hold no pair lists; the plan-driven executors of kernels_batch.h run
// the same r^6 single-tree pairs from a cached InteractionPlan.
//
// Far-field criterion: by default (A, Q) is far when
//     r_AQ > (r_A + r_Q) * (1 + 2/eps),
// the same geometric test the paper's Figure 3 uses for E_pol (and
// algebraically the bound (d_max/d_min) <= 1 + eps). The literal
// sixth-root reading of Figure 2's pseudo-code is available behind
// ApproxParams::strict_born_criterion; see that flag and DESIGN.md
// section 5 for why the looser test is the faithful default.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/gb/types.h"
#include "src/molecule/molecule.h"
#include "src/octree/octree.h"
#include "src/parallel/pool.h"
#include "src/surface/quadrature.h"

namespace octgb::gb {

/// The two octrees plus the q-point node aggregates (ñ_Q = sum w_q n_q
/// and the weighted centroid) the far-field needs.
struct BornOctrees {
  octree::Octree atoms;    // T_A over atom centers
  octree::Octree qpoints;  // T_Q over quadrature points
  /// Per-T_Q-node sum of w_q * n_q (the pseudo-q-point normal).
  std::vector<geom::Vec3> q_weighted_normal;
};

/// The ñ_Q aggregates of `q_tree` over `surf` (one sum per node),
/// bottom-up a level at a time. Each node sums its inputs in a fixed
/// order, so a pooled sweep is bit-identical to the serial one.
std::vector<geom::Vec3> q_weighted_normals(
    const octree::Octree& q_tree, const surface::QuadratureSurface& surf,
    parallel::WorkStealingPool* pool = nullptr);

/// Builds T_A, T_Q and the q-node aggregates. With a pool, the octree
/// builds (Morton sort + level sweeps) and the per-level normal sums
/// run on it; results are bit-identical to the serial build.
BornOctrees build_born_octrees(const molecule::Molecule& mol,
                               const surface::QuadratureSurface& surf,
                               const octree::OctreeParams& params = {},
                               parallel::WorkStealingPool* pool = nullptr);

/// Squared Born far-field factor: (A, Q) is far iff
/// d^2 > (r_A + r_Q)^2 * born_far_factor2(params). Exported so the
/// interaction-plan builder applies the identical criterion the fused
/// evaluators use (BornFarTest). Throws std::invalid_argument for
/// eps <= 0.
double born_far_factor2(const ApproxParams& params);

/// Mutable accumulators for one Born-radius computation. node_s is
/// indexed by T_A node id, atom_s by *original* atom id. Deposits are
/// plain `+=`: pooled workers share one workspace, but each slot
/// belongs to exactly one slot owner (slot_owners in
/// src/gb/traversal.h) and only that owner's task writes it, in the
/// serial q-leaf order. In the distributed drivers each rank owns a
/// private workspace that is later merged with MPI_Allreduce.
struct BornWorkspace {
  std::vector<double> node_s;
  std::vector<double> atom_s;

  /// Sized by an atoms octree; docking passes the receptor's.
  explicit BornWorkspace(const octree::Octree& atoms_tree)
      : node_s(atoms_tree.num_nodes(), 0.0),
        atom_s(atoms_tree.num_points(), 0.0) {}

  explicit BornWorkspace(const BornOctrees& trees)
      : BornWorkspace(trees.atoms) {}
};

/// Exact r^6 block of one (T_A leaf, T_Q leaf) pair: accumulates every
/// q-point of `q_leaf` against every atom of `a_leaf` into ws.atom_s.
/// This is the identical code path the fused evaluator runs for a near
/// pair; the batched plan executor's scalar engine replays plans through
/// it so the two engines agree bit-for-bit.
void born_exact_leaf_pair(const BornOctrees& trees,
                          const molecule::Molecule& mol,
                          const surface::QuadratureSurface& surf,
                          std::uint32_t a_leaf, std::uint32_t q_leaf,
                          BornWorkspace& ws);

/// Far-field monopole deposit of T_Q leaf `q_leaf` into the accumulator
/// of T_A node `a_node` (ws.node_s[a_node]). Shared with the batched
/// executor like born_exact_leaf_pair.
void born_far_deposit(const BornOctrees& trees, std::uint32_t a_node,
                      std::uint32_t q_leaf, BornWorkspace& ws);

/// APPROX-INTEGRALS for the q-point leaves [qleaf_begin, qleaf_end) of
/// T_Q (indices into trees.qpoints.leaves()). If `pool` is non-null the
/// slot owners of T_A run as parallel tasks on it, each over the whole
/// leaf range in order; the result is bit-identical to the serial call.
void approx_integrals(const BornOctrees& trees,
                      const molecule::Molecule& mol,
                      const surface::QuadratureSurface& surf,
                      std::size_t qleaf_begin, std::size_t qleaf_end,
                      const ApproxParams& params, BornWorkspace& ws,
                      parallel::WorkStealingPool* pool = nullptr);

/// PUSH-INTEGRALS-TO-ATOMS for the *sorted* atom positions
/// [atom_begin, atom_end) of T_A (the paper's [s_id, e_id] segment).
/// Writes R into out_radii[original_atom_id]; entries outside the segment
/// are left untouched.
void push_integrals_to_atoms(const BornOctrees& trees,
                             const molecule::Molecule& mol,
                             const BornWorkspace& ws,
                             std::size_t atom_begin, std::size_t atom_end,
                             const ApproxParams& params,
                             std::span<double> out_radii,
                             parallel::WorkStealingPool* pool = nullptr);

/// Cross-tree APPROX-INTEGRALS: deposits the contributions of the
/// q-point octree `q_tree` (over `surf`, with per-node aggregates
/// `q_node_normals`) into the accumulators of `atoms_tree` (over
/// `atoms_mol`). This is the primitive behind pose re-scoring: the
/// receptor's self-integrals are cached and only the receptor-vs-ligand
/// cross terms are recomputed per pose (Section IV-C step 1).
void approx_integrals_cross(const octree::Octree& atoms_tree,
                            const molecule::Molecule& atoms_mol,
                            const octree::Octree& q_tree,
                            std::span<const geom::Vec3> q_node_normals,
                            const surface::QuadratureSurface& surf,
                            const ApproxParams& params, BornWorkspace& ws,
                            parallel::WorkStealingPool* pool = nullptr);

/// Flattens a workspace: out[a] = atom_s[a] + sum of node_s over the
/// ancestors of atom a (the raw integral sums, before the Born-radius
/// map). Used to cache pose-invariant self-integrals.
void collect_integrals_to_atoms(const octree::Octree& atoms_tree,
                                const BornWorkspace& ws,
                                std::span<double> out_sums);

/// Convenience: full single-tree computation (all q-leaves, all atoms).
BornRadiiResult born_radii_octree(const BornOctrees& trees,
                                  const molecule::Molecule& mol,
                                  const surface::QuadratureSurface& surf,
                                  const ApproxParams& params,
                                  parallel::WorkStealingPool* pool = nullptr);

/// Octree-accelerated r^4 (Coulomb-field approximation, Eq. 3) Born
/// radii: the born_radii_octree walk and push with the 1/|p_q - x|^4
/// kernel and the final map R_a = max(r_a, 4pi / s). The paper uses r^6
/// (better for globular solutes, Section II); the r^4 path exists for
/// comparison and validates against born_radii_naive_r4.
BornRadiiResult born_radii_octree_r4(const BornOctrees& trees,
                                     const molecule::Molecule& mol,
                                     const surface::QuadratureSurface& surf,
                                     const ApproxParams& params,
                                     parallel::WorkStealingPool* pool = nullptr);

/// The dual-tree (simultaneous traversal) variant used by OCT_CILK: one
/// walk_dual per subtree slot owner of T_A against the T_Q root, so the
/// radii are bit-identical at any worker count, serial included.
BornRadiiResult born_radii_dualtree(const BornOctrees& trees,
                                    const molecule::Molecule& mol,
                                    const surface::QuadratureSurface& surf,
                                    const ApproxParams& params,
                                    parallel::WorkStealingPool* pool = nullptr);

}  // namespace octgb::gb
