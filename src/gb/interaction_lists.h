// interaction_lists.h -- phase 1 of the two-phase GB execution engine.
//
// The fused evaluators in born.cpp / epol.cpp interleave tree walking
// with kernel evaluation: every leaf/leaf or node/node interaction is
// computed the moment the Greengard-Rokhlin criterion classifies it.
// That keeps the working set small but leaves the hot loops scalar and
// gather-bound -- the branchy traversal control flow sits between every
// kernel invocation.
//
// This module splits the work: the same walks (walk_born and walk_epol
// of src/gb/traversal.h), with visitors that emit compact work items
// into an InteractionPlan instead of evaluating:
//
//  * Born near pairs  (T_A leaf,  T_Q leaf)  -> exact r^6 blocks,
//  * Born far pairs   (T_A node,  T_Q leaf)  -> monopole deposits,
//  * E_pol near pairs (T_A leaf u, T_A leaf v) -> exact f_GB blocks,
//    each with a weight: a pair near in both walks is stored once, with
//    weight 2, at the target with the higher leaf ordinal, its mirror
//    dropped (epol_near_weight in src/gb/traversal.h),
//  * E_pol far pairs  (T_A node u, T_A leaf v) -> bin-vs-bin blocks.
//
// Phase 2 (src/gb/kernels_batch.h) replays the lists over SoA scratch
// arrays with SIMD-batched kernels. Every accumulator slot receives its
// items in the fused evaluators' order, so a replay reproduces the fused
// results bit for bit (Born with the scalar engine, E_pol with the SIMD
// choice the fused engines make, SimdMode::kAuto). The Born lists are grouped by slot
// owner (slot_owners in src/gb/traversal.h) and the E_pol lists by
// ranges of target leaves; chunk offsets, balanced by a per-item cost
// model, cut only between groups. A chunk therefore owns every slot it writes,
// the executor deposits with a plain `+=`, and a pooled replay gives
// the serial bits at any worker count.
//
// The plan depends only on the tree geometry and the epsilons -- not on
// charges or Born radii -- so the serving layer caches it next to the
// octrees and refit requests skip the traversal entirely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/gb/born.h"
#include "src/gb/types.h"
#include "src/octree/octree.h"
#include "src/parallel/pool.h"

namespace octgb::gb {

/// One work item: an (target, source) node pair. The meaning of the two
/// ids depends on the list the pair lives in (see InteractionPlan).
struct NodePair {
  std::uint32_t target = 0;
  std::uint32_t source = 0;
};

/// The traversal's output: four flat lists of work items plus
/// cost-balanced chunk offsets for scheduling. The Born lists are
/// owner-major, then q-leaf order, then walk order; the E_pol lists are
/// target-leaf order, then walk order. Each slot thus sees its items in
/// the fused evaluators' order, which is what makes a replay
/// bit-identical to them.
struct InteractionPlan {
  /// target = T_A *leaf* node id, source = T_Q leaf node id.
  std::vector<NodePair> born_near;
  /// target = T_A node id (monopole deposit slot), source = T_Q leaf id.
  std::vector<NodePair> born_far;
  /// target = ordinal of leaf v in tree.leaves(), source = T_A leaf u id.
  std::vector<NodePair> epol_near;
  /// Weight of each epol_near item, index for index: 1 for a one-way
  /// pair, 2 for a mutual pair (its mirror is absent) and for every
  /// diagonal block. Stored, not recomputed, so a plan reused after a
  /// refit replays exactly the pairs it was built with.
  std::vector<std::uint8_t> epol_near_weight;
  /// target = ordinal of leaf v in tree.leaves(), source = T_A node u id.
  std::vector<NodePair> epol_far;

  /// Chunk offsets into each list: chunk c is [chunks[c], chunks[c+1]).
  /// Chunks have roughly equal estimated cost, not equal item count --
  /// a near pair costs |A| * |Q| kernel evaluations, a far deposit one.
  /// No target appears in two chunks of one list (chunks cut only
  /// between owners or target-leaf ranges; analysis::validate_plan
  /// checks).
  std::vector<std::uint32_t> born_near_chunks;
  std::vector<std::uint32_t> born_far_chunks;
  std::vector<std::uint32_t> epol_near_chunks;
  std::vector<std::uint32_t> epol_far_chunks;

  std::size_t num_items() const {
    return born_near.size() + born_far.size() + epol_near.size() +
           epol_far.size();
  }
  /// Resident bytes of the four lists, the weights and the chunk tables.
  std::size_t memory_bytes() const;
};

/// Traversal-only pass over T_Q-vs-T_A (Born phase, Figure 2 criterion)
/// and T_A-vs-T_A (E_pol phase, Figure 3 criterion). With a pool the
/// per-owner and per-leaf-range traversals run as parallel tasks into
/// private vectors, which parallel tasks then copy to their
/// prefix-summed offsets, so the plan is the same either way. Throws std::invalid_argument for non-positive
/// epsilons.
InteractionPlan build_interaction_plan(
    const BornOctrees& trees, const ApproxParams& params,
    parallel::WorkStealingPool* pool = nullptr);

}  // namespace octgb::gb
