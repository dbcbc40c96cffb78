#include "src/octree/octree.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "src/analysis/contracts.h"
#include "src/geom/morton.h"
#include "src/parallel/pool.h"
#include "src/parallel/radix_sort.h"
#include "src/telemetry/telemetry.h"
#if defined(OCTGB_VALIDATE_BUILD)
// Deep validators only in validate builds: validate.h pulls the gb
// headers, which would invert the layering for everyone else.
#include "src/analysis/validate.h"
#endif

namespace octgb::octree {

namespace {

using parallel::for_range;

/// Fixed chunk width for deterministic centroid sums. Partial sums are
/// always taken over [c*kAggChunk, (c+1)*kAggChunk) of the *sorted*
/// order and combined in ascending chunk order, so every node centroid
/// is a fixed floating-point expression of the positions -- independent
/// of worker count and identical between build and refit. (Radii need
/// no such care: max is order-independent and exact.)
constexpr std::size_t kAggChunk = 2048;

std::size_t num_agg_chunks(std::size_t n) {
  return (n + kAggChunk - 1) / kAggChunk;
}

/// Serial sum of points at sorted positions [b, e).
geom::Vec3 ranged_sum(std::span<const geom::Vec3> points,
                      const std::vector<std::uint32_t>& point_index,
                      std::size_t b, std::size_t e) {
  geom::Vec3 s;
  for (std::size_t i = b; i < e; ++i) s += points[point_index[i]];
  return s;
}

/// Sum over [b, e) through the fixed chunk grid: leading fragment, then
/// whole chunks ascending, then trailing fragment. Depends only on
/// (b, e) and the positions -- never on who computed it.
geom::Vec3 node_sum(std::span<const geom::Vec3> points,
                    const std::vector<std::uint32_t>& point_index,
                    const std::vector<geom::Vec3>& chunk_sums, std::size_t b,
                    std::size_t e) {
  const std::size_t cb = (b + kAggChunk - 1) / kAggChunk;
  const std::size_t ce = e / kAggChunk;
  if (cb >= ce) return ranged_sum(points, point_index, b, e);
  geom::Vec3 s = ranged_sum(points, point_index, b, cb * kAggChunk);
  for (std::size_t c = cb; c < ce; ++c) s += chunk_sums[c];
  s += ranged_sum(points, point_index, ce * kAggChunk, e);
  return s;
}

}  // namespace

parallel::WorkStealingPool* Octree::effective_pool(
    std::size_t n, parallel::WorkStealingPool* pool) const {
  if (pool == nullptr || pool->num_workers() <= 1) return nullptr;
  if (n < params_.parallel_grain) return nullptr;
  return pool;
}

Octree::Octree(std::span<const geom::Vec3> points, const OctreeParams& params,
               parallel::WorkStealingPool* pool) {
  params_ = params;
  build_from(points, pool);
}

void Octree::build_from(std::span<const geom::Vec3> points,
                        parallel::WorkStealingPool* pool_in) {
  nodes_.clear();
  point_index_.clear();
  leaves_.clear();
  level_offset_.clear();
  keys_.clear();
  node_key_lo_.clear();
  chunk_sums_.clear();
  prev_positions_.clear();
  inv_index_.clear();
  pos_leaf_.clear();
  cube_ = geom::Aabb();
  height_ = 0;
  strict_ = false;
  if (points.empty()) return;

  OCTGB_TRACE_SCOPE("octree/build");
  const std::size_t n = points.size();
  parallel::WorkStealingPool* pool = effective_pool(n, pool_in);

  {  // Bounding cube of the input (min/max per chunk; exact under any
     // regrouping, so plain chunk partials are already deterministic).
    OCTGB_TRACE_SCOPE("octree/bounds");
    const std::size_t nc = num_agg_chunks(n);
    std::vector<geom::Aabb> partial(nc);
    for_range(pool, 0, nc, 1, [&](std::size_t c0, std::size_t c1) {
      for (std::size_t c = c0; c < c1; ++c) {
        geom::Aabb box;
        const std::size_t lo = c * kAggChunk;
        const std::size_t hi = std::min(n, lo + kAggChunk);
        for (std::size_t i = lo; i < hi; ++i) box.extend(points[i]);
        partial[c] = box;
      }
    });
    geom::Aabb bounds;
    for (const geom::Aabb& box : partial) bounds.extend(box);
    cube_ = bounds.bounding_cube();
  }

  keys_.resize(n);
  point_index_.resize(n);
  {  // Morton keying (embarrassingly parallel; one key per point).
    OCTGB_TRACE_SCOPE("octree/keying");
    for_range(pool, 0, n, 4096, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        keys_[i] = geom::morton_code(points[i], cube_);
        point_index_[i] = static_cast<std::uint32_t>(i);
      }
    });
  }

  {  // Sort (point id, key) pairs by key. Stable LSD radix: the output
     // permutation is the unique stable order, identical at any worker
     // count -- the root of the build-equivalence guarantee.
    OCTGB_TRACE_SCOPE("octree/sort");
    parallel::radix_sort_pairs(keys_, point_index_, pool, 3 * kMortonLevels);
  }

  inv_index_.resize(n);
  for_range(pool, 0, n, 8192, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      inv_index_[point_index_[i]] = static_cast<std::uint32_t>(i);
    }
  });

  {  // Topology: level-by-level key-range splitting. Each level's child
     // boundaries are eight binary searches per split node over the
     // sorted keys (parallel over nodes); appending the child records is
     // a cheap serial pass that also fills the level index.
    OCTGB_TRACE_SCOPE("octree/topology");
    const int max_depth = std::min(params_.max_depth, kMortonLevels);

    nodes_.emplace_back();
    nodes_[0].begin = 0;
    nodes_[0].end = static_cast<std::uint32_t>(n);
    node_key_lo_.push_back(0);
    level_offset_.push_back(0);
    level_offset_.push_back(1);

    std::vector<std::uint32_t> split;
    if (n > params_.leaf_capacity && max_depth > 0) split.push_back(0);

    std::vector<std::array<std::uint32_t, 9>> bounds;
    std::vector<std::uint32_t> next_split;
    for (int depth = 0; depth < max_depth && !split.empty(); ++depth) {
      const int child_depth = depth + 1;
      const int shift = 3 * (kMortonLevels - child_depth);

      bounds.resize(split.size());
      const std::uint64_t* keys = keys_.data();
      for_range(pool, 0, split.size(), 16,
                [&](std::size_t s0, std::size_t s1) {
                  for (std::size_t s = s0; s < s1; ++s) {
                    const Node& nd = nodes_[split[s]];
                    std::array<std::uint32_t, 9>& b = bounds[s];
                    b[0] = nd.begin;
                    b[8] = nd.end;
                    for (std::uint64_t o = 1; o < 8; ++o) {
                      // First position whose octant digit is >= o.
                      const std::uint64_t* it = std::lower_bound(
                          keys + b[o - 1], keys + nd.end, o,
                          [shift](std::uint64_t k, std::uint64_t oct) {
                            return ((k >> shift) & 7) < oct;
                          });
                      b[o] = static_cast<std::uint32_t>(it - keys);
                    }
                  }
                });

      next_split.clear();
      for (std::size_t s = 0; s < split.size(); ++s) {
        const std::uint32_t id = split[s];
        const std::array<std::uint32_t, 9>& b = bounds[s];
        nodes_[id].leaf = false;
        nodes_[id].children.first =
            static_cast<std::uint32_t>(nodes_.size());
        std::uint8_t nchildren = 0;
        for (int o = 0; o < 8; ++o) {
          if (b[o + 1] == b[o]) continue;
          const auto child = static_cast<std::uint32_t>(nodes_.size());
          nodes_.emplace_back();
          Node& cn = nodes_.back();
          cn.begin = b[o];
          cn.end = b[o + 1];
          cn.parent = id;
          cn.depth = static_cast<std::uint8_t>(child_depth);
          node_key_lo_.push_back(node_key_lo_[id] |
                                 (static_cast<std::uint64_t>(o) << shift));
          ++nchildren;
          if (cn.count() > params_.leaf_capacity && child_depth < max_depth) {
            next_split.push_back(child);
          }
        }
        nodes_[id].children.count = nchildren;
      }
      level_offset_.push_back(static_cast<std::uint32_t>(nodes_.size()));
      height_ = child_depth;
      split.swap(next_split);
    }
  }

  // Leaves in Morton order (ascending point ranges; equals the DFS
  // visit order since leaf ranges are disjoint and cover [0, n)).
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].leaf) leaves_.push_back(static_cast<std::uint32_t>(i));
  }
  std::stable_sort(leaves_.begin(), leaves_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return nodes_[a].begin < nodes_[b].begin;
            });
  pos_leaf_.resize(n);
  for_range(pool, 0, leaves_.size(), 64, [&](std::size_t l0, std::size_t l1) {
    for (std::size_t l = l0; l < l1; ++l) {
      const Node& leaf = nodes_[leaves_[l]];
      for (std::size_t i = leaf.begin; i < leaf.end; ++i) {
        pos_leaf_[i] = leaves_[l];
      }
    }
  });

  {  // Aggregates, level at a time (deep to shallow). Levels are
     // contiguous node ranges thanks to the level index; within a level
     // every node is independent.
    OCTGB_TRACE_SCOPE("octree/aggregates");
    const std::size_t nc = num_agg_chunks(n);
    chunk_sums_.resize(nc);
    for_range(pool, 0, nc, 1, [&](std::size_t c0, std::size_t c1) {
      for (std::size_t c = c0; c < c1; ++c) {
        chunk_sums_[c] = ranged_sum(points, point_index_, c * kAggChunk,
                                    std::min(n, c * kAggChunk + kAggChunk));
      }
    });
    std::vector<std::uint32_t> ids(nodes_.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t level = level_offset_.size() - 1; level-- > 0;) {
      const std::uint32_t lo = level_offset_[level];
      const std::uint32_t hi = level_offset_[level + 1];
      compute_aggregates(
          points, std::span<const std::uint32_t>(ids).subspan(lo, hi - lo),
          pool);
    }
  }

  strict_ = true;
  OCTGB_COUNTER_ADD("octree.builds", 1);
  OCTGB_COUNTER_ADD("octree.build_points", n);
  OCTGB_VALIDATE_CHECKPOINT(analysis::validate_octree(*this, points, &params_),
                            "octree build");
}

void Octree::compute_aggregates(std::span<const geom::Vec3> points,
                                std::span<const std::uint32_t> node_ids,
                                parallel::WorkStealingPool* pool) {
  for_range(pool, 0, node_ids.size(), 1, [&](std::size_t s0, std::size_t s1) {
    for (std::size_t s = s0; s < s1; ++s) {
      Node& nd = nodes_[node_ids[s]];
      const std::size_t b = nd.begin;
      const std::size_t e = nd.end;
      nd.center =
          node_sum(points, point_index_, chunk_sums_, b, e) /
          static_cast<double>(e - b);
      const geom::Vec3 c = nd.center;
      if (nd.leaf) {
        double r2 = 0.0;
        for (std::size_t i = b; i < e; ++i) {
          r2 = std::max(r2, geom::distance2(c, points[point_index_[i]]));
        }
        nd.radius = std::sqrt(r2);
      } else {
        // Bounding-sphere union over the (already current) children:
        // |c - child.center| + child.radius bounds every point of the
        // child by the triangle inequality. An upper bound on the exact
        // per-point max -- the far criteria only need containment --
        // and a fixed expression of the child aggregates in child
        // order, so it is deterministic and, crucially, O(8) per node:
        // a refit of one leaf updates its ancestor spine without ever
        // rescanning the root's full point range.
        double r = 0.0;
        for (const std::uint32_t child : nd.children) {
          const Node& ch = nodes_[child];
          r = std::max(r, std::sqrt(geom::distance2(c, ch.center)) +
                              ch.radius);
        }
        nd.radius = r;
      }
    }
  });
}

void Octree::transform(const geom::Rigid& motion) {
  for (Node& node : nodes_) {
    node.center = motion.apply(node.center);
  }
  // Centers no longer sit on the Morton grid of cube_; only the sphere
  // hierarchy survives until the points are refit or rebuilt.
  strict_ = false;
}

RefitResult Octree::refit(std::span<const geom::Vec3> points,
                          parallel::WorkStealingPool* pool) {
  return refit_impl(points, pool, /*rekey=*/false);
}

RefitResult Octree::refit_rekey(std::span<const geom::Vec3> points,
                                parallel::WorkStealingPool* pool) {
  return refit_impl(points, pool, /*rekey=*/true);
}

RefitResult Octree::refit_impl(std::span<const geom::Vec3> points,
                               parallel::WorkStealingPool* pool_in,
                               bool rekey) {
  if (points.size() != point_index_.size()) {
    throw std::invalid_argument("Octree::refit: point count changed");
  }
  RefitResult res;
  if (empty()) return res;

  OCTGB_TRACE_SCOPE("octree/refit");
  const std::size_t n = points.size();
  parallel::WorkStealingPool* pool = effective_pool(n, pool_in);

  // Moved-point detection against the last snapshot (bitwise compare:
  // no tolerance, a refit must account every drifted coordinate). The
  // first refit after a build has no snapshot and treats all points as
  // dirty -- octrees that are never refit never pay for the snapshot.
  const bool full_sweep = prev_positions_.size() != points.size();
  std::vector<std::uint8_t>& dirty = refit_dirty_;  // indexed by point id
  if (full_sweep) {
    dirty.assign(n, 1);
  } else {
    dirty.resize(n);
    // Linear pass in point-id order: both position arrays stream
    // sequentially, so the compare runs at memory bandwidth instead of
    // paying a 24-byte gather per sorted slot.
    for_range(pool, 0, n, 8192, [&](std::size_t b, std::size_t e) {
      for (std::size_t pid = b; pid < e; ++pid) {
        dirty[pid] = std::memcmp(&points[pid], &prev_positions_[pid],
                                 sizeof(geom::Vec3)) != 0
                         ? 1
                         : 0;
      }
    });
  }
  // Map the dirty ids into sorted positions through the build-time
  // inverse permutation: a byte scan plus O(dirty) appends. Everything
  // downstream (re-key, chunk refresh, node sweep, snapshot) walks this
  // list, so refit cost past this point scales with the drift, not n.
  std::vector<std::uint32_t> dirty_pos;
  for (std::size_t pid = 0; pid < n; ++pid) {
    if (dirty[pid] != 0) dirty_pos.push_back(inv_index_[pid]);
  }
  res.dirty_points = dirty_pos.size();
  OCTGB_COUNTER_ADD("octree.refits", 1);
  if (res.dirty_points == 0) return res;  // nothing moved: tree is current
  OCTGB_COUNTER_ADD("octree.refit_dirty_points", res.dirty_points);

  std::vector<std::uint32_t> leaf_of;  // owning leaf per dirty position
  {  // Re-key the dirty points and check each new key against the
     // owning leaf's octant key range. Inside the range the topology is
     // still the exact octree of the new positions; outside it the key
     // "escaped" and only a rebuild can restore strictness.
    OCTGB_TRACE_SCOPE("octree/rekey");
    leaf_of.resize(dirty_pos.size());
    std::atomic<std::size_t> escaped{0};
    for_range(pool, 0, dirty_pos.size(), 2048,
              [&](std::size_t j0, std::size_t j1) {
      std::size_t local = 0;
      for (std::size_t j = j0; j < j1; ++j) {
        const std::size_t i = dirty_pos[j];
        const std::uint64_t k =
            geom::morton_code(points[point_index_[i]], cube_);
        keys_[i] = k;
        const std::uint32_t leaf = pos_leaf_[i];
        leaf_of[j] = leaf;
        const std::uint64_t lo = node_key_lo_[leaf];
        if (k < lo || k - lo >= node_key_span(leaf)) ++local;
      }
      if (local != 0) escaped.fetch_add(local, std::memory_order_relaxed);
    });
    res.escaped_keys = escaped.load(std::memory_order_relaxed);
  }

  if (res.escaped_keys > 0) {
    OCTGB_COUNTER_ADD("octree.refit_escaped_keys", res.escaped_keys);
    if (rekey) {
      // Re-key refit contract: stale topology is never kept. Rebuild
      // from the new positions (callers drop topology-derived caches).
      build_from(points, pool_in);
      prev_positions_.assign(points.begin(), points.end());
      res.rebuilt = true;
      res.nodes_refit = nodes_.size();
      OCTGB_COUNTER_ADD("octree.refit_rebuilds", 1);
      return res;
    }
    strict_ = false;  // bounds stay exact; Morton pruning invariant lost
  } else {
    // Every current key is provably inside its leaf octant: strict if
    // it was before, and unconditionally after a full re-key.
    strict_ = strict_ || full_sweep;
  }

  {  // Sparse aggregate sweep: refresh the chunk partials that contain
     // dirty points, then recompute exactly the nodes whose range owns
     // at least one dirty point. Clean chunks/nodes keep their sums --
     // which equal what a full sweep would recompute, bit for bit.
    OCTGB_TRACE_SCOPE("octree/aggregates");
    const std::size_t nc = num_agg_chunks(n);
    std::vector<std::uint8_t> chunk_dirty(nc, 0);
    for (const std::uint32_t i : dirty_pos) chunk_dirty[i / kAggChunk] = 1;
    std::vector<std::uint32_t> dirty_chunks;
    for (std::size_t c = 0; c < nc; ++c) {
      if (chunk_dirty[c] != 0) {
        dirty_chunks.push_back(static_cast<std::uint32_t>(c));
      }
    }
    for_range(pool, 0, dirty_chunks.size(), 1,
              [&](std::size_t c0, std::size_t c1) {
                for (std::size_t j = c0; j < c1; ++j) {
                  const std::size_t c = dirty_chunks[j];
                  chunk_sums_[c] =
                      ranged_sum(points, point_index_, c * kAggChunk,
                                 std::min(n, c * kAggChunk + kAggChunk));
                }
              });

    // The nodes owning a dirty point are exactly the ancestor chains of
    // the owning leaves: walk each chain until it meets an already-
    // marked node, so the total marking work is O(dirty-node count).
    node_dirty_.assign(nodes_.size(), 0);
    for (const std::uint32_t leaf : leaf_of) {
      for (std::uint32_t id = leaf;;) {
        if (node_dirty_[id] != 0) break;
        node_dirty_[id] = 1;
        if (id == 0) break;
        id = nodes_[id].parent;
      }
    }
    std::vector<std::uint32_t> dirty_nodes;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (node_dirty_[i] != 0) {
        dirty_nodes.push_back(static_cast<std::uint32_t>(i));
      }
    }
    res.nodes_refit = dirty_nodes.size();
    OCTGB_COUNTER_ADD("octree.refit_nodes", res.nodes_refit);
    // Internal radii derive from child aggregates, so sweep the dirty
    // ids -- ascending, hence grouped by level -- deepest level first,
    // exactly as the build does.
    std::size_t hi = dirty_nodes.size();
    for (std::size_t level = level_offset_.size() - 1; level-- > 0;) {
      const auto first =
          std::lower_bound(dirty_nodes.begin(), dirty_nodes.begin() + hi,
                           level_offset_[level]);
      const auto lo = static_cast<std::size_t>(first - dirty_nodes.begin());
      if (lo != hi) {
        compute_aggregates(
            points,
            std::span<const std::uint32_t>(dirty_nodes.data() + lo, hi - lo),
            pool);
      }
      hi = lo;
      if (hi == 0) break;
    }
  }

  // Refresh the snapshot. After the first sweep only the dirty entries
  // can differ (clean ones compared bitwise equal above), so the
  // steady-state refit writes O(dirty) positions, not O(n).
  if (full_sweep) {
    prev_positions_.assign(points.begin(), points.end());
  } else {
    for (const std::uint32_t i : dirty_pos) {
      const std::uint32_t pid = point_index_[i];
      prev_positions_[pid] = points[pid];
    }
  }

  // Refit keeps topology for arbitrary drift, so leaf capacity is not
  // re-checked (pass no params) -- but the sphere hierarchy must again
  // contain every moved point, which is what the far criterion consumes.
  OCTGB_VALIDATE_CHECKPOINT(analysis::validate_octree(*this, points, nullptr),
                            "octree refit");
  return res;
}

OctreeFlatData Octree::to_flat() const {
  OctreeFlatData flat;
  flat.nodes = nodes_;
  flat.point_index = point_index_;
  flat.leaves = leaves_;
  flat.level_offset = level_offset_;
  flat.keys = keys_;
  flat.node_key_lo = node_key_lo_;
  flat.chunk_sums = chunk_sums_;
  flat.inv_index = inv_index_;
  flat.pos_leaf = pos_leaf_;
  flat.cube = cube_;
  flat.params = params_;
  flat.height = height_;
  flat.strict = strict_;
  return flat;
}

Octree Octree::from_flat(OctreeFlatData data) {
  const std::size_t n = data.point_index.size();
  if (data.keys.size() != n || data.inv_index.size() != n ||
      data.pos_leaf.size() != n) {
    throw std::invalid_argument(
        "Octree::from_flat: per-point array sizes disagree");
  }
  if (data.node_key_lo.size() != data.nodes.size()) {
    throw std::invalid_argument(
        "Octree::from_flat: node_key_lo size != node count");
  }
  if (!data.nodes.empty()) {
    if (data.level_offset.size() !=
            static_cast<std::size_t>(data.height) + 2 ||
        data.level_offset.back() != data.nodes.size()) {
      throw std::invalid_argument(
          "Octree::from_flat: level index inconsistent with node count");
    }
  }
  Octree tree;
  tree.nodes_ = std::move(data.nodes);
  tree.point_index_ = std::move(data.point_index);
  tree.leaves_ = std::move(data.leaves);
  tree.level_offset_ = std::move(data.level_offset);
  tree.keys_ = std::move(data.keys);
  tree.node_key_lo_ = std::move(data.node_key_lo);
  tree.chunk_sums_ = std::move(data.chunk_sums);
  tree.inv_index_ = std::move(data.inv_index);
  tree.pos_leaf_ = std::move(data.pos_leaf);
  tree.cube_ = data.cube;
  tree.params_ = data.params;
  tree.height_ = data.height;
  tree.strict_ = data.strict;
  return tree;
}

std::size_t Octree::memory_bytes() const {
  return nodes_.capacity() * sizeof(Node) +
         point_index_.capacity() * sizeof(std::uint32_t) +
         leaves_.capacity() * sizeof(std::uint32_t) +
         level_offset_.capacity() * sizeof(std::uint32_t) +
         keys_.capacity() * sizeof(std::uint64_t) +
         node_key_lo_.capacity() * sizeof(std::uint64_t) +
         chunk_sums_.capacity() * sizeof(geom::Vec3) +
         prev_positions_.capacity() * sizeof(geom::Vec3) +
         inv_index_.capacity() * sizeof(std::uint32_t) +
         pos_leaf_.capacity() * sizeof(std::uint32_t) +
         refit_dirty_.capacity() * sizeof(std::uint8_t) +
         node_dirty_.capacity() * sizeof(std::uint8_t);
}

}  // namespace octgb::octree
