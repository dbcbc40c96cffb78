// det_reduce.h -- order-deterministic parallel floating-point sums.
//
// Floating-point addition is not associative, so the obvious pooled
// reduction -- each worker chunk fetch_add()ing its partial into a
// shared std::atomic<double> -- produces a sum whose rounding depends
// on which worker finished first. The result differs run-to-run and
// worker-count-to-worker-count in the last ulps, which silently breaks
// every bit-identical-replay contract downstream (detlint rule
// `shared-float-accum`; DESIGN.md §17).
//
// deterministic_sum() fixes the reduction order by construction: each
// index i of [begin, end) computes its term into a private slot
// partial[i - begin] (disjoint writes, no atomics), and the slots are
// then accumulated serially in ascending index order. That association
// -- ((t0 + t1) + t2) + ... -- is exactly the serial loop's, so
//
//   * the result is bit-identical at ANY worker count, including the
//     serial (pool == nullptr) path, which never allocates and simply
//     runs the plain left-to-right loop;
//   * pre-existing golden values computed by the old serial paths are
//     reproduced exactly (the parallel path converges TO the serial
//     answer, not to a third value).
//
// The cost is one double per index and one extra serial pass -- noise
// next to per-term kernel work (an octree walk, a leaf-leaf block).
// For cheap terms, batch them: make `body(i)` sum a fixed slice.
#pragma once

#include <cstddef>
#include <vector>

#include "src/parallel/pool.h"

namespace octgb::parallel {

/// Sums body(i) for i in [begin, end) with a fixed, worker-count-
/// independent reduction order (ascending i, left-to-right). `body`
/// must be safe to call concurrently for distinct i and must not
/// depend on evaluation order. Must be called from inside pool->run()
/// when a pool is given (same contract as parallel_for).
template <typename Body>
double deterministic_sum(WorkStealingPool* pool, std::size_t begin,
                         std::size_t end, Body&& body) {
  if (begin >= end) return 0.0;
  if (pool == nullptr) {
    double total = 0.0;
    for (std::size_t i = begin; i < end; ++i) total += body(i);
    return total;
  }
  std::vector<double> partial(end - begin, 0.0);
  parallel_for(*pool, begin, end, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) partial[i - begin] = body(i);
  });
  double total = 0.0;
  for (const double term : partial) total += term;
  return total;
}

/// deterministic_sum as a complete parallel region: enters pool->run()
/// itself (the plain serial loop without a pool), for callers that are
/// not already running on the pool.
template <typename Body>
double run_deterministic_sum(WorkStealingPool* pool, std::size_t begin,
                             std::size_t end, Body&& body) {
  if (pool == nullptr) return deterministic_sum(nullptr, begin, end, body);
  double total = 0.0;
  pool->run([&] { total = deterministic_sum(pool, begin, end, body); });
  return total;
}

}  // namespace octgb::parallel
