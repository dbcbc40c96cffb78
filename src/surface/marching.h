// marching.h -- iso-surface extraction by marching tetrahedra.
//
// Each grid cube is split into the standard 6 tetrahedra sharing the main
// diagonal; each tetrahedron contributes 0-2 triangles with vertices
// linearly interpolated along its edges. Marching tetrahedra is chosen
// over marching cubes because it needs no 256-case lookup table, has no
// ambiguous cases, and produces a consistent (crack-free) triangulation
// across cube faces -- at the cost of somewhat more triangles, which for
// a quadrature consumer is harmless.
#pragma once

#include <cstddef>

#include "src/parallel/pool.h"
#include "src/surface/density.h"
#include "src/surface/mesh.h"

namespace octgb::surface {

struct MarchingParams {
  double spacing = 0.7;  // grid spacing in Angstrom
  double iso = 1.0;      // level-set value (1.0 = the Gaussian surface)
  /// Guard against accidentally rasterizing a virus: extraction throws
  /// std::runtime_error if the grid would exceed this many vertices.
  /// (Large molecules use the sphere-sampled surface instead.)
  std::size_t max_grid_vertices = 160'000'000;
};

/// Extracts the iso-surface of `field` over its surface bounds.
/// Triangles are oriented outward (consistent with the density gradient);
/// degenerate triangles are dropped.
///
/// With a pool, the per-element stages (grid sampling, vertex
/// projection, orientation) run under parallel_for, each element
/// writing only its own slot; triangle and vertex emission stays
/// serial. The mesh is bit-identical at any worker count and without a
/// pool.
TriMesh marching_tetrahedra(const GaussianDensityField& field,
                            const MarchingParams& params = {},
                            parallel::WorkStealingPool* pool = nullptr);

}  // namespace octgb::surface
