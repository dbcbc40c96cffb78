// quadrature.h -- Gaussian quadrature points on the molecular surface.
//
// This produces the paper's q-point set Q: positions p_q on the surface,
// unit outward normals n_q, and weights w_q such that for a smooth f,
//   integral_S f(r) dA  ~=  sum_q w_q f(p_q).
// The Born radius integrals (Eqs. 3 and 4) are then discrete sums over Q.
//
// Two generators are provided:
//  * sample_mesh: Dunavant symmetric Gauss rules (degrees 1-5) on each
//    triangle of an extracted iso-surface mesh -- the paper's "constant
//    number of quadrature points per triangle".
//  * sphere_sampled_surface: per-atom Fibonacci sampling of the exposed
//    van der Waals spheres -- O(N) with no grid, used for virus-scale
//    molecules where rasterizing a grid is wasteful.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "src/molecule/molecule.h"
#include "src/parallel/pool.h"
#include "src/surface/density.h"
#include "src/surface/mesh.h"

namespace octgb::surface {

/// The q-point set: parallel arrays of position, unit outward normal and
/// area weight.
struct QuadratureSurface {
  std::vector<geom::Vec3> points;
  std::vector<geom::Vec3> normals;
  std::vector<double> weights;

  std::size_t size() const { return points.size(); }

  /// Sum of weights == estimated surface area.
  double total_area() const {
    double a = 0.0;
    for (double w : weights) a += w;
    return a;
  }
};

/// A symmetric Gauss rule on the reference triangle: barycentric nodes
/// and weights summing to 1 (multiply by triangle area).
struct TriangleRule {
  int degree = 1;  // exactly integrates polynomials up to this degree
  std::vector<std::array<double, 3>> nodes;  // barycentric coordinates
  std::vector<double> weights;               // sum to 1
};

/// Dunavant (1985) rules for degree 1..5. Throws std::invalid_argument
/// outside that range.
const TriangleRule& dunavant_rule(int degree);

/// Places `rule(degree)` quadrature points on every triangle of `mesh`
/// with positive area, in triangle order. Normals are taken from the
/// density gradient at each node (more accurate than facet normals for
/// coarse meshes). With a pool, triangles are sampled under
/// parallel_for straight into their final slots; the output is
/// bit-identical at any worker count and without a pool.
QuadratureSurface sample_mesh(const TriMesh& mesh,
                              const GaussianDensityField& field,
                              int degree = 2,
                              parallel::WorkStealingPool* pool = nullptr);

/// Quadrature of the union-of-spheres surface: for each atom,
/// `points_per_atom` Fibonacci-lattice points on its sphere of radius
/// r_i + probe, with points buried inside any other atom's inflated
/// sphere discarded; each retained point carries weight
/// 4*pi*(r+probe)^2 / points_per_atom and the radial normal. `probe`
/// inflates the surface toward the solvent-excluded boundary: the bare
/// vdW union (probe = 0) is deeply creviced and overestimates |E_pol|
/// ~3x relative to the smooth Gaussian surface; probe ~ 1.1 A brings
/// the two pipelines into agreement (validated in tests).
QuadratureSurface sphere_sampled_surface(const molecule::Molecule& mol,
                                         int points_per_atom = 64,
                                         double probe = 1.1);

/// Slice generator for distributed-data runs: produces only the q-points
/// belonging to atoms [atom_begin, atom_end) (burial tests still run
/// against the whole molecule, so the union of all slices equals the
/// full surface exactly). Each rank of a data-distributed run builds
/// its own slice -- per-rank surface memory drops by a factor P, the
/// paper's Section VI "distributing data as well as computation".
QuadratureSurface sphere_sampled_surface_slice(const molecule::Molecule& mol,
                                               int points_per_atom,
                                               double probe,
                                               std::size_t atom_begin,
                                               std::size_t atom_end);

/// Unified surface pipeline parameters.
struct SurfaceParams {
  double spacing = 1.4;         // marching grid spacing
  int quadrature_degree = 1;    // Dunavant degree per triangle
  /// Pipeline default 1.0 (smoother than the vdW-tight 2.3): fills the
  /// small interior voids of packed molecules so the q-point budget goes
  /// to the solvent-facing surface, keeping the q-point/atom ratio in
  /// the paper's regime.
  double blobbiness = 1.0;
  int sphere_points = 32;       // per-atom samples for the O(N) path
  double sphere_probe = 1.1;    // probe inflation for the O(N) path
  /// Molecules above this atom count (or whose grid would explode) use
  /// the sphere-sampled path.
  std::size_t mesh_atom_limit = 60'000;
};

/// Builds the q-point set for a molecule, auto-selecting the triangulated
/// path for small/medium molecules and the sphere-sampled path for large
/// ones (the selection can be forced via the params). A pool runs the
/// triangulated path's per-element stages in parallel (see
/// marching_tetrahedra and sample_mesh); the q-points are bit-identical
/// at any worker count and without a pool.
QuadratureSurface build_surface(const molecule::Molecule& mol,
                                const SurfaceParams& params = {},
                                parallel::WorkStealingPool* pool = nullptr);

}  // namespace octgb::surface
