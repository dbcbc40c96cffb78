// density.h -- Gaussian molecular density field.
//
// The molecular surface is taken as the level set F(x) = 1 of a Blinn-
// style sum of atom Gaussians
//
//   F(x) = sum_i exp(-B * (|x - c_i|^2 / r_i^2 - 1)),
//
// which for an isolated atom is exactly the sphere |x - c_i| = r_i, and
// for overlapping atoms blends smoothly (B, the "blobbiness", controls
// how much). This is the standard Gaussian surface used by molecular
// surface tools; the paper's pipeline triangulates such a surface and
// places Gauss quadrature points on the triangles.
#pragma once

#include <span>

#include "src/geom/celllist.h"
#include "src/geom/vec3.h"
#include "src/molecule/molecule.h"

namespace octgb::surface {

class GaussianDensityField {
 public:
  /// `blobbiness` B >= 1; larger B gives a tighter (more vdW-like)
  /// surface. Atom radii/positions are copied.
  explicit GaussianDensityField(const molecule::Molecule& mol,
                                double blobbiness = 2.3);

  double blobbiness() const { return blobbiness_; }

  /// Distance beyond which an atom's Gaussian is treated as zero
  /// (contribution < ~1e-7 at the surface level).
  double cutoff() const { return cutoff_; }

  /// F(x).
  double value(const geom::Vec3& x) const;

  /// Analytic gradient of F.
  geom::Vec3 gradient(const geom::Vec3& x) const;

  struct ValueGradient {
    double value = 0.0;
    geom::Vec3 gradient;
  };
  /// F(x) and grad F(x) in one neighbour pass: each atom's exp is taken
  /// once and both sums run in value()'s and gradient()'s order, so the
  /// result is bit-equal to the two separate calls.
  ValueGradient value_and_gradient(const geom::Vec3& x) const;

  /// Outward unit surface normal at x (valid near the iso-surface):
  /// -grad F / |grad F|, since F decreases outward.
  geom::Vec3 outward_normal(const geom::Vec3& x) const;

  /// Bounds guaranteed to contain the iso-surface F = 1.
  geom::Aabb surface_bounds() const;

 private:
  template <typename Fn>
  void for_each_near(const geom::Vec3& x, Fn&& fn) const;

  double blobbiness_;
  double cutoff_;
  std::vector<double> radii_;
  std::vector<double> inv_r2_;  // B / r_i^2, premultiplied
  geom::CellList cells_;
  geom::Aabb atom_bounds_;
  double max_radius_ = 0.0;
};

}  // namespace octgb::surface
