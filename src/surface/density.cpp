#include "src/surface/density.h"

#include <algorithm>
#include <cmath>

namespace octgb::surface {

GaussianDensityField::GaussianDensityField(const molecule::Molecule& mol,
                                           double blobbiness)
    : blobbiness_(blobbiness),
      radii_(mol.radii().begin(), mol.radii().end()) {
  inv_r2_.resize(radii_.size());
  for (std::size_t i = 0; i < radii_.size(); ++i) {
    inv_r2_[i] = blobbiness_ / (radii_[i] * radii_[i]);
    max_radius_ = std::max(max_radius_, radii_[i]);
  }
  for (const auto& p : mol.positions()) atom_bounds_.extend(p);
  // Contribution of one atom at distance d: exp(-B(d^2/r^2 - 1)).
  // It drops below 1e-7 when d^2/r^2 > 1 + ln(1e7)/B.
  const double k = std::sqrt(1.0 + std::log(1e7) / blobbiness_);
  cutoff_ = k * std::max(max_radius_, 0.1);
  cells_ = geom::CellList(mol.positions(), std::max(cutoff_ / 2.0, 1.0));
}

template <typename Fn>
void GaussianDensityField::for_each_near(const geom::Vec3& x,
                                         Fn&& fn) const {
  cells_.for_each_within(x, cutoff_, fn);
}

double GaussianDensityField::value(const geom::Vec3& x) const {
  double f = 0.0;
  for_each_near(x, [&](std::uint32_t i, const geom::Vec3& c) {
    const double d2 = geom::distance2(x, c);
    f += std::exp(-(d2 * inv_r2_[i] - blobbiness_));
  });
  return f;
}

geom::Vec3 GaussianDensityField::gradient(const geom::Vec3& x) const {
  return value_and_gradient(x).gradient;
}

GaussianDensityField::ValueGradient GaussianDensityField::value_and_gradient(
    const geom::Vec3& x) const {
  ValueGradient vg;
  for_each_near(x, [&](std::uint32_t i, const geom::Vec3& c) {
    const double d2 = geom::distance2(x, c);
    const double e = std::exp(-(d2 * inv_r2_[i] - blobbiness_));
    vg.value += e;
    vg.gradient += (x - c) * (-2.0 * inv_r2_[i] * e);
  });
  return vg;
}

geom::Vec3 GaussianDensityField::outward_normal(const geom::Vec3& x) const {
  return (-gradient(x)).normalized();
}

geom::Aabb GaussianDensityField::surface_bounds() const {
  // The iso-surface of a single atom extends to r_i from its center;
  // superposition only shrinks the outer level set inward of the union
  // plus a small blending margin. One cutoff of padding is safely
  // conservative.
  return atom_bounds_.padded(max_radius_ + 1.0);
}

}  // namespace octgb::surface
