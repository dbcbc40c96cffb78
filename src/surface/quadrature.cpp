#include "src/surface/quadrature.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "src/geom/celllist.h"
#include "src/surface/marching.h"
#include "src/telemetry/telemetry.h"
#include "src/util/log.h"

namespace octgb::surface {

namespace {

constexpr double kPi = std::numbers::pi;

// Triangles per sample_mesh chunk: the unit of the q-point offset
// prefix sum and of parallel work. Fixed, so offsets never depend on
// the worker count.
constexpr std::size_t kSampleChunk = 1024;

// Expands a symmetric orbit (a, b, b) into its 3 permutations, or returns
// the centroid once for a == b == 1/3.
void add_orbit(TriangleRule& rule, double a, double b, double w) {
  if (std::abs(a - b) < 1e-15) {
    rule.nodes.push_back({a, b, b});
    rule.weights.push_back(w);
    return;
  }
  rule.nodes.push_back({a, b, b});
  rule.nodes.push_back({b, a, b});
  rule.nodes.push_back({b, b, a});
  rule.weights.push_back(w);
  rule.weights.push_back(w);
  rule.weights.push_back(w);
}

TriangleRule make_rule(int degree) {
  TriangleRule rule;
  rule.degree = degree;
  switch (degree) {
    case 1:
      add_orbit(rule, 1.0 / 3.0, 1.0 / 3.0, 1.0);
      break;
    case 2:
      add_orbit(rule, 2.0 / 3.0, 1.0 / 6.0, 1.0 / 3.0);
      break;
    case 3:
      add_orbit(rule, 1.0 / 3.0, 1.0 / 3.0, -27.0 / 48.0);
      add_orbit(rule, 0.6, 0.2, 25.0 / 48.0);
      break;
    case 4:
      add_orbit(rule, 0.108103018168070, 0.445948490915965,
                0.223381589678011);
      add_orbit(rule, 0.816847572980459, 0.091576213509771,
                0.109951743655322);
      break;
    case 5:
      add_orbit(rule, 1.0 / 3.0, 1.0 / 3.0, 0.225);
      add_orbit(rule, 0.059715871789770, 0.470142064105115,
                0.132394152788506);
      add_orbit(rule, 0.797426985353087, 0.101286507323456,
                0.125939180544827);
      break;
    default:
      throw std::invalid_argument("dunavant_rule: degree must be 1..5");
  }
  return rule;
}

}  // namespace

const TriangleRule& dunavant_rule(int degree) {
  static const TriangleRule rules[5] = {make_rule(1), make_rule(2),
                                        make_rule(3), make_rule(4),
                                        make_rule(5)};
  if (degree < 1 || degree > 5) {
    throw std::invalid_argument("dunavant_rule: degree must be 1..5");
  }
  return rules[degree - 1];
}

QuadratureSurface sample_mesh(const TriMesh& mesh,
                              const GaussianDensityField& field, int degree,
                              parallel::WorkStealingPool* pool) {
  OCTGB_TRACE_SCOPE("surface/quadrature");
  const TriangleRule& rule = dunavant_rule(degree);
  const std::size_t nodes = rule.nodes.size();
  const std::size_t num_tris = mesh.num_triangles();
  // Zero-area triangles get no q-points, so a triangle's first slot
  // depends on how many triangles before it are kept. Count per fixed
  // chunk of triangles, prefix-sum the counts, then let each chunk
  // write from its own offset.
  const std::size_t num_chunks = (num_tris + kSampleChunk - 1) / kSampleChunk;
  std::vector<std::size_t> offset(num_chunks + 1, 0);
  const auto for_chunks = [&](auto&& chunk_body) {
    parallel::for_range(pool, 0, num_chunks, 1,
                        [&](std::size_t c0, std::size_t c1) {
                          for (std::size_t c = c0; c < c1; ++c) {
                            chunk_body(c, c * kSampleChunk,
                                       std::min(num_tris,
                                                (c + 1) * kSampleChunk));
                          }
                        });
  };
  for_chunks([&](std::size_t chunk, std::size_t t0, std::size_t t1) {
    std::size_t kept = 0;
    for (std::size_t t = t0; t < t1; ++t) {
      if (mesh.triangle_area(t) > 0.0) ++kept;
    }
    offset[chunk + 1] = kept * nodes;
  });
  for (std::size_t c = 0; c < num_chunks; ++c) offset[c + 1] += offset[c];

  QuadratureSurface surf;
  surf.points.resize(offset[num_chunks]);
  surf.normals.resize(offset[num_chunks]);
  surf.weights.resize(offset[num_chunks]);
  for_chunks([&](std::size_t chunk, std::size_t t0, std::size_t t1) {
    std::size_t q = offset[chunk];
    for (std::size_t t = t0; t < t1; ++t) {
      const double area = mesh.triangle_area(t);
      if (area <= 0.0) continue;
      const geom::Vec3 a = mesh.triangle_vertex(t, 0);
      const geom::Vec3 b = mesh.triangle_vertex(t, 1);
      const geom::Vec3 c = mesh.triangle_vertex(t, 2);
      const geom::Vec3 facet_normal = mesh.triangle_normal(t);
      for (std::size_t k = 0; k < nodes; ++k, ++q) {
        const auto& bc = rule.nodes[k];
        const geom::Vec3 p = a * bc[0] + b * bc[1] + c * bc[2];
        geom::Vec3 normal = field.outward_normal(p);
        // Near-flat density (deep pockets) can zero the gradient; fall
        // back to the facet normal, which is always outward-wound.
        if (normal.norm2() < 0.5) normal = facet_normal;
        surf.points[q] = p;
        surf.normals[q] = normal;
        surf.weights[q] = area * rule.weights[k];
      }
    }
  });
  return surf;
}

QuadratureSurface sphere_sampled_surface(const molecule::Molecule& mol,
                                         int points_per_atom,
                                         double probe) {
  return sphere_sampled_surface_slice(mol, points_per_atom, probe, 0,
                                      mol.size());
}

QuadratureSurface sphere_sampled_surface_slice(const molecule::Molecule& mol,
                                               int points_per_atom,
                                               double probe,
                                               std::size_t atom_begin,
                                               std::size_t atom_end) {
  QuadratureSurface surf;
  atom_end = std::min(atom_end, mol.size());
  if (mol.empty() || points_per_atom <= 0 || atom_begin >= atom_end) {
    return surf;
  }

  // Fibonacci lattice directions, shared by all atoms.
  std::vector<geom::Vec3> dirs;
  dirs.reserve(static_cast<std::size_t>(points_per_atom));
  const double golden = kPi * (3.0 - std::sqrt(5.0));
  for (int k = 0; k < points_per_atom; ++k) {
    const double z = 1.0 - (2.0 * k + 1.0) / points_per_atom;
    const double r = std::sqrt(std::max(0.0, 1.0 - z * z));
    const double phi = golden * k;
    dirs.push_back({r * std::cos(phi), r * std::sin(phi), z});
  }

  const double max_r = mol.max_radius() + probe;
  const geom::CellList cells(mol.positions(), std::max(2.0 * max_r, 1.0));
  const auto positions = mol.positions();
  const auto radii = mol.radii();

  for (std::size_t i = atom_begin; i < atom_end; ++i) {
    const double ri = radii[i] + probe;
    const double w = 4.0 * kPi * ri * ri / points_per_atom;
    for (const auto& d : dirs) {
      const geom::Vec3 p = positions[i] + d * ri;
      bool buried = false;
      cells.for_each_within(p, max_r, [&](std::uint32_t j,
                                          const geom::Vec3& cj) {
        if (buried || j == i) return;
        // Strictly inside atom j's inflated sphere (tolerance avoids
        // chattering on exact tangency between equal-radius atoms).
        const double rj = radii[j] + probe;
        if (geom::distance2(p, cj) < rj * rj * (1.0 - 1e-9)) {
          buried = true;
        }
      });
      if (!buried) {
        surf.points.push_back(p);
        surf.normals.push_back(d);
        surf.weights.push_back(w);
      }
    }
  }
  return surf;
}

QuadratureSurface build_surface(const molecule::Molecule& mol,
                                const SurfaceParams& params,
                                parallel::WorkStealingPool* pool) {
  if (mol.size() <= params.mesh_atom_limit) {
    const GaussianDensityField field(mol, params.blobbiness);
    MarchingParams mp;
    mp.spacing = params.spacing;
    try {
      const TriMesh mesh = marching_tetrahedra(field, mp, pool);
      if (!mesh.triangles.empty()) {
        QuadratureSurface surf =
            sample_mesh(mesh, field, params.quadrature_degree, pool);
        util::log_debug("surface: mesh path, ", mesh.num_triangles(),
                        " triangles, ", surf.size(), " q-points");
        OCTGB_COUNTER_ADD("surface.triangles", mesh.num_triangles());
        OCTGB_COUNTER_ADD("surface.qpoints", surf.size());
        return surf;
      }
    } catch (const std::runtime_error& e) {
      // Grid blew the vertex budget (sparse/elongated molecule): fall
      // through to the O(N) path.
      util::log_info("surface: mesh path unavailable (", e.what(),
                     "); using sphere sampling");
    }
  }
  QuadratureSurface surf = sphere_sampled_surface(mol, params.sphere_points,
                                                  params.sphere_probe);
  OCTGB_COUNTER_ADD("surface.qpoints", surf.size());
  return surf;
}

}  // namespace octgb::surface
