#include "src/surface/marching.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/telemetry/telemetry.h"

namespace octgb::surface {

namespace {

// Cube corner offsets; bit 0/1/2 of the corner id select +x/+y/+z.
constexpr int kCorner[8][3] = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0},
                               {0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1}};

// Six tetrahedra sharing the 0-7 main diagonal. Face diagonals match
// between adjacent cubes, so the extracted surface is crack-free.
constexpr int kTets[6][4] = {{0, 5, 1, 7}, {0, 1, 3, 7}, {0, 3, 2, 7},
                             {0, 2, 6, 7}, {0, 6, 4, 7}, {0, 4, 5, 7}};

// parallel_for leaf sizes. Every element writes only its own slot, so
// these set task granularity, never results.
constexpr std::size_t kVertexGrain = 512;
constexpr std::size_t kTriangleGrain = 1024;

struct PairHash {
  std::size_t operator()(const std::pair<std::uint64_t, std::uint64_t>& k)
      const {
    return std::hash<std::uint64_t>()(k.first * 0x9e3779b97f4a7c15ULL ^
                                      k.second);
  }
};

}  // namespace

TriMesh marching_tetrahedra(const GaussianDensityField& field,
                            const MarchingParams& params,
                            parallel::WorkStealingPool* pool) {
  const geom::Aabb box = field.surface_bounds();
  // No atoms -> the bounds are the empty Aabb sentinel (+inf, -inf);
  // sizing the grid from it would cast inf to an integer (undefined,
  // and an FE_INVALID trap under OCTGB_FPE). No surface to extract.
  if (box.empty()) return {};
  const geom::Vec3 size = box.size();
  const double h = params.spacing;
  const auto nx = static_cast<std::size_t>(std::ceil(size.x / h)) + 1;
  const auto ny = static_cast<std::size_t>(std::ceil(size.y / h)) + 1;
  const auto nz = static_cast<std::size_t>(std::ceil(size.z / h)) + 1;
  const std::size_t nverts = nx * ny * nz;
  if (nverts > params.max_grid_vertices) {
    throw std::runtime_error(
        "marching_tetrahedra: grid too large (" + std::to_string(nverts) +
        " vertices); increase spacing or use sphere_sampled_surface");
  }

  auto vid = [&](std::size_t x, std::size_t y, std::size_t z) {
    return (z * ny + y) * nx + x;
  };
  auto vpos = [&](std::size_t x, std::size_t y, std::size_t z) {
    return geom::Vec3{box.lo.x + static_cast<double>(x) * h,
                      box.lo.y + static_cast<double>(y) * h,
                      box.lo.z + static_cast<double>(z) * h};
  };

  // Sample the field at every grid vertex. float halves the footprint;
  // iso-crossing interpolation accuracy is limited by `h`, not by this.
  std::vector<float> values(nverts);
  {
    OCTGB_TRACE_SCOPE("surface/field_sample");
    // One task per run of z-slabs.
    parallel::for_range(pool, 0, nz, 1, [&](std::size_t z0, std::size_t z1) {
      for (std::size_t z = z0; z < z1; ++z) {
        for (std::size_t y = 0; y < ny; ++y) {
          for (std::size_t x = 0; x < nx; ++x) {
            values[vid(x, y, z)] =
                static_cast<float>(field.value(vpos(x, y, z)));
          }
        }
      }
    });
  }

  // Triangle and vertex emission stays serial: the edge map numbers
  // vertices in first-cut order, which fixes the mesh layout.
  TriMesh mesh;
  {
    OCTGB_TRACE_SCOPE("surface/marching");
    // Deduplicate iso-vertices per grid edge so the mesh is indexed.
    std::unordered_map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t,
                       PairHash>
        edge_vertex;

    auto iso_vertex = [&](std::size_t va, std::size_t vb,
                          const geom::Vec3& pa, const geom::Vec3& pb,
                          double fa, double fb) -> std::uint32_t {
      const auto key =
          va < vb ? std::make_pair(va, vb) : std::make_pair(vb, va);
      const auto it = edge_vertex.find(key);
      if (it != edge_vertex.end()) return it->second;
      const double denom = fb - fa;
      const double t =
          denom == 0.0 ? 0.5  // lint:allow(float-eq) exact degenerate-edge guard
                       : std::clamp((params.iso - fa) / denom, 0.0, 1.0);
      const auto index = static_cast<std::uint32_t>(mesh.vertices.size());
      mesh.vertices.push_back(pa + (pb - pa) * t);
      edge_vertex.emplace(key, index);
      return index;
    };

    std::size_t corner_id[8];
    geom::Vec3 corner_pos[8];
    double corner_val[8];

    for (std::size_t z = 0; z + 1 < nz; ++z) {
      for (std::size_t y = 0; y + 1 < ny; ++y) {
        for (std::size_t x = 0; x + 1 < nx; ++x) {
          bool any_in = false, any_out = false;
          for (int c = 0; c < 8; ++c) {
            const std::size_t cx = x + static_cast<std::size_t>(kCorner[c][0]);
            const std::size_t cy = y + static_cast<std::size_t>(kCorner[c][1]);
            const std::size_t cz = z + static_cast<std::size_t>(kCorner[c][2]);
            corner_id[c] = vid(cx, cy, cz);
            corner_val[c] = values[corner_id[c]];
            (corner_val[c] > params.iso ? any_in : any_out) = true;
          }
          if (!any_in || !any_out) continue;  // cube entirely in or out
          for (int c = 0; c < 8; ++c) {
            corner_pos[c] =
                vpos(x + static_cast<std::size_t>(kCorner[c][0]),
                     y + static_cast<std::size_t>(kCorner[c][1]),
                     z + static_cast<std::size_t>(kCorner[c][2]));
          }

          for (const auto& tet : kTets) {
            int inside[4], n_in = 0;
            int outside[4], n_out = 0;
            for (int k = 0; k < 4; ++k) {
              if (corner_val[tet[k]] > params.iso) {
                inside[n_in++] = tet[k];
              } else {
                outside[n_out++] = tet[k];
              }
            }
            if (n_in == 0 || n_in == 4) continue;

            auto cut = [&](int a, int b) {
              return iso_vertex(corner_id[a], corner_id[b], corner_pos[a],
                                corner_pos[b], corner_val[a], corner_val[b]);
            };

            if (n_in == 1) {
              mesh.triangles.push_back({cut(inside[0], outside[0]),
                                        cut(inside[0], outside[1]),
                                        cut(inside[0], outside[2])});
            } else if (n_in == 3) {
              mesh.triangles.push_back({cut(outside[0], inside[0]),
                                        cut(outside[0], inside[1]),
                                        cut(outside[0], inside[2])});
            } else {  // n_in == 2: quad split into two triangles
              const std::uint32_t q00 = cut(inside[0], outside[0]);
              const std::uint32_t q01 = cut(inside[0], outside[1]);
              const std::uint32_t q10 = cut(inside[1], outside[0]);
              const std::uint32_t q11 = cut(inside[1], outside[1]);
              mesh.triangles.push_back({q00, q01, q11});
              mesh.triangles.push_back({q00, q11, q10});
            }
          }
        }
      }
    }
  }

  // Newton-project vertices onto the iso-surface: linear interpolation
  // along grid edges leaves O(h^2) level-set error, which the Born
  // integrals would inherit. Two damped Newton steps of
  //   x <- x + (iso - F(x)) * g / |g|^2,   g = grad F(x)
  // (step clamped to half a cell) reduce |F - iso| by orders of
  // magnitude. Vertices are deduplicated, so shared vertices move
  // identically and the mesh stays crack-free.
  {
    OCTGB_TRACE_SCOPE("surface/project");
    const double max_step = 0.5 * h;
    parallel::for_range(
        pool, 0, mesh.vertices.size(), kVertexGrain,
        [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) {
            geom::Vec3& v = mesh.vertices[i];
            for (int step = 0; step < 2; ++step) {
              const auto [f, g] = field.value_and_gradient(v);
              const double g2 = g.norm2();
              if (g2 < 1e-12) break;
              geom::Vec3 delta = g * ((params.iso - f) / g2);
              const double len = delta.norm();
              if (len > max_step) delta *= max_step / len;
              v += delta;
            }
          }
        });
  }

  // Orient every triangle outward (along -grad F at its centroid) and
  // drop degenerate slivers: each task flips its own triangles in place
  // and marks them in `keep`; a serial stable compaction then removes
  // the unmarked ones in order.
  {
    OCTGB_TRACE_SCOPE("surface/orient");
    auto& tris = mesh.triangles;
    std::vector<std::uint8_t> keep(tris.size(), 0);
    parallel::for_range(
        pool, 0, tris.size(), kTriangleGrain,
        [&](std::size_t b, std::size_t e) {
          for (std::size_t t = b; t < e; ++t) {
            if (mesh.triangle_area(t) < 1e-12) continue;
            keep[t] = 1;
            auto& tri = tris[t];
            const geom::Vec3 centroid = (mesh.vertices[tri[0]] +
                                         mesh.vertices[tri[1]] +
                                         mesh.vertices[tri[2]]) /
                                        3.0;
            const geom::Vec3 outward = field.outward_normal(centroid);
            if (mesh.triangle_normal(t).dot(outward) < 0.0) {
              std::swap(tri[1], tri[2]);
            }
          }
        });
    std::size_t kept = 0;
    for (std::size_t t = 0; t < tris.size(); ++t) {
      if (keep[t] != 0) tris[kept++] = tris[t];
    }
    tris.resize(kept);
  }
  return mesh;
}

}  // namespace octgb::surface
