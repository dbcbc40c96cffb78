// Tests for the surface pipeline: density field, marching tetrahedra,
// Dunavant rules, quadrature surfaces. The decisive checks are the
// divergence-theorem identities the Born-radius integrals rely on:
// for a sphere of radius R and its center x,
//   (1/4pi)  sum w (r-x).n / |r-x|^4  = 1/R      (r^4 form, Eq. 3)
//   (1/4pi)  sum w (r-x).n / |r-x|^6  = 1/R^3    (r^6 form, Eq. 4)
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <vector>

#include "src/molecule/generators.h"
#include "src/parallel/pool.h"
#include "src/surface/density.h"
#include "src/surface/marching.h"
#include "src/surface/mesh.h"
#include "src/surface/quadrature.h"
#include "src/telemetry/telemetry.h"

namespace octgb::surface {
namespace {

constexpr double kPi = std::numbers::pi;

molecule::Molecule single_atom(double radius) {
  molecule::Molecule mol("atom");
  mol.add_atom({{0, 0, 0}, radius, -0.5, molecule::Element::O});
  return mol;
}

// Discrete Born-integral of the quadrature surface at observation point x.
double surface_integral(const QuadratureSurface& s, const geom::Vec3& x,
                        int power) {
  double sum = 0.0;
  for (std::size_t q = 0; q < s.size(); ++q) {
    const geom::Vec3 d = s.points[q] - x;
    const double r2 = d.norm2();
    const double denom = power == 4 ? r2 * r2 : r2 * r2 * r2;
    sum += s.weights[q] * d.dot(s.normals[q]) / denom;
  }
  return sum / (4.0 * kPi);
}

TEST(DensityTest, SingleAtomIsoSurfaceIsItsSphere) {
  const auto mol = single_atom(1.7);
  const GaussianDensityField field(mol);
  EXPECT_NEAR(field.value({1.7, 0, 0}), 1.0, 1e-9);
  EXPECT_GT(field.value({1.0, 0, 0}), 1.0);  // inside
  EXPECT_LT(field.value({2.5, 0, 0}), 1.0);  // outside
}

// Worker counts every pooled surface stage must agree across.
constexpr int kWorkerCounts[] = {1, 2, 4, 8};

bool bit_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool bit_equal(const geom::Vec3& a, const geom::Vec3& b) {
  return bit_equal(a.x, b.x) && bit_equal(a.y, b.y) && bit_equal(a.z, b.z);
}

// First index where two q-point sets differ in any bit, or -1.
long first_difference(const QuadratureSurface& a, const QuadratureSurface& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t q = 0; q < a.size(); ++q) {
    if (!bit_equal(a.points[q], b.points[q]) ||
        !bit_equal(a.normals[q], b.normals[q]) ||
        !bit_equal(a.weights[q], b.weights[q])) {
      return static_cast<long>(q);
    }
  }
  return -1;
}

TEST(DensityTest, ValueAndGradientBitEqualsSeparateCalls) {
  const auto mol = molecule::generate_protein(300, 4);
  const GaussianDensityField field(mol);
  for (std::size_t i = 0; i < mol.size(); i += 7) {
    for (const geom::Vec3 off : {geom::Vec3{0.3, -1.1, 0.8},
                                 geom::Vec3{1.9, 0.2, -0.4},
                                 geom::Vec3{0, 0, 0}}) {
      const geom::Vec3 x = mol.atom(i).position + off;
      const auto vg = field.value_and_gradient(x);
      EXPECT_TRUE(bit_equal(vg.value, field.value(x))) << "atom " << i;
      EXPECT_TRUE(bit_equal(vg.gradient, field.gradient(x))) << "atom " << i;
    }
  }
}

TEST(DensityTest, GradientMatchesFiniteDifferences) {
  const auto mol = molecule::generate_ligand(20, 3);
  const GaussianDensityField field(mol);
  const geom::Vec3 x = mol.atom(0).position + geom::Vec3{1.2, 0.4, -0.6};
  const geom::Vec3 g = field.gradient(x);
  const double h = 1e-6;
  EXPECT_NEAR(g.x,
              (field.value(x + geom::Vec3{h, 0, 0}) -
               field.value(x - geom::Vec3{h, 0, 0})) /
                  (2 * h),
              1e-5);
  EXPECT_NEAR(g.z,
              (field.value(x + geom::Vec3{0, 0, h}) -
               field.value(x - geom::Vec3{0, 0, h})) /
                  (2 * h),
              1e-5);
}

TEST(DensityTest, OutwardNormalPointsAwayFromAtom) {
  const auto mol = single_atom(1.5);
  const GaussianDensityField field(mol);
  const geom::Vec3 on_surface{1.5, 0, 0};
  const geom::Vec3 n = field.outward_normal(on_surface);
  EXPECT_NEAR(n.x, 1.0, 1e-9);
  EXPECT_NEAR(n.norm(), 1.0, 1e-12);
}

TEST(DensityTest, SurfaceBoundsContainIsoSurface) {
  const auto mol = molecule::generate_protein(300, 4);
  const GaussianDensityField field(mol);
  const geom::Aabb bounds = field.surface_bounds();
  // Everywhere on the bounds' faces F must be < 1 (outside the surface).
  EXPECT_LT(field.value(bounds.lo), 1.0);
  EXPECT_LT(field.value(bounds.hi), 1.0);
}

TEST(MarchingTest, SphereAreaConverges) {
  const double r = 1.7;
  const auto mol = single_atom(r);
  const GaussianDensityField field(mol);
  MarchingParams params;
  params.spacing = 0.25;
  const TriMesh mesh = marching_tetrahedra(field, params);
  EXPECT_GT(mesh.num_triangles(), 100u);
  EXPECT_NEAR(mesh.area(), 4.0 * kPi * r * r, 0.05 * 4.0 * kPi * r * r);
}

TEST(MarchingTest, VerticesLieOnTheIsoSurface) {
  const auto mol = molecule::generate_ligand(15, 8);
  const GaussianDensityField field(mol);
  MarchingParams params;
  params.spacing = 0.4;
  const TriMesh mesh = marching_tetrahedra(field, params);
  ASSERT_GT(mesh.vertices.size(), 0u);
  // Linear interpolation along short edges keeps |F - 1| small.
  double worst = 0.0;
  for (const auto& v : mesh.vertices) {
    worst = std::max(worst, std::abs(field.value(v) - 1.0));
  }
  EXPECT_LT(worst, 0.05);  // Newton-refined vertices
}

TEST(MarchingTest, TrianglesAreOrientedOutward) {
  const auto mol = single_atom(1.6);
  const GaussianDensityField field(mol);
  const TriMesh mesh = marching_tetrahedra(field, {});
  for (std::size_t t = 0; t < mesh.num_triangles(); ++t) {
    const geom::Vec3 centroid = (mesh.triangle_vertex(t, 0) +
                                 mesh.triangle_vertex(t, 1) +
                                 mesh.triangle_vertex(t, 2)) /
                                3.0;
    // For a sphere at origin, outward == radial.
    EXPECT_GT(mesh.triangle_normal(t).dot(centroid.normalized()), 0.0);
  }
}

TEST(MarchingTest, GridBudgetGuardThrows) {
  const auto mol = molecule::generate_protein(500, 2);
  const GaussianDensityField field(mol);
  MarchingParams params;
  params.spacing = 0.5;
  params.max_grid_vertices = 10;
  EXPECT_THROW(marching_tetrahedra(field, params), std::runtime_error);
}

TEST(MarchingTest, PooledMeshBitIdenticalToSerial) {
  const auto mol = molecule::generate_protein(1500, 12);
  const GaussianDensityField field(mol, 1.0);
  MarchingParams params;
  params.spacing = 1.4;
  const TriMesh serial = marching_tetrahedra(field, params);
  ASSERT_GT(serial.num_triangles(), 4096u);  // several tasks per stage
  for (const int workers : kWorkerCounts) {
    parallel::WorkStealingPool pool(workers);
    const TriMesh pooled = marching_tetrahedra(field, params, &pool);
    ASSERT_EQ(pooled.vertices.size(), serial.vertices.size());
    ASSERT_EQ(pooled.triangles, serial.triangles) << "workers=" << workers;
    for (std::size_t v = 0; v < serial.vertices.size(); ++v) {
      ASSERT_TRUE(bit_equal(pooled.vertices[v], serial.vertices[v]))
          << "workers=" << workers << " vertex " << v;
    }
  }
}

TEST(DunavantTest, WeightsSumToOne) {
  for (int degree = 1; degree <= 5; ++degree) {
    const TriangleRule& rule = dunavant_rule(degree);
    double sum = 0.0;
    for (double w : rule.weights) sum += w;
    EXPECT_NEAR(sum, 1.0, 1e-12) << "degree " << degree;
    EXPECT_EQ(rule.nodes.size(), rule.weights.size());
  }
}

TEST(DunavantTest, InvalidDegreeThrows) {
  EXPECT_THROW(dunavant_rule(0), std::invalid_argument);
  EXPECT_THROW(dunavant_rule(6), std::invalid_argument);
}

// Exact integral of x^p y^q over the reference triangle
// {(0,0),(1,0),(0,1)} is p! q! / (p+q+2)!.
double monomial_integral(int p, int q) {
  auto fact = [](int n) {
    double f = 1.0;
    for (int i = 2; i <= n; ++i) f *= i;
    return f;
  };
  return fact(p) * fact(q) / fact(p + q + 2);
}

class DunavantExactness : public ::testing::TestWithParam<int> {};

TEST_P(DunavantExactness, IntegratesPolynomialsUpToDegree) {
  const int degree = GetParam();
  const TriangleRule& rule = dunavant_rule(degree);
  // Reference triangle corners for barycentric evaluation.
  const double area = 0.5;
  for (int p = 0; p <= degree; ++p) {
    for (int q = 0; p + q <= degree; ++q) {
      double sum = 0.0;
      for (std::size_t k = 0; k < rule.nodes.size(); ++k) {
        // Cartesian point: x = b1, y = b2 with corners (0,0),(1,0),(0,1).
        const double x = rule.nodes[k][1];
        const double y = rule.nodes[k][2];
        sum += rule.weights[k] * std::pow(x, p) * std::pow(y, q);
      }
      sum *= area;
      EXPECT_NEAR(sum, monomial_integral(p, q), 1e-12)
          << "degree " << degree << " monomial x^" << p << " y^" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDegrees, DunavantExactness,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(QuadratureTest, MeshSamplingPreservesArea) {
  const auto mol = single_atom(1.7);
  const GaussianDensityField field(mol);
  MarchingParams params;
  params.spacing = 0.3;
  const TriMesh mesh = marching_tetrahedra(field, params);
  for (int degree : {1, 2, 3, 5}) {
    const QuadratureSurface s = sample_mesh(mesh, field, degree);
    EXPECT_NEAR(s.total_area(), mesh.area(), 1e-9 * mesh.area())
        << "degree " << degree;
    EXPECT_EQ(s.size(),
              mesh.num_triangles() * dunavant_rule(degree).nodes.size());
  }
}

TEST(QuadratureTest, PooledSampleMeshMatchesSerialMultiNodeRule) {
  const auto mol = molecule::generate_protein(800, 5);
  const GaussianDensityField field(mol, 1.0);
  MarchingParams params;
  params.spacing = 1.4;
  const TriMesh mesh = marching_tetrahedra(field, params);
  const QuadratureSurface serial = sample_mesh(mesh, field, 3);
  ASSERT_EQ(serial.size(), mesh.num_triangles() * 4);  // 4 nodes each
  for (const int workers : kWorkerCounts) {
    parallel::WorkStealingPool pool(workers);
    EXPECT_EQ(first_difference(sample_mesh(mesh, field, 3, &pool), serial),
              -1)
        << "workers=" << workers;
  }
}

TEST(QuadratureTest, PooledSampleMeshSkipsZeroAreaTrianglesLikeSerial) {
  // Zero-area triangles take no q-point slots, so every later triangle's
  // output shifts: spread them over several sampling chunks, including
  // the first and last triangle.
  const auto mol = molecule::generate_protein(800, 5);
  const GaussianDensityField field(mol, 1.0);
  MarchingParams params;
  params.spacing = 1.4;
  const TriMesh clean = marching_tetrahedra(field, params);
  TriMesh mesh;
  mesh.vertices = clean.vertices;
  const std::array<std::uint32_t, 3> degenerate{0, 0, 1};
  for (std::size_t t = 0; t < clean.num_triangles(); ++t) {
    if (t % 1500 == 0) mesh.triangles.push_back(degenerate);
    mesh.triangles.push_back(clean.triangles[t]);
  }
  mesh.triangles.push_back(degenerate);
  ASSERT_GT(mesh.num_triangles(), 3000u);
  ASSERT_EQ(mesh.triangle_area(0), 0.0);

  const QuadratureSurface want = sample_mesh(clean, field, 2);
  EXPECT_EQ(first_difference(sample_mesh(mesh, field, 2), want), -1);
  for (const int workers : kWorkerCounts) {
    parallel::WorkStealingPool pool(workers);
    EXPECT_EQ(first_difference(sample_mesh(mesh, field, 2, &pool), want), -1)
        << "workers=" << workers;
  }
}

TEST(QuadratureTest, BuildSurfaceEmitsStageSpansAndCounters) {
  auto& reg = telemetry::MetricsRegistry::instance();
  const std::uint64_t tris0 = reg.counter("surface.triangles").value();
  const std::uint64_t q0 = reg.counter("surface.qpoints").value();
  telemetry::TraceRecorder& rec = telemetry::TraceRecorder::instance();
  rec.reset();
  rec.set_enabled(true);
  parallel::WorkStealingPool pool(2);
  const QuadratureSurface s =
      build_surface(molecule::generate_protein(300, 4), {}, &pool);
  rec.set_enabled(false);
  const std::vector<telemetry::TraceEvent> events = rec.collect();
  rec.reset();
  ASSERT_GT(s.size(), 0u);
#if defined(OCTGB_TELEMETRY_ENABLED)
  for (const char* stage :
       {"surface/field_sample", "surface/marching", "surface/project",
        "surface/orient", "surface/quadrature"}) {
    bool seen = false;
    for (const auto& e : events) seen = seen || std::strcmp(e.name, stage) == 0;
    EXPECT_TRUE(seen) << stage;
  }
  EXPECT_EQ(reg.counter("surface.qpoints").value() - q0, s.size());
  // Degree-1 rule: one q-point per triangle.
  EXPECT_EQ(reg.counter("surface.triangles").value() - tris0, s.size());
#else
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(reg.counter("surface.qpoints").value(), q0);
  EXPECT_EQ(reg.counter("surface.triangles").value(), tris0);
#endif
}

TEST(QuadratureTest, BornIntegralIdentityOnSphereMesh) {
  const double r = 2.0;
  const auto mol = single_atom(r);
  const GaussianDensityField field(mol);
  MarchingParams params;
  params.spacing = 0.2;
  const TriMesh mesh = marching_tetrahedra(field, params);
  const QuadratureSurface s = sample_mesh(mesh, field, 2);
  // r^4 identity: 1/R.
  EXPECT_NEAR(surface_integral(s, {0, 0, 0}, 4), 1.0 / r, 0.03 / r);
  // r^6 identity: 1/R^3.
  EXPECT_NEAR(surface_integral(s, {0, 0, 0}, 6), 1.0 / (r * r * r),
              0.05 / (r * r * r));
}

TEST(QuadratureTest, SphereSampledSingleAtomIsExactSphere) {
  const double r = 1.6;
  const auto mol = single_atom(r);
  const QuadratureSurface s =
      sphere_sampled_surface(mol, 200, /*probe=*/0.0);
  EXPECT_EQ(s.size(), 200u);
  EXPECT_NEAR(s.total_area(), 4.0 * kPi * r * r, 1e-9);
  for (std::size_t q = 0; q < s.size(); ++q) {
    EXPECT_NEAR(s.points[q].norm(), r, 1e-12);
    EXPECT_NEAR(s.normals[q].dot(s.points[q].normalized()), 1.0, 1e-12);
  }
  // Fibonacci sampling is an equal-area rule: the r^6 identity holds
  // very accurately at the center.
  EXPECT_NEAR(surface_integral(s, {0, 0, 0}, 6), 1.0 / (r * r * r),
              1e-6);
}

TEST(QuadratureTest, SphereSampledDiscardsBuriedPoints) {
  molecule::Molecule mol("dimer");
  mol.add_atom({{0, 0, 0}, 1.5, 0, molecule::Element::C});
  mol.add_atom({{1.5, 0, 0}, 1.5, 0, molecule::Element::C});
  const QuadratureSurface s =
      sphere_sampled_surface(mol, 300, /*probe=*/0.0);
  const double isolated = 2.0 * 4.0 * kPi * 1.5 * 1.5;
  EXPECT_LT(s.total_area(), 0.95 * isolated);  // overlap removed
  EXPECT_GT(s.total_area(), 0.5 * isolated);   // but most area remains
  // No retained point may be strictly inside either atom.
  for (const auto& p : s.points) {
    EXPECT_GE(geom::distance(p, {0, 0, 0}), 1.5 * (1 - 1e-6));
    EXPECT_GE(geom::distance(p, {1.5, 0, 0}), 1.5 * (1 - 1e-6));
  }
}

TEST(QuadratureTest, BuildSurfaceSelectsMeshPathForSmallMolecules) {
  const auto mol = molecule::generate_ligand(30, 5);
  SurfaceParams params;
  params.spacing = 0.5;
  const QuadratureSurface s = build_surface(mol, params);
  EXPECT_GT(s.size(), 100u);
  EXPECT_GT(s.total_area(), 0.0);
}

TEST(QuadratureTest, BuildSurfaceFallsBackToSpheresForLargeMolecules) {
  const auto mol = molecule::generate_protein(2000, 6);
  SurfaceParams params;
  params.mesh_atom_limit = 100;  // force the O(N) path
  params.sphere_points = 32;
  const QuadratureSurface s = build_surface(mol, params);
  EXPECT_GT(s.size(), 0u);
  // Buried-atom points are discarded, so we get far fewer than 32/atom.
  EXPECT_LT(s.size(), mol.size() * 32);
}

TEST(QuadratureTest, ProbeInflatesTheSphereSurface) {
  const double r = 1.5, probe = 1.1;
  const auto mol = single_atom(r);
  const QuadratureSurface s = sphere_sampled_surface(mol, 100, probe);
  const double want = 4.0 * std::numbers::pi * (r + probe) * (r + probe);
  EXPECT_NEAR(s.total_area(), want, 1e-9);
  for (const auto& p : s.points) EXPECT_NEAR(p.norm(), r + probe, 1e-12);
}

TEST(QuadratureTest, ProbeBringsSpherePathNearMeshPath) {
  // The probe-inflated sphere surface approximates the smooth Gaussian
  // surface; the two pipelines' total areas should be within ~2x
  // (the bare vdW union is ~3-5x larger than either).
  const auto mol = molecule::generate_protein(1200, 44);
  SurfaceParams mesh_params;
  const QuadratureSurface mesh_surf = build_surface(mol, mesh_params);
  const QuadratureSurface sphere_surf =
      sphere_sampled_surface(mol, 48, 1.1);
  const QuadratureSurface bare = sphere_sampled_surface(mol, 48, 0.0);
  EXPECT_LT(sphere_surf.total_area(), 2.0 * mesh_surf.total_area());
  EXPECT_GT(sphere_surf.total_area(), 0.5 * mesh_surf.total_area());
  EXPECT_GT(bare.total_area(), 1.5 * mesh_surf.total_area());
}

TEST(QuadratureTest, ProteinSurfaceQPointDensityIsPaperLike) {
  // The paper's molecules carry roughly 2-6 q-points per atom (CMV:
  // 509,640 atoms / 1.93M q-points). Check the default pipeline lands in
  // a sane band for a mid-size protein.
  const auto mol = molecule::generate_protein(1500, 9);
  const QuadratureSurface s = build_surface(mol);
  const double per_atom = static_cast<double>(s.size()) /
                          static_cast<double>(mol.size());
  EXPECT_GT(per_atom, 0.5);
  EXPECT_LT(per_atom, 60.0);
}

}  // namespace
}  // namespace octgb::surface
