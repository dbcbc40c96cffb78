#include "ledger.h"

#include <cstring>
#include <set>
#include <stdexcept>

#include "src/gb/calculator.h"
#include "src/gb/kernels_batch.h"
#include "src/surface/density.h"
#include "src/surface/marching.h"
#include "src/telemetry/telemetry.h"

namespace perfbench {

namespace gb = octgb::gb;
namespace surface = octgb::surface;
using octgb::parallel::WorkStealingPool;
using octgb::telemetry::SpanScope;

namespace {

// The service computes every request with default CalculatorParams
// (Tier::kExact), so the direct calls use the same.
const gb::CalculatorParams& params() {
  static const gb::CalculatorParams p{};
  return p;
}

/// Times one layer call under a span of the harness's own and records
/// the sample. `span` must be a literal: the tracer keeps the pointer.
template <typename Fn>
auto timed(Record& rec, const char* metric, const char* span, double& sum,
           Fn&& fn) {
  SpanScope scope(span);
  const Clock::time_point t0 = Clock::now();
  auto result = fn();
  const double s = seconds_since(t0);
  rec.sample(metric, s);
  sum += s;
  return result;
}

struct KernelCounters {
  std::uint64_t born_near = counter_value("gb.born_near_pairs");
  std::uint64_t born_far = counter_value("gb.born_far_pairs");
  std::uint64_t epol_near = counter_value("gb.epol_near_pairs");
  std::uint64_t epol_far = counter_value("gb.epol_far_pairs");
  std::uint64_t simd_rows = counter_value("gb.born_rows_simd") +
                            counter_value("gb.epol_rows_simd");
  std::uint64_t scalar_rows = counter_value("gb.born_rows_scalar") +
                              counter_value("gb.epol_rows_scalar");
};

// Kernel evaluations a plan implies: a near pair costs |target| x
// |source| pair terms, a far item one term.
double born_evals(const gb::BornOctrees& t, const gb::InteractionPlan& plan) {
  double n = static_cast<double>(plan.born_far.size());
  for (const gb::NodePair& p : plan.born_near) {
    n += static_cast<double>(t.atoms.node(p.target).count()) *
         static_cast<double>(t.qpoints.node(p.source).count());
  }
  return n;
}

double epol_evals(const octgb::octree::Octree& tree,
                  const gb::InteractionPlan& plan) {
  double n = static_cast<double>(plan.epol_far.size());
  const auto leaves = tree.leaves();
  for (const gb::NodePair& p : plan.epol_near) {
    n += static_cast<double>(tree.node(leaves[p.target]).count()) *
         static_cast<double>(tree.node(p.source).count());
  }
  return n;
}

/// Born then E_pol on a built pipeline, with counter reads at both
/// boundaries. Returns born + epol seconds.
double kernels(const gb::BornOctrees& trees, const octgb::molecule::Molecule& mol,
               const surface::QuadratureSurface& surf,
               const gb::InteractionPlan& plan, WorkStealingPool* pool,
               Record& rec) {
  double sum = 0.0;
  const KernelCounters c0;
  const gb::BornRadiiResult born =
      timed(rec, "gb.born_s", "perfbench/gb.born", sum, [&] {
        return gb::born_radii_batched(trees, mol, surf, plan, params().approx,
                                      pool);
      });
  const double t_born = sum;
  const KernelCounters c1;
  timed(rec, "gb.epol_s", "perfbench/gb.epol", sum, [&] {
    return gb::epol_batched(trees.atoms, mol, born.radii, plan,
                            params().approx, params().physics, pool);
  });
  const KernelCounters c2;
  rec.sample("gb.born_near_pairs", double(c1.born_near - c0.born_near));
  rec.sample("gb.born_far_pairs", double(c1.born_far - c0.born_far));
  rec.sample("gb.epol_near_pairs", double(c2.epol_near - c1.epol_near));
  rec.sample("gb.epol_far_pairs", double(c2.epol_far - c1.epol_far));
  rec.sample("gb.born_evals_per_s", born_evals(trees, plan) / t_born);
  rec.sample("gb.epol_evals_per_s",
             epol_evals(trees.atoms, plan) / (sum - t_born));
  const double simd = double(c2.simd_rows - c0.simd_rows);
  const double scalar = double(c2.scalar_rows - c0.scalar_rows);
  rec.sample("gb.simd_row_frac", simd / std::max(1.0, simd + scalar));
  return sum;
}

}  // namespace

double ledger_cold(const std::string& text, WorkStealingPool* pool,
                   Record& rec, Pipeline* keep) {
  SpanScope request("perfbench/request");
  double sum = 0.0;
  Pipeline local;
  Pipeline& p = keep ? *keep : local;
  const gb::CalculatorParams& cp = params();
  p.mol = timed(rec, "molecule.parse_s", "perfbench/molecule.parse", sum,
                [&] { return parse_pqr(text); });
  // The service's build_surface takes the triangulated path below
  // mesh_atom_limit; the three calls below are that path, split.
  if (p.mol.size() > cp.surface.mesh_atom_limit) {
    throw std::runtime_error("ledger: input above the mesh-path atom limit");
  }
  const surface::GaussianDensityField field =
      timed(rec, "surface.field_s", "perfbench/surface.field", sum,
            [&] { return surface::GaussianDensityField(p.mol, cp.surface.blobbiness); });
  surface::MarchingParams mp;
  mp.spacing = cp.surface.spacing;
  const surface::TriMesh mesh =
      timed(rec, "surface.marching_s", "perfbench/surface.marching", sum,
            [&] { return surface::marching_tetrahedra(field, mp); });
  if (mesh.triangles.empty()) {
    throw std::runtime_error("ledger: empty iso-surface mesh");
  }
  p.surf = timed(rec, "surface.quadrature_s", "perfbench/surface.quadrature",
                 sum, [&] {
                   return surface::sample_mesh(mesh, field,
                                               cp.surface.quadrature_degree);
                 });
  rec.sample("surface.triangles", double(mesh.num_triangles()));
  rec.sample("surface.qpoints_per_atom",
             double(p.surf.size()) / double(p.mol.size()));
  p.trees = timed(rec, "octree.build_s", "perfbench/octree.build", sum, [&] {
    return gb::build_born_octrees(p.mol, p.surf, cp.octree, pool);
  });
  p.plan = timed(rec, "gb.plan_s", "perfbench/gb.plan", sum, [&] {
    return gb::build_interaction_plan(p.trees, cp.approx, pool);
  });
  rec.sample("gb.plan_items", double(p.plan.num_items()));
  rec.sample("gb.plan_bytes_per_atom",
             double(p.plan.memory_bytes()) / double(p.mol.size()));
  sum += kernels(p.trees, p.mol, p.surf, p.plan, pool, rec);
  return sum;
}

double ledger_refit(const std::string& text, const Pipeline& base,
                    Record& rec) {
  SpanScope request("perfbench/request");
  double sum = 0.0;
  const octgb::molecule::Molecule mol =
      timed(rec, "molecule.parse_s", "perfbench/molecule.parse", sum,
            [&] { return parse_pqr(text); });
  // The service copies the cached entry's trees and refits the copy;
  // both count as the refit.
  gb::BornOctrees trees =
      timed(rec, "octree.refit_s", "perfbench/octree.refit", sum, [&] {
        gb::BornOctrees copy = base.trees;
        copy.atoms.refit(mol.positions(), nullptr);
        return copy;
      });
  sum += kernels(trees, mol, base.surf, base.plan, nullptr, rec);
  return sum;
}

void refit_probe(const Pipeline& p, std::uint64_t seed, WorkStealingPool* pool,
                 Record& rec) {
  const octgb::molecule::Molecule moved = jitter(p.mol, 0.06, seed);
  octgb::octree::Octree tree = p.trees.atoms;
  double unused = 0.0;
  timed(rec, "octree.refit_s", "perfbench/octree.refit", unused,
        [&] { return tree.refit(moved.positions(), pool); });
}

void kernel_scaling(const Pipeline& p, Record& rec) {
  double t[2][3] = {};
  const int workers[2] = {1, kWorkers};
  for (int w = 0; w < 2; ++w) {
    WorkStealingPool pool(workers[w]);
    Clock::time_point t0 = Clock::now();
    const gb::InteractionPlan plan =
        gb::build_interaction_plan(p.trees, params().approx, &pool);
    t[w][0] = seconds_since(t0);
    t0 = Clock::now();
    const gb::BornRadiiResult born = gb::born_radii_batched(
        p.trees, p.mol, p.surf, plan, params().approx, &pool);
    t[w][1] = seconds_since(t0);
    t0 = Clock::now();
    gb::epol_batched(p.trees.atoms, p.mol, born.radii, plan, params().approx,
                     params().physics, &pool);
    t[w][2] = seconds_since(t0);
  }
  rec.sample("gb.plan_speedup_4w", t[0][0] / t[1][0]);
  rec.sample("gb.born_speedup_4w", t[0][1] / t[1][1]);
  rec.sample("gb.epol_speedup_4w", t[0][2] / t[1][2]);
}

void determinism(const Pipeline& p, int reps, Record& rec) {
  WorkStealingPool pool(kWorkers);
  std::set<std::uint64_t> bits;
  for (int r = 0; r < reps; ++r) {
    const gb::BornRadiiResult born = gb::born_radii_batched(
        p.trees, p.mol, p.surf, p.plan, params().approx, &pool);
    const double e =
        gb::epol_batched(p.trees.atoms, p.mol, born.radii, p.plan,
                         params().approx, params().physics, &pool)
            .energy;
    std::uint64_t b = 0;
    std::memcpy(&b, &e, sizeof(b));
    bits.insert(b);
  }
  rec.value["gb.epol_bits_distinct"] = double(bits.size());
}

octgb::runtime::DriverResult runtime_solve(const octgb::molecule::Molecule& mol,
                                           Record& rec) {
  const std::uint64_t bytes0 = counter_sum("simmpi.", ".bytes");
  const std::uint64_t ns0 = counter_sum("simmpi.", ".modeled_ns");
  SpanScope span("perfbench/runtime.solve");
  const octgb::runtime::DriverResult d =
      octgb::runtime::run_oct_mpi_cilk(mol, 2, kWorkers / 2);
  rec.sample("runtime.surface_s", d.t_surface);
  rec.sample("runtime.tree_s", d.t_tree_build);
  rec.sample("runtime.born_s", d.t_born);
  rec.sample("runtime.epol_s", d.t_epol);
  rec.sample("runtime.data_mb_per_rank", double(d.data_bytes_per_rank) / 1e6);
  rec.sample("simmpi.comm_bytes",
             double(counter_sum("simmpi.", ".bytes") - bytes0));
  rec.sample("simmpi.modeled_comm_s",
             double(counter_sum("simmpi.", ".modeled_ns") - ns0) * 1e-9);
  return d;
}

}  // namespace perfbench
