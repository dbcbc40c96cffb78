// plan_vs_fused -- A/B bench for the two evaluators on the shared walks
// of src/gb/traversal.h: the fused evaluator (walk + evaluate in one
// pass, which the src/runtime drivers use) against the two-phase engine
// (build an InteractionPlan once, then replay it through the batched
// kernels, scalar and SIMD).
//
// Acceptance gates:
//   * scalar batched Born radii are BIT-EXACT vs the fused path;
//   * batched kAuto E_pol is BIT-EXACT vs the fused E_pol on the same
//     Born radii (both run the shared E_pol kernels with the same SIMD
//     choice), and so is scalar batched E_pol when SIMD is unavailable;
//   * SIMD batched energies (and scalar E_pol where SIMD is on) match
//     within 1e-10 relative;
//   * >= 2x single-thread kernel throughput (fused walk+eval time vs
//     batched kernel time with the plan prebuilt -- the steady state a
//     cached/refit request sees);
//   * >= 1.5x end-to-end single-node time over a refit stream: one
//     structure evaluated REPRO_AB_EVALS times (parameter refits on a
//     fixed geometry, the src/serve workload). Surface and octrees are
//     geometry-only, so both engines build them once; the plan is also
//     geometry-only, so the batched engine builds it once and replays
//     it per refit -- exactly what StructureCache does. A single cold
//     evaluation is reported too (the "first eval" row), where the plan
//     build eats most of the kernel win.
//
// The binary exits nonzero if an equivalence gate fails, so it doubles
// as a CI check. REPRO_AB_ATOMS scales the molecule (default 2000, the
// seed's reference size); REPRO_AB_EVALS the refit-stream length
// (default 16); REPRO_REPS controls the min-of-N timing.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench/common.h"
#include "src/gb/born.h"
#include "src/gb/epol.h"
#include "src/gb/interaction_lists.h"
#include "src/gb/kernels_batch.h"
#include "src/surface/quadrature.h"
#include "src/util/timer.h"

namespace {

using namespace octgb;

/// Min-of-reps wall time of f() in seconds (f must be idempotent).
template <typename F>
double time_best(int reps, F&& f) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    util::WallTimer t;
    f();
    best = std::min(best, t.seconds());
  }
  return best;
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

double rel_err(double got, double want) {
  const double denom = std::max(std::abs(want), 1e-300);
  return std::abs(got - want) / denom;
}

}  // namespace

int main() {
  bench::banner("plan_vs_fused",
                "two-phase engine A/B (interaction plans + batched "
                "kernels vs fused traversal)");

  const std::size_t atoms =
      static_cast<std::size_t>(util::env_int("REPRO_AB_ATOMS", 2000));
  const int evals = std::max(
      1, static_cast<int>(util::env_int("REPRO_AB_EVALS", 16)));
  const int reps = std::max(3, std::min(bench::reps(), 20));
  bench::json().set_atoms(atoms);
  bench::json().set_threads(1);

  const molecule::Molecule mol = molecule::generate_protein(atoms, 42);
  const gb::CalculatorParams params = bench::bench_params();
  std::printf("protein, %zu atoms, eps %.2f/%.2f, approx math %s, "
              "min of %d reps, SIMD %s\n\n",
              mol.size(), params.approx.eps_born, params.approx.eps_epol,
              params.approx.approx_math ? "on" : "off", reps,
              gb::simd_available() ? "available" : "UNAVAILABLE");

  // Shared preprocessing (identical for both engines).
  util::WallTimer stage;
  const auto surf = surface::build_surface(mol, params.surface);
  const double t_surface = stage.seconds();
  stage.restart();
  const auto trees = gb::build_born_octrees(mol, surf, params.octree);
  const double t_trees = stage.seconds();

  volatile std::size_t plan_items_sink = 0;
  const double t_plan = time_best(reps, [&] {
    auto plan = gb::build_interaction_plan(trees, params.approx);
    plan_items_sink = plan.num_items();
  });
  (void)plan_items_sink;
  const gb::InteractionPlan plan =
      gb::build_interaction_plan(trees, params.approx);

  // --- Fused reference (serial: the bit-reproducible configuration).
  gb::BornRadiiResult born_fused;
  gb::EpolResult epol_fused;
  const double t_fused = time_best(reps, [&] {
    born_fused = gb::born_radii_octree(trees, mol, surf, params.approx);
    epol_fused = gb::epol_octree(trees.atoms, mol, born_fused.radii,
                                 params.approx, params.physics);
  });

  // --- Batched scalar (plan prebuilt; must be bit-exact).
  gb::BornRadiiResult born_scalar;
  gb::EpolResult epol_scalar;
  const double t_scalar = time_best(reps, [&] {
    born_scalar = gb::born_radii_batched(trees, mol, surf, plan,
                                         params.approx, nullptr,
                                         gb::SimdMode::kForceScalar);
    epol_scalar = gb::epol_batched(trees.atoms, mol, born_scalar.radii,
                                   plan, params.approx, params.physics,
                                   nullptr, gb::SimdMode::kForceScalar);
  });

  // --- Batched SIMD (kAuto; equals scalar when SIMD is unavailable).
  gb::BornRadiiResult born_simd;
  gb::EpolResult epol_simd;
  const double t_simd = time_best(reps, [&] {
    born_simd = gb::born_radii_batched(trees, mol, surf, plan,
                                       params.approx);
    epol_simd = gb::epol_batched(trees.atoms, mol, born_simd.radii, plan,
                                 params.approx, params.physics);
  });

  // --- Equivalence gates. Fused E_pol shares its kernels with the kAuto
  // replay; the scalar E_pol replay differs from it in summation order
  // wherever the SIMD engine runs.
  const double epol_auto_on_fused_radii =
      gb::epol_batched(trees.atoms, mol, born_fused.radii, plan,
                       params.approx, params.physics)
          .energy;
  bool scalar_bit_exact =
      bits_equal(epol_auto_on_fused_radii, epol_fused.energy) &&
      (gb::simd_enabled() ||
       bits_equal(epol_scalar.energy, epol_fused.energy));
  for (std::size_t a = 0; a < mol.size(); ++a) {
    scalar_bit_exact = scalar_bit_exact &&
                       bits_equal(born_scalar.radii[a], born_fused.radii[a]);
  }
  double simd_err = std::max(rel_err(epol_simd.energy, epol_fused.energy),
                             rel_err(epol_scalar.energy, epol_fused.energy));
  for (std::size_t a = 0; a < mol.size(); ++a) {
    simd_err = std::max(simd_err,
                        rel_err(born_simd.radii[a], born_fused.radii[a]));
  }
  const bool simd_ok = simd_err < 1e-10;

  const double kernel_speedup = t_fused / t_simd;
  // Refit stream: shared geometry work once, then `evals` parameter
  // refits. The fused engine re-traverses per refit; the batched engine
  // builds the plan once and replays it (StructureCache steady state).
  const double setup = t_surface + t_trees;
  const double e2e_fused = setup + evals * t_fused;
  const double e2e_batched = setup + t_plan + evals * t_simd;
  const double e2e_speedup = e2e_fused / e2e_batched;
  const double first_fused = setup + t_fused;
  const double first_batched = setup + t_plan + t_simd;

  util::Table table({"path", "kernels", "plan", "first eval",
                     "refit stream", "kernel speedup", "E_pol",
                     "max rel err"});
  table.row()
      .cell("fused")
      .cell(util::format_seconds(t_fused))
      .cell("-")
      .cell(util::format_seconds(first_fused))
      .cell(util::format_seconds(e2e_fused))
      .cell(1.0, 3)
      .cell(epol_fused.energy, 10)
      .cell(0.0, 3);
  table.row()
      .cell("batched scalar")
      .cell(util::format_seconds(t_scalar))
      .cell(util::format_seconds(t_plan))
      .cell(util::format_seconds(setup + t_plan + t_scalar))
      .cell(util::format_seconds(setup + t_plan + evals * t_scalar))
      .cell(t_fused / t_scalar, 3)
      .cell(epol_scalar.energy, 10)
      .cell(rel_err(epol_scalar.energy, epol_fused.energy), 3);
  table.row()
      .cell("batched SIMD")
      .cell(util::format_seconds(t_simd))
      .cell(util::format_seconds(t_plan))
      .cell(util::format_seconds(first_batched))
      .cell(util::format_seconds(e2e_batched))
      .cell(kernel_speedup, 3)
      .cell(epol_simd.energy, 10)
      .cell(simd_err, 3);
  bench::emit(table, "plan_vs_fused");

  std::printf("\nplan: %zu items (%zu born near, %zu born far, %zu epol "
              "near, %zu epol far), %.1f KB\n",
              plan.num_items(), plan.born_near.size(),
              plan.born_far.size(), plan.epol_near.size(),
              plan.epol_far.size(), plan.memory_bytes() / 1024.0);
  std::printf("scalar Born and kAuto E_pol bit-exact vs fused: %s "
              "(gate: yes)\n",
              scalar_bit_exact ? "yes" : "NO");
  std::printf("SIMD max relative error: %.3g (gate: < 1e-10)\n", simd_err);
  std::printf("kernel throughput: %.2fx (gate: >= 2x)\n", kernel_speedup);
  std::printf("end-to-end single node, %d-refit stream: %.2fx "
              "(gate: >= 1.5x)\n",
              evals, e2e_speedup);
  std::printf("end-to-end single node, cold first eval: %.2fx\n",
              first_fused / first_batched);

  bench::json().field("kernel_speedup", kernel_speedup);
  bench::json().field("e2e_speedup", e2e_speedup);
  bench::json().field("simd_max_rel_err", simd_err);
  bench::json().checksum(epol_fused.energy);
  bench::json().checksum(epol_simd.energy);

  // Perf gates are reported but only equivalence is enforced: wall
  // times on shared CI boxes are too noisy to fail a build on.
  return (scalar_bit_exact && simd_ok) ? 0 : 1;
}
