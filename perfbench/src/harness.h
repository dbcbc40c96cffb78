// harness.h -- shared pieces of the perfbench measuring harness.
//
// The harness drives octgb only through its public entry points and
// writes one raw JSON record per run: per-call samples, scalar values
// and output checks. perfbench/run.py turns that record into the
// benchmark's metrics; keeping the statistics on the Python side lets
// the benchmark's own tests cover them without a build.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/molecule/molecule.h"
#include "src/surface/quadrature.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;        // raw record path
  std::string trace_out;  // Chrome trace path (traced runs)
};

/// One output check of a served response against exact O(N^2) sums.
struct Check {
  std::uint64_t request = 0;
  double energy = 0.0;
  /// compute_gb_energy_naive on the parsed molecule, and the served
  /// energy's relative error against it: what the check gates on.
  double naive = 0.0;
  double rel_err = 0.0;
  /// Median over atoms of the served Born radii's relative error against
  /// compute_gb_energy_naive's (not finite when the radii are missing).
  double born_rel_err = 0.0;
  /// Diagnostic, not gated: the exact sums on the quadrature surface the
  /// response was computed on -- equal to `naive` unless the service
  /// reused a base conformation's surface (refit).
  double reference = 0.0;
  double ref_rel_err = 0.0;
  bool ok = false;
};

/// Everything one run measured, before any statistics.
struct Record {
  std::map<std::string, std::string> text;   // provenance and config
  std::map<std::string, double> value;       // scalars
  std::map<std::string, std::vector<double>> samples;  // per-call samples
  std::vector<Check> checks;

  void sample(const std::string& name, double v) { samples[name].push_back(v); }
};

std::string to_json(const Record& rec);

/// Fixed configuration shared by the workloads.
inline constexpr int kWorkers = 4;         // service workers / rank*thread slots

/// Runs fn(i) for every i in [0, n) on min(width, n) threads of its own,
/// thread t taking i = t, t + width, ...; rethrows the first exception.
template <typename Fn>
void side_by_side(std::size_t n, std::size_t width, const Fn& fn) {
  width = std::clamp<std::size_t>(width, 1, std::max<std::size_t>(n, 1));
  std::vector<std::exception_ptr> errors(width);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < width; ++t) {
    threads.emplace_back([&, t] {
      try {
        for (std::size_t i = t; i < n; i += width) fn(i);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}
inline constexpr double kEpolTolerance = 0.05;  // check bound on |E - E_naive| / |E_naive|

/// PQR text of a molecule: the only form in which inputs reach octgb.
std::string pqr_text(const octgb::molecule::Molecule& mol);
octgb::molecule::Molecule parse_pqr(const std::string& text);

/// Independent seed for input stream `stream`, item `k` of run `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t k);

/// `mol` with every coordinate moved by N(0, sigma^2) (an MD-like
/// conformation of the same structure).
octgb::molecule::Molecule jitter(const octgb::molecule::Molecule& mol,
                                 double sigma, std::uint64_t seed);

/// One served input to check. `surface` is the quadrature surface the
/// response was computed on when it is not the molecule's own (for the
/// diagnostic reference only).
struct CheckInput {
  std::uint64_t request = 0;
  const std::string* text = nullptr;
  std::vector<double> energies;     // every served energy for this input
  std::vector<double> born_radii;   // served radii (of the first response)
  const octgb::surface::QuadratureSurface* surface = nullptr;
};

/// Appends one Check per served energy. The exact sums run at most
/// kWorkers threads at a time (inputs side by side, each Born sum split
/// by atom); they reproduce compute_gb_energy_naive bit for bit, which
/// verify_reference() asserts.
void check_against_naive(const std::vector<CheckInput>& inputs, Record& rec);

/// Throws unless the split reference equals compute_gb_energy_naive bit
/// for bit on a small molecule.
void verify_reference();

/// Registry counter value (0 when the counter was never registered).
std::uint64_t counter_value(const std::string& name);
/// Sum of every registry counter whose name starts with `prefix` and
/// ends with `suffix` (the per-op simmpi counters).
std::uint64_t counter_sum(const std::string& prefix, const std::string& suffix);

void run_cold_protein(const Options& opt, Record& rec);
void run_md_refit(const Options& opt, Record& rec);
void run_hybrid_capsid(const Options& opt, Record& rec);

}  // namespace perfbench
