#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <sstream>

#include "src/gb/calculator.h"
#include "src/gb/naive.h"
#include "src/molecule/generators.h"
#include "src/molecule/io.h"
#include "src/telemetry/metrics.h"
#include "src/util/rng.h"

namespace perfbench {

namespace {

// Record strings are names, flags and CPU model strings; escape the
// characters JSON forbids rather than trusting them.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string to_json(const Record& rec) {
  std::ostringstream os;
  os << "{\n  \"text\": {";
  const char* sep = "";
  for (const auto& [k, v] : rec.text) {
    os << sep << "\n    " << quoted(k) << ": " << quoted(v);
    sep = ",";
  }
  os << "\n  },\n  \"value\": {";
  sep = "";
  for (const auto& [k, v] : rec.value) {
    os << sep << "\n    " << quoted(k) << ": " << number(v);
    sep = ",";
  }
  os << "\n  },\n  \"samples\": {";
  sep = "";
  for (const auto& [k, vs] : rec.samples) {
    os << sep << "\n    " << quoted(k) << ": [";
    const char* s2 = "";
    for (double v : vs) {
      os << s2 << number(v);
      s2 = ", ";
    }
    os << "]";
    sep = ",";
  }
  os << "\n  },\n  \"checks\": [";
  sep = "";
  for (const Check& c : rec.checks) {
    os << sep << "\n    {\"request\": " << c.request
       << ", \"energy\": " << number(c.energy)
       << ", \"naive\": " << number(c.naive)
       << ", \"rel_err\": " << number(c.rel_err)
       << ", \"born_rel_err\": " << number(c.born_rel_err)
       << ", \"reference\": " << number(c.reference)
       << ", \"ref_rel_err\": " << number(c.ref_rel_err)
       << ", \"ok\": " << (c.ok ? "true" : "false") << "}";
    sep = ",";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string pqr_text(const octgb::molecule::Molecule& mol) {
  std::ostringstream os;
  octgb::molecule::write_pqr(os, mol);
  return os.str();
}

octgb::molecule::Molecule parse_pqr(const std::string& text) {
  std::istringstream is(text);
  return octgb::molecule::read_pqr(is);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t k) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + stream;
  octgb::util::splitmix64(state);
  state += k;
  return octgb::util::splitmix64(state);
}

octgb::molecule::Molecule jitter(const octgb::molecule::Molecule& mol,
                                 double sigma, std::uint64_t seed) {
  octgb::util::Xoshiro256 rng(seed);
  octgb::molecule::Molecule out(mol.name());
  out.reserve(mol.size());
  for (std::size_t i = 0; i < mol.size(); ++i) {
    octgb::molecule::Atom a = mol.atom(i);
    a.position.x += sigma * rng.normal();
    a.position.y += sigma * rng.normal();
    a.position.z += sigma * rng.normal();
    out.add_atom(a);
  }
  return out;
}

namespace {

const octgb::gb::CalculatorParams& naive_params() {
  static const octgb::gb::CalculatorParams p{};
  return p;
}

struct Exact {
  double energy = 0.0;
  std::vector<double> radii;
};

/// compute_gb_energy_naive's Born radii and energy on `surf`, with the
/// O(atoms x q-points) Born sum split by atom over `slices` threads.
/// Each radius is an independent sum over the q-points, so the split
/// changes no bit; the O(atoms^2) energy sum stays serial.
Exact exact_sums(const octgb::molecule::Molecule& mol,
                 const octgb::surface::QuadratureSurface& surf, int slices) {
  const octgb::gb::CalculatorParams& p = naive_params();
  Exact out;
  out.radii.resize(mol.size());
  side_by_side(slices, slices, [&](std::size_t s) {
    const std::size_t lo = mol.size() * s / slices;
    const std::size_t hi = mol.size() * (s + 1) / slices;
    octgb::molecule::Molecule part;
    part.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) part.add_atom(mol.atom(i));
    const std::vector<double> r =
        octgb::gb::born_radii_naive_r6(part, surf, p.approx.approx_math).radii;
    std::copy(r.begin(), r.end(), out.radii.begin() + static_cast<std::ptrdiff_t>(lo));
  });
  out.energy = octgb::gb::epol_naive(mol, out.radii, p.physics,
                                     p.approx.approx_math).energy;
  return out;
}

// The median over atoms: the mean is carried by the few atoms nearest
// the far-field threshold and swings 2x between molecules of one size.
double median_rel_err(const std::vector<double>& served,
                      const std::vector<double>& exact) {
  if (served.empty() || served.size() != exact.size()) return NAN;
  std::vector<double> err(served.size());
  for (std::size_t a = 0; a < served.size(); ++a) {
    err[a] = octgb::gb::relative_error(served[a], exact[a]);
  }
  const auto mid = err.begin() + static_cast<std::ptrdiff_t>(err.size() / 2);
  std::nth_element(err.begin(), mid, err.end());
  return *mid;
}

}  // namespace

void verify_reference() {
  const octgb::molecule::Molecule mol =
      parse_pqr(pqr_text(octgb::molecule::generate_protein(300, 1)));
  const octgb::gb::GBResult direct = octgb::gb::compute_gb_energy_naive(mol);
  const Exact split = exact_sums(
      mol, octgb::surface::build_surface(mol, naive_params().surface), 3);
  if (std::memcmp(&direct.energy, &split.energy, sizeof(double)) != 0 ||
      direct.born_radii != split.radii) {
    throw std::runtime_error(
        "the split naive reference no longer matches compute_gb_energy_naive");
  }
}

void check_against_naive(const std::vector<CheckInput>& inputs, Record& rec) {
  rec.value["check_tolerance"] = kEpolTolerance;
  const std::size_t n = inputs.size();
  std::vector<Exact> naive(n), reference(n);
  std::vector<char> threw(n, 0);
  const std::size_t width = std::min<std::size_t>(n, kWorkers);
  const int slices = std::max(1, kWorkers / static_cast<int>(std::max<std::size_t>(1, width)));
  side_by_side(n, width, [&](std::size_t i) {
    try {
      const octgb::molecule::Molecule mol = parse_pqr(*inputs[i].text);
      naive[i] = exact_sums(
          mol, octgb::surface::build_surface(mol, naive_params().surface),
          slices);
      reference[i] = inputs[i].surface
                         ? exact_sums(mol, *inputs[i].surface, slices)
                         : naive[i];
    } catch (...) {
      threw[i] = 1;
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    const double born_err = median_rel_err(inputs[i].born_radii, naive[i].radii);
    for (double e : inputs[i].energies) {
      Check c;
      c.request = inputs[i].request;
      c.energy = e;
      c.naive = naive[i].energy;
      c.rel_err = octgb::gb::relative_error(e, c.naive);
      c.reference = reference[i].energy;
      c.ref_rel_err = octgb::gb::relative_error(e, c.reference);
      c.born_rel_err = born_err;
      c.ok = !threw[i] && std::isfinite(e) && std::isfinite(c.naive) &&
             std::isfinite(born_err) && c.rel_err <= kEpolTolerance;
      rec.checks.push_back(c);
    }
  }
}

std::uint64_t counter_value(const std::string& name) {
  for (const auto& m :
       octgb::telemetry::MetricsRegistry::instance().snapshot()) {
    if (m.kind == octgb::telemetry::MetricSample::Kind::kCounter &&
        m.name == name) {
      return m.counter;
    }
  }
  return 0;
}

std::uint64_t counter_sum(const std::string& prefix,
                          const std::string& suffix) {
  std::uint64_t sum = 0;
  for (const auto& m :
       octgb::telemetry::MetricsRegistry::instance().snapshot()) {
    if (m.kind == octgb::telemetry::MetricSample::Kind::kCounter &&
        m.name.starts_with(prefix) && m.name.ends_with(suffix)) {
      sum += m.counter;
    }
  }
  return sum;
}

}  // namespace perfbench
