// fuzz_plan.cpp -- fuzzes octree construction and interaction-plan
// building against the deep validators.
//
// Input bytes are decoded into a bounded synthetic molecule (atom
// positions/radii/charges from fixed-point byte triples, so every input
// is valid by construction -- the parser fuzzer owns rejection) plus
// octree/approximation knobs. The harness then builds the full geometric
// pipeline -- both octrees, the node aggregates, the interaction plan --
// and runs the src/analysis validators over the result. Any report
// finding (a pair dropped or double-counted, a far pair violating the
// separation criterion, a node range leak...) aborts: the validators are
// the oracle, the fuzzer searches for geometry that breaks the builders.
// Every plan then makes a codec round trip inside a cache entry: the
// decoded plan must equal the built one list for list (E_pol near weights
// included), and a frame whose plan carries a weight other than 1 or 2
// must be rejected with a typed CodecError.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "src/analysis/validate.h"
#include "src/cluster/codec.h"
#include "src/gb/born.h"
#include "src/gb/interaction_lists.h"
#include "src/gb/types.h"
#include "src/molecule/molecule.h"
#include "src/octree/octree.h"
#include "src/serve/structure_cache.h"
#include "src/surface/quadrature.h"

namespace {

[[noreturn]] void die(const char* stage, const std::string& report) {
  std::fprintf(stderr, "fuzz_plan: %s validator failed:\n%s\n", stage,
               report.c_str());
  std::abort();
}

struct ByteStream {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  std::uint8_t next() { return pos < size ? data[pos++] : 0; }

  // Fixed-point decode: byte -> [lo, hi] on a 255-step lattice. Never
  // NaN/Inf, so the pipeline's input contract holds by construction.
  double range(double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(next()) / 255.0);
  }
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 8) return 0;
  ByteStream bs{data, size};

  // Degenerate geometry on purpose: clustered + coincident atoms probe
  // the max-depth recursion cap and zero-distance far tests.
  const std::size_t num_atoms = 1 + bs.next() % 48;
  const bool clustered = (bs.next() & 1) != 0;
  octgb::molecule::Molecule mol("fuzz");
  for (std::size_t i = 0; i < num_atoms; ++i) {
    octgb::molecule::Atom a;
    const double span = clustered ? 4.0 : 40.0;
    a.position = {bs.range(-span, span), bs.range(-span, span),
                  bs.range(-span, span)};
    a.radius = bs.range(0.5, 3.0);
    a.charge = bs.range(-1.0, 1.0);
    mol.add_atom(a);
  }

  octgb::octree::OctreeParams oparams;
  oparams.leaf_capacity = 1 + bs.next() % 8;  // deep trees
  octgb::gb::ApproxParams aparams;
  aparams.eps_born = 0.05 + bs.range(0.0, 4.0);
  aparams.eps_epol = 0.05 + bs.range(0.0, 4.0);
  aparams.strict_born_criterion = (bs.next() & 1) != 0;

  const octgb::surface::QuadratureSurface surf =
      octgb::surface::sphere_sampled_surface(mol, 8, 1.1);
  const octgb::gb::BornOctrees trees =
      octgb::gb::build_born_octrees(mol, surf, oparams);

  auto report = octgb::analysis::validate_octree(trees.atoms,
                                                 mol.positions(), &oparams);
  if (!report.ok()) die("atoms octree", report.str());
  report = octgb::analysis::validate_octree(trees.qpoints, surf.points,
                                            &oparams);
  if (!report.ok()) die("q-point octree", report.str());
  report = octgb::analysis::validate_born_octrees(trees, surf);
  if (!report.ok()) die("born aggregates", report.str());

  const octgb::gb::InteractionPlan plan =
      octgb::gb::build_interaction_plan(trees, aparams, nullptr);
  report = octgb::analysis::validate_plan(trees, plan, aparams);
  if (!report.ok()) die("interaction plan", report.str());

  // Codec round trip of the plan inside a cache entry.
  octgb::serve::CacheEntry entry;
  entry.positions.assign(mol.positions().begin(), mol.positions().end());
  entry.surf = std::make_shared<const octgb::surface::QuadratureSurface>(surf);
  entry.trees = trees;
  entry.plan = std::make_shared<const octgb::gb::InteractionPlan>(plan);
  entry.born_radii.assign(mol.size(), 1.0);
  const auto decoded =
      octgb::cluster::decode_entry(octgb::cluster::encode_entry(entry));
  const octgb::gb::InteractionPlan& back = *decoded->plan;
  const auto same = [](const std::vector<octgb::gb::NodePair>& a,
                       const std::vector<octgb::gb::NodePair>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].target != b[i].target || a[i].source != b[i].source) {
        return false;
      }
    }
    return true;
  };
  if (!same(back.born_near, plan.born_near) ||
      !same(back.born_far, plan.born_far) ||
      !same(back.epol_near, plan.epol_near) ||
      !same(back.epol_far, plan.epol_far) ||
      back.epol_near_weight != plan.epol_near_weight ||
      back.epol_near_chunks != plan.epol_near_chunks) {
    die("plan codec", "decoded plan differs from the encoded one");
  }
  if (!plan.epol_near_weight.empty()) {
    auto bad = std::make_shared<octgb::gb::InteractionPlan>(plan);
    bad->epol_near_weight[bs.next() % bad->epol_near_weight.size()] =
        static_cast<std::uint8_t>(3 + bs.next() % 253);
    entry.plan = bad;
    bool rejected = false;
    try {
      octgb::cluster::decode_entry(octgb::cluster::encode_entry(entry));
    } catch (const octgb::cluster::CodecError&) {
      rejected = true;
    }
    if (!rejected) die("plan codec", "weight outside {1, 2} was accepted");
  }
  return 0;
}
