// main.cpp -- perfbench: the measuring harness behind perfbench/run.py.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <raw.json> [--trace-out <trace.json>]
//
// Writes the raw record (samples, values, checks, provenance) to --out;
// run.py computes the metrics. Exit 2 on bad arguments or an exception.
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.h"
#include "src/gb/kernels_batch.h"
#include "src/util/hostinfo.h"

namespace {

perfbench::Options parse_args(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (key == "--trace") {
      opt.trace = val != "0";
    } else if (key == "--out") {
      opt.out = val;
    } else if (key == "--trace-out") {
      opt.trace_out = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("arguments come in pairs");
  if (opt.out.empty()) throw std::invalid_argument("--out is required");
  if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Options opt = parse_args(argc, argv);
    perfbench::Record rec;
    rec.text["workload"] = opt.workload;
    rec.text["seed"] = std::to_string(opt.seed);
    rec.text["trace"] = opt.trace ? "1" : "0";
    rec.text["build_flags"] = OCTGB_BUILD_FLAGS;
    rec.text["cpu_model"] = octgb::util::query_host().cpu_model;
    rec.text["nproc"] = std::to_string(std::thread::hardware_concurrency());
    rec.text["simd"] = octgb::gb::simd_enabled() ? "avx2" : "scalar";
    perfbench::verify_reference();
    if (opt.workload == "cold_protein_20k") {
      perfbench::run_cold_protein(opt, rec);
    } else if (opt.workload == "md_refit_2k") {
      perfbench::run_md_refit(opt, rec);
    } else if (opt.workload == "hybrid_capsid_20k") {
      perfbench::run_hybrid_capsid(opt, rec);
    } else {
      throw std::invalid_argument("unknown workload " + opt.workload);
    }
    std::ofstream f(opt.out);
    f << perfbench::to_json(rec);
    if (!f) throw std::runtime_error("cannot write " + opt.out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
