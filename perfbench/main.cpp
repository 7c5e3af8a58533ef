/// \file main.cpp
/// \brief perfbench: runs one named workload for a fixed time and prints
/// its metrics. Usage:
///
///   perfbench --workload catalog|halo|bulk|explain --seed N --seconds S --trace 0|1
///
/// The last line of standard output is the result object. run.py builds
/// this program and selects the metrics BENCHMARK.json declares.

#include <malloc.h>

#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload catalog|halo|bulk|explain --seed N "
               "--seconds S --trace 0|1\n";
  return 2;
}

/// Any PML_* variable changes the program being measured (chaos seed,
/// fault spec, eager threshold, collective algorithm, ring sizes, ...).
const char* pml_variable() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PML_", 4) == 0) return *e;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else {
        return usage(("unknown option " + key).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (argc % 2 == 0) return usage("options come in pairs");
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }
  if (const char* var = pml_variable()) {
    std::cerr << "perfbench: refusing to run with " << var
              << " set: it changes the program being measured\n";
    return 2;
  }

  // glibc raises its mmap threshold when the first large mmapped block is
  // freed, and whether bulk's 256 KiB..4 MiB bodies then come from the
  // heap or from fresh page-faulting mmaps depended on thread timing: run
  // times were bimodal (about 2x apart). Fixing both thresholds makes
  // every run take the heap path the dynamic threshold usually settles on.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 128 << 20);

  perfbench::Outcome (*workload)(const perfbench::Options&) = nullptr;
  if (opt.workload == "catalog") workload = perfbench::run_catalog;
  if (opt.workload == "halo") workload = perfbench::run_halo;
  if (opt.workload == "bulk") workload = perfbench::run_bulk;
  if (opt.workload == "explain") workload = perfbench::run_explain;
  if (workload == nullptr) return usage(("unknown workload " + opt.workload).c_str());

  try {
    const auto before = perfbench::CpuTimes::read();
    const perfbench::Outcome out = workload(opt);
    perfbench::print_stamp(opt, perfbench::CpuTimes::read().steal_since(before));
    perfbench::print_outcome(out);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
