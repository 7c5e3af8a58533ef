/// \file patternlet_runner.cpp
/// \brief Command-line front end to the collection — the "folder with a
/// Makefile" experience of the original distribution, for all 44 programs.
///
///   patternlet_runner --list                     # the whole collection
///   patternlet_runner omp/spmd -t 8 --on "omp parallel"
///   patternlet_runner omp/reduction --on "omp parallel for" --chaos-seed 42
///
/// `patternlet_runner --help` lists every flag and PML_* variable; the
/// table behind it, and the parser, live in core/cli.{hpp,cpp}. This file
/// only dispatches the parsed Invocation and reports the run.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>

#include "core/cli.hpp"
#include "core/runner.hpp"
#include "core/timeline.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics_json.hpp"
#include "patternlets/listings.hpp"
#include "patternlets/patternlets.hpp"

namespace {

int list_collection(const pml::Registry& reg) {
  const pml::Census c = reg.census();
  std::printf("%d patternlets (%d MPI, %d OpenMP, %d Pthreads, %d heterogeneous)\n\n",
              c.total(), c.mpi, c.openmp, c.pthreads, c.heterogeneous);
  for (const auto& p : reg.all()) {
    std::printf("  %-30s %-14s", p.slug.c_str(), pml::to_string(p.tech));
    for (const auto& name : p.patterns) std::printf(" [%s]", name.c_str());
    std::printf("\n");
  }
  std::printf("\nRun one with: patternlet_runner <slug> [-t N] [--on TOGGLE] "
              "[--off TOGGLE] [--all-on] [-p key=value]\n");
  return 0;
}

int show(const pml::Patternlet& p) {
  std::printf("%s  (%s)\n", p.slug.c_str(), p.title.c_str());
  std::printf("technology: %s\n", pml::to_string(p.tech));
  std::printf("patterns:  ");
  for (const auto& name : p.patterns) std::printf(" %s", name.c_str());
  std::printf("\ndefault tasks: %d\n\n", p.default_tasks);
  std::printf("%s\n\nEXERCISE\n%s\n", p.summary.c_str(), p.exercise.c_str());
  if (!p.toggles.empty()) {
    std::printf("\nTOGGLES (the 'uncomment this directive' steps)\n");
    for (const auto& t : p.toggles) {
      std::printf("  %-24s default %-3s  %s\n", t.name.c_str(),
                  t.default_on ? "on" : "off", t.description.c_str());
    }
  }
  return 0;
}

int list_racy(const pml::Registry& reg) {
  std::printf("Patternlets that stage a race (see --chaos-seed):\n\n");
  for (const pml::Patternlet* p : reg.racy()) {
    const pml::RaceDemo& demo = *p->race_demo;
    std::printf("  %-20s races with:", p->slug.c_str());
    if (demo.racy_toggles.empty()) {
      std::printf(" (defaults)");
    } else {
      for (const auto& [name, on] : demo.racy_toggles) {
        std::printf(" %s=%s", name.c_str(), on ? "on" : "off");
      }
    }
    if (demo.fixed_toggles.empty()) {
      std::printf("; no fix toggle");
    } else {
      std::printf("; fixed by:");
      for (const auto& [name, on] : demo.fixed_toggles) {
        std::printf(" %s=%s", name.c_str(), on ? "on" : "off");
      }
    }
    std::printf("\n");
  }
  std::printf("\nDemo: patternlet_runner <slug> --chaos-seed 42\n");
  return 0;
}

int usage_error(const std::string& message) {
  std::fprintf(stderr, "error: %s\n(try --list)\n", message.c_str());
  return 2;
}

/// Writes one JSON document to \p path ("-" = stdout) and, for a file,
/// \p note to stderr. False when the file cannot be opened.
bool write_to(const std::string& path, const std::string& note,
              const std::function<void(std::ostream&)>& write) {
  if (path == "-") {
    write(std::cout);
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  write(out);
  std::fprintf(stderr, "%s\n", note.c_str());
  return true;
}

using ull = unsigned long long;

}  // namespace

int main(int argc, char** argv) {
  pml::Registry& reg = pml::patternlets::ensure_registered();
  pml::cli::Invocation inv;
  try {
    inv = pml::cli::parse({argv + 1, argv + argc},
                          [](const char* name) -> const char* { return std::getenv(name); });
  } catch (const pml::UsageError& e) {
    return usage_error(e.what());
  }
  switch (inv.action) {
    case pml::cli::Action::kList: return list_collection(reg);
    case pml::cli::Action::kListRacy: return list_racy(reg);
    case pml::cli::Action::kHelp:
      std::fputs(pml::cli::help().c_str(), stdout);
      return 0;
    default: break;
  }
  const pml::RunSpec& spec = inv.spec;
  const pml::Patternlet* p = reg.find(inv.slug);
  if (p == nullptr) return usage_error("no such patternlet: " + inv.slug);
  if (inv.action == pml::cli::Action::kShow) return show(*p);
  if (inv.action == pml::cli::Action::kListing) {
    const auto listing = pml::patternlets::listing_for(p->slug);
    if (!listing) {
      std::fprintf(stderr, "the paper prints no full listing for %s\n", p->slug.c_str());
      return 1;
    }
    std::printf("// %s — %s (paper %s)\n%s", listing->filename.c_str(), p->title.c_str(),
                listing->figure.c_str(), listing->code.c_str());
    return 0;
  }

  try {
    const pml::RunResult result = pml::run(*p, spec);
    // '-' turns stdout into the JSON document itself, so the program's own
    // output must not precede it.
    if (inv.trace_json_path != "-" && inv.metrics_json_path != "-") {
      for (const auto& line : result.output) std::printf("%s\n", line.text.c_str());
    }
    if (inv.timeline) {
      std::printf("\n%s", pml::render_timeline(result.output, inv.timeline_options).c_str());
    }
    std::fprintf(stderr, "\n[%s | %d tasks | %s | %.3f ms]\n", p->slug.c_str(), result.tasks,
                 result.toggles.to_string().c_str(), result.seconds * 1e3);
    if (result.expected_updates.has_value()) {
      const std::string verdict =
          result.race_manifested()
              ? std::to_string(result.lost_updates()) + " updates lost — the race fired"
              : "exact — no race manifested";
      std::fprintf(stderr, "[chaos seed %llu | expected %ld, observed %ld | %s]\n",
                   ull(result.chaos_seed), *result.expected_updates,
                   *result.observed_updates, verdict.c_str());
    } else if (result.chaos_seed != 0) {
      std::fprintf(stderr, "[chaos seed %llu | no race probe in this patternlet]\n",
                   ull(result.chaos_seed));
    }
    if (result.fault_stats.has_value()) {
      const pml::fault::Stats& fs = *result.fault_stats;
      std::fprintf(stderr,
                   "[fault: %s | seed %llu | dropped %llu delayed %llu "
                   "duplicated %llu crashed %llu]\n",
                   spec.fault_spec.c_str(), ull(fs.seed), ull(fs.dropped), ull(fs.delayed),
                   ull(fs.duplicated), ull(fs.crashed));
      if (result.fault_abort.has_value()) {
        std::fprintf(stderr, "[fault] job aborted: %s\n", result.fault_abort->c_str());
      }
    }
    if (result.ckpt_stats.has_value()) {
      const pml::ckpt::Stats& cs = *result.ckpt_stats;
      std::fprintf(stderr,
                   "[ckpt: interval %u | commits %llu restarts %llu | "
                   "%llu bytes in %llu us | restored ranks %llu]\n",
                   spec.ckpt_interval, ull(cs.commits), ull(cs.restarts), ull(cs.bytes),
                   ull(cs.write_micros), ull(cs.restored_ranks));
    }
    if (result.metrics.has_value()) {
      const pml::obs::Profile& m = *result.metrics;
      std::fprintf(stderr, "\n%s", m.table().c_str());
      const std::string& trace = inv.trace_json_path;
      if (!trace.empty() &&
          !write_to(trace,
                    "[trace: " + std::to_string(m.spans.size()) + " spans, " +
                        std::to_string(m.flows.size()) + " flow events -> " + trace +
                        " | load at ui.perfetto.dev]",
                    [&m](std::ostream& o) { pml::obs::write_chrome_trace(o, m); })) {
        return 1;
      }
      const std::string& metrics = inv.metrics_json_path;
      if (!metrics.empty() &&
          !write_to(metrics, "[metrics -> " + metrics + "]", [&](std::ostream& o) {
            pml::obs::write_metrics_json(o, m, p->slug);
          })) {
        return 1;
      }
      if (inv.explain && result.critical_path.has_value()) {
        std::printf("\n%s", result.critical_path->report().c_str());
      }
    }
    if (result.verification.has_value()) {
      const pml::verify::Result& vr = *result.verification;
      std::fprintf(stderr,
                   "[verify: %s | %llu execution(s), %llu decision(s), "
                   "%llu deduped, %llu step-capped]\n",
                   spec.verify_mode.c_str(), ull(vr.executions), ull(vr.decisions),
                   ull(vr.deduped), ull(vr.step_capped));
      if (vr.replay_diverged) {
        std::fprintf(stderr,
                     "replay: execution diverged from the schedule — the "
                     "configuration no longer matches the counterexample\n");
        return 1;
      }
      if (vr.found) {
        std::fprintf(stderr, "verify: VIOLATION — %s: %s\n", vr.finding.kind.c_str(),
                     vr.finding.detail.c_str());
        if (!vr.analysis.findings.empty()) {
          std::fprintf(stderr, "\n%s", vr.analysis.to_string().c_str());
        }
        std::fprintf(stderr, "%s\n", pml::remediation_for(*p).c_str());
        if (result.counterexample.has_value() && spec.replay_schedule.empty()) {
          std::string path = inv.verify_out_path;
          if (path.empty()) {
            path = p->slug + ".pmlsched";
            std::replace(path.begin(), path.end(), '/', '_');
          }
          std::ofstream sched_out(path);
          if (!sched_out) {
            std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
          } else {
            sched_out << *result.counterexample;
            std::fprintf(stderr,
                         "[counterexample -> %s | replay with: "
                         "patternlet_runner --replay %s]\n",
                         path.c_str(), path.c_str());
          }
        }
        return 3;
      }
      if (!spec.replay_schedule.empty()) {
        std::fprintf(stderr, "replay: schedule re-executed, no violation\n");
      } else if (vr.quiesced) {
        std::fprintf(stderr, "verify: quiesced — no violation in the bounded schedule space\n");
      } else {
        std::fprintf(stderr,
                     "verify: budget exhausted without a violation "
                     "(raise --verify-budget to keep searching)\n");
      }
    } else if (result.analysis.has_value()) {
      const pml::analyze::Report& report = *result.analysis;
      std::fprintf(stderr, "\n%s", report.to_string().c_str());
      if (report.error_count() > 0) {
        std::fprintf(stderr, "%s\n", pml::remediation_for(*p).c_str());
        return 3;
      }
      std::fprintf(stderr, "analyze: no errors found in this configuration\n");
    }
  } catch (const pml::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
