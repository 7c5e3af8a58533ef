#include "harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the process image before exec, i.e. of the launcher that forked us.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

CpuTimes CpuTimes::read() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user and nice).
  std::uint64_t field[8] = {};
  for (auto& f : field) in >> f;
  for (auto f : field) t.total += f;
  t.steal = field[7];
  return t;
}

double CpuTimes::steal_since(const CpuTimes& before) const {
  if (total <= before.total) return 0.0;
  return static_cast<double>(steal - before.steal) /
         static_cast<double>(total - before.total);
}

void Samples::add(double v) {
  ++count_;
  sum_ += v;
  if (v_.size() < kCapacity) {
    if (v_.empty()) v_.reserve(kCapacity);
    v_.push_back(v);
    return;
  }
  rng_ ^= rng_ << 13;  // xorshift64
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  const std::uint64_t j = rng_ % count_;
  if (j < kCapacity) v_[j] = v;
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  const auto k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(s.size() - 1),
                       std::floor(q * static_cast<double>(s.size()))));
  std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(k), s.end());
  return s[k];
}

void Outcome::metric(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    fail_check(name + " is not a finite number");
    value = 0.0;
  }
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Outcome::fail_check(const std::string& what) {
  correct = false;
  note("CHECK FAILED: " + what);
}

Tracer::Tracer(bool enabled, std::size_t max_ops) : enabled_(enabled), max_ops_(max_ops) {
  if (enabled_) recs_.reserve(max_ops_ * 8);
}

std::size_t Tracer::layer_index(const char* layer) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (std::strcmp(layers_[i], layer) == 0) return i;
  }
  layers_.push_back(layer);
  return layers_.size() - 1;
}

std::size_t Tracer::open(const char* layer) {
  const std::size_t parent = stack_.empty() ? npos : stack_.back();
  recs_.push_back(Rec{layer_index(layer), now_ns(), 0, parent});
  stack_.push_back(recs_.size() - 1);
  return recs_.size() - 1;
}

void Tracer::close(std::size_t index) {
  recs_[index].end = now_ns();
  stack_.pop_back();
  if (stack_.empty()) ++ops_;
}

Tracer::Span::Span(Tracer& t, const char* layer)
    : t_(t.recording() ? &t : nullptr), index_(t_ != nullptr ? t.open(layer) : npos) {}

Tracer::Span::~Span() {
  if (t_ != nullptr) t_->close(index_);
}

void Tracer::child(const char* layer, std::uint64_t ns) {
  if (!recording() || stack_.empty()) return;
  const std::uint64_t begin = recs_[stack_.back()].begin;
  recs_.push_back(Rec{layer_index(layer), begin, begin + ns, stack_.back()});
}

std::vector<std::vector<std::uint64_t>> Tracer::self_times() const {
  // self = own duration minus the durations of direct children. Records
  // are in open order, so a root starts a new op row.
  std::vector<std::int64_t> self(recs_.size());
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    const auto d = static_cast<std::int64_t>(r.end - r.begin);
    self[i] += d;
    if (r.parent != npos) self[r.parent] -= d;
  }
  std::vector<std::vector<std::uint64_t>> rows;
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    if (r.parent == npos) {
      if (r.end == 0) break;  // an op still open when recording stopped
      rows.emplace_back(layers_.size(), 0);
    }
    rows.back()[r.layer] +=
        static_cast<std::uint64_t>(std::max<std::int64_t>(self[i], 0));
  }
  return rows;
}

Samples Tracer::layer_samples(const char* layer, double calls) const {
  Samples s;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    if (std::strcmp(layers_[l], layer) != 0) continue;
    for (const auto& row : self_times()) {
      if (row[l] != 0) s.add(static_cast<double>(row[l]) / 1e3 / calls);
    }
  }
  return s;
}

void layer_table(const Tracer& tracer, LayerBasis basis, double untraced_us,
                 double tolerance, Outcome& out) {
  const auto rows = tracer.self_times();
  const auto& names = tracer.layer_names();
  if (rows.empty() || untraced_us <= 0.0) {
    out.fail_check("traced run recorded no ops");
    return;
  }
  std::vector<std::pair<std::uint64_t, std::size_t>> totals;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    totals.emplace_back(
        std::accumulate(rows[i].begin(), rows[i].end(), std::uint64_t{0}), i);
  }
  std::sort(totals.begin(), totals.end());
  const std::size_t n = totals.size();
  const bool median = basis == LayerBasis::kMedianOp;
  const std::size_t lo = median ? n * 4 / 10 : 0;
  const std::size_t hi = median ? std::max(lo + 1, (n * 6 + 9) / 10) : n;
  std::vector<double> band_us(names.size(), 0.0);
  for (std::size_t k = lo; k < hi; ++k) {
    for (std::size_t l = 0; l < names.size(); ++l) {
      band_us[l] += static_cast<double>(rows[totals[k].second][l]) / 1e3;
    }
  }
  double sum_us = 0.0;
  for (double& v : band_us) {
    v /= static_cast<double>(hi - lo);
    sum_us += v;
  }
  double traced_us = static_cast<double>(totals[n / 2].first) / 1e3;
  if (!median) {
    traced_us = 0;
    for (const auto& t : totals) traced_us += static_cast<double>(t.first) / 1e3;
    traced_us /= static_cast<double>(n);
  }
  const char* stat = median ? "p50" : "mean";
  const double overhead_us = traced_us - untraced_us;
  const double error = (sum_us - untraced_us) / untraced_us;

  char line[256];
  out.note(std::string("layer table: self time of the ") +
           (median ? "median op (mean over ops p40..p60" : "mean op (mean over all") +
           " of " + std::to_string(n) +
           " traced ops); self_us.p50 over the ops that entered the layer");
  std::snprintf(line, sizeof(line), "  %-26s %12s %8s %14s %10s", "layer", "self_us",
                "share", "self_us.p50", "ops");
  out.note(line);
  for (std::size_t l = 0; l < names.size(); ++l) {
    const Samples in_layer = tracer.layer_samples(names[l]);
    std::snprintf(line, sizeof(line), "  %-26s %12.3f %7.1f%% %14.3f %10llu", names[l],
                  band_us[l], 100.0 * band_us[l] / sum_us, in_layer.median(),
                  static_cast<unsigned long long>(in_layer.size()));
    out.note(line);
  }
  std::snprintf(line, sizeof(line),
                "  sum %.3f us vs untraced op_us.%s %.3f us: error %+.2f%% (tolerance "
                "%.0f%%); traced %s %.3f us, tracing overhead %+.3f us",
                sum_us, stat, untraced_us, 100.0 * error, 100.0 * tolerance, stat,
                traced_us, overhead_us);
  out.note(line);
  out.note(std::string("layer-sum check: ") +
           (std::fabs(error) <= tolerance ? "ok" : "OUTSIDE TOLERANCE"));
  out.metric("layers.sum_us", sum_us, "us");
  out.metric("layers.untraced_op_us", untraced_us, "us");
  out.metric("layers.sum_error_pct", 100.0 * error, "%");
  out.metric("trace.overhead_us", overhead_us, "us");
}

void report_latency(Outcome& out, const std::string& name, const Samples& s) {
  out.metric(name + ".p50", s.quantile(0.5), "us");
  char line[200];
  std::snprintf(line, sizeof(line), "%s: p50 %.3f us, p90 %.3f us, n=%llu", name.c_str(),
                s.quantile(0.5), s.quantile(0.9),
                static_cast<unsigned long long>(s.size()));
  out.note(line);
}

void report_setup(Outcome& out, const Samples& seconds) {
  out.metric("setup_s", seconds.median(), "s");
  char line[160];
  std::snprintf(line, sizeof(line),
                "setup_s: median %.6f s, min %.6f s, max %.6f s, n=%llu",
                seconds.median(), seconds.quantile(0.0), seconds.quantile(1.0),
                static_cast<unsigned long long>(seconds.size()));
  out.note(line);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string r;
  for (char c : s) {
    if (c == '"' || c == '\\') r += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) r += c;
  }
  return r;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

void print_stamp(const Options& opt, double steal) {
  std::cout << "stamp {\"workload\": \"" << json_escape(opt.workload)
            << "\", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
            << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"cpu_model\": \"" << json_escape(cpu_model())
            << "\", \"compiler\": \"" << json_escape(compiler())
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"steal_pct\": " << 100.0 * steal << "}\n";
}

void print_outcome(const Outcome& out) {
  for (const auto& line : out.report) std::cout << line << '\n';
  std::ostringstream os;
  os << "{\"correct\": " << (out.correct ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : out.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.15g", m.value);
    os << (first ? "" : ", ") << '"' << json_escape(m.name)
       << "\": {\"value\": " << value << ", \"unit\": \"" << json_escape(m.unit) << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace perfbench
