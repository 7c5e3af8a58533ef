#pragma once

/// \file harness.hpp
/// \brief Measurement plumbing shared by the perfbench workloads: clocks,
/// sample statistics, the benchmark's own span recorder and layer table,
/// host stamping and the result line.
///
/// Everything here times the library from outside. Spans are recorded by
/// the benchmark's files around calls into the library's public entry
/// points; nothing inside src/ is instrumented for the benchmark.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options, as passed by run.py.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Nanoseconds on the steady clock, shared by every thread of the process.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process CPU time (all threads, user + system), in nanoseconds.
std::uint64_t process_cpu_ns();

/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// Aggregate CPU jiffies from /proc/stat, for the host steal fraction.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  static CpuTimes read();
  /// Steal share of all CPU time between \p before and this reading.
  double steal_since(const CpuTimes& before) const;
};

/// Latency samples: exact count and sum, and a uniform reservoir of at
/// most kCapacity values (Algorithm R on a fixed-seed generator) for the
/// percentiles, so memory stays flat however many ops a run makes and
/// peak_rss_mb measures the library, not the benchmark's bookkeeping.
class Samples {
 public:
  static constexpr std::size_t kCapacity = 1 << 16;
  void add(double v);
  std::uint64_t size() const { return count_; }
  double sum() const { return sum_; }
  /// The q-quantile (0 <= q <= 1) of the reservoir; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> v_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  std::uint64_t rng_ = 0x2545f4914f6cdd1dULL;
};

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run produced: the result line's fields plus the lines
/// printed before it (sample counts, layer table, self-test verdicts).
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> report;

  /// Adds a metric; a value that is not finite fails the run's checks.
  void metric(std::string name, double value, std::string unit);
  void note(std::string line) { report.push_back(std::move(line)); }
  /// A failed self-check: the run is reported as incorrect.
  void fail_check(const std::string& what);
};

/// Spans the benchmark records around its own calls into the library,
/// kept in memory and folded into a layer table at the end. One thread
/// records (rank 0, or the caller for the pml::run workloads); spans nest
/// through RAII, so each span's parent is the innermost open one.
class Tracer {
 public:
  /// \p enabled false makes every span a no-op (the untraced run).
  /// \p max_ops caps the ops kept in memory; later ops are not recorded.
  Tracer(bool enabled, std::size_t max_ops);

  /// True while enabled and the op cap is not reached.
  bool recording() const { return enabled_ && ops_ < max_ops_; }

  class Span {
   public:
    Span(Tracer& t, const char* layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* t_;
    std::size_t index_;
  };

  /// Adds a completed child span of known duration under the innermost
  /// open span (used for RunResult::seconds, which pml::run measures).
  void child(const char* layer, std::uint64_t ns);

  /// Layer self time of every recorded op: one row per op, one column per
  /// layer (layer_names() order), in nanoseconds.
  std::vector<std::vector<std::uint64_t>> self_times() const;
  const std::vector<const char*>& layer_names() const { return layers_; }

  /// Per-op self time of \p layer in µs, divided by \p calls (the number
  /// of calls one span covers), over the ops that entered the layer.
  Samples layer_samples(const char* layer, double calls = 1) const;

 private:
  struct Rec {
    std::size_t layer;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::size_t parent;  ///< npos for an op's root span.
  };
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::size_t layer_index(const char* layer);
  std::size_t open(const char* layer);
  void close(std::size_t index);

  bool enabled_;
  std::size_t max_ops_;
  std::size_t ops_ = 0;
  std::vector<const char*> layers_;
  std::vector<Rec> recs_;
  std::vector<std::size_t> stack_;
};

/// Which op the layer table describes.
enum class LayerBasis {
  /// The median op: per-layer self times averaged over the ops whose
  /// total lies between the 40th and 60th percentile. For workloads whose
  /// ops are alike or spread over many kinds.
  kMedianOp,
  /// The mean op, over all ops. For a workload cycling through a few very
  /// different op kinds, where the median falls between two kinds.
  kMeanOp,
};

/// Folds a traced run into the layer table of the op \p basis names; its
/// per-layer self times sum to that traced op. The sum is checked against
/// \p untraced_us, the same statistic from the run's untraced window,
/// within \p tolerance, and the traced minus untraced difference is
/// reported as the tracing overhead. The check validates the measurement,
/// not the program's output, so a miss is reported as a verdict line and
/// in layers.sum_error_pct rather than as an incorrect run.
void layer_table(const Tracer& tracer, LayerBasis basis, double untraced_us,
                 double tolerance, Outcome& out);

/// Reports the p50 of \p s (µs) as the metric "<name>.p50", and p50, p90
/// and the sample count as a report line.
void report_latency(Outcome& out, const std::string& name, const Samples& s);

/// Untimed warm-up before every timed window. The first seconds of a run
/// on a shared virtual host ran measurably faster than the rest (the
/// host's scheduler favours a vCPU set that was idle), so timing starts
/// once that has passed.
inline constexpr double kWarmupSeconds = 2.0;

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 5;

/// Reports the median of \p seconds as setup_s, with its sample count.
void report_setup(Outcome& out, const Samples& seconds);

/// Prints the host stamp line: nproc, CPU model, compiler, build type and
/// the steal share measured over the run.
void print_stamp(const Options& opt, double steal);

/// Prints the report lines and then the result line (the last line).
void print_outcome(const Outcome& out);

}  // namespace perfbench
