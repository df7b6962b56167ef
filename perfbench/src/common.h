// Shared helpers for the host-time benchmark: clocks, spans, order
// statistics, process memory readings, result accumulation and JSON
// rendering.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fftgrad/telemetry/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the monotonic clock (comparable across threads).
inline double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

/// Category of the spans the benchmark opens around calls into fftgrad's
/// public functions; src's own spans carry other categories.
inline constexpr const char* kSpanCategory = "perfbench";

/// A span of the benchmark's own on the global tracer (recorded only while
/// tracing is on). `name` must be a string literal.
class ScopedSpan : public fftgrad::telemetry::TraceSpan {
 public:
  explicit ScopedSpan(const char* name) : TraceSpan(name, kSpanCategory) {}
};

inline void set_tracing(bool on) { fftgrad::telemetry::Tracer::global().set_enabled(on); }
/// The tracer's clock, for the `since_ns` of span_total_s.
inline std::uint64_t trace_now_ns() { return fftgrad::telemetry::Tracer::global().wall_now_ns(); }
/// Summed seconds of the benchmark's spans called `name` that opened at or
/// after `since_ns`.
double span_total_s(const char* name, std::uint64_t since_ns = 0);

/// Linear-interpolated quantile, q in [0, 1] (0 for an empty set).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }
double sum(const std::vector<double>& values);

/// Largest ||g-g^||/||g|| one round trip through a codec that drops the
/// share `theta` of its coefficients may show before the call counts as a
/// failed operation. Keeping the largest-magnitude share 1-theta of the
/// coefficients keeps at least that share of the energy on any input, so
/// the error of a working codec is at most sqrt(theta) (0.922 for the FFT
/// codec at 0.85, 0.949 for top-k at 0.9); 0.03 more leaves room for the
/// quantizer's own error. A ceiling fitted to a few seeds would fail
/// correct round trips: AlexNet conv1, a few windows of real gradient,
/// reads 0.25 to 0.61 over seeds 1-300.
inline double round_trip_ceiling(double theta) { return std::sqrt(theta) + 0.03; }

/// Restrict this thread, and so every thread it starts later (the global
/// ThreadPool's workers among them), to the highest-numbered core it may
/// run on. Returns false if the affinity could not be set.
bool pin_to_one_core();
/// Give every thread of the process back the cores it had before
/// pin_to_one_core(), for probes that need several cores.
void unpin_all_threads();

/// Process peak resident set (getrusage), in MB (1e6 bytes).
double peak_rss_mb();
/// Current resident set (/proc/self/statm), in MB.
double current_rss_mb();

/// Running ||truth - approx||^2 and ||truth||^2 sums, for relative L2 error.
struct ErrorSums {
  double error2 = 0.0;
  double truth2 = 0.0;
  void add(std::span<const float> truth, std::span<const float> approx);
  void add(const ErrorSums& other) {
    error2 += other.error2;
    truth2 += other.truth2;
  }
  double relative() const;
};

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;   ///< tiny sizes, for the benchmark's own tests
  std::string out_dir;  ///< where traces and result rows are written
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

/// What one run reports: the last-line fields (correct, attempted, failed,
/// metrics), plus key/value details printed on an earlier info line.
struct RunResult {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;  ///< values are JSON
  std::vector<std::string> problems;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void detail(const std::string& key, double value);
  void detail(const std::string& key, const std::string& text);
  /// `json` must already be a JSON value.
  void detail_json(const std::string& key, std::string json) {
    info.emplace_back(key, std::move(json));
  }
  /// A failed correctness check (not an operation failure): the run's
  /// outputs cannot be trusted.
  void wrong(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  /// An operation that failed; counted against `attempted`.
  void failed_op(const std::string& why);
};

std::string json_number(double value);
std::string json_string(const std::string& text);

}  // namespace perfbench
