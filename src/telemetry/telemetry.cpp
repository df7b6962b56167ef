#include "fftgrad/telemetry/telemetry.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

#include "fftgrad/telemetry/critical_path.h"
#include "fftgrad/telemetry/ledger.h"
#include "fftgrad/telemetry/profiler.h"
#include "fftgrad/util/logging.h"

namespace fftgrad::telemetry {
namespace {

std::string& trace_path() {
  static std::string path;
  return path;
}

std::string& metrics_path() {
  static std::string path;
  return path;
}

std::string& critpath_path() {
  static std::string path;
  return path;
}

std::string& profile_out_path() {
  static std::string path;
  return path;
}

/// FFTGRAD_PROFILE: stop the sampler, write the folded stacks to
/// FFTGRAD_PROFILE_OUT and the hot-path report next to it, and publish the
/// profile.* gauges. Must run before export_configured() (so the gauges
/// land in the metrics JSON) and before the ledger closes.
void finalize_profiler_configured() {
  if (profile_out_path().empty()) return;
  Profiler& profiler = Profiler::global();
  profiler.stop();
  const std::string& out = profile_out_path();
  profiler.write_folded(out);
  const std::string report = profiler.render_report();
  const std::string report_path = out + ".report.txt";
  std::FILE* f = std::fopen(report_path.c_str(), "w");
  if (f != nullptr) {
    std::fwrite(report.data(), 1, report.size(), f);
    std::fclose(f);
  } else {
    util::log_warn() << "telemetry: cannot write hot-path report to '" << report_path << "'";
  }
  util::log_info() << "telemetry: profile to " << out << " (report: " << report_path << ")";
}

/// FFTGRAD_CRITPATH=<path>: at exit, run the critical-path analyzer over
/// the newest simulated session, write the report to <path> (Markdown when
/// it ends in .md), publish the critpath.* gauges, and append the ledger's
/// critpath row. Runs before the metrics export and the ledger close so
/// both outputs carry the analysis.
void analyze_critpath_configured() {
  if (critpath_path().empty()) return;
  const std::vector<SpanRecord> records = Tracer::global().snapshot();
  const std::vector<CpEvent> events =
      cp_events_from_records(records, latest_sim_session(records));
  const CpAnalysis analysis = analyze_critical_path(events);
  publish_critpath_metrics(analysis);
  if (RunLedger::global().enabled()) {
    RunLedger::global().record_critpath(ledger_critpath_from(analysis));
  }
  const std::string& path = critpath_path();
  const bool markdown = path.size() >= 3 && path.compare(path.size() - 3, 3, ".md") == 0;
  const std::string report = render_critpath_report(analysis, markdown);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    util::log_warn() << "telemetry: cannot write critical-path report to '" << path << "'";
    return;
  }
  std::fwrite(report.data(), 1, report.size(), f);
  std::fclose(f);
}

}  // namespace

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0') {
    util::log_warn() << "telemetry: ignoring malformed " << name << "='" << value << "'";
    return fallback;
  }
  return parsed;
}

void export_configured() {
  if (!trace_path().empty()) Tracer::global().export_chrome_json(trace_path());
  if (!metrics_path().empty()) MetricsRegistry::global().export_json(metrics_path());
}

void init_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* trace = std::getenv("FFTGRAD_TRACE");
    const char* metrics = std::getenv("FFTGRAD_METRICS");
    const char* ledger = std::getenv("FFTGRAD_LEDGER");
    const char* critpath = std::getenv("FFTGRAD_CRITPATH");
    const char* profile = std::getenv("FFTGRAD_PROFILE");
    const bool profile_on =
        profile != nullptr && *profile != '\0' && std::string(profile) != "0";
    // The health thresholds apply with or without a ledger file: the
    // recovery controller in cluster_train reads the same set.
    LedgerTolerances tolerances;
    tolerances.alpha_bound = env_double("FFTGRAD_LEDGER_ALPHA_BOUND", tolerances.alpha_bound);
    tolerances.min_ratio = env_double("FFTGRAD_LEDGER_MIN_RATIO", tolerances.min_ratio);
    tolerances.drift_rel_tol = env_double("FFTGRAD_LEDGER_DRIFT_TOL", tolerances.drift_rel_tol);
    tolerances.drift_window = static_cast<std::size_t>(env_double(
        "FFTGRAD_LEDGER_DRIFT_WINDOW", static_cast<double>(tolerances.drift_window)));
    tolerances.residual_growth_factor =
        env_double("FFTGRAD_LEDGER_RESIDUAL_FACTOR", tolerances.residual_growth_factor);
    RunLedger::global().set_tolerances(tolerances);
    if (trace == nullptr && metrics == nullptr && ledger == nullptr && critpath == nullptr &&
        !profile_on) {
      return;
    }
    if (trace != nullptr && *trace != '\0') {
      trace_path() = trace;
      Tracer::global().set_enabled(true);
      util::log_info() << "telemetry: tracing to " << trace_path();
    }
    if (critpath != nullptr && *critpath != '\0') {
      // The analyzer consumes tracer records, so tracing must collect even
      // when no trace file was requested.
      critpath_path() = critpath;
      Tracer::global().set_enabled(true);
      MetricsRegistry::global().set_enabled(true);
      util::log_info() << "telemetry: critical-path report to " << critpath_path();
    }
    if (trace != nullptr || metrics != nullptr) {
      MetricsRegistry::global().set_enabled(true);
      if (metrics != nullptr && *metrics != '\0') {
        metrics_path() = metrics;
      } else if (!trace_path().empty()) {
        metrics_path() = trace_path() + ".metrics.json";
      }
      if (!metrics_path().empty()) {
        util::log_info() << "telemetry: metrics to " << metrics_path();
      }
    }
    if (profile_on) {
      // FFTGRAD_PROFILE=1 uses the FFTGRAD_PROFILE_OUT path (default
      // profile.folded); any other non-zero value doubles as the path.
      const char* out = std::getenv("FFTGRAD_PROFILE_OUT");
      if (out != nullptr && *out != '\0') {
        profile_out_path() = out;
      } else if (std::string(profile) != "1") {
        profile_out_path() = profile;
      } else {
        profile_out_path() = "profile.folded";
      }
      MetricsRegistry::global().set_enabled(true);
      const int hz = static_cast<int>(env_double(
          "FFTGRAD_PROFILE_HZ", static_cast<double>(Profiler::kDefaultHz)));
      if (!Profiler::global().start(hz)) profile_out_path().clear();
    }
    if (ledger != nullptr && *ledger != '\0') {
      if (RunLedger::global().open(ledger)) {
        util::log_info() << "telemetry: run ledger to " << ledger;
      }
    }
    std::atexit([] {
      finalize_profiler_configured();
      analyze_critpath_configured();
      export_configured();
      RunLedger::global().close();
    });
  });
}

}  // namespace fftgrad::telemetry
