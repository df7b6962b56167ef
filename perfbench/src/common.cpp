#include "common.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace perfbench {

double span_total_s(const char* name, std::uint64_t since_ns) {
  double total = 0.0;
  for (const fftgrad::telemetry::SpanRecord& span :
       fftgrad::telemetry::Tracer::global().snapshot()) {
    if (span.wall_end_ns == 0 || span.wall_start_ns < since_ns) continue;
    if (span.category == nullptr || std::strcmp(span.category, kSpanCategory) != 0 ||
        std::strcmp(span.name, name) != 0) {
      continue;
    }
    total += static_cast<double>(span.wall_end_ns - span.wall_start_ns) * 1e-9;
  }
  return total;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

namespace {
cpu_set_t g_original_cores;
bool g_pinned = false;
}  // namespace

bool pin_to_one_core() {
  if (sched_getaffinity(0, sizeof(g_original_cores), &g_original_cores) != 0) return false;
  // The highest-numbered core: the kernel tends to put housekeeping work
  // and device interrupts on the lowest.
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &g_original_cores)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    g_pinned = sched_setaffinity(0, sizeof(one), &one) == 0;
    return g_pinned;
  }
  return false;
}

void unpin_all_threads() {
  if (!g_pinned) return;
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) return;
  while (const dirent* entry = readdir(tasks)) {
    const int tid = std::atoi(entry->d_name);
    if (tid > 0) sched_setaffinity(tid, sizeof(g_original_cores), &g_original_cores);
  }
  closedir(tasks);
  g_pinned = false;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

void ErrorSums::add(std::span<const float> truth, std::span<const float> approx) {
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const double t = truth[i];
    const double d = t - static_cast<double>(approx[i]);
    error2 += d * d;
    truth2 += t * t;
  }
}

double ErrorSums::relative() const {
  return truth2 > 0.0 ? std::sqrt(error2 / truth2) : 0.0;
}

void RunResult::detail(const std::string& key, double value) {
  info.emplace_back(key, json_number(value));
}

void RunResult::detail(const std::string& key, const std::string& text) {
  info.emplace_back(key, json_string(text));
}

void RunResult::failed_op(const std::string& why) {
  ++failed;
  if (problems.size() < 20) problems.push_back(why);
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace perfbench
