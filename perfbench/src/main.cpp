// perfbench: the repository's host-time benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--out-dir <dir>]
//             [--git-sha <sha>] [--src-digest <hex>]
//
// Runs one closed-loop workload in this process and prints, as its last
// stdout line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. An earlier
// line starting "perfbench-info " carries the host fingerprint and
// workload details (input digest, final loss, sample counts, problems).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

constexpr const char* kWorkloads[] = {"codec_alexnet", "codec_resnet32", "train_alexnet_fft"};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--smoke] [--out-dir <dir>] [--git-sha <sha>] "
               "[--src-digest <hex>]\nworkloads:");
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        options.trace = v == "1";
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--out-dir") {
        options.out_dir = value();
      } else if (arg == "--git-sha") {
        options.git_sha = value();
      } else if (arg == "--src-digest") {
        options.src_digest = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

/// CPU model and ISA flags from /proc/cpuinfo.
void cpu_info(std::string& model, std::string& isa) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  std::string flags;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    const std::string value = colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && model.empty()) model = value;
    if (key == "flags" && flags.empty()) flags = " " + value + " ";
  }
  for (const char* flag : {"f16c", "fma", "avx2", "avx512f"}) {
    if (flags.find(std::string(" ") + flag + " ") != std::string::npos) {
      isa += isa.empty() ? flag : std::string(",") + flag;
    }
  }
  if (model.empty()) model = "unknown";
}

/// The comparability key (host, toolchain, build) and the source identity.
/// Results whose "host" objects differ must not be compared.
std::string fingerprint_json(const Options& options) {
  std::string model;
  std::string isa;
  cpu_info(model, isa);
  std::ostringstream out;
  out << "{\"host\":{\"cpu\":" << json_string(model)
      << ",\"cores\":" << std::thread::hardware_concurrency() << ",\"isa\":" << json_string(isa)
      << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
      << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
      << "},\"source\":{\"git_sha\":" << json_string(options.git_sha)
      << ",\"src_digest\":" << json_string(options.src_digest) << "}}";
  return out.str();
}

std::string result_json(const RunResult& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const RunResult::Metric& m = result.metrics[i];
    out << (i == 0 ? "" : ", ") << json_string(m.name) << ": {\"value\": "
        << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
  }
  out << "}}";
  return out.str();
}

std::string info_json(const Options& options, const RunResult& result) {
  std::ostringstream out;
  out << "{\"workload\":" << json_string(options.workload) << ",\"seed\":" << options.seed
      << ",\"seconds\":" << json_number(options.seconds)
      << ",\"trace\":" << (options.trace ? 1 : 0) << ",\"smoke\":" << (options.smoke ? 1 : 0)
      << ",\"fingerprint\":" << fingerprint_json(options);
  for (const auto& [key, value] : result.info) out << "," << json_string(key) << ":" << value;
  out << ",\"problems\":[";
  for (std::size_t i = 0; i < result.problems.size(); ++i) {
    out << (i == 0 ? "" : ",") << json_string(result.problems[i]);
  }
  out << "]}";
  return out.str();
}

RunResult run(const Options& options) {
  if (options.workload == "codec_alexnet") return run_codec_workload(options, true);
  if (options.workload == "codec_resnet32") return run_codec_workload(options, false);
  if (options.workload == "train_alexnet_fft") return run_train_alexnet_fft(options);
  usage("unknown workload " + options.workload);
}

}  // namespace

void write_trace(const Options& options, RunResult& result) {
  if (options.out_dir.empty()) return;
  const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".trace.json";
  if (fftgrad::telemetry::Tracer::global().export_chrome_json(path)) {
    result.detail("trace_file", path);
  } else {
    result.wrong("could not write " + path);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  // One core for the whole run: on a shared VM, waking a pool worker on
  // another, idle vCPU costs whatever the host's load makes it, and
  // parallel_for waits for its slowest chunk. Unpinned, on a shared 4-vCPU
  // Xeon VM, the same codec_resnet32 pass took 360 ms or 530 ms depending
  // on the minute.
  const bool pinned = pin_to_one_core();
  RunResult result;
  try {
    result = run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s: %s\n", options.workload.c_str(), error.what());
    return 1;
  }
  result.detail("pinned_to_one_core", pinned ? "yes" : "no");
  const std::string info = info_json(options, result);
  std::printf("perfbench-info %s\n", info.c_str());
  const std::string line = result_json(result);
  if (!options.out_dir.empty()) {
    std::ofstream rows(options.out_dir + "/results.jsonl", std::ios::app);
    rows << "{\"info\":" << info << ",\"result\":" << line << "}\n";
  }
  std::printf("%s\n", line.c_str());
  return 0;
}
