// stash_perfbench: runs one benchmark workload and prints its report.
//
//   stash_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--commit <id>] [--source-digest <hex>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by a "record" line (provenance and counters) and a human-readable
// report.  Exit code 0 only when every answer was checked and correct.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include <unistd.h>

#include "layers.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Outcome;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "stash_perfbench: %s\nusage: stash_perfbench --workload "
               "pan_small_warm|session_large_evict|cluster_hotspot --seed N "
               "--seconds S --trace 0|1 [--commit ID] [--source-digest HEX]\n",
               why.c_str());
  std::exit(2);
}

void print_report(const Args& args, const Outcome& out) {
  std::printf("workload %s  seed %llu  %s run\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced");
  for (const auto& [key, value] : out.record)
    std::printf("  %-28s %s\n", key.c_str(), value.c_str());
  for (const std::string& line : out.lines) std::printf("%s\n", line.c_str());
  std::printf("%s metrics:\n", args.trace ? "per-layer" : "end-to-end");
  for (const auto& [name, value] : out.metrics) {
    std::string context;
    for (const perfbench::MetricSpec& spec : perfbench::per_layer_specs())
      if (name == spec.name)
        context = std::string("  moves ") + spec.moves + " on " + spec.on;
    for (const std::string& bypassed : out.bypassed)
      if (name == bypassed) context = "  (layer bypassed on this workload)";
    std::printf("  %-36s %16.6g %-10s%s\n", name.c_str(), value.first,
                value.second.c_str(), context.c_str());
  }
  for (const std::string& e : out.errors)
    std::printf("ERROR: %s\n", e.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--commit") {
        commit = value;
      } else if (flag == "--source-digest") {
        source_digest = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0 && args.seconds <= 600)) usage("--seconds out of range");

  Outcome out;
  try {
    if (args.workload == "pan_small_warm" ||
        args.workload == "session_large_evict")
      out = perfbench::run_exec_workload(args);
    else if (args.workload == "cluster_hotspot")
      out = perfbench::run_cluster_hotspot(args);
    else
      usage("unknown workload " + args.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stash_perfbench: %s\n", e.what());
    return 1;
  }

  out.record.insert(
      out.record.begin(),
      {{"workload", args.workload},
       {"seed", std::to_string(args.seed)},
       {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
       {"hardware_concurrency",
        std::to_string(std::thread::hardware_concurrency())},
       {"compiler", PERFBENCH_COMPILER},
       {"build_type", PERFBENCH_BUILD_TYPE},
       {"git_commit", commit},
       {"source_digest", source_digest}});
  print_report(args, out);

  std::string record = "{";
  for (const auto& [key, value] : out.record)
    record += (record.size() > 1 ? ", " : "") + json_string(key) + ": " +
              json_string(value);
  std::printf("record %s}\n", record.c_str());

  std::string metrics;
  for (const auto& [name, value] : out.metrics)
    metrics += (metrics.empty() ? "" : ", ") + json_string(name) +
               ": {\"value\": " + perfbench::num(value.first) +
               ", \"unit\": " + json_string(value.second) + "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.correct() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}
