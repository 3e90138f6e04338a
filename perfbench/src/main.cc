// perfbench: the engine's end-to-end benchmark.
//
//   perfbench --workload <paper_offline|mall_batch|venue_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--state-dir <dir>]
//             [--git-commit <sha>]
//   perfbench --selftest
//
// Prints a run manifest line, an accounting line, and as the last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0
// every end-to-end metric, with --trace 1 every per-layer metric. Exit code
// 0 on a completed run (correct or not), non-zero on bad arguments, a
// workload whose busy threads exceed the CPUs this process may use, or an
// internal error.
#include <sched.h>
#include <unistd.h>
#include <sys/statfs.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(CPU_COUNT(&set));
}

/// The CPU brand string from cpuid (no file read needed).
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const size_t b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
#else
  return "unknown";
#endif
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs;
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  static const std::map<long, const char*> kNames = {
      {0xEF53, "ext4"},         {0x01021994, "tmpfs"},
      {0x794C7630, "overlayfs"}, {0x58465342, "xfs"},
      {0x9123683E, "btrfs"},    {0x6969, "nfs"},
  };
  const auto it = kNames.find(static_cast<long>(fs.f_type));
  if (it != kNames.end()) return it->second;
  std::ostringstream hex;
  hex << "0x" << std::hex << static_cast<long>(fs.f_type);
  return hex.str();
}

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<paper_offline|mall_batch|venue_churn> --seed <n> --seconds "
               "<s> --trace <0|1> [--state-dir <dir>] [--git-commit <sha>]\n"
               "       perfbench --selftest\n",
               error.c_str());
  std::exit(2);
}

std::string OpsJson(const std::map<std::string, OpCount>& ops) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [kind, c] : ops) {
    out << (first ? "" : ",") << JsonString(kind) << ":{\"attempted\":"
        << c.attempted << ",\"succeeded\":" << c.succeeded
        << ",\"failed\":" << c.failed() << ",\"rejected\":" << c.rejected
        << ",\"unroutable\":" << c.unroutable << ",\"threw\":" << c.threw
        << "}";
    first = false;
  }
  out << "}";
  return out.str();
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args[flag] = "1";
      continue;
    }
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      Usage("unexpected argument " + flag);
    }
    args[flag] = argv[++i];
  }
  if (args.count("--selftest")) {
    const int failures = RunSelfTest();
    return failures == 0 ? 0 : 1;
  }
  static const std::set<std::string> kKnown = {
      "--workload", "--seed",      "--seconds",
      "--trace",    "--state-dir", "--git-commit"};
  for (const auto& [flag, value] : args) {
    if (!kKnown.count(flag)) Usage("unknown flag " + flag);
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (!args.count(required)) Usage(std::string("missing ") + required);
  }

  RunConfig config;
  config.workload = args["--workload"];
  if (config.workload != "paper_offline" && config.workload != "mall_batch" &&
      config.workload != "venue_churn") {
    Usage("unknown workload " + config.workload);
  }
  {
    char* end = nullptr;
    config.seed = std::strtoull(args["--seed"].c_str(), &end, 10);
    if (*end != '\0') Usage("--seed needs a whole number");
    config.seconds = std::strtod(args["--seconds"].c_str(), &end);
    if (*end != '\0' || !(config.seconds > 0.0) || config.seconds > 600.0) {
      Usage("--seconds needs a number in (0, 600]");
    }
  }
  if (args["--trace"] != "0" && args["--trace"] != "1") {
    Usage("--trace needs 0 or 1");
  }
  config.trace = args["--trace"] == "1";
  config.state_dir =
      args.count("--state-dir") ? args["--state-dir"] : ".bench_build/state";
  const std::string git_commit =
      args.count("--git-commit") ? args["--git-commit"] : "unknown";

  // Fail fast rather than oversubscribe: a workload's figures assume each
  // busy thread has a CPU of its own.
  config.threads = WorkloadThreads(config.workload);
  const size_t nproc = Nproc();
  const size_t busy = BusyThreads(config.workload, config.threads);
  if (busy > nproc) {
    std::fprintf(stderr,
                 "perfbench: %s needs %zu busy threads but only %zu CPUs are "
                 "available to this process (nproc)\n",
                 config.workload.c_str(), busy, nproc);
    return 2;
  }

  std::filesystem::create_directories(config.state_dir);
  const bool persists = config.workload == "venue_churn";
  if (persists) {
    config.persist_dir = (std::filesystem::path(config.state_dir) / "persist" /
                          ("venue_churn-" + std::to_string(::getpid())))
                             .string();
  }
  std::ostringstream manifest;
  manifest << "manifest {\"workload\":" << JsonString(config.workload)
           << ",\"seed\":" << config.seed
           << ",\"seconds\":" << JsonNumber(config.seconds)
           << ",\"trace\":" << (config.trace ? 1 : 0)
           << ",\"threads\":{\"client\":" << config.threads.client
           << ",\"router\":" << config.threads.router
           << ",\"bisim\":" << config.threads.bisim
           << ",\"rebuild\":" << config.threads.rebuild
           << ",\"busy\":" << busy << "},\"nproc\":" << nproc
           << ",\"cpu_model\":" << JsonString(CpuModel())
           << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
           << ",\"cxx_flags\":" << JsonString(PERFBENCH_CXX_FLAGS)
           << ",\"compiler\":" << JsonString(PERFBENCH_COMPILER)
           << ",\"git_commit\":" << JsonString(git_commit)
           << ",\"persist_dir\":" << JsonString(persists ? config.persist_dir : "none")
           << ",\"persist_fs\":"
           << JsonString(persists ? FilesystemOf(config.state_dir) : "none")
           << "}";
  std::printf("%s\n", manifest.str().c_str());
  std::fflush(stdout);

  Tracer tracer(config.trace);
  RunResult result;
  if (config.workload == "paper_offline") {
    result = RunPaperOffline(config, &tracer);
  } else if (config.workload == "mall_batch") {
    result = RunMallBatch(config, &tracer);
  } else {
    result = RunVenueChurn(config, &tracer);
  }

  // The reported set is exactly the catalogue: per-layer metrics of layers
  // this workload never calls read 0; a missing end-to-end metric is a bug.
  const std::vector<MetricSpec>& catalogue =
      config.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::map<std::string, double> reported;
  for (const auto& [name, value_unit] : result.metrics) {
    bool known = false;
    for (const MetricSpec& spec : catalogue) known |= name == spec.name;
    if (!known) {
      std::fprintf(stderr, "perfbench: internal error: metric %s is not in "
                           "the catalogue\n", name.c_str());
      return 3;
    }
    reported[name] = value_unit.first;
  }
  std::ostringstream metrics;
  metrics << "{";
  for (size_t i = 0; i < catalogue.size(); ++i) {
    const MetricSpec& spec = catalogue[i];
    const auto it = reported.find(spec.name);
    if (it == reported.end() && !config.trace) {
      std::fprintf(stderr, "perfbench: internal error: %s did not report %s\n",
                   config.workload.c_str(), spec.name);
      return 3;
    }
    const double value = it == reported.end() ? 0.0 : it->second;
    metrics << (i ? "," : "") << JsonString(spec.name)
            << ":{\"value\":" << JsonNumber(value)
            << ",\"unit\":" << JsonString(spec.unit) << "}";
  }
  metrics << "}";

  if (config.trace) {
    const std::filesystem::path dir =
        std::filesystem::path(config.state_dir) / "traces";
    std::filesystem::create_directories(dir);
    const std::string path =
        (dir / (config.workload + "-seed" + std::to_string(config.seed) +
                ".json"))
            .string();
    if (!tracer.WriteJson(path)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    }
  }

  uint64_t attempted = 0, failed = 0;
  for (const auto& [kind, c] : result.ops) {
    attempted += c.attempted;
    failed += c.failed();
  }
  std::ostringstream accounting;
  accounting << "accounting {\"ops\":" << OpsJson(result.ops)
             << ",\"details\":{";
  for (size_t i = 0; i < result.details.size(); ++i) {
    accounting << (i ? "," : "") << JsonString(result.details[i].first) << ":"
               << JsonNumber(result.details[i].second);
  }
  accounting << "},\"check_failures\":[";
  for (size_t i = 0; i < result.check_failures.size(); ++i) {
    accounting << (i ? "," : "") << JsonString(result.check_failures[i]);
    std::fprintf(stderr, "perfbench: check failed: %s\n",
                 result.check_failures[i].c_str());
  }
  accounting << "]}";
  std::printf("%s\n", accounting.str().c_str());

  const bool correct = result.check_failures.empty();
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed), metrics.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: internal error: %s\n", e.what());
    return 3;
  }
}
