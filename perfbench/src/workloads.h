// The benchmark's workloads and the metric catalogue they report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Busy-thread budget of a run. Every count is explicit: nothing in a
/// workload falls back to the engine's hardware-concurrency defaults.
struct Threads {
  size_t client = 1;   ///< query-issuing threads
  size_t router = 1;   ///< ShardRouter fan-out pool
  size_t bisim = 1;    ///< BiSimConfig::num_threads
  size_t rebuild = 1;  ///< MapUpdaterOptions::rebuild_threads
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string state_dir;    ///< scratch space inside the checkout
  std::string persist_dir;  ///< MapUpdater persistence root (venue_churn)
  Threads threads;
};

/// Thread counts of `workload` (fixed per workload).
Threads WorkloadThreads(const std::string& workload);
/// Threads that can be busy at once under `threads` on `workload`.
size_t BusyThreads(const std::string& workload, const Threads& threads);

RunResult RunPaperOffline(const RunConfig& config, Tracer* tracer);
RunResult RunMallBatch(const RunConfig& config, Tracer* tracer);
RunResult RunVenueChurn(const RunConfig& config, Tracer* tracer);

struct MetricSpec {
  const char* name;
  const char* unit;
};
/// Reported by every untraced run (BENCHMARK.json "end_to_end").
const std::vector<MetricSpec>& EndToEndMetrics();
/// Reported by every traced run (BENCHMARK.json "per_layer"); a layer a
/// workload never calls reads 0.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Self-test of every correctness check; returns the number of checks that
/// failed to reject their perturbed answer (0 = all good).
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
