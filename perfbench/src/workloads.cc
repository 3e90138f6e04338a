#include "workloads.h"

namespace perfbench {

Threads WorkloadThreads(const std::string& /*workload*/) {
  Threads t;
  // paper_offline trains BiSIM on one thread, pinned (see paper_offline.cc).
  // venue_churn keeps one client beside the one rebuild worker: with a
  // second client, open-loop tails on a 4-vCPU host followed preemption
  // more than the engine.
  return t;
}

size_t BusyThreads(const std::string& workload, const Threads& threads) {
  if (workload == "paper_offline") return threads.bisim;
  if (workload == "mall_batch") {
    // Each client runs its own LocalizeBatch jobs and the pool's workers
    // help; set-up imputes on the calling thread.
    return threads.client + threads.router - 1;
  }
  // venue_churn: single scans never use the router pool; each rebuild
  // worker trains BiSIM with its own threads.
  return threads.client + threads.rebuild * threads.bisim;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},          {"map_build_s", "s"},
      {"ape_m", "m"},            {"throughput_qps", "1/s"},
      {"latency_p50_us", "us"},  {"latency_p90_us", "us"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"survey.generate_s", "s"},
      {"clustering.differentiate_s", "s"},
      {"clustering.mar_cells", "count"},
      {"imputers.mnar_filled_cells", "count"},
      {"bisim.train_s", "s"},
      {"bisim.train_seqs_per_s", "1/s"},
      {"bisim.infer_s", "s"},
      {"bisim.final_loss", "loss"},
      {"bisim.rps_outside_venue", "count"},
      {"positioning.fit_s", "s"},
      {"positioning.estimate_batch_us", "us"},
      {"positioning.select_rescore_us", "us"},
      {"la.quantize_query_us", "us"},
      {"la.quant_gemm_us", "us"},
      {"la.masked_norms_us", "us"},
      {"la.quant_gemm_ops", "count"},
      {"la.quant_gemm_bytes", "bytes"},
      {"serving.classify_us", "us"},
      {"serving.classify_hits", "ratio"},
      {"serving.shard_groups", "count"},
      {"serving.pin_us", "us"},
      {"serving.localize_us", "us"},
      {"serving.index_search_us", "us"},
      {"serving.index_scored_share", "ratio"},
      {"workload.route_us", "us"},
      {"workload.session_switches", "count"},
      {"workload.generator_lag_p99_us", "us"},
      {"updater.ingest_us", "us"},
      {"updater.queue_wait_ms", "ms"},
      {"updater.impute_ms", "ms"},
      {"updater.fit_ms", "ms"},
      {"updater.persist_ms", "ms"},
      {"updater.publish_ms", "ms"},
      {"updater.warm_share", "ratio"},
      {"store.wal_appends_per_fsync", "ratio"},
      {"store.snapshot_bytes", "bytes"},
      {"trace.coverage", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return kMetrics;
}

}  // namespace perfbench
