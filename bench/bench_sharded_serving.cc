// Multi-floor sharded serving load generator: floor classification, routed
// mixed-shard batches fanned across the pool, and the live ingest ->
// impute -> publish loop under query load.
//
//   ./bench_sharded_serving            # full sizes, console table
//   ./bench_sharded_serving --smoke    # CI sizes + BENCH_sharded.json
//   ./bench_sharded_serving --json=out.json
//
// Emits BENCH_sharded.json (schema documented in docs/REPRODUCE.md):
// classifier accuracy/qps, routed-batch qps vs the sequential per-shard
// baseline, rebuild latency, and the accuracy-under-update scenario's
// stale vs updated APE.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "clustering/differentiation.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "eval/update_scenario.h"
#include "geometry/geometry.h"
#include "imputers/autocorrelation.h"
#include "imputers/traditional.h"
#include "positioning/estimators.h"
#include "serving/map_updater.h"
#include "serving/shard_router.h"
#include "serving/snapshot.h"
#include "serving/synthetic.h"

namespace {

using namespace rmi;
using serving::MatrixRow;

std::shared_ptr<const serving::MapSnapshot> SnapshotOf(
    const rmap::RadioMap& map, uint64_t version = 0) {
  Rng rng(5 + version);
  serving::SnapshotOptions opt;
  opt.version = version;
  return serving::BuildSnapshot(
      map, std::make_unique<positioning::KnnEstimator>(5, true), rng, opt);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      if (json_path.empty()) json_path = "BENCH_sharded.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }

  // 3 buildings x 4 floors: 12 shards, each a 20x12 grid with 12 own APs
  // plus bleed-through from adjacent floors — 144 global AP dimensions.
  serving::VenueOptions vopt;
  vopt.num_buildings = 3;
  vopt.floors_per_building = 4;
  vopt.nx = smoke ? 14 : 20;
  vopt.ny = smoke ? 10 : 12;
  vopt.aps_per_floor = 12;
  vopt.bleed_aps = 4;
  const size_t num_queries = smoke ? 2048 : 8192;
  const size_t batch_size = 64;

  const std::vector<serving::VenueShard> shards =
      serving::MakeSyntheticVenue(vopt);
  const size_t num_shards = shards.size();
  std::printf(
      "=== sharded serving — %zu shards (%zux%zu floors), %zu global APs "
      "===\n",
      num_shards, vopt.num_buildings, vopt.floors_per_building,
      shards.front().map.num_aps());

  serving::ShardedSnapshotStore store;
  for (const serving::VenueShard& shard : shards) {
    store.Publish(shard.id, SnapshotOf(shard.map));
  }
  serving::ShardRouter router(&store);
  const serving::VenueQuerySet set =
      serving::MakeVenueQueries(shards, num_queries, 0.25, 13);

  // --- floor classifier: accuracy and throughput ------------------------
  double classify_qps = 0.0, classifier_accuracy = 0.0;
  {
    size_t correct = 0;
    Timer t;
    for (size_t i = 0; i < num_queries; ++i) {
      const auto route = router.ClassifyFloor(MatrixRow(set.queries, i));
      correct += route.has_value() && route->shard == set.shard[i];
    }
    classify_qps = double(num_queries) / t.ElapsedSeconds();
    classifier_accuracy = double(correct) / double(num_queries);
    std::printf("floor classifier:            %10.0f qps   (%.1f%% correct)\n",
                classify_qps, 100.0 * classifier_accuracy);
  }

  // --- routed mixed-shard batches vs sequential per-shard baseline ------
  // Baseline: group rows by their true shard, then answer each whole
  // group with one EstimateBatch on one thread — what a caller without
  // the router would do. The router sees the identical coalesced set and
  // forms the identical per-shard blocks, so the comparison isolates
  // routing (classification, validation, scatter, pool fan-out) from
  // block-size effects.
  double baseline_qps = 0.0, hinted_qps = 0.0, routed_qps = 0.0;
  {
    std::map<rmap::ShardId, std::vector<size_t>> by_shard;
    for (size_t i = 0; i < num_queries; ++i) {
      by_shard[set.shard[i]].push_back(i);
    }
    Timer t;
    geom::Point sink;
    for (const auto& [id, rows] : by_shard) {
      const auto snap = store.Current(id);
      la::Matrix block(rows.size(), set.queries.cols());
      for (size_t r = 0; r < rows.size(); ++r) {
        const double* src =
            set.queries.data().data() + rows[r] * set.queries.cols();
        std::copy(src, src + set.queries.cols(),
                  block.data().begin() + r * set.queries.cols());
      }
      for (const geom::Point& p :
           serving::LocalizeBatchOn(*snap, block)) {
        sink = sink + p;
      }
    }
    baseline_qps = double(num_queries) / t.ElapsedSeconds();
    std::printf("per-shard sequential:        %10.0f qps   (sink %.3f)\n",
                baseline_qps, sink.x);
  }
  // The router sees the same whole coalesced set the baseline grouped by
  // hand; its pool fans the per-shard groups out in parallel.
  {
    const std::vector<std::optional<rmap::ShardId>> hints(set.shard.begin(),
                                                          set.shard.end());
    Timer t;
    router.LocalizeBatch(set.queries, hints);
    hinted_qps = double(num_queries) / t.ElapsedSeconds();
    std::printf("routed batch (hinted):       %10.0f qps\n", hinted_qps);
  }
  {
    Timer t;
    router.LocalizeBatch(set.queries);
    routed_qps = double(num_queries) / t.ElapsedSeconds();
    std::printf("routed batch (classified):   %10.0f qps   (%.2fx baseline)\n\n",
                routed_qps, routed_qps / baseline_qps);
  }

  // --- live updates under load: ingest -> rebuild -> hot-swap -----------
  double update_qps = 0.0, rebuild_seconds = 0.0;
  size_t rebuilds = 0;
  {
    serving::ShardedSnapshotStore live_store;
    cluster::MarOnlyDifferentiator differentiator;
    imputers::LinearInterpolationImputer imputer;
    serving::MapUpdaterOptions uopt;
    uopt.min_new_observations = 32;
    uopt.poll_interval_ms = 1.0;
    serving::MapUpdater updater(
        &live_store, &differentiator, &imputer,
        [] { return std::make_unique<positioning::KnnEstimator>(5, true); },
        uopt);
    for (const serving::VenueShard& shard : shards) {
      updater.RegisterShard(shard.id, shard.map);
    }
    updater.Start();
    serving::ShardRouter live_router(&live_store);

    // One client hammers routed batches while fresh observations stream
    // into two shards and trip background rebuilds + hot-swaps.
    std::atomic<bool> stop{false};
    std::atomic<size_t> answered{0};
    std::thread client([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (size_t off = 0; off < num_queries && !stop.load();
             off += batch_size) {
          live_router.LocalizeBatch(set.queries.SliceRows(
              off, std::min(off + batch_size, num_queries)));
          answered.fetch_add(
              std::min(batch_size, num_queries - off),
              std::memory_order_relaxed);
        }
      }
    });
    Rng rng(29);
    Timer t;
    bool stalled = false;
    const size_t ingest_rounds = smoke ? 2 : 4;
    for (size_t round = 0; round < ingest_rounds && !stalled; ++round) {
      for (const rmap::ShardId id :
           {shards[0].id, shards[num_shards / 2].id}) {
        const rmap::RadioMap& truth =
            shards[size_t(id.building) * vopt.floors_per_building +
                   size_t(id.floor)]
                .map;
        for (size_t i = 0; i < uopt.min_new_observations; ++i) {
          rmap::Record obs = truth.record(rng.Index(truth.size()));
          obs.id = rmap::Record::kUnassignedId;
          obs.time += double((round + 1) * truth.size());
          updater.Ingest(id, std::move(obs));
        }
      }
      // Bounded wait: a missed trigger must fail the bench loudly, not
      // hang a CI job until its global timeout.
      const size_t want = num_shards + 2 * (round + 1);
      Timer wait;
      while (updater.Stats().rebuilds_completed < want) {
        if (wait.ElapsedSeconds() > 60.0) {
          std::fprintf(stderr,
                       "rebuild trigger stalled: %zu/%zu completed after "
                       "60s\n",
                       updater.Stats().rebuilds_completed, want);
          stalled = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    const double elapsed = t.ElapsedSeconds();
    stop.store(true);
    client.join();
    updater.Stop();
    if (stalled) return 1;
    update_qps = double(answered.load()) / elapsed;
    rebuild_seconds = updater.Stats().last_rebuild_seconds;
    rebuilds = updater.Stats().rebuilds_completed - num_shards;
    std::printf(
        "under live updates:          %10.0f qps   (%zu rebuilds, last "
        "%.1f ms)\n",
        update_qps, rebuilds, 1e3 * rebuild_seconds);
  }

  // --- accuracy-under-update scenario -----------------------------------
  cluster::MarOnlyDifferentiator differentiator;
  imputers::MiceImputer imputer;
  const eval::UpdateScenarioResult scenario = eval::RunAccuracyUnderUpdate(
      differentiator, imputer,
      [] { return std::make_unique<positioning::KnnEstimator>(3, true); });
  std::printf(
      "accuracy under update:       stale APE %.3f m -> updated APE %.3f m "
      "(%zu obs ingested)\n",
      scenario.stale_ape, scenario.updated_ape, scenario.ingested);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"venue\": {\"shards\": %zu, \"aps\": %zu, \"rps_per_shard\": "
        "%zu},\n"
        "  \"classifier\": {\"accuracy\": %.4f, \"qps\": %.1f},\n"
        "  \"baseline_qps\": %.1f,\n"
        "  \"hinted_qps\": %.1f,\n"
        "  \"routed_qps\": %.1f,\n"
        "  \"routed_speedup\": %.3f,\n"
        "  \"live_update\": {\"qps\": %.1f, \"client_batch\": %zu,"
        " \"rebuilds\": %zu, \"last_rebuild_ms\": %.2f},\n"
        "  \"update_scenario\": {\"stale_ape_m\": %.4f, \"updated_ape_m\":"
        " %.4f, \"ingested\": %zu},\n",
        num_shards, shards.front().map.num_aps(), vopt.nx * vopt.ny,
        classifier_accuracy, classify_qps, baseline_qps, hinted_qps,
        routed_qps, routed_qps / baseline_qps, update_qps, batch_size,
        rebuilds, 1e3 * rebuild_seconds, scenario.stale_ape,
        scenario.updated_ape, scenario.ingested);
    rmi::bench::WriteObsMetricsJson(f);
    rmi::bench::WriteHardwareJson(f, ThreadPool::DefaultThreads());
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  if (classifier_accuracy < 0.99) {
    std::fprintf(stderr,
                 "WARNING: classifier accuracy %.3f below the 0.99 bar\n",
                 classifier_accuracy);
  }
  if (scenario.updated_ape >= scenario.stale_ape) {
    std::fprintf(stderr,
                 "WARNING: update did not improve APE (%.3f -> %.3f)\n",
                 scenario.stale_ape, scenario.updated_ape);
  }
  return 0;
}
