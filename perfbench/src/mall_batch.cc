// mall_batch: batched localization on a few large mall floors.
//
// Set-up builds a one-building venue of large floors (MakeSyntheticVenue),
// sparsifies each floor's survey map and registers it cold through
// MapUpdater::RegisterShard (MAR-only differentiation, MICE imputation,
// WKNN fit, publish); it also draws the query pool (MakeVenueQueries with
// dropout, a seeded share without a floor hint). The timed part is a closed
// loop: one client thread sends one mixed-floor batch of partial scans to
// ShardRouter::LocalizeBatch after the other, in whole passes over the
// pool. The run alternates set-up and closed loop in equal segments until
// the run's seconds are spent. No map changes while the loop runs.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "checks.h"
#include "clustering/differentiation.h"
#include "imputers/autocorrelation.h"
#include "positioning/estimators.h"
#include "replay.h"
#include "serving/map_updater.h"
#include "serving/shard_router.h"
#include "serving/synthetic.h"
#include "workloads.h"

namespace perfbench {

using namespace rmi;

namespace {

// One building of kFloors floors. The sizes keep a batch's ranking data
// (int8 values + int16 squares of every floor, ~1.1 MB, plus the per-group
// int32 cross terms) inside a core's 2 MB L2: with 4 floors of 2000 RPs
// (~2.4 MB) the loop streamed from the L3 other tenants share, and its
// throughput spread 20% between runs of unchanged code.
constexpr size_t kFloors = 3;
constexpr size_t kGridX = 40;           ///< reference grid per floor (1 m)
constexpr size_t kGridY = 30;           ///< -> 1200 RPs per floor
constexpr size_t kApsPerFloor = 33;     ///< global AP width 99
constexpr double kSurveySparsity = 0.3; ///< observed cells removed pre-registration
constexpr double kDropout = 0.2;        ///< per-AP dropout of a query scan
constexpr double kUnhintedShare = 0.25; ///< scans sent without a floor hint
constexpr size_t kBatchRows = 128;
constexpr size_t kBatches = 64;         ///< distinct batches in one pass
/// Set-up + closed-loop segments per run; each sets up on the next CPU
/// (PinToCpu). Throughput and latency percentiles are taken per segment,
/// and the run reports the median segment.
constexpr size_t kSegments = 8;
constexpr size_t kCheckRowsPerFloor = 32;
/// Unhinted scans must land on their true floor at least this often.
constexpr double kMinFloorHitRate = 0.99;

imputers::MiceImputer::Params MiceParams() {
  imputers::MiceImputer::Params p;
  p.iterations = 3;
  p.max_predictors = 24;
  return p;
}

/// The serving stack of one set-up. Members are destroyed in reverse order,
/// so the updater goes before the store and backends it points at.
struct Stack {
  std::vector<serving::VenueShard> floors;
  serving::ShardedSnapshotStore store;
  cluster::MarOnlyDifferentiator differentiator;
  imputers::MiceImputer imputer{MiceParams()};
  std::unique_ptr<serving::MapUpdater> updater;
  serving::VenueQuerySet queries;
  std::vector<la::Matrix> batches;
  std::vector<std::vector<std::optional<rmap::ShardId>>> hints;
  double register_s = 0.0;
};

std::unique_ptr<Stack> SetUp(uint64_t seed, size_t rebuild_threads) {
  auto stack = std::make_unique<Stack>();
  serving::VenueOptions vo;
  vo.num_buildings = 1;
  vo.floors_per_building = kFloors;
  vo.nx = kGridX;
  vo.ny = kGridY;
  vo.aps_per_floor = kApsPerFloor;
  // The mall itself is fixed (VenueOptions' own seed); the run seed draws
  // the survey sparsification, the queries and their hints.
  stack->floors = serving::MakeSyntheticVenue(vo);

  serving::MapUpdaterOptions uo;
  uo.rebuild_threads = rebuild_threads;
  uo.seed = StreamSeed(seed, 2);
  stack->updater = std::make_unique<serving::MapUpdater>(
      &stack->store, &stack->differentiator, &stack->imputer,
      [] {
        return std::make_unique<positioning::KnnEstimator>(kWknnK,
                                                           /*weighted=*/true);
      },
      uo);
  Rng sparsify(StreamSeed(seed, 3));
  for (const serving::VenueShard& floor : stack->floors) {
    rmap::RadioMap base = floor.map;
    rmap::RemoveRandomRssis(&base, kSurveySparsity, sparsify);
    base.set_shard(floor.id);
    const double t0 = NowSeconds();
    stack->updater->RegisterShard(floor.id, std::move(base));
    stack->register_s += NowSeconds() - t0;
  }

  stack->queries = serving::MakeVenueQueries(
      stack->floors, kBatches * kBatchRows, kDropout, StreamSeed(seed, 4));
  Rng hinting(StreamSeed(seed, 5));
  for (size_t b = 0; b < kBatches; ++b) {
    stack->batches.push_back(
        stack->queries.queries.SliceRows(b * kBatchRows, (b + 1) * kBatchRows));
    std::vector<std::optional<rmap::ShardId>> hints(kBatchRows);
    for (size_t i = 0; i < kBatchRows; ++i) {
      if (!hinting.Bernoulli(kUnhintedShare)) {
        hints[i] = stack->queries.shard[b * kBatchRows + i];
      }
    }
    stack->hints.push_back(std::move(hints));
  }
  return stack;
}

/// Traced replay of one LocalizeBatch call through the layers it calls:
/// ClassifyFloor per unhinted row -> Pinned per shard group -> the int8
/// ranking stages -> EstimateBatch. The replayed answers must equal the
/// composite's bit for bit.
struct ReplayTally {
  size_t classified = 0;
  size_t classify_hits = 0;
  double gemm_ops = 0.0;
  double gemm_bytes = 0.0;
};

void ReplayBatch(const Stack& stack, const serving::ShardRouter& router,
                 size_t b, const serving::ShardRouter::BatchResult& answer,
                 SpanLog* log, ReplayTally* tally, RunResult* result) {
  const la::Matrix& batch = stack.batches[b];
  std::map<rmap::ShardId, std::vector<size_t>> groups;
  for (size_t i = 0; i < batch.rows(); ++i) {
    rmap::ShardId shard;
    if (stack.hints[b][i]) {
      shard = *stack.hints[b][i];
    } else {
      std::optional<serving::RouteDecision> route;
      {
        Span span(log, "serving.ClassifyFloor");
        route = router.ClassifyFloor(serving::MatrixRow(batch, i));
      }
      if (!route) {
        result->Check(false, "replay: a scan the batch routed is unroutable");
        return;
      }
      shard = route->shard;
      ++tally->classified;
      tally->classify_hits += shard == stack.queries.shard[b * kBatchRows + i];
    }
    groups[shard].push_back(i);
  }
  for (const auto& [shard, rows] : groups) {
    serving::PinnedSnapshot pin;
    {
      Span span(log, "serving.Pinned");
      pin = stack.store.Pinned(shard);
    }
    la::Matrix group(rows.size(), batch.cols());
    for (size_t g = 0; g < rows.size(); ++g) {
      std::copy_n(batch.data().data() + rows[g] * batch.cols(), batch.cols(),
                  group.data().data() + g * batch.cols());
    }
    const QuantRankingWork work =
        ReplayQuantRanking(pin->quantized->span(), group, log);
    tally->gemm_ops += work.gemm_ops;
    tally->gemm_bytes += work.gemm_bytes;
    std::vector<geom::Point> out;
    {
      Span span(log, "positioning.EstimateBatch");
      out = pin->estimator->EstimateBatch(group);
    }
    for (size_t g = 0; g < rows.size(); ++g) {
      if (!SameBits(out[g], answer.positions[rows[g]])) {
        result->Check(false, "replay: EstimateBatch differs from the "
                             "LocalizeBatch answer");
        return;
      }
    }
  }
}

/// Checks of the first pass: brute-force WKNN on a seeded sample covering
/// every floor, hinted rows served by their hint, floor hit rate of the
/// unhinted rows. Returns the correct-floor APE.
double CheckFirstPass(
    const Stack& stack,
    const std::vector<serving::ShardRouter::BatchResult>& answers,
    uint64_t seed, RunResult* result) {
  std::map<rmap::ShardId, std::vector<size_t>> rows_by_floor;
  size_t classified = 0, hits = 0;
  std::vector<geom::Point> estimates, truths;
  for (size_t b = 0; b < answers.size(); ++b) {
    for (size_t i = 0; i < kBatchRows; ++i) {
      const size_t row = b * kBatchRows + i;
      const rmap::ShardId& served = answers[b].shards[i];
      const rmap::ShardId& truth = stack.queries.shard[row];
      if (stack.hints[b][i]) {
        result->Check(served == *stack.hints[b][i],
                      "a hinted scan was served by another floor");
      } else {
        ++classified;
        hits += served == truth;
      }
      if (served == truth) {
        estimates.push_back(answers[b].positions[i]);
        truths.push_back(stack.queries.position[row]);
      }
      rows_by_floor[served].push_back(row);
    }
  }
  const double hit_rate = FloorHitRate(hits, classified);
  result->Detail("floor_hit_rate", hit_rate);
  result->Check(hit_rate >= kMinFloorHitRate,
                "unhinted scans landed on their true floor less often than "
                "the stated minimum");
  result->Check(rows_by_floor.size() == stack.floors.size(),
                "the query pool does not reach every floor");

  Rng pick(StreamSeed(seed, 6));
  size_t checked = 0;
  for (auto& [floor, rows] : rows_by_floor) {
    pick.Shuffle(&rows);
    const serving::PinnedSnapshot pin = stack.store.Pinned(floor);
    const la::Matrix& refs = pin->fingerprints();
    for (size_t s = 0; s < std::min(kCheckRowsPerFloor, rows.size()); ++s) {
      const size_t row = rows[s];
      const geom::Point expect = BruteForceWknn(
          refs.data().data(), pin->positions.data(), refs.rows(), refs.cols(),
          stack.queries.queries.data().data() + row * refs.cols(), kWknnK);
      ++checked;
      if (!result->Check(
              SameBits(expect, answers[row / kBatchRows]
                                   .positions[row % kBatchRows]),
              "LocalizeBatch differs from the brute-force WKNN")) {
        return 0.0;
      }
    }
  }
  result->Detail("brute_force_checked_rows", double(checked));
  return MeanPositioningError(estimates, truths);
}

}  // namespace

RunResult RunMallBatch(const RunConfig& config, Tracer* tracer) {
  RunResult result;
  // The run is kSegments segments: each sets the stack up afresh (timed as
  // set-up), then runs the closed loop for its share of the seconds. The
  // set-up medians so sample the host over the whole run, like the loop's.
  std::vector<double> setup_s, register_s;
  std::unique_ptr<Stack> stack;
  OpCount registrations;
  // One client thread (the calling one) sends batch after batch in whole
  // passes over the pool; traced runs alternate untraced and traced passes.
  std::vector<double> batch_us;
  std::vector<double> segment_qps, segment_p50_us, segment_p90_us,
      segment_p99_us;
  /// Traced runs: whole pass wall times, spans and replays included.
  std::vector<double> traced_pass_s, untraced_pass_s;
  std::vector<serving::ShardRouter::BatchResult> first_pass(kBatches);
  OpCount batches, scans;
  size_t mismatches = 0;
  double shard_groups = 0.0;
  ReplayTally tally;
  std::vector<double> gemm_ops, gemm_bytes;  ///< per traced batch
  SpanLog* trace_log = tracer->NewLog();
  size_t pass = 0;
  for (size_t segment = 0; segment < kSegments; ++segment) {
    stack.reset();  // tear the previous stack down outside the timing
    PinToCpu(segment);
    const double t0 = NowSeconds();
    registrations.attempted += kFloors;
    stack = SetUp(config.seed, config.threads.rebuild);
    setup_s.push_back(NowSeconds() - t0);
    register_s.push_back(stack->register_s);
    registrations.succeeded += kFloors;
    Unpin();  // before the router's pool starts its threads
    const serving::ShardRouter router(&stack->store, config.threads.router);

    std::vector<double> segment_us;
    const double start = NowSeconds();
    for (;; ++pass) {
      const bool traced_pass = config.trace && pass % 2 == 1;
      SpanLog* log = traced_pass ? trace_log : nullptr;
      PinToCpu(pass / 2);  // a traced run's untraced/traced pair shares a CPU
      const double pass_start = NowSeconds();
      for (size_t b = 0; b < kBatches; ++b) {
        ++batches.attempted;
        scans.attempted += kBatchRows;
        serving::ShardRouter::BatchResult answer;
        const double t0 = NowSeconds();
        try {
          Span span(log, "serving.LocalizeBatch");
          answer = router.LocalizeBatch(stack->batches[b], stack->hints[b]);
        } catch (const std::exception&) {
          ++batches.threw;
          scans.threw += kBatchRows;
          continue;
        }
        const double us = (NowSeconds() - t0) * 1e6;
        ++batches.succeeded;
        scans.succeeded += kBatchRows;
        segment_us.push_back(us);
        if (pass == 0) {
          first_pass[b] = std::move(answer);
          continue;
        }
        if (!(answer.positions == first_pass[b].positions)) ++mismatches;
        if (traced_pass) {
          shard_groups += double(answer.shard_groups);
          const ReplayTally before = tally;
          ReplayBatch(*stack, router, b, answer, log, &tally, &result);
          gemm_ops.push_back(tally.gemm_ops - before.gemm_ops);
          gemm_bytes.push_back(tally.gemm_bytes - before.gemm_bytes);
        }
      }
      const double end = NowSeconds();
      if (config.trace) {
        (traced_pass ? traced_pass_s : untraced_pass_s)
            .push_back(end - pass_start);
      }
      const bool whole_pair = !config.trace || pass % 2 == 1;
      if (whole_pair && end - start >= config.seconds / double(kSegments)) {
        segment_qps.push_back(double(segment_us.size() * kBatchRows) /
                              (end - start));
        ++pass;
        break;
      }
    }
    Unpin();
    segment_p50_us.push_back(Quantile(segment_us, 0.5));
    segment_p90_us.push_back(Quantile(segment_us, 0.9));
    segment_p99_us.push_back(Quantile(segment_us, 0.99));
    batch_us.insert(batch_us.end(), segment_us.begin(), segment_us.end());
  }

  // ---- Accounting and checks ---------------------------------------------------
  result.Check(mismatches == 0, "repeated passes returned different answers");
  result.ops["map_builds"] = registrations;
  result.ops["batches"] = batches;
  result.ops["scans"] = scans;
  const double ape = batches.failed() == 0
                         ? CheckFirstPass(*stack, first_pass, config.seed, &result)
                         : 0.0;
  result.Check(ape > 0.0, "the first pass did not complete");

  if (!config.trace) {
    result.Metric("setup_s", Median(setup_s), "s");
    result.Metric("map_build_s", Median(register_s), "s");
    result.Metric("ape_m", ape, "m");
    result.Metric("throughput_qps", Median(segment_qps), "1/s");
    result.Metric("latency_p50_us", Median(segment_p50_us), "us");
    result.Metric("latency_p90_us", Median(segment_p90_us), "us");
    result.Detail("segment_latency_p99_us", Median(segment_p99_us));
    result.Detail("run_latency_p99_us", Quantile(batch_us, 0.99));
    result.Detail("run_latency_p999_us", Quantile(batch_us, 0.999));
    result.Detail("latency_samples", double(batch_us.size()));
    result.Detail("segments", double(kSegments));
    return result;
  }

  // ---- Per-layer (traced run) -----------------------------------------------
  const double classify_us = MeanOf(tracer->DurationsUs("serving.ClassifyFloor"));
  const double pin_us = MeanOf(tracer->DurationsUs("serving.Pinned"));
  const double estimate_us =
      MeanOf(tracer->DurationsUs("positioning.EstimateBatch"));
  const double quantize_us = MeanOf(tracer->DurationsUs("la.QuantizeQueryRow"));
  const double gemm_us = MeanOf(tracer->DurationsUs("la.GemmQuantNN"));
  const double norms_us = MeanOf(tracer->DurationsUs("la.MaskedQuantRowNorms"));
  result.Metric("serving.classify_us", classify_us, "us");
  result.Metric("serving.classify_hits",
                FloorHitRate(tally.classify_hits, tally.classified), "ratio");
  result.Metric("serving.shard_groups", shard_groups / double(gemm_ops.size()),
                "count");
  result.Metric("serving.pin_us", pin_us, "us");
  result.Metric("positioning.estimate_batch_us", estimate_us, "us");
  result.Metric("positioning.select_rescore_us",
                estimate_us - quantize_us - gemm_us - norms_us, "us");
  result.Metric("la.quantize_query_us", quantize_us, "us");
  result.Metric("la.quant_gemm_us", gemm_us, "us");
  result.Metric("la.masked_norms_us", norms_us, "us");
  result.Metric("la.quant_gemm_ops", Median(gemm_ops), "count");
  result.Metric("la.quant_gemm_bytes", Median(gemm_bytes), "bytes");
  // Coverage: classify + pin + the per-group estimator calls over the
  // LocalizeBatch calls they replay; the gap is grouping, validation and
  // gathering inside the router.
  const double stages_us =
      Sum(tracer->DurationsUs("serving.ClassifyFloor")) +
      Sum(tracer->DurationsUs("serving.Pinned")) +
      Sum(tracer->DurationsUs("positioning.EstimateBatch"));
  result.Metric("trace.coverage",
                stages_us / Sum(tracer->DurationsUs("serving.LocalizeBatch")),
                "ratio");
  result.Metric("trace.overhead",
                Median(traced_pass_s) / Median(untraced_pass_s), "ratio");
  return result;
}

}  // namespace perfbench
