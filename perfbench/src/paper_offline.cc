// paper_offline: the paper's offline pipeline on its two survey venues.
//
// Set-up, repeated before every round, generates the Kaide and Wanda
// walking-survey datasets (sparse maps with MAR/MNAR ground truth). A
// round builds both maps: a seeded fold of the labeled records has its RP
// hidden, then TopoAC differentiate -> FillMnar -> BiSIM train + impute
// (T-BiSIM) -> WKNN Fit, timed as one map build. The hidden records are
// then localized with EstimateBatch, in repeated passes that give the
// localization throughput and latency.
// Rounds cycle through kFolds disjoint folds, at least once each, and keep
// going in whole rounds until the run's seconds are spent; APE pools the
// first pass over every fold.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bisim/bisim.h"
#include "checks.h"
#include "clustering/differentiation.h"
#include "eval/factories.h"
#include "eval/pipeline.h"
#include "imputers/imputer.h"
#include "positioning/estimators.h"
#include "replay.h"
#include "survey/survey.h"
#include "workloads.h"

namespace perfbench {

using namespace rmi;

namespace {

constexpr double kSurveyScale = 0.08;  ///< MakeKaide/WandaDataset scale
constexpr size_t kEpochs = 10;         ///< BiSIM training epochs
constexpr size_t kHiddenPerFold = 14;  ///< labeled records hidden per fold
constexpr size_t kFolds = 5;           ///< disjoint folds, ~85% of labeled records
/// A localization request: one EstimateBatch per venue over the fold's
/// hidden records, each repeated kQueryCopies times (a 112-scan batch).
constexpr size_t kQueryCopies = 8;
constexpr size_t kPassesPerRound = 200;
/// The localizing thread moves to the next CPU (PinToCpu) after this many
/// passes: a round's passes spread evenly over 4 vCPUs.
constexpr size_t kPassesPerCpu = 50;

struct Venue {
  std::string name;
  survey::SurveyDataset data;
  std::shared_ptr<cluster::Differentiator> differentiator;
  std::vector<size_t> labeled;  ///< labeled record indices, seeded order
};

/// One venue's map build for one fold.
struct VenueBuild {
  std::vector<size_t> hidden;
  std::vector<geom::Point> truths;  ///< hidden RPs
  rmap::RadioMap imputed;
  rmap::RadioMap training;          ///< imputed minus the hidden records
  positioning::KnnEstimator estimator{kWknnK, /*weighted=*/true};
  la::Matrix queries;               ///< hidden records' imputed fingerprints
  double build_s = 0.0;
  // Traced builds only.
  double mar_cells = 0.0;
  double mnar_filled_cells = 0.0;
  double final_loss = 0.0;
  double train_seqs = 0.0;  ///< sequences x epochs
};

/// The paper's two venues at their preset survey seeds; the run seed picks
/// the hold-out folds and every differentiation and training stream.
std::vector<Venue> MakeVenues(uint64_t seed, SpanLog* log) {
  std::vector<Venue> venues(2);
  {
    Span span(log, "survey.MakeKaideDataset");
    venues[0].name = "kaide";
    venues[0].data = survey::MakeKaideDataset(kSurveyScale);
  }
  {
    Span span(log, "survey.MakeWandaDataset");
    venues[1].name = "wanda";
    venues[1].data = survey::MakeWandaDataset(kSurveyScale);
  }
  for (size_t v = 0; v < venues.size(); ++v) {
    Venue& venue = venues[v];
    venue.differentiator =
        eval::MakeDifferentiator("TopoAC", &venue.data.venue);
    for (size_t i = 0; i < venue.data.map.size(); ++i) {
      if (venue.data.map.record(i).has_rp) venue.labeled.push_back(i);
    }
    Rng order(StreamSeed(seed, 10 + v));
    order.Shuffle(&venue.labeled);
  }
  return venues;
}

bisim::BiSimConfig BiSimConfigFor(const Venue& venue, uint64_t seed, size_t v,
                                  size_t threads) {
  eval::BenchEnv env;
  env.epochs = kEpochs;
  bisim::BiSimConfig cfg = eval::DefaultBiSimConfig(venue.data.venue, env);
  cfg.num_threads = threads;
  cfg.seed = StreamSeed(seed, 20 + v);
  return cfg;
}

/// Hides fold `fold`, builds the map (untraced: the eval entry point;
/// traced: the same calls one layer at a time, then the BiSIM replay).
VenueBuild BuildVenue(const Venue& venue, size_t v, size_t fold, uint64_t seed,
                      size_t bisim_threads, SpanLog* log, RunResult* result) {
  VenueBuild b;
  // A fixed count per fold keeps every localization pass the same size
  // whatever the seed's survey produced.
  const size_t per_fold = std::max<size_t>(
      1, std::min(kHiddenPerFold, venue.labeled.size() / kFolds));
  for (size_t i = fold * per_fold;
       i < std::min(venue.labeled.size(), (fold + 1) * per_fold); ++i) {
    b.hidden.push_back(venue.labeled[i]);
  }
  std::sort(b.hidden.begin(), b.hidden.end());
  rmap::RadioMap working = venue.data.map;
  for (size_t row : b.hidden) {
    b.truths.push_back(working.record(row).rp);
    working.record(row).has_rp = false;
    working.record(row).rp = geom::Point{};
  }

  const bisim::BiSimConfig cfg = BiSimConfigFor(venue, seed, v, bisim_threads);
  const bisim::BiSimImputer imputer(cfg);
  Rng rng(StreamSeed(seed, 100 + 16 * v + fold));

  const double t0 = NowSeconds();
  rmap::RadioMap amended;
  rmap::MaskMatrix mask;
  Rng before_impute(0);
  if (log == nullptr) {
    b.imputed = eval::DifferentiateAndImpute(working, *venue.differentiator,
                                             imputer, rng);
  } else {
    amended = working;
    {
      Span span(log, "clustering.Differentiate");
      mask = venue.differentiator->Differentiate(amended, rng);
    }
    b.mar_cells = double(mask.CountOf(rmap::MaskValue::kMar));
    {
      Span span(log, "imputers.FillMnar");
      b.mnar_filled_cells = double(imputers::FillMnar(&amended, &mask));
    }
    before_impute = rng;
    Span span(log, "bisim.Impute");
    b.imputed = imputer.Impute(amended, mask, rng);
  }
  b.training = rmap::RadioMap(b.imputed.num_aps());
  for (size_t i = 0, h = 0; i < b.imputed.size(); ++i) {
    if (h < b.hidden.size() && b.hidden[h] == i) {
      ++h;
      continue;
    }
    b.training.Add(b.imputed.record(i));
  }
  {
    Span span(log, "positioning.Fit");
    b.estimator.Fit(b.training, rng);
  }
  b.build_s = NowSeconds() - t0;

  if (log != nullptr) {
    const BiSimReplayResult replay =
        ReplayBiSimImpute(amended, mask, cfg, before_impute, log);
    b.final_loss = replay.final_loss;
    b.train_seqs = double(replay.sequences * cfg.epochs);
    result->Check(replay.final_loss == imputer.last_training_loss(),
                  venue.name + ": BiSIM replay did not reproduce the "
                               "composite's training loss");
  }

  // Row c * hidden + q is copy c of hidden record q.
  const size_t h = b.hidden.size();
  b.queries = la::Matrix(h * kQueryCopies, b.imputed.num_aps());
  for (size_t row = 0; row < b.queries.rows(); ++row) {
    const std::vector<double>& fp = b.imputed.record(b.hidden[row % h]).rssi;
    std::copy(fp.begin(), fp.end(),
              b.queries.data().begin() + long(row * b.queries.cols()));
  }
  return b;
}

/// Checks of one venue build against ground truth and a brute force.
void CheckBuild(const Venue& venue, const VenueBuild& b,
                const std::vector<geom::Point>& estimates, RunResult* result) {
  const std::string complete = CheckCompleteMap(b.imputed);
  result->Check(complete.empty(), venue.name + ": " + complete);
  const MarCellError mar =
      MeasureMarCellError(venue.data.map, b.imputed, venue.data.truth.mask,
                          venue.data.truth.mean_rssi);
  result->Check(mar.cells > 0 && mar.imputed_mae < mar.fill_mae,
                venue.name + ": imputed MAR cells are no closer to ground "
                             "truth than the -100 dBm fill");
  // Brute force over the training map's own rows (every row is labeled
  // after imputation, so row r of the estimator is training record r).
  const size_t d = b.training.num_aps();
  std::vector<double> refs;
  std::vector<geom::Point> labels;
  for (const rmap::Record& r : b.training.records()) {
    refs.insert(refs.end(), r.rssi.begin(), r.rssi.end());
    labels.push_back(r.rp);
  }
  for (size_t q = 0; q < estimates.size(); ++q) {
    const geom::Point expect =
        BruteForceWknn(refs.data(), labels.data(), labels.size(), d,
                       b.queries.data().data() + q * d, kWknnK);
    if (!result->Check(SameBits(expect, estimates[q]),
                       venue.name + ": EstimateBatch differs from the "
                                    "brute-force WKNN")) {
      return;
    }
  }
}

}  // namespace

RunResult RunPaperOffline(const RunConfig& config, Tracer* tracer) {
  RunResult result;
  SpanLog* log = tracer->NewLog();

  // ---- Set-up: dataset generation, again before every round ----------------
  // Generation is short, so setup_s is the median over the rounds: it then
  // samples the host over the whole run, not its first seconds. Each
  // generation runs on the next CPU (PinToCpu), and the round's map builds
  // stay on that CPU: BiSIM trains on the calling thread (num_threads 1).
  // With two unpinned training threads, the median build of a run moved
  // with the host's load: 2.2-4.1 s in four runs, against 3.5-3.9 s pinned
  // on one thread in the same minutes.
  std::vector<double> setup_s;
  auto generate = [&] {
    PinToCpu(setup_s.size());
    const double t0 = NowSeconds();
    std::vector<Venue> out = MakeVenues(config.seed, log);
    setup_s.push_back(NowSeconds() - t0);
    return out;
  };
  std::vector<Venue> venues = generate();

  // ---- Rounds ---------------------------------------------------------------
  // Traced runs build every fold twice, untraced then traced, so the
  // tracing overhead compares identical rounds: their whole wall time,
  // spans, replays and checks included.
  std::vector<double> build_s, traced_build_s;
  std::vector<double> traced_round_s, untraced_round_s;
  std::vector<double> pass_s;
  std::vector<double> mar_cells, mnar_filled, final_loss, train_seqs;
  std::vector<double> gemm_ops, gemm_bytes;
  double rps_outside = 0.0;  ///< imputed RPs past the venue box, one per fold
  double queries_localized = 0.0;
  std::vector<std::vector<std::vector<geom::Point>>> first_answers(
      venues.size(), std::vector<std::vector<geom::Point>>(kFolds));
  std::vector<geom::Point> ape_estimates, ape_truths;
  OpCount builds, batches, scans;
  const double start = NowSeconds();
  const size_t per_fold_rounds = config.trace ? 2 : 1;
  for (size_t round = 0;; ++round) {
    if (round > 0) venues = generate();
    const size_t fold = (round / per_fold_rounds) % kFolds;
    const bool traced_round = config.trace && round % 2 == 1;
    SpanLog* round_log = traced_round ? log : nullptr;
    const double round_start = NowSeconds();
    std::vector<VenueBuild> built;
    double round_build_s = 0.0;
    for (size_t v = 0; v < venues.size(); ++v) {
      ++builds.attempted;
      built.push_back(BuildVenue(venues[v], v, fold, config.seed,
                                 config.threads.bisim, round_log, &result));
      ++builds.succeeded;
      round_build_s += built.back().build_s;
    }
    if (traced_round) {
      traced_build_s.push_back(round_build_s);
      double mar = 0.0, mnar = 0.0, loss = 0.0, seqs = 0.0;
      for (const VenueBuild& b : built) {
        mar += b.mar_cells;
        mnar += b.mnar_filled_cells;
        loss += b.final_loss / double(built.size());
        seqs += b.train_seqs;
      }
      mar_cells.push_back(mar);
      mnar_filled.push_back(mnar);
      final_loss.push_back(loss);
      train_seqs.push_back(seqs);
    } else if (!config.trace) {
      build_s.push_back(round_build_s);
    }

    // Localization passes over the hidden records of both venues.
    std::vector<std::vector<geom::Point>> answers(venues.size());
    for (size_t p = 0; p < kPassesPerRound; ++p) {
      if (p % kPassesPerCpu == 0) PinToCpu(p / kPassesPerCpu);
      const double t0 = NowSeconds();
      for (size_t v = 0; v < venues.size(); ++v) {
        ++batches.attempted;
        scans.attempted += built[v].queries.rows();
        std::vector<geom::Point> out;
        {
          Span span(round_log, "positioning.EstimateBatch");
          out = built[v].estimator.EstimateBatch(built[v].queries);
        }
        ++batches.succeeded;
        scans.succeeded += out.size();
        if (p == 0) {
          answers[v] = std::move(out);
        } else if (!(out == answers[v])) {
          result.Check(false, venues[v].name + ": repeated EstimateBatch "
                                               "passes disagree");
        }
      }
      pass_s.push_back(NowSeconds() - t0);
      for (const VenueBuild& b : built) queries_localized += b.queries.rows();
      if (round_log != nullptr && p % 8 == 0) {
        for (const VenueBuild& b : built) {
          const QuantRankingWork work = ReplayQuantRanking(
              b.estimator.quantized().span(), b.queries, round_log);
          gemm_ops.push_back(work.gemm_ops);
          gemm_bytes.push_back(work.gemm_bytes);
        }
      }
    }
    Unpin();

    for (size_t v = 0; v < venues.size(); ++v) {
      CheckBuild(venues[v], built[v], answers[v], &result);
      std::vector<geom::Point>& first = first_answers[v][fold];
      if (first.empty()) {
        first = answers[v];
        rps_outside += double(CountRpsOutside(built[v].imputed,
                                              venues[v].data.venue.width,
                                              venues[v].data.venue.height));
        // Copy 0 of each hidden record.
        ape_estimates.insert(ape_estimates.end(), answers[v].begin(),
                             answers[v].begin() + long(built[v].truths.size()));
        ape_truths.insert(ape_truths.end(), built[v].truths.begin(),
                          built[v].truths.end());
      } else {
        result.Check(first == answers[v],
                     venues[v].name + ": rebuilding the same fold gave "
                                      "different answers");
      }
    }
    if (config.trace) {
      (traced_round ? traced_round_s : untraced_round_s)
          .push_back(NowSeconds() - round_start);
    }
    const bool all_folds = round + 1 >= kFolds * per_fold_rounds;
    const bool whole_pair = !config.trace || round % 2 == 1;
    if (all_folds && whole_pair &&
        NowSeconds() - start >= config.seconds) {
      break;
    }
  }
  result.ops["map_builds"] = builds;
  result.ops["batches"] = batches;
  result.ops["scans"] = scans;

  if (!config.trace) {
    result.Metric("setup_s", Median(setup_s), "s");
    result.Metric("map_build_s", Median(build_s), "s");
    result.Metric("ape_m", MeanPositioningError(ape_estimates, ape_truths),
                  "m");
    result.Metric("throughput_qps", queries_localized / Sum(pass_s), "1/s");
    // Percentiles per round (kPassesPerRound requests over every CPU), and
    // the median round: a stretch of host stalls moves the rounds it falls
    // in, not the run's p90.
    std::vector<double> pass_us, round_p50_us, round_p90_us;
    for (size_t i = 0; i + kPassesPerRound <= pass_s.size();
         i += kPassesPerRound) {
      std::vector<double> round_us;
      for (size_t j = i; j < i + kPassesPerRound; ++j) {
        round_us.push_back(pass_s[j] * 1e6);
      }
      round_p50_us.push_back(Quantile(round_us, 0.5));
      round_p90_us.push_back(Quantile(round_us, 0.9));
      pass_us.insert(pass_us.end(), round_us.begin(), round_us.end());
    }
    result.Metric("latency_p50_us", Median(round_p50_us), "us");
    result.Metric("latency_p90_us", Median(round_p90_us), "us");
    result.Detail("latency_p99_us", Quantile(pass_us, 0.99));
    result.Detail("latency_p999_us", Quantile(pass_us, 0.999));
    result.Detail("latency_samples", double(pass_us.size()));
    result.Detail("map_build_samples", double(build_s.size()));
    result.Detail("ape_samples", double(ape_truths.size()));
    result.Detail("imputed_rps_outside_venue", rps_outside);
    return result;
  }

  // ---- Per-layer (traced run) ----------------------------------------------
  // Set-up spans: one Kaide + one Wanda generation per set-up.
  const std::vector<double> kaide = tracer->DurationsUs("survey.MakeKaideDataset");
  const std::vector<double> wanda = tracer->DurationsUs("survey.MakeWandaDataset");
  std::vector<double> generate_s;
  for (size_t i = 0; i < std::min(kaide.size(), wanda.size()); ++i) {
    generate_s.push_back((kaide[i] + wanda[i]) * 1e-6);
  }
  result.Metric("survey.generate_s", Median(generate_s), "s");
  // Per traced round, both venues summed.
  const size_t traced_rounds = traced_build_s.size();
  auto per_round_s = [&](const char* name) {
    return Sum(tracer->DurationsUs(name)) * 1e-6 / double(traced_rounds);
  };
  result.Metric("clustering.differentiate_s",
                per_round_s("clustering.Differentiate"), "s");
  result.Metric("bisim.train_s", per_round_s("bisim.TrainBiSim"), "s");
  result.Metric("bisim.infer_s", per_round_s("bisim.Forward"), "s");
  result.Metric("positioning.fit_s", per_round_s("positioning.Fit"), "s");

  result.Metric("clustering.mar_cells", Median(mar_cells), "count");
  result.Metric("imputers.mnar_filled_cells", Median(mnar_filled), "count");
  result.Metric("bisim.train_seqs_per_s",
                Sum(train_seqs) /
                    (Sum(tracer->DurationsUs("bisim.TrainBiSim")) * 1e-6),
                "1/s");
  result.Metric("bisim.final_loss", Median(final_loss), "loss");
  result.Metric("bisim.rps_outside_venue", rps_outside, "count");

  // Localization: mean per EstimateBatch call (one venue's hidden set);
  // the la stages are replays of the same calls' ranking pass.
  const double estimate_us = MeanOf(tracer->DurationsUs("positioning.EstimateBatch"));
  const double quantize_us = MeanOf(tracer->DurationsUs("la.QuantizeQueryRow"));
  const double gemm_us = MeanOf(tracer->DurationsUs("la.GemmQuantNN"));
  const double norms_us = MeanOf(tracer->DurationsUs("la.MaskedQuantRowNorms"));
  result.Metric("positioning.estimate_batch_us", estimate_us, "us");
  result.Metric("positioning.select_rescore_us",
                estimate_us - quantize_us - gemm_us - norms_us, "us");
  result.Metric("la.quantize_query_us", quantize_us, "us");
  result.Metric("la.quant_gemm_us", gemm_us, "us");
  result.Metric("la.masked_norms_us", norms_us, "us");
  result.Metric("la.quant_gemm_ops", Median(gemm_ops), "count");
  result.Metric("la.quant_gemm_bytes", Median(gemm_bytes), "bytes");

  // Coverage: the layer stages over the round builds they make up.
  const double stages_us =
      Sum(tracer->SelfTimesUs("clustering.Differentiate")) +
      Sum(tracer->SelfTimesUs("imputers.FillMnar")) +
      Sum(tracer->DurationsUs("bisim.BiSimModel")) +
      Sum(tracer->DurationsUs("bisim.BuildSequences")) +
      Sum(tracer->DurationsUs("bisim.TrainBiSim")) +
      Sum(tracer->DurationsUs("bisim.Forward")) +
      Sum(tracer->SelfTimesUs("positioning.Fit"));
  result.Metric("trace.coverage", stages_us / (Sum(traced_build_s) * 1e6),
                "ratio");
  result.Metric("trace.overhead", Sum(traced_round_s) / Sum(untraced_round_s),
                "ratio");
  return result;
}

}  // namespace perfbench
