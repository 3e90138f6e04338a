// venue_churn: single-scan reads beside live BiSIM rebuilds.
//
// Set-up builds a soak venue of a dozen small floors (MakeSoakVenue),
// sparsifies every floor's survey map and registers it cold through a
// MapUpdater running DasaKM + BiSIM (D-BiSIM) with persistence on; it also
// draws every scan of the run from walker traces (GenerateWalkers +
// SynthesizeFingerprint) and the resurvey batches (MakeResurveyObservations,
// sparsified). The timed part has two phases with the same client threads:
// an open loop that sends each scan at its Poisson arrival instant, then a
// closed loop that sends the next scan as soon as the last is answered.
// Scans go to ShardRouter::Localize with the walker session's floor hint,
// or to LocalizeAuto without one. Throughout both phases the main thread
// feeds one resurvey batch per floor in turn, on a fixed schedule, and
// waits for each batch's rebuild to become visible before the next; the
// number of batches is fixed, so rebuild work does not depend on speed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bisim/bisim.h"
#include "checks.h"
#include "clustering/differentiation.h"
#include "clustering/strategies.h"
#include "common/missing.h"
#include "imputers/imputer.h"
#include "obs/metrics.h"
#include "positioning/estimators.h"
#include "replay.h"
#include "serving/map_updater.h"
#include "serving/shard_router.h"
#include "serving/spatial_index.h"
#include "workload/arrivals.h"
#include "workload/session.h"
#include "workload/trace.h"
#include "workloads.h"

namespace perfbench {

using namespace rmi;

namespace {

// Venue: 3 buildings x 4 floors of 12 x 9 RPs, 8 APs per floor (width 96),
// the last floor Bluetooth-only.
constexpr size_t kBuildings = 3;
constexpr size_t kFloorsPerBuilding = 4;
constexpr double kSurveySparsity = 0.5;  ///< observed cells removed pre-registration
constexpr size_t kBiSimEpochs = 8;       ///< cold registration; rebuilds fine-tune
// Resurvey feed: kRounds x floors batches of kBatchRecords records.
constexpr size_t kRounds = 3;
constexpr size_t kBatchRecords = 24;     ///< also the updater's volume trigger
constexpr double kResurveyDriftDb = 1.5;
constexpr double kResurveyDropout = 0.3; ///< observed cells nulled per record
// Scans.
constexpr double kOpenLoopRate = 2000.0; ///< scans per second, all clients
constexpr double kUnhintedShare = 0.2;   ///< scans sent to LocalizeAuto
constexpr size_t kWalkers = 384;
constexpr double kTimeScale = 8.0;       ///< walker seconds per wall second
/// Closed-loop scans cycled per client: 512 x 96 doubles (~0.4 MB) stay in
/// the client core's L2 beside the 12 floors' references.
constexpr size_t kClosedPoolPerClient = 512;
constexpr size_t kSetups = 3;
/// The client moves to the next CPU every slice (PinToCpu). Open-loop
/// percentiles and closed-loop throughput are taken per slice-long window
/// of their phase (500 open-loop scans each), and the run reports the
/// median window: with the client on each vCPU in turn, a whole-phase p90
/// would read the slowest vCPU's typical latency once that vCPU held more
/// than a tenth of the scans.
constexpr double kCpuSliceSeconds = 0.25;
constexpr double kPollSeconds = 0.5e-3;  ///< feeder's visibility poll
constexpr size_t kCheckEvery = 256;      ///< inline brute-force sample
constexpr size_t kTraceEvery = 16;       ///< traced-run replay sample
/// LocalizeAuto scans must land on their true floor at least this often.
constexpr double kMinFloorHitRate = 0.9;

struct Scan {
  double due_s = 0.0;  ///< open loop: offset from the phase start
  size_t walker = 0;
  bool unhinted = false;
  std::vector<double> fingerprint;
  workload::TraceKey truth;
};

struct Inputs {
  workload::SoakVenue venue;
  std::vector<rmap::RadioMap> bases;                 ///< sparse survey maps
  std::vector<std::vector<rmap::Record>> resurvey;   ///< feed order
  std::vector<std::vector<Scan>> open_scans;         ///< per client
  std::vector<std::vector<Scan>> closed_scans;       ///< per client
};

bisim::BiSimConfig BiSimConfigFor(uint64_t seed, size_t threads) {
  bisim::BiSimConfig cfg;
  cfg.epochs = kBiSimEpochs;
  cfg.num_threads = threads;
  cfg.loc_scale = 1.0 / 12.0;  // floor extent, meters
  cfg.seed = StreamSeed(seed, 20);
  return cfg;
}

Inputs MakeInputs(uint64_t seed, double seconds, size_t clients) {
  Inputs in;
  workload::SoakVenueOptions vo;
  vo.num_buildings = kBuildings;
  vo.floors_per_building = kFloorsPerBuilding;
  // The venue itself is fixed (SoakVenueOptions' own seed); the run seed
  // draws the sparsification, the resurvey feed, walkers and scan noise.
  in.venue = workload::MakeSoakVenue(vo);

  Rng sparsify(StreamSeed(seed, 2));
  for (const serving::VenueShard& floor : in.venue.shards) {
    rmap::RadioMap base = floor.map;
    rmap::RemoveRandomRssis(&base, kSurveySparsity, sparsify);
    base.set_shard(floor.id);
    in.bases.push_back(std::move(base));
  }
  Rng dropout(StreamSeed(seed, 3));
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t s = 0; s < in.venue.num_shards(); ++s) {
      std::vector<rmap::Record> batch = workload::MakeResurveyObservations(
          in.venue, s, kBatchRecords, kResurveyDriftDb,
          1000.0 * double(round + 1), StreamSeed(seed, 100 + round));
      for (rmap::Record& r : batch) {
        for (double& v : r.rssi) {
          if (!IsNull(v) && dropout.Bernoulli(kResurveyDropout)) v = kNull;
        }
        if (r.NumObserved() == 0) r.rssi[0] = kMnarFillDbm;
      }
      in.resurvey.push_back(std::move(batch));
    }
  }

  // Walker scans. The open loop replays a constant-rate Poisson schedule
  // over the first half of the run; the closed loop cycles a fixed pool
  // drawn from the second half of the walkers' day.
  const double half = seconds / 2.0;
  workload::WalkerOptions wo;
  wo.num_walkers = kWalkers;
  wo.duration_s = seconds * kTimeScale;
  wo.seed = StreamSeed(seed, 4);
  const std::vector<workload::WalkerTrace> walkers =
      workload::GenerateWalkers(in.venue, wo);
  workload::ArrivalScheduleOptions ao;
  ao.duration_s = half;
  ao.expected_total = kOpenLoopRate * half;
  ao.curve.amplitude = 0.0;
  ao.seed = StreamSeed(seed, 5);
  const std::vector<double> arrivals = workload::PoissonArrivals(ao);
  const workload::FingerprintOptions fo;
  in.open_scans.resize(clients);
  in.closed_scans.resize(clients);
  std::vector<Rng> noise;
  for (size_t k = 0; k < clients; ++k) noise.emplace_back(StreamSeed(seed, 40 + k));
  Rng unhinted(StreamSeed(seed, 6));
  auto make_scan = [&](double wall_s, size_t w) {
    Scan scan;
    scan.due_s = wall_s;
    scan.walker = w;
    scan.unhinted = unhinted.Bernoulli(kUnhintedShare);
    scan.truth = walkers[w].At(wall_s * kTimeScale);
    scan.fingerprint = workload::SynthesizeFingerprint(
        in.venue, scan.truth, walkers[w].device_bias_db, fo,
        noise[w % clients]);
    return scan;
  };
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const size_t w = i % walkers.size();
    in.open_scans[w % clients].push_back(make_scan(arrivals[i], w));
  }
  const size_t pool = kClosedPoolPerClient * clients;
  for (size_t i = 0; i < pool; ++i) {
    const size_t w = i % walkers.size();
    in.closed_scans[w % clients].push_back(
        make_scan(half + half * double(i) / double(pool), w));
  }
  return in;
}

/// One set-up's serving stack; members are destroyed in reverse order.
struct Stack {
  Inputs inputs;
  serving::ShardedSnapshotStore store;
  cluster::ClusteringDifferentiator differentiator{
      std::make_shared<cluster::DasaKMeansClusterer>()};
  std::unique_ptr<bisim::BiSimImputer> imputer;
  std::unique_ptr<serving::MapUpdater> updater;
  double register_s = 0.0;
};

std::unique_ptr<Stack> SetUp(const RunConfig& config,
                             const std::string& persist_dir) {
  auto stack = std::make_unique<Stack>();
  stack->inputs =
      MakeInputs(config.seed, config.seconds, config.threads.client);
  stack->imputer = std::make_unique<bisim::BiSimImputer>(
      BiSimConfigFor(config.seed, config.threads.bisim));
  std::filesystem::remove_all(persist_dir);
  serving::MapUpdaterOptions uo;
  uo.min_new_observations = kBatchRecords;
  uo.rebuild_threads = config.threads.rebuild;
  uo.seed = StreamSeed(config.seed, 7);
  uo.persist_dir = persist_dir;
  stack->updater = std::make_unique<serving::MapUpdater>(
      &stack->store, &stack->differentiator, stack->imputer.get(),
      [] {
        return std::make_unique<positioning::KnnEstimator>(kWknnK,
                                                           /*weighted=*/true);
      },
      uo);
  // Cold registration trains on the calling thread (BiSIM num_threads 1):
  // each floor's runs on the next CPU.
  for (size_t s = 0; s < stack->inputs.venue.num_shards(); ++s) {
    PinToCpu(s);
    const double t0 = NowSeconds();
    stack->updater->RegisterShard(stack->inputs.venue.shards[s].id,
                                  stack->inputs.bases[s]);
    stack->register_s += NowSeconds() - t0;
  }
  Unpin();  // before the updater's workers and the clients start
  return stack;
}

/// Traced replay of every floor's cold registration, one layer at a time:
/// DasaKM differentiate -> FillMnar -> BiSIM (composite, then its stages)
/// -> WKNN fit.
void ReplayRegistrations(const Stack& stack, const RunConfig& config,
                         SpanLog* log, std::vector<double>* mar_cells,
                         std::vector<double>* mnar_filled,
                         std::vector<double>* final_loss,
                         double* train_seqs) {
  const bisim::BiSimConfig cfg =
      BiSimConfigFor(config.seed, config.threads.bisim);
  for (size_t s = 0; s < stack.inputs.bases.size(); ++s) {
    rmap::RadioMap amended = stack.inputs.bases[s];
    Rng rng(StreamSeed(config.seed, 200 + s));
    rmap::MaskMatrix mask;
    {
      Span span(log, "clustering.Differentiate");
      mask = stack.differentiator.Differentiate(amended, rng);
    }
    mar_cells->push_back(double(mask.CountOf(rmap::MaskValue::kMar)));
    {
      Span span(log, "imputers.FillMnar");
      mnar_filled->push_back(double(imputers::FillMnar(&amended, &mask)));
    }
    const Rng before_impute = rng;
    rmap::RadioMap imputed;
    {
      Span span(log, "bisim.Impute");
      imputed = stack.imputer->Impute(amended, mask, rng);
    }
    const BiSimReplayResult replay =
        ReplayBiSimImpute(amended, mask, cfg, before_impute, log);
    final_loss->push_back(replay.final_loss);
    *train_seqs += double(replay.sequences * cfg.epochs);
    positioning::KnnEstimator estimator(kWknnK, /*weighted=*/true);
    Span span(log, "positioning.Fit");
    estimator.Fit(imputed, rng);
  }
}

/// Sleeps until `due` (steady-clock seconds), spinning the last stretch.
void WaitUntil(double due) {
  for (;;) {
    const double left = due - NowSeconds();
    if (left <= 0.0) return;
    if (left > 300e-6) {
      std::this_thread::sleep_for(std::chrono::duration<double>(left - 200e-6));
    }
  }
}

/// Spins until `due`. The open-loop generator never sleeps: on a VM, a
/// sleeping thread's vCPU halts, and waking it again took milliseconds at
/// times, which showed up as generator lag in the scans' latency.
void SpinUntil(double due) {
  while (NowSeconds() < due) {
  }
}

struct ClientTally {
  OpCount scans;
  std::vector<double> latency_us;        ///< open loop, due -> answer
  std::vector<double> service_us;        ///< open loop, call -> answer
  std::vector<double> lag_us;            ///< open loop, due -> send
  std::vector<double> due_at;            ///< open loop, per latency sample
  std::vector<double> closed_done;       ///< closed loop completion times
  std::vector<geom::Point> estimates, truths;  ///< correct-floor answers
  double closed_start = 0.0, closed_end = 0.0;
  size_t auto_routed = 0, auto_hits = 0;
  size_t checked = 0, unverifiable = 0;
  size_t switches = 0;
  double scored_rows = 0.0, indexed_rows = 0.0;
  /// Closed loop, traced runs: the client's whole time per scan, routing,
  /// spans and replays included.
  std::vector<double> traced_us, untraced_us;
  std::vector<std::string> failures;
};

/// One client: open loop over its scheduled scans, then the closed loop
/// until `stop` is raised.
void RunClient(const Stack& stack, const serving::ShardRouter& router,
               const std::vector<Scan>& open, const std::vector<Scan>& closed,
               double start, const std::atomic<bool>& stop, bool trace,
               SpanLog* trace_log, ClientTally* tally) {
  std::map<size_t, workload::SessionRouter> sessions;
  size_t sent = 0;
  auto send = [&](const Scan& scan, bool open_loop, double due) {
    const bool sampled = ++sent % kCheckEvery == 0;
    SpanLog* log = trace && sent % kTraceEvery == 0 ? trace_log : nullptr;
    const double began = NowSeconds();
    ++tally->scans.attempted;
    auto it = sessions.find(scan.walker);
    if (it == sessions.end()) {
      it = sessions.emplace(scan.walker,
                            workload::SessionRouter(&stack.store, &router))
               .first;
    }
    std::optional<rmap::ShardId> hint;
    if (!scan.unhinted) {
      Span span(log, "workload.Route");
      hint = it->second.Route(scan.fingerprint);
    }
    // Inline check bracket: the snapshot that will answer, held open.
    std::shared_ptr<const serving::MapSnapshot> before;
    rmap::ShardId guess;
    if (sampled) {
      if (hint) {
        guess = *hint;
      } else if (auto r = router.ClassifyFloor(scan.fingerprint)) {
        guess = r->shard;
      }
      before = stack.store.Current(guess);
    }
    const double sent_at = NowSeconds();
    geom::Point position;
    rmap::ShardId served;
    try {
      Span span(log, "serving.Localize");
      if (hint) {
        position = router.Localize(*hint, scan.fingerprint);
        served = *hint;
      } else {
        const serving::ShardRouter::AutoResult r =
            router.LocalizeAuto(scan.fingerprint);
        position = r.position;
        served = r.route.shard;
      }
    } catch (const std::exception&) {
      if (hint) {
        ++tally->scans.rejected;
        it->second.Reset();
      } else {
        ++tally->scans.unroutable;
      }
      return;
    }
    const double done = NowSeconds();
    ++tally->scans.succeeded;
    if (!hint) {
      ++tally->auto_routed;
      tally->auto_hits += served == scan.truth.shard;
    }
    if (open_loop) {
      tally->latency_us.push_back((done - due) * 1e6);
      tally->service_us.push_back((done - began) * 1e6);
      tally->lag_us.push_back((sent_at - due) * 1e6);
      tally->due_at.push_back(due);
      if (served == scan.truth.shard) {
        tally->estimates.push_back(position);
        tally->truths.push_back(scan.truth.pos);
      }
    } else {
      tally->closed_done.push_back(done);
    }
    if (sampled) {
      const auto after = stack.store.Current(served);
      if (before != nullptr && served == guess && before == after) {
        const la::Matrix& refs = before->fingerprints();
        const geom::Point expect = BruteForceWknn(
            refs.data().data(), before->positions.data(), refs.rows(),
            refs.cols(), scan.fingerprint.data(), kWknnK);
        ++tally->checked;
        if (!SameBits(expect, position)) {
          tally->failures.push_back(
              "Localize differs from the brute-force WKNN");
        }
      } else {
        ++tally->unverifiable;
      }
    }
    if (log != nullptr) {
      // Replay the layers the call went through.
      if (!hint) {
        Span span(log, "serving.ClassifyFloor");
        router.ClassifyFloor(scan.fingerprint);
      }
      serving::PinnedSnapshot pin;
      {
        Span span(log, "serving.Pinned");
        pin = stack.store.Pinned(served);
      }
      std::vector<serving::Neighbor> neighbors;
      {
        Span span(log, "serving.SpatialIndex.Search");
        neighbors = pin->index.Search(pin->fingerprints(), scan.fingerprint,
                                      kWknnK);
      }
      tally->scored_rows += double(serving::SpatialIndex::last_scored());
      tally->indexed_rows += double(pin->num_refs());
      const auto* knn =
          dynamic_cast<const positioning::KnnEstimator*>(pin->estimator.get());
      Span span(log, "positioning.EstimateFromCandidates");
      knn->EstimateFromCandidates(std::move(neighbors));
    }
    // The brute-force check (sampled scans) is left out: it is no tracing.
    if (trace && !open_loop && !sampled) {
      (log != nullptr ? tally->traced_us : tally->untraced_us)
          .push_back((NowSeconds() - began) * 1e6);
    }
  };

  size_t slice = std::numeric_limits<size_t>::max();
  auto rotate = [&](double t) {
    const size_t now = size_t(std::max(0.0, t - start) / kCpuSliceSeconds);
    if (now != slice) PinToCpu(slice = now);
  };
  for (const Scan& scan : open) {
    const double due = start + scan.due_s;
    rotate(due);
    SpinUntil(due);
    send(scan, /*open_loop=*/true, due);
  }
  tally->closed_start = NowSeconds();
  for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    rotate(NowSeconds());
    send(closed[i % closed.size()], /*open_loop=*/false, 0.0);
  }
  tally->closed_end = NowSeconds();
  for (const auto& [w, session] : sessions) tally->switches += session.switches();
}

/// What the feeder measured per visible rebuild.
struct FeedTally {
  OpCount ingests, rebuilds;
  std::vector<double> staleness_s;
  std::vector<double> queue_wait_ms, impute_ms, fit_ms, persist_ms,
      publish_ms;
  std::vector<std::string> failures;
};

/// Feeds every resurvey batch on its schedule slot and waits for the
/// rebuilt snapshot to become visible before the next one.
void Feed(Stack& stack, double start, double seconds, SpanLog* log,
          FeedTally* tally) {
  const Inputs& in = stack.inputs;
  const size_t total = in.resurvey.size();
  for (size_t i = 0; i < total; ++i) {
    const size_t s = i % in.venue.num_shards();
    const rmap::ShardId id = in.venue.shards[s].id;
    WaitUntil(start + seconds * double(i) / double(total));
    const std::shared_ptr<const serving::MapSnapshot> prev =
        stack.store.Current(id);
    const size_t prev_completed = stack.updater->Stats().per_shard[id].completed;
    ++tally->rebuilds.attempted;
    double tripped = 0.0;
    for (const rmap::Record& record : in.resurvey[i]) {
      ++tally->ingests.attempted;
      tripped = NowSeconds();
      try {
        Span span(log, "updater.Ingest");
        stack.updater->Ingest(id, record);
        ++tally->ingests.succeeded;
      } catch (const std::exception&) {
        ++tally->ingests.threw;
      }
    }
    // Visible = a newer version is what a reader pins now. Polled every
    // kPollSeconds: fine against ~0.2 s rebuilds, rare enough not to steal
    // the client's core.
    const double deadline = NowSeconds() + 60.0;
    bool visible = false;
    while (NowSeconds() < deadline) {
      const serving::PinnedSnapshot pin = stack.store.Pinned(id);
      if (pin && pin->version > prev->version) {
        visible = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(kPollSeconds));
    }
    const double visible_at = NowSeconds();
    if (!visible) {
      ++tally->rebuilds.threw;
      tally->failures.push_back("a resurvey batch never became visible");
      continue;
    }
    tally->staleness_s.push_back(visible_at - tripped);
    const auto snap = stack.store.Current(id);
    const std::string refs = CheckRebuiltRefs(
        snap->fingerprints(), prev->num_refs() + in.resurvey[i].size());
    if (!refs.empty()) tally->failures.push_back(refs);
    if (snap->version != prev->version + 1) {
      tally->failures.push_back("a batch was published in more than one "
                                "rebuild");
    }
    // The updater records a rebuild's stats after it persists; wait for them.
    serving::RebuildStats stats;
    while (NowSeconds() < deadline) {
      stats = stack.updater->Stats().per_shard[id];
      if (stats.completed + stats.failed > prev_completed) break;
      std::this_thread::sleep_for(std::chrono::duration<double>(kPollSeconds));
    }
    if (stats.completed == prev_completed + 1) {
      ++tally->rebuilds.succeeded;
    } else {
      ++tally->rebuilds.threw;
    }
    tally->queue_wait_ms.push_back(stats.last_queue_wait_seconds * 1e3);
    tally->impute_ms.push_back(stats.last_impute_seconds * 1e3);
    tally->fit_ms.push_back(stats.last_fit_seconds * 1e3);
    tally->persist_ms.push_back(stats.last_persist_seconds * 1e3);
    tally->publish_ms.push_back(stats.last_publish_seconds * 1e3);
  }
}

/// Store counters read around the churn phases.
struct StoreCounters {
  double wal_appends = 0.0;
  double fsyncs = 0.0;
  double snapshot_writes = 0.0;
  double snapshot_bytes = 0.0;

  static StoreCounters Read() {
    StoreCounters c;
    c.wal_appends = double(
        obs::GetCounter("rmi_store_wal_appends_total", "").Total());
    c.fsyncs = double(obs::GetHistogram("rmi_store_fsync_us", "").Count());
    c.snapshot_writes = double(
        obs::GetCounter("rmi_store_snapshot_writes_total", "").Total());
    c.snapshot_bytes = double(
        obs::GetCounter("rmi_store_snapshot_bytes_written_total", "").Total());
    return c;
  }
};

}  // namespace

RunResult RunVenueChurn(const RunConfig& config, Tracer* tracer) {
  RunResult result;
  const std::string& persist_dir = config.persist_dir;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  OpCount registrations;
  const size_t floors = kBuildings * kFloorsPerBuilding;
  for (size_t s = 0; s < kSetups; ++s) {
    stack.reset();
    const double t0 = NowSeconds();
    registrations.attempted += floors;
    stack = SetUp(config, persist_dir);
    setup_s.push_back(NowSeconds() - t0);
    registrations.succeeded += stack->store.num_shards();
  }
  const serving::MapUpdaterStats setup_stats = stack->updater->Stats();
  result.Check(setup_stats.rebuilds_failed == 0,
               "a cold registration failed");

  SpanLog* main_log = tracer->NewLog();
  std::vector<double> mar_cells, mnar_filled, final_loss;
  double train_seqs = 0.0;
  if (config.trace) {
    ReplayRegistrations(*stack, config, main_log, &mar_cells, &mnar_filled,
                        &final_loss, &train_seqs);
  }

  const serving::ShardRouter router(&stack->store, config.threads.router);
  const size_t num_clients = config.threads.client;
  std::vector<ClientTally> tallies(num_clients);
  std::vector<SpanLog*> logs;
  for (size_t k = 0; k < num_clients; ++k) logs.push_back(tracer->NewLog());
  const StoreCounters counters_before = StoreCounters::Read();
  const serving::MapUpdaterStats stats_before = stack->updater->Stats();
  stack->updater->Start();

  std::atomic<bool> stop{false};
  const double start = NowSeconds() + 0.05;
  std::vector<std::thread> clients;
  for (size_t k = 0; k < num_clients; ++k) {
    clients.emplace_back([&, k] {
      RunClient(*stack, router, stack->inputs.open_scans[k],
                stack->inputs.closed_scans[k], start, stop, config.trace,
                logs[k], &tallies[k]);
    });
  }
  FeedTally feed;
  Feed(*stack, start, config.seconds, main_log, &feed);
  WaitUntil(start + config.seconds);
  stop.store(true);
  for (std::thread& t : clients) t.join();
  stack->updater->Stop();
  const serving::MapUpdaterStats stats_after = stack->updater->Stats();
  const StoreCounters counters_after = StoreCounters::Read();

  // ---- Accounting and checks ---------------------------------------------------
  ClientTally all;
  // The closed loop counts while every client is in it.
  double closed_start = 0.0, closed_end = std::numeric_limits<double>::max();
  for (const ClientTally& t : tallies) {
    all.scans.Merge(t.scans);
    all.latency_us.insert(all.latency_us.end(), t.latency_us.begin(),
                          t.latency_us.end());
    all.service_us.insert(all.service_us.end(), t.service_us.begin(),
                          t.service_us.end());
    all.lag_us.insert(all.lag_us.end(), t.lag_us.begin(), t.lag_us.end());
    all.due_at.insert(all.due_at.end(), t.due_at.begin(), t.due_at.end());
    all.closed_done.insert(all.closed_done.end(), t.closed_done.begin(),
                           t.closed_done.end());
    closed_start = std::max(closed_start, t.closed_start);
    closed_end = std::min(closed_end, t.closed_end);
    all.estimates.insert(all.estimates.end(), t.estimates.begin(),
                         t.estimates.end());
    all.truths.insert(all.truths.end(), t.truths.begin(), t.truths.end());
    all.auto_routed += t.auto_routed;
    all.auto_hits += t.auto_hits;
    all.checked += t.checked;
    all.unverifiable += t.unverifiable;
    all.switches += t.switches;
    all.scored_rows += t.scored_rows;
    all.indexed_rows += t.indexed_rows;
    all.traced_us.insert(all.traced_us.end(), t.traced_us.begin(),
                         t.traced_us.end());
    all.untraced_us.insert(all.untraced_us.end(), t.untraced_us.begin(),
                           t.untraced_us.end());
    for (const std::string& f : t.failures) result.Check(false, f);
  }
  for (const std::string& f : feed.failures) result.Check(false, f);
  const size_t failed_rebuilds =
      stats_after.rebuilds_failed - stats_before.rebuilds_failed;
  result.Check(failed_rebuilds == 0, "MapUpdater reported failed rebuilds");
  result.Check(stats_after.snapshot_persist_failures == 0,
               "a snapshot failed to persist");
  const double hit_rate = FloorHitRate(all.auto_hits, all.auto_routed);
  result.Check(hit_rate >= kMinFloorHitRate,
               "LocalizeAuto scans landed on their true floor less often "
               "than the stated minimum");
  result.Check(all.checked > 0, "no answer could be checked against the "
                                "brute-force WKNN");
  result.ops["map_builds"] = registrations;
  result.ops["scans"] = all.scans;
  result.ops["ingests"] = feed.ingests;
  result.ops["rebuilds"] = feed.rebuilds;
  result.Detail("rebuilds_failed", double(failed_rebuilds));
  result.Detail("floor_hit_rate", hit_rate);
  result.Detail("brute_force_checked", double(all.checked));
  result.Detail("brute_force_unverifiable", double(all.unverifiable));
  std::filesystem::remove_all(persist_dir);

  if (!config.trace) {
    result.Metric("setup_s", Median(setup_s), "s");
    result.Metric("map_build_s", Median(feed.staleness_s), "s");
    result.Metric("ape_m", MeanPositioningError(all.estimates, all.truths),
                  "m");
    const size_t windows = std::max<size_t>(
        1, size_t(config.seconds / 2.0 / kCpuSliceSeconds));
    const std::vector<double> ones(all.closed_done.size(), 1.0);
    result.Metric("throughput_qps",
                  Median(WindowRates(all.closed_done, ones, closed_start,
                                     closed_end, windows)),
                  "1/s");
    const double open_end = start + config.seconds / 2.0;
    result.Metric("latency_p50_us",
                  Median(WindowQuantiles(all.due_at, all.service_us, start,
                                         open_end, windows, 0.5)),
                  "us");
    result.Metric("latency_p90_us",
                  Median(WindowQuantiles(all.due_at, all.service_us, start,
                                         open_end, windows, 0.9)),
                  "us");
    result.Detail("open_latency_p50_us",
                  Median(WindowQuantiles(all.due_at, all.latency_us, start,
                                         open_end, windows, 0.5)));
    result.Detail("open_latency_p90_us",
                  Median(WindowQuantiles(all.due_at, all.latency_us, start,
                                         open_end, windows, 0.9)));
    result.Detail("run_latency_p99_us", Quantile(all.latency_us, 0.99));
    result.Detail("run_latency_p999_us", Quantile(all.latency_us, 0.999));
    result.Detail("latency_samples", double(all.latency_us.size()));
    result.Detail("latency_windows", double(windows));
    result.Detail("generator_lag_p99_us", Quantile(all.lag_us, 0.99));
    result.Detail("open_loop_rate_qps", kOpenLoopRate);
    result.Detail("cold_register_s", stack->register_s);
    result.Detail("staleness_samples", double(feed.staleness_s.size()));
    return result;
  }

  // ---- Per-layer (traced run) -----------------------------------------------
  auto per_floor_s = [&](const char* name) {
    return Sum(tracer->DurationsUs(name)) * 1e-6 / double(floors);
  };
  result.Metric("clustering.differentiate_s",
                per_floor_s("clustering.Differentiate"), "s");
  result.Metric("clustering.mar_cells", Median(mar_cells), "count");
  result.Metric("imputers.mnar_filled_cells", Median(mnar_filled), "count");
  result.Metric("bisim.train_s", per_floor_s("bisim.TrainBiSim"), "s");
  result.Metric("bisim.train_seqs_per_s",
                train_seqs /
                    (Sum(tracer->DurationsUs("bisim.TrainBiSim")) * 1e-6),
                "1/s");
  result.Metric("bisim.infer_s", per_floor_s("bisim.Forward"), "s");
  result.Metric("bisim.final_loss", Median(final_loss), "loss");
  result.Metric("positioning.fit_s", per_floor_s("positioning.Fit"), "s");

  result.Metric("serving.classify_us",
                MeanOf(tracer->DurationsUs("serving.ClassifyFloor")), "us");
  result.Metric("serving.classify_hits", hit_rate, "ratio");
  result.Metric("serving.pin_us", MeanOf(tracer->DurationsUs("serving.Pinned")),
                "us");
  result.Metric("serving.localize_us",
                MeanOf(tracer->DurationsUs("serving.Localize")), "us");
  result.Metric("serving.index_search_us",
                MeanOf(tracer->DurationsUs("serving.SpatialIndex.Search")),
                "us");
  result.Metric("serving.index_scored_share",
                all.indexed_rows > 0 ? all.scored_rows / all.indexed_rows : 0.0,
                "ratio");
  result.Metric("workload.route_us",
                MeanOf(tracer->DurationsUs("workload.Route")), "us");
  result.Metric("workload.session_switches", double(all.switches), "count");
  result.Metric("workload.generator_lag_p99_us", Quantile(all.lag_us, 0.99),
                "us");

  result.Metric("updater.ingest_us",
                MeanOf(tracer->DurationsUs("updater.Ingest")), "us");
  result.Metric("updater.queue_wait_ms", Median(feed.queue_wait_ms), "ms");
  result.Metric("updater.impute_ms", Median(feed.impute_ms), "ms");
  result.Metric("updater.fit_ms", Median(feed.fit_ms), "ms");
  result.Metric("updater.persist_ms", Median(feed.persist_ms), "ms");
  result.Metric("updater.publish_ms", Median(feed.publish_ms), "ms");
  size_t warm = 0, warm_before = 0;
  for (const auto& [id, s] : stats_after.per_shard) warm += s.warm;
  for (const auto& [id, s] : stats_before.per_shard) warm_before += s.warm;
  const size_t started =
      stats_after.rebuilds_started - stats_before.rebuilds_started;
  result.Metric("updater.warm_share",
                started > 0 ? double(warm - warm_before) / double(started)
                            : 0.0,
                "ratio");
  // Snapshot files take two fsyncs each (file, directory); the rest are
  // WAL group commits.
  const double writes =
      counters_after.snapshot_writes - counters_before.snapshot_writes;
  const double wal_fsyncs =
      counters_after.fsyncs - counters_before.fsyncs - 2.0 * writes;
  result.Metric("store.wal_appends_per_fsync",
                wal_fsyncs > 0 ? (counters_after.wal_appends -
                                  counters_before.wal_appends) /
                                     wal_fsyncs
                               : 0.0,
                "ratio");
  result.Metric("store.snapshot_bytes",
                writes > 0 ? (counters_after.snapshot_bytes -
                              counters_before.snapshot_bytes) /
                                 writes
                           : 0.0,
                "bytes");

  const double stages_us =
      Sum(tracer->DurationsUs("serving.ClassifyFloor")) +
      Sum(tracer->DurationsUs("serving.Pinned")) +
      Sum(tracer->DurationsUs("serving.SpatialIndex.Search")) +
      Sum(tracer->DurationsUs("positioning.EstimateFromCandidates"));
  result.Metric("trace.coverage",
                stages_us / Sum(tracer->DurationsUs("serving.Localize")),
                "ratio");
  result.Metric("trace.overhead",
                Median(all.traced_us) / Median(all.untraced_us), "ratio");
  return result;
}

}  // namespace perfbench
