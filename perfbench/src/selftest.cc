// Self-test of the correctness checks: each check must accept a correct
// answer and reject the same answer perturbed. Run with
// `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "common/missing.h"
#include "common/rng.h"
#include "positioning/estimators.h"
#include "workloads.h"

namespace perfbench {

using namespace rmi;

namespace {

int failures = 0;

void Expect(bool accepted_correct, bool rejected_perturbed,
            const char* check) {
  const bool ok = accepted_correct && rejected_perturbed;
  std::printf("%-46s correct %-8s perturbed %s\n", check,
              accepted_correct ? "accepted" : "REJECTED",
              rejected_perturbed ? "rejected" : "ACCEPTED");
  failures += ok ? 0 : 1;
}

rmap::RadioMap SmallMap(size_t rows, size_t aps, Rng& rng) {
  rmap::RadioMap map(aps);
  for (size_t i = 0; i < rows; ++i) {
    rmap::Record r;
    for (size_t j = 0; j < aps; ++j) r.rssi.push_back(rng.Uniform(-95, -40));
    r.rp = geom::Point{rng.Uniform(0, 20), rng.Uniform(0, 20)};
    r.has_rp = true;
    map.Add(r);
  }
  return map;
}

}  // namespace

int RunSelfTest() {
  Rng rng(17);
  const size_t aps = 6;
  const rmap::RadioMap map = SmallMap(50, aps, rng);

  // Brute-force WKNN against the engine's scalar Estimate.
  {
    positioning::KnnEstimator knn(kWknnK, /*weighted=*/true);
    knn.Fit(map, rng);
    std::vector<double> refs;
    std::vector<geom::Point> labels;
    for (const rmap::Record& r : map.records()) {
      refs.insert(refs.end(), r.rssi.begin(), r.rssi.end());
      labels.push_back(r.rp);
    }
    bool correct = true, rejected = true;
    for (int q = 0; q < 20; ++q) {
      std::vector<double> query = map.record(q).rssi;
      for (double& v : query) v += rng.Uniform(-3, 3);
      query[q % aps] = kNull;
      const geom::Point engine = knn.Estimate(query);
      const geom::Point expect = BruteForceWknn(
          refs.data(), labels.data(), labels.size(), aps, query.data(), kWknnK);
      correct &= SameBits(expect, engine);
      const geom::Point perturbed{std::nextafter(engine.x, 1e9), engine.y};
      rejected &= !SameBits(expect, perturbed);
    }
    Expect(correct, rejected, "brute-force WKNN (1-ulp perturbation)");
  }

  // Imputed-map completeness.
  {
    rmap::RadioMap with_null = map;
    with_null.record(3).rssi[2] = kNull;
    rmap::RadioMap without_rp = map;
    without_rp.record(7).has_rp = false;
    Expect(CheckCompleteMap(map).empty(),
           !CheckCompleteMap(with_null).empty() &&
               !CheckCompleteMap(without_rp).empty(),
           "complete imputed map (kNull cell, missing RP)");
    rmap::RadioMap outside = map;
    outside.record(1).rp = geom::Point{-0.1, 5.0};
    Expect(CountRpsOutside(map, 20, 20) == 0,
           CountRpsOutside(outside, 20, 20) == 1,
           "RP outside the venue count");
  }

  // MAR cells: imputed values closer to ground truth than the fill.
  {
    rmap::RadioMap original = map;
    original.record(0).rssi[1] = kNull;
    original.record(4).rssi[3] = kNull;
    rmap::MaskMatrix truth_mask(map.size(), aps);
    truth_mask.set(0, 1, rmap::MaskValue::kMar);
    truth_mask.set(4, 3, rmap::MaskValue::kMar);
    la::Matrix truth_mean(map.size(), aps, -60.0);
    rmap::RadioMap imputed = original;
    imputed.record(0).rssi[1] = -62.0;
    imputed.record(4).rssi[3] = -57.0;
    rmap::RadioMap filled = original;
    filled.record(0).rssi[1] = kMnarFillDbm;
    filled.record(4).rssi[3] = kMnarFillDbm;
    const MarCellError good =
        MeasureMarCellError(original, imputed, truth_mask, truth_mean);
    const MarCellError bad =
        MeasureMarCellError(original, filled, truth_mask, truth_mean);
    Expect(good.cells == 2 && good.imputed_mae < good.fill_mae,
           !(bad.imputed_mae < bad.fill_mae),
           "MAR cells beat the -100 dBm fill");
  }

  // Rebuilt snapshot rows: no kNull, grown by the batch.
  {
    la::Matrix refs(5, aps, -70.0);
    la::Matrix with_null = refs;
    with_null(2, 1) = kNull;
    Expect(CheckRebuiltRefs(refs, 5).empty(),
           !CheckRebuiltRefs(refs, 6).empty() &&
               !CheckRebuiltRefs(with_null, 5).empty(),
           "rebuilt snapshot rows (count, kNull)");
  }

  // Floor hit rate against a stated minimum.
  Expect(FloorHitRate(99, 100) >= 0.99, !(FloorHitRate(98, 100) >= 0.99),
         "floor hit rate minimum");

  // APE from hidden RPs.
  {
    const std::vector<geom::Point> truths = {{0, 0}, {3, 4}};
    const std::vector<geom::Point> estimates = {{0, 0}, {0, 0}};
    const std::vector<geom::Point> shifted = {{1, 0}, {0, 0}};
    Expect(MeanPositioningError(estimates, truths) == 2.5,
           MeanPositioningError(shifted, truths) != 2.5,
           "APE from hidden RPs");
  }

  std::printf("selftest: %s\n", failures == 0 ? "all checks reject perturbed "
                                                "answers"
                                              : "FAILED");
  return failures;
}

}  // namespace perfbench
