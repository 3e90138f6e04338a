// Correctness checks the benchmark runs on every workload run. Each one
// compares the engine's output with a computation made here, apart from the
// engine: a brute-force WKNN, simulator ground truth, hidden RPs, snapshot
// row counts. The checks take plain data so the self-test (selftest.cc) can
// feed each one a perturbed answer and show that it fails.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "geometry/geometry.h"
#include "la/matrix.h"
#include "radiomap/radio_map.h"

namespace perfbench {

namespace geom = rmi::geom;
namespace la = rmi::la;
namespace rmap = rmi::rmap;

/// The serving estimator every workload publishes: WKNN, k = 3.
inline constexpr size_t kWknnK = 3;

/// Brute-force WKNN of `query` (kNull entries skipped) over `num_refs`
/// row-major reference rows: squared distance over the query's observed
/// dimensions, summed in AP order; the k nearest by (distance, row index);
/// inverse-distance weights 1 / (sqrt(d) + 1e-6). The engine claims its
/// answers are bit-identical to this rule.
geom::Point BruteForceWknn(const double* refs, const geom::Point* labels,
                           size_t num_refs, size_t num_aps,
                           const double* query, size_t k);

/// True when both coordinates are bit-identical.
bool SameBits(const geom::Point& a, const geom::Point& b);

/// Empty when `map` is a complete imputed map: every record has the map's
/// width, no kNull RSSI, and a finite RP. Otherwise names the first
/// violation.
std::string CheckCompleteMap(const rmap::RadioMap& map);

/// Records whose RP lies outside [0, width] x [0, height]. Reported, not
/// gated: BiSIM's decoder does not bound imputed RPs to the venue, and on
/// the survey venues a few land up to a few meters past an outer wall on
/// every seed (see CHANGES.md).
size_t CountRpsOutside(const rmap::RadioMap& map, double width,
                       double height);

/// Mean absolute error at the ground-truth MAR cells that are missing in
/// `original`: the imputed RSSI and the -100 dBm fill, each against the
/// simulator's noise-free mean RSSI. Rows of `imputed` align with
/// `original` (the imputers keep every record in place).
struct MarCellError {
  double imputed_mae = 0.0;
  double fill_mae = 0.0;
  size_t cells = 0;
};
MarCellError MeasureMarCellError(const rmap::RadioMap& original,
                                 const rmap::RadioMap& imputed,
                                 const rmap::MaskMatrix& truth_mask,
                                 const la::Matrix& truth_mean_rssi);

/// Empty when a rebuilt snapshot's reference matrix holds no kNull cell and
/// has exactly `expected_rows` rows; otherwise names the violation.
std::string CheckRebuiltRefs(const la::Matrix& fingerprints,
                             size_t expected_rows);

/// Share of floor-classified scans that landed on their true floor (1 when
/// none were classified).
double FloorHitRate(size_t hits, size_t classified);

/// Mean of the distances between estimates and truths (0 for none).
double MeanPositioningError(const std::vector<geom::Point>& estimates,
                            const std::vector<geom::Point>& truths);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
