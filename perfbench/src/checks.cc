#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/missing.h"

namespace perfbench {

geom::Point BruteForceWknn(const double* refs, const geom::Point* labels,
                           size_t num_refs, size_t num_aps,
                           const double* query, size_t k) {
  std::vector<std::pair<double, size_t>> dist(num_refs);
  for (size_t r = 0; r < num_refs; ++r) {
    const double* row = refs + r * num_aps;
    double s = 0.0;
    for (size_t j = 0; j < num_aps; ++j) {
      if (std::isnan(query[j])) continue;
      const double d = query[j] - row[j];
      s += d * d;
    }
    dist[r] = {s, r};
  }
  std::sort(dist.begin(), dist.end());
  const size_t take = std::min(k, num_refs);
  double x = 0.0, y = 0.0, wsum = 0.0;
  for (size_t t = 0; t < take; ++t) {
    const double w = 1.0 / (std::sqrt(dist[t].first) + 1e-6);
    x = x + labels[dist[t].second].x * w;
    y = y + labels[dist[t].second].y * w;
    wsum += w;
  }
  const double inv = 1.0 / wsum;
  return geom::Point{x * inv, y * inv};
}

bool SameBits(const geom::Point& a, const geom::Point& b) {
  return std::memcmp(&a.x, &b.x, sizeof(double)) == 0 &&
         std::memcmp(&a.y, &b.y, sizeof(double)) == 0;
}

std::string CheckCompleteMap(const rmap::RadioMap& map) {
  for (size_t i = 0; i < map.size(); ++i) {
    const rmap::Record& r = map.record(i);
    if (r.rssi.size() != map.num_aps()) {
      return "record " + std::to_string(i) + " has the wrong width";
    }
    for (size_t j = 0; j < r.rssi.size(); ++j) {
      if (std::isnan(r.rssi[j])) {
        return "record " + std::to_string(i) + " AP " + std::to_string(j) +
               " is still kNull";
      }
    }
    if (!r.has_rp || !std::isfinite(r.rp.x) || !std::isfinite(r.rp.y)) {
      return "record " + std::to_string(i) + " has no RP";
    }
  }
  return "";
}

size_t CountRpsOutside(const rmap::RadioMap& map, double width,
                       double height) {
  size_t outside = 0;
  for (const rmap::Record& r : map.records()) {
    outside += r.has_rp && !(r.rp.x >= 0.0 && r.rp.x <= width &&
                             r.rp.y >= 0.0 && r.rp.y <= height);
  }
  return outside;
}

MarCellError MeasureMarCellError(const rmap::RadioMap& original,
                                 const rmap::RadioMap& imputed,
                                 const rmap::MaskMatrix& truth_mask,
                                 const la::Matrix& truth_mean_rssi) {
  MarCellError e;
  double imputed_sum = 0.0, fill_sum = 0.0;
  const size_t n = std::min(original.size(), imputed.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < original.num_aps(); ++j) {
      if (!rmi::IsNull(original.record(i).rssi[j])) continue;
      if (truth_mask.at(i, j) != rmap::MaskValue::kMar) continue;
      const double truth = truth_mean_rssi(i, j);
      imputed_sum += std::fabs(imputed.record(i).rssi[j] - truth);
      fill_sum += std::fabs(rmi::kMnarFillDbm - truth);
      ++e.cells;
    }
  }
  if (e.cells > 0) {
    e.imputed_mae = imputed_sum / static_cast<double>(e.cells);
    e.fill_mae = fill_sum / static_cast<double>(e.cells);
  }
  return e;
}

std::string CheckRebuiltRefs(const la::Matrix& fingerprints,
                             size_t expected_rows) {
  if (fingerprints.rows() != expected_rows) {
    return "snapshot has " + std::to_string(fingerprints.rows()) +
           " reference rows, expected " + std::to_string(expected_rows);
  }
  for (double v : fingerprints.data()) {
    if (std::isnan(v)) return "snapshot holds a kNull reference cell";
  }
  return "";
}

double FloorHitRate(size_t hits, size_t classified) {
  return classified == 0 ? 1.0
                         : static_cast<double>(hits) /
                               static_cast<double>(classified);
}

double MeanPositioningError(const std::vector<geom::Point>& estimates,
                            const std::vector<geom::Point>& truths) {
  const size_t n = std::min(estimates.size(), truths.size());
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += geom::Distance(estimates[i], truths[i]);
  return sum / static_cast<double>(n);
}

}  // namespace perfbench
