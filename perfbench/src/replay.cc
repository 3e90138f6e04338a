#include "replay.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"

namespace perfbench {

using namespace rmi;

QuantRankingWork ReplayQuantRanking(const la::QuantizedRefsSpan& quant,
                                    const la::Matrix& queries, SpanLog* log) {
  const size_t b = queries.rows();
  const size_t d = quant.cols;
  const size_t n = quant.padded;
  std::vector<int8_t> values(b * d), mask(b * d);
  std::vector<double> err(b);
  std::vector<int32_t> cross(b * n);
  bool any_partial = false;
  {
    Span span(log, "la.QuantizeQueryRow");
    for (size_t i = 0; i < b; ++i) {
      const double* row = queries.data().data() + i * d;
      for (size_t j = 0; j < d; ++j) any_partial |= std::isnan(row[j]);
      la::QuantizeQueryRow(quant, row, values.data() + i * d,
                           mask.data() + i * d, &err[i]);
    }
  }
  {
    Span span(log, "la.GemmQuantNN");
    la::GemmQuantNN(values.data(), quant.values, cross.data(), b, d, n);
  }
  if (any_partial) {
    std::vector<int32_t> masked(b * n);
    Span span(log, "la.MaskedQuantRowNorms");
    la::MaskedQuantRowNorms(mask.data(), quant.squares, masked.data(), b, d,
                            n);
  }
  QuantRankingWork work;
  work.gemm_ops = 2.0 * double(b) * double(d) * double(n);
  work.gemm_bytes = double(b * d) + double(d * n) + 4.0 * double(b * n);
  return work;
}

BiSimReplayResult ReplayBiSimImpute(const rmap::RadioMap& amended_map,
                                    const rmap::MaskMatrix& amended_mask,
                                    const bisim::BiSimConfig& config, Rng rng,
                                    SpanLog* log) {
  // Same seeding as BiSimImputer's training body.
  Rng model_rng(config.seed ^ rng.engine()());
  BiSimReplayResult out;
  std::unique_ptr<bisim::BiSimModel> model;
  {
    Span span(log, "bisim.BiSimModel");
    model = std::make_unique<bisim::BiSimModel>(amended_map.num_aps(), config,
                                                model_rng);
  }
  std::vector<bisim::Sequence> sequences;
  {
    Span span(log, "bisim.BuildSequences");
    sequences = bisim::BuildSequences(amended_map, amended_mask, config);
  }
  {
    Span span(log, "bisim.TrainBiSim");
    out.final_loss = bisim::TrainBiSim(*model, sequences, config, model_rng);
  }
  {
    Span span(log, "bisim.Forward");
    ThreadPool pool(std::max<size_t>(
        1, std::min(config.num_threads, sequences.size())));
    pool.ParallelFor(sequences.size(), [&](size_t, size_t s) {
      model->Forward(sequences[s], /*compute_loss=*/false);
    });
  }
  out.sequences = sequences.size();
  return out;
}

}  // namespace perfbench
