// Traced-run replays of composite engine calls. LocalizeBatch and
// BiSimImputer::Impute hide their inner layers from the benchmark, so a
// traced run feeds the same inputs through each layer's own public entry
// point, in the order the composite makes the calls, with a span around
// each stage.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstddef>

#include "bisim/bisim.h"
#include "common/rng.h"
#include "harness.h"
#include "la/matrix.h"
#include "la/quant.h"
#include "radiomap/radio_map.h"

namespace perfbench {

namespace bisim = rmi::bisim;
namespace la = rmi::la;
namespace rmap = rmi::rmap;

/// Work of one replayed int8 ranking pass, computed from the shapes.
struct QuantRankingWork {
  double gemm_ops = 0.0;    ///< 2 * b * D * padded (multiply + add)
  double gemm_bytes = 0.0;  ///< int8 A + int8 B + int32 C
};

/// The ranking stages of KnnQuantEstimateBatch on `queries`:
/// QuantizeQueryRow per row, GemmQuantNN, and MaskedQuantRowNorms when any
/// row is partial. Spans: la.QuantizeQueryRow, la.GemmQuantNN,
/// la.MaskedQuantRowNorms.
QuantRankingWork ReplayQuantRanking(const la::QuantizedRefsSpan& quant,
                                    const la::Matrix& queries, SpanLog* log);

/// What the BiSIM replay measured.
struct BiSimReplayResult {
  double final_loss = 0.0;
  size_t sequences = 0;
};

/// BiSimImputer::Impute's stages on the amended map/mask it was given:
/// BiSimModel construction, BuildSequences, TrainBiSim, and a Forward pass
/// per sequence over a pool of config.num_threads. `rng` must be a copy of
/// the generator the composite call received, taken just before the call,
/// so the replay trains the identical model. Spans: bisim.BiSimModel,
/// bisim.BuildSequences, bisim.TrainBiSim, bisim.Forward.
BiSimReplayResult ReplayBiSimImpute(const rmap::RadioMap& amended_map,
                                    const rmap::MaskMatrix& amended_mask,
                                    const bisim::BiSimConfig& config,
                                    rmi::Rng rng, SpanLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
