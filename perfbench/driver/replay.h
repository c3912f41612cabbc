// Replay phase: times direct calls to the public functions of sub-layers that
// have no span of their own, at one workload's shape (n = context length,
// k = token_ratio * n), on keys taken from an engine prefilled with one of
// the workload's prompts. Runs after the timed phase and the reference
// check, on the calling thread only.
#ifndef PERFBENCH_DRIVER_REPLAY_H_
#define PERFBENCH_DRIVER_REPLAY_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/core/pqcache_engine.h"

namespace perfbench {

struct ReplayResult {
  size_t context = 0;  ///< n: prompt tokens prefilled.
  size_t k = 0;        ///< Tokens the selective backend attends per head.
  // Engine decode at this shape, per DecodeNext (bytes are computed from
  // tensor sizes by the engine's accounting, not measured).
  double selected_tokens_per_step = 0;
  double topk_bytes_per_step = 0;
  double code_bytes_per_step = 0;
  double cache_evictions_per_step = 0;
  /// EstimateGpuFootprintBytes (the admission charge) over the engine's
  /// GpuFootprintBytes after decoding.
  double reserved_over_used = 0;
  // Sub-layer calls, median over repetitions.
  double llm_prefill_forward_ms = 0;  ///< TransformerModel::Prefill.
  double llm_dense_decode_step_ms = 0;  ///< DecodeStep, full attention.
  double pq_train_ms_per_span = 0;    ///< PQCodebook::Train, one span.
  double pq_encode_us_per_span = 0;   ///< PQCodebook::EncodeBatch, one span.
  double pq_lut_build_us = 0;         ///< BuildInnerProductTable.
  double pq_adc_us = 0;               ///< PQIndex::ApproxInnerProducts (n).
  double tensor_topk_us = 0;          ///< TopKIndicesInto (n, k).
};

pqcache::Result<ReplayResult> RunReplay(
    const pqcache::PQCacheEngineOptions& options,
    const std::vector<int32_t>& prompt);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_REPLAY_H_
