#include "perfbench/driver/replay.h"

#include <algorithm>
#include <functional>

#include "src/kvcache/layered_kv_cache.h"
#include "src/llm/transformer.h"
#include "src/obs/clock.h"
#include "src/pq/codebook.h"
#include "src/pq/pq_index.h"
#include "src/tensor/ops.h"

namespace perfbench {
namespace {

using pqcache::obs::MonotonicNowNs;

// Decode steps the replay engine runs for its per-step engine counters.
constexpr int kDecodeSteps = 32;
// Samples per sub-layer median; cheap calls are timed in batches so each
// sample is well above the clock's resolution.
constexpr int kSamples = 21;
constexpr int kMicroBatch = 50;

// Median seconds per call of `fn` over `samples` samples of `batch` calls.
double MedianSeconds(int samples, int batch, const std::function<void()>& fn) {
  std::vector<double> seconds;
  for (int s = 0; s < samples; ++s) {
    const uint64_t start = MonotonicNowNs();
    for (int b = 0; b < batch; ++b) fn();
    seconds.push_back((MonotonicNowNs() - start) * 1e-9 / batch);
  }
  std::nth_element(seconds.begin(), seconds.begin() + seconds.size() / 2,
                   seconds.end());
  return seconds[seconds.size() / 2];
}

}  // namespace

pqcache::Result<ReplayResult> RunReplay(
    const pqcache::PQCacheEngineOptions& options,
    const std::vector<int32_t>& prompt) {
  ReplayResult r;
  r.context = prompt.size();
  r.k = static_cast<size_t>(options.token_ratio * prompt.size());

  // Engine: prefill, then decode to read per-step engine counters.
  auto created = pqcache::PQCacheEngine::Create(options);
  if (!created.ok()) return created.status();
  std::unique_ptr<pqcache::PQCacheEngine> engine = std::move(created).value();
  auto first = engine->Prefill(prompt);
  if (!first.ok()) return first.status();
  const pqcache::EngineStats before = engine->stats();
  for (int i = 0; i < kDecodeSteps; ++i) {
    auto token = engine->DecodeNext();
    if (!token.ok()) return token.status();
  }
  const pqcache::EngineStats& after = engine->stats();
  r.selected_tokens_per_step =
      static_cast<double>(after.middle_tokens_selected -
                          before.middle_tokens_selected) / kDecodeSteps;
  r.topk_bytes_per_step =
      (after.bytes_topk_fetched - before.bytes_topk_fetched) / kDecodeSteps;
  r.code_bytes_per_step =
      (after.bytes_code_traffic - before.bytes_code_traffic) / kDecodeSteps;
  r.cache_evictions_per_step =
      static_cast<double>(after.cache.block_evictions -
                          before.cache.block_evictions) / kDecodeSteps;
  r.reserved_over_used =
      static_cast<double>(pqcache::PQCacheEngine::EstimateGpuFootprintBytes(
          options, prompt.size(), kDecodeSteps + 1)) /
      static_cast<double>(engine->GpuFootprintBytes());

  // Keys of one (layer, kv-head) store's middle region.
  const pqcache::KVStore& store = engine->cache().store(0, 0);
  const size_t d = store.head_dim();
  const size_t n = store.middle_count();
  const size_t span = std::min(n, options.pq_span_tokens);
  std::vector<float> keys(n * d);
  for (size_t i = 0; i < n; ++i) {
    store.GetKey(store.middle_begin() + i, {keys.data() + i * d, d});
  }
  std::vector<float> query(d);
  store.GetKey(store.size() - 1, query);

  pqcache::PQConfig config;
  config.num_partitions = options.pq_partitions;
  config.bits = options.pq_bits;
  config.dim = d;
  pqcache::KMeansOptions kmeans;
  kmeans.max_iterations = options.kmeans_iterations;
  const std::span<const float> span_keys(keys.data(), span * d);
  auto book = pqcache::PQCodebook::Train(span_keys, span, config, kmeans);
  if (!book.ok()) return book.status();
  const pqcache::PQCodebook codebook = std::move(book).value();
  r.pq_train_ms_per_span = 1e3 * MedianSeconds(5, 1, [&] {
    auto trained = pqcache::PQCodebook::Train(span_keys, span, config, kmeans);
    (void)trained;
  });
  std::vector<uint16_t> codes(span * config.num_partitions);
  r.pq_encode_us_per_span = 1e6 * MedianSeconds(kSamples, 4, [&] {
    codebook.EncodeBatch(span_keys, span, codes);
  });
  std::vector<float> table(config.num_partitions * config.num_centroids());
  r.pq_lut_build_us = 1e6 * MedianSeconds(kSamples, kMicroBatch, [&] {
    codebook.BuildInnerProductTable(query, table);
  });
  pqcache::PQIndex index(codebook);
  index.AddVectors(keys, n);
  std::vector<float> scores(n);
  r.pq_adc_us = 1e6 * MedianSeconds(kSamples, 4, [&] {
    index.ApproxInnerProducts(query, scores);
  });
  std::vector<int32_t> top;
  r.tensor_topk_us = 1e6 * MedianSeconds(kSamples, 4, [&] {
    pqcache::TopKIndicesInto(scores, r.k, top);
  });
  engine.reset();

  // Transformer alone: dense prefill forward and full-attention decode.
  auto model = pqcache::TransformerModel::Create(options.model);
  if (!model.ok()) return model.status();
  pqcache::KVCacheConfig kv_config;
  kv_config.num_layers = options.model.num_layers;
  kv_config.num_kv_heads = options.model.num_kv_heads;
  kv_config.store.head_dim = static_cast<size_t>(options.model.head_dim);
  kv_config.store.initial_tokens = options.initial_tokens;
  kv_config.store.local_window = options.local_window;
  std::unique_ptr<pqcache::LayeredKVCache> cache;
  pqcache::Status status = pqcache::Status::OK();
  const int prefill_reps = prompt.size() > 2048 ? 1 : 3;
  r.llm_prefill_forward_ms = 1e3 * MedianSeconds(prefill_reps, 1, [&] {
    cache = std::make_unique<pqcache::LayeredKVCache>(kv_config);
    auto logits = model.value()->Prefill(prompt, cache.get());
    if (!logits.ok()) status = logits.status();
  });
  PQC_RETURN_IF_ERROR(status);
  size_t position = prompt.size();
  r.llm_dense_decode_step_ms = 1e3 * MedianSeconds(kSamples, 1, [&] {
    auto logits =
        model.value()->DecodeStep(prompt.back(), position++, cache.get());
    if (!logits.ok()) status = logits.status();
  });
  PQC_RETURN_IF_ERROR(status);
  return r;
}

}  // namespace perfbench
