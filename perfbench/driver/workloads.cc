#include "perfbench/driver/workloads.h"

#include <algorithm>
#include <utility>

#include "src/llm/model_config.h"
#include "src/workload/generator.h"

namespace perfbench {
namespace {

using pqcache::Rng;

// Vocabulary of the engine's default model (PQCacheEngineOptions{}.model).
const int kVocab = pqcache::ModelConfig::Tiny().vocab_size;

// longdoc_qa: four documents, one per 512-token length stratum of 3k-5k.
// Lengths are multiples of the 256-token prefix block, so a document's whole
// body is shareable and a hit re-prefills only the question.
constexpr size_t kDocTokens[] = {3072, 3584, 4096, 4608};
constexpr size_t kQuestionTokens = 64;
// Answers of 24-56 tokens: with one fixed length the closed-loop clients
// finish in the same round, resubmit together and run in lock step, a
// regime any small perturbation breaks.
constexpr uint64_t kAnswerMinTokens = 24;
constexpr uint64_t kAnswerSpanTokens = 33;

// rag_prefill: unshared 768-1279-token prompts, four 128-token length
// strata.
constexpr size_t kRagMinTokens = 768;
constexpr size_t kRagStratumTokens = 128;
// Answers of 8-24 tokens (16 on average) keep the clients out of step, as
// for longdoc_qa.
constexpr uint64_t kRagMinOutputTokens = 8;
constexpr uint64_t kRagSpanOutputTokens = 17;

// tenant_chat: interactive turns behind a shared system prompt, and
// unshared batch requests with short prompts and long answers. Each block of
// four arrivals holds three interactive requests and one batch request.
// Batch prompts are kept short so that no round is stretched by a long
// prefill: with 768-1024-token batch prompts, 15-30% of interactive requests
// waited out a ~100 ms batch prefill and the interactive p90 sat on the
// edge of that mode, moving 25-50% between runs.
constexpr size_t kSystemPromptTokens = 512;
constexpr size_t kTurnMinTokens = 32;
constexpr size_t kTurnSpanTokens = 129;  // 32-160 tokens.
constexpr uint64_t kInteractiveOutputTokens = 24;
constexpr uint32_t kInteractiveWeight = 4;
const std::string kInteractiveUsers[] = {"u0", "u1", "u2", "u3",
                                         "u4", "u5", "u6", "u7"};
constexpr size_t kBatchMinTokens = 256;
constexpr size_t kBatchSpanTokens = 257;  // 256-512 tokens.
constexpr uint64_t kBatchOutputTokens = 192;
// Calibrated once at about half of this mix's closed-loop capacity (see
// perfbench/README.md) and kept constant, so a faster server shows up as
// lower latency, not as more offered work.
constexpr double kChatRatePerS = 11.0;

constexpr size_t kClosedLoopClients = 4;
constexpr double kClosedLoopRampSeconds = 2.0;

// Salts keep the seeded streams of different prompt parts independent.
constexpr uint64_t kWarmupStream = 0xA11CE;
constexpr uint64_t kDocSalt = 0xD0C0000;
constexpr uint64_t kSystemSalt = 0x5157E3;
constexpr uint64_t kRequestSalt = 0x7E0000000ull;

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t state = a ^ (b * 0x9E3779B97F4A7C15ull);
  return pqcache::SplitMix64(state);
}

// Short free-form segments (questions, chat turns): a seeded token stream.
std::vector<int32_t> SeededTokens(size_t tokens, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> out(tokens);
  for (int32_t& t : out) t = static_cast<int32_t>(rng.UniformInt(kVocab));
  return out;
}

std::vector<int32_t> Concat(const std::vector<int32_t>& a,
                            const std::vector<int32_t>& b) {
  std::vector<int32_t> out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

pqcache::Result<std::unique_ptr<Workload>> Workload::Create(
    const std::string& name, uint64_t seed) {
  WorkloadShape shape;
  shape.name = name;
  if (name == "longdoc_qa") {
    shape.connections = kClosedLoopClients;
    shape.ramp_s = kClosedLoopRampSeconds;
    shape.groups = 4;
    shape.replay_context = kDocTokens[2] + kQuestionTokens;
  } else if (name == "rag_prefill") {
    shape.connections = kClosedLoopClients;
    shape.ramp_s = kClosedLoopRampSeconds;
    shape.groups = 4;
    shape.replay_context = kRagMinTokens + 2 * kRagStratumTokens;
  } else if (name == "tenant_chat") {
    shape.open_loop = true;
    shape.connections = 2;
    shape.rate_per_s = kChatRatePerS;
    shape.groups = 2;
    shape.replay_context = kBatchMinTokens + kBatchSpanTokens / 2;
  } else {
    return pqcache::Status::InvalidArgument("unknown workload: " + name);
  }
  std::unique_ptr<Workload> workload(new Workload(std::move(shape), seed));
  return workload;
}

Workload::Workload(WorkloadShape shape, uint64_t seed)
    : shape_(std::move(shape)),
      seed_(seed),
      rng_(seed, /*stream=*/1),
      tasks_(pqcache::MakeLongBenchLikeSuite(seed).tasks) {
  if (shape_.name == "longdoc_qa") {
    for (size_t d = 0; d < std::size(kDocTokens); ++d) {
      shared_.push_back(LongBenchTokens(kDocTokens[d], kDocSalt + d));
    }
    block_order_ = {0, 1, 2, 3};
  } else if (shape_.name == "rag_prefill") {
    block_order_ = {0, 1, 2, 3};
  } else {
    shared_.push_back(LongBenchTokens(kSystemPromptTokens, kSystemSalt));
    block_order_ = {0, 0, 0, 1};
  }
}

std::vector<int32_t> Workload::LongBenchTokens(size_t tokens,
                                               uint64_t salt) const {
  pqcache::TaskSpec spec = tasks_[salt % tasks_.size()];
  spec.seq_len = tokens;
  spec.seed = Mix(seed_, salt);
  const pqcache::InstanceLayout layout =
      pqcache::WorkloadGenerator(spec).MakeLayout(0);
  std::vector<int32_t> out(tokens);
  size_t doc = 0;
  for (size_t pos = 0; pos < tokens; ++pos) {
    while (doc + 1 < layout.doc_starts.size() &&
           layout.doc_starts[doc + 1] <= pos) {
      ++doc;
    }
    uint64_t role = doc * 131 + 17;
    for (const pqcache::InstanceLayout::Span& span : layout.spans) {
      if (pos >= span.begin && pos < span.begin + span.len) {
        role = 0x5EED + (pos - span.begin) * 7;
      }
    }
    if (pos >= layout.question_begin &&
        pos < layout.question_begin + layout.question_len) {
      role = 0xA5C + (pos - layout.question_begin) * 3;
    }
    out[pos] = static_cast<int32_t>(Mix(role ^ spec.seed, pos) % kVocab);
  }
  return out;
}

Request Workload::Make(uint64_t index) {
  const size_t slot = index % block_order_.size();
  if (slot == 0) {
    // Fisher-Yates over the block pattern: every block covers each class.
    for (size_t i = block_order_.size() - 1; i > 0; --i) {
      std::swap(block_order_[i], block_order_[rng_.UniformInt(i + 1)]);
    }
  }
  Request request;
  request.index = index;
  request.group = block_order_[slot];
  const uint64_t salt = kRequestSalt + index;
  if (shape_.name == "longdoc_qa") {
    request.tenant = "qa";
    request.prompt = Concat(shared_[request.group],
                            SeededTokens(kQuestionTokens, Mix(seed_, salt)));
    request.max_new_tokens = kAnswerMinTokens + rng_.UniformInt(kAnswerSpanTokens);
  } else if (shape_.name == "rag_prefill") {
    request.tenant = "rag";
    const size_t tokens = kRagMinTokens +
                          kRagStratumTokens * request.group +
                          rng_.UniformInt(kRagStratumTokens);
    request.prompt = LongBenchTokens(tokens, salt);
    request.max_new_tokens =
        kRagMinOutputTokens + rng_.UniformInt(kRagSpanOutputTokens);
  } else if (request.group == 0) {
    request.tenant = "interactive";
    request.weight = kInteractiveWeight;
    request.user =
        kInteractiveUsers[rng_.UniformInt(std::size(kInteractiveUsers))];
    const size_t turn = kTurnMinTokens + rng_.UniformInt(kTurnSpanTokens);
    request.prompt =
        Concat(shared_[0], SeededTokens(turn, Mix(seed_, salt)));
    request.max_new_tokens = kInteractiveOutputTokens;
  } else {
    request.tenant = "batch";
    const size_t tokens = kBatchMinTokens + rng_.UniformInt(kBatchSpanTokens);
    request.prompt = LongBenchTokens(tokens, salt);
    request.max_new_tokens = kBatchOutputTokens;
  }
  return request;
}

Request Workload::Next() { return Make(next_index_++); }

std::vector<int32_t> Workload::ReplayPrompt() const {
  if (shape_.name == "longdoc_qa") {
    return Concat(shared_[2], SeededTokens(kQuestionTokens, seed_));
  }
  return LongBenchTokens(shape_.replay_context, kWarmupStream);
}

std::vector<Request> Workload::Schedule(double seconds) {
  std::vector<double> due;
  for (size_t slot = 0; slot < seconds; ++slot) {
    const double end = std::min<double>(slot + 1, seconds);
    const auto arrivals = [&](double t) {
      return static_cast<size_t>(shape_.rate_per_s * t + 0.5);
    };
    for (size_t i = arrivals(slot); i < arrivals(end); ++i) {
      due.push_back(slot + rng_.Uniform() * (end - slot));
    }
  }
  std::sort(due.begin(), due.end());
  std::vector<Request> out;
  out.reserve(due.size());
  for (double t : due) {
    out.push_back(Next());
    out.back().due_s = t;
  }
  return out;
}

std::vector<Request> Workload::Warmup() const {
  // A copy draws from its own stream, so warm-up never shifts the timed
  // sequence.
  Workload copy = *this;
  copy.rng_ = Rng(seed_, kWarmupStream);
  copy.next_index_ = uint64_t{1} << 40;
  std::vector<Request> out;
  if (shape_.name == "longdoc_qa") {
    // One request per document publishes its blocks to the registry.
    for (size_t d = 0; d < shared_.size(); ++d) {
      Request request = copy.Next();
      request.group = static_cast<int>(d);
      request.prompt = Concat(shared_[d],
                              SeededTokens(kQuestionTokens, Mix(seed_, d)));
      out.push_back(std::move(request));
    }
  } else {
    for (size_t i = 0; i < block_order_.size(); ++i) {
      out.push_back(copy.Next());
    }
  }
  return out;
}

}  // namespace perfbench
