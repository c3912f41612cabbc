// Seeded request sequences for the serving benchmark's workloads. A workload
// is a pure function of (name, seed): the same seed yields the same warm-up
// requests, the same request sequence and the same arrival schedule, and the
// server only ever sees the generated prompts.
#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/workload/spec.h"

namespace perfbench {

/// One generation request as the load generator sends it.
struct Request {
  uint64_t index = 0;  ///< Position in the workload's request sequence.
  std::string tenant;
  std::string user;
  uint32_t weight = 1;
  /// Coverage class for the reference sample: the document (longdoc_qa),
  /// the length stratum (rag_prefill) or 0 = interactive / 1 = batch
  /// (tenant_chat).
  int group = 0;
  /// Open loop: seconds after the phase start when the request is due.
  /// Closed loop: 0 (a request is due when it is sent).
  double due_s = 0;
  uint64_t max_new_tokens = 0;
  std::vector<int32_t> prompt;
};

/// Static shape of a workload.
struct WorkloadShape {
  std::string name;
  bool open_loop = false;
  /// Connections the generator opens: one per client in closed loop, one
  /// per tenant in open loop.
  size_t connections = 0;
  /// Open loop only: mean arrivals per second.
  double rate_per_s = 0;
  /// Head of each timed phase excluded from every metric. Closed-loop
  /// clients start together, so their first requests prefill in one round;
  /// an open-loop schedule has no such start.
  double ramp_s = 0;
  /// Coverage classes the reference sample must include.
  int groups = 0;
  /// Context length the replay phase uses for sub-layer timings.
  size_t replay_context = 0;
};

/// Stateful, deterministic request source for one (workload, seed).
class Workload {
 public:
  static pqcache::Result<std::unique_ptr<Workload>> Create(
      const std::string& name, uint64_t seed);

  const WorkloadShape& shape() const { return shape_; }

  /// Requests that warm the server before timing (prefix registry,
  /// allocator, caches). Independent of the timed sequence.
  std::vector<Request> Warmup() const;

  /// Closed loop: the next request of the sequence.
  Request Next();

  /// Open loop: the arrivals of one phase of `seconds`, sorted by due time.
  /// Each one-second slot receives rate arrivals at uniform random times in
  /// the slot, i.e. a Poisson process conditioned on its count per second:
  /// the offered load, and how bursty it may get, do not vary with the seed.
  std::vector<Request> Schedule(double seconds);

  /// A prompt of replay_context tokens shaped like this workload's
  /// requests, for the replay phase.
  std::vector<int32_t> ReplayPrompt() const;

 private:
  Workload(WorkloadShape shape, uint64_t seed);
  Request Make(uint64_t index);
  /// A prompt segment drawn from the LongBench-like generator: the layout
  /// of one of the suite's tasks stretched to `tokens`, mapped to vocabulary
  /// ids per position role (document run, evidence span, question).
  std::vector<int32_t> LongBenchTokens(size_t tokens, uint64_t salt) const;

  WorkloadShape shape_;
  uint64_t seed_;
  pqcache::Rng rng_;
  uint64_t next_index_ = 0;
  /// Shared context: the documents (longdoc_qa) or the system prompt
  /// (tenant_chat).
  std::vector<std::vector<int32_t>> shared_;
  /// Balanced blocks: each block of `groups` consecutive requests visits
  /// every coverage class once, in a seeded order.
  std::vector<int> block_order_;
  std::vector<pqcache::TaskSpec> tasks_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
