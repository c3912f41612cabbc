// Single-threaded load generator: one thread polls every connection, speaks
// the wire protocol through the public src/net/protocol.h codec, and stamps
// each frame with the monotonic clock the moment the read that carried it
// returns. Streams are checked gap-free (contiguous token indexes) and must
// end in a Done frame whose count matches; anything else fails the request.
#ifndef PERFBENCH_DRIVER_LOADGEN_H_
#define PERFBENCH_DRIVER_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/driver/workloads.h"
#include "src/common/status.h"

namespace perfbench {

/// What the client observed for one request. Times are
/// pqcache::obs::MonotonicNowNs() values (the tracer's clock).
struct Outcome {
  Request request;
  uint64_t due_ns = 0;   ///< Open loop: scheduled send; closed: == sent_ns.
  uint64_t sent_ns = 0;
  uint64_t done_ns = 0;  ///< Arrival of the Done or Error frame.
  int64_t session_id = -1;  ///< From the SubmitAck.
  std::vector<int32_t> tokens;
  std::vector<uint64_t> token_ns;
  /// Empty on success; otherwise why the request failed (Error frame,
  /// refusal, gap, count mismatch, token mismatch against the reference).
  std::string error;
};

class LoadGenerator {
 public:
  /// Connects `connections` sockets to the server's Unix-domain socket and
  /// completes the Hello handshake on each.
  static pqcache::Result<std::unique_ptr<LoadGenerator>> Connect(
      const std::string& uds_path, size_t connections);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Sends every request at once (round-robin over connections) and waits
  /// for all of them.
  pqcache::Status RunBatch(std::vector<Request> requests,
                           std::vector<Outcome>* out);

  /// Closed loop: one client per connection, each sending its next request
  /// as soon as the previous one ends, until `end_ns`; then waits for the
  /// requests still in flight.
  pqcache::Status RunClosed(Workload& workload, uint64_t end_ns,
                            std::vector<Outcome>* out);

  /// Open loop: sends each request of `schedule` when it is due (due_s after
  /// `start_ns`) on its tenant's connection, regardless of completions; then
  /// waits for every request.
  pqcache::Status RunOpen(std::vector<Request> schedule, uint64_t start_ns,
                          std::vector<Outcome>* out);

 private:
  struct Conn {
    int fd = -1;
    uint8_t version = 0;
    std::string in;
    size_t in_off = 0;
    std::string pending_out;
    uint32_t next_stream = 1;
    /// Live stream id -> index into the current outcome vector.
    std::unordered_map<uint32_t, size_t> streams;
  };

  LoadGenerator() = default;
  pqcache::Status Send(size_t conn, size_t outcome, std::vector<Outcome>* out);
  /// Waits up to `timeout_ms` for input, flushes pending writes, and applies
  /// every complete frame. `finished` receives (connection, outcome) of
  /// requests that became terminal.
  pqcache::Status Poll(int timeout_ms, std::vector<Outcome>* out,
                       std::vector<std::pair<size_t, size_t>>* finished);
  pqcache::Status HandleFrames(size_t conn, uint64_t now_ns,
                               std::vector<Outcome>* out,
                               std::vector<std::pair<size_t, size_t>>* finished);
  /// Polls until nothing is in flight (fails after a generous timeout).
  pqcache::Status WaitAll(std::vector<Outcome>* out);

  std::vector<Conn> conns_;
  size_t in_flight_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_LOADGEN_H_
