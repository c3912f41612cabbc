#include "perfbench/driver/loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/net/protocol.h"
#include "src/obs/clock.h"
#include "src/obs/trace.h"

namespace perfbench {
namespace {

namespace net = pqcache::net;
using pqcache::Status;
using pqcache::obs::MonotonicNowNs;

// After the last request is sent, in-flight streams must finish within this.
constexpr uint64_t kDrainTimeoutNs = 120'000'000'000ull;
// Benchmark-side spans go on per-request virtual tracks above the range the
// serving layer uses for its per-session tracks.
constexpr uint32_t kRequestTrackBase = 2'000'000;

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

Status SendAllBlocking(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadExactly(int fd, char* buf, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = read(fd, buf + off, size - off);
    if (n == 0) return Status::Unavailable("server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("read");
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

// Blocking Hello / HelloAck exchange; returns the negotiated version.
pqcache::Result<uint8_t> Handshake(int fd) {
  std::string hello;
  net::AppendHello(&hello, net::HelloFrame{net::kMinProtocolVersion,
                                           net::kProtocolVersion});
  PQC_RETURN_IF_ERROR(SendAllBlocking(fd, hello));
  char header_bytes[net::kFrameHeaderBytes];
  PQC_RETURN_IF_ERROR(ReadExactly(fd, header_bytes, sizeof(header_bytes)));
  auto header = net::ParseFrameHeader(
      reinterpret_cast<const uint8_t*>(header_bytes), sizeof(header_bytes));
  if (!header.ok()) return header.status();
  std::string payload(header.value().length, '\0');
  PQC_RETURN_IF_ERROR(ReadExactly(fd, payload.data(), payload.size()));
  if (header.value().type != net::FrameType::kHelloAck) {
    return Status::FailedPrecondition("handshake: expected HelloAck");
  }
  return net::DecodeHelloAck(reinterpret_cast<const uint8_t*>(payload.data()),
                             payload.size());
}

Outcome MakeOutcome(Request request) {
  Outcome o;
  o.request = std::move(request);
  return o;
}

void EmitRequestSpans(const Outcome& o) {
  if (!pqcache::obs::Tracer::Enabled() || o.done_ns < o.sent_ns) return;
  const uint32_t track =
      kRequestTrackBase + static_cast<uint32_t>(o.request.index % 1'000'000);
  pqcache::obs::Tracer::CompleteOnTrack("bench", "bench.request", o.sent_ns,
                                        o.done_ns - o.sent_ns, track,
                                        "session", o.session_id);
  if (!o.token_ns.empty()) {
    pqcache::obs::Tracer::CompleteOnTrack(
        "bench", "bench.ttft", o.sent_ns, o.token_ns.front() - o.sent_ns,
        track, "session", o.session_id);
  }
}

}  // namespace

pqcache::Result<std::unique_ptr<LoadGenerator>> LoadGenerator::Connect(
    const std::string& uds_path, size_t connections) {
  std::unique_ptr<LoadGenerator> gen(new LoadGenerator());
  sockaddr_un addr{};
  if (uds_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + uds_path);
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, uds_path.c_str(), sizeof(addr.sun_path) - 1);
  for (size_t i = 0; i < connections; ++i) {
    Conn conn;
    conn.fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn.fd < 0) return Errno("socket");
    gen->conns_.push_back(std::move(conn));
    const int fd = gen->conns_.back().fd;
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return Errno("connect");
    }
    auto version = Handshake(fd);
    if (!version.ok()) return version.status();
    gen->conns_.back().version = version.value();
    if (fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
      return Errno("fcntl");
    }
  }
  return gen;
}

LoadGenerator::~LoadGenerator() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) close(conn.fd);
  }
}

Status LoadGenerator::Send(size_t c, size_t index, std::vector<Outcome>* out) {
  Conn& conn = conns_[c];
  Outcome& o = (*out)[index];
  net::SubmitFrame frame;
  frame.tag = "perfbench";
  frame.tenant = o.request.tenant;
  frame.user = o.request.user;
  frame.weight = o.request.weight;
  frame.max_new_tokens = o.request.max_new_tokens;
  frame.prompt = o.request.prompt;
  const uint32_t stream = conn.next_stream++;
  std::string bytes;
  net::AppendSubmit(&bytes, stream, frame, conn.version);
  conn.streams[stream] = index;
  ++in_flight_;
  o.sent_ns = MonotonicNowNs();
  if (o.due_ns == 0) o.due_ns = o.sent_ns;
  if (!conn.pending_out.empty()) {
    conn.pending_out += bytes;
    return Status::OK();
  }
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        send(conn.fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return Errno("send");
    }
    off += static_cast<size_t>(n);
  }
  conn.pending_out.assign(bytes, off, std::string::npos);
  return Status::OK();
}

Status LoadGenerator::HandleFrames(
    size_t c, uint64_t now_ns, std::vector<Outcome>* out,
    std::vector<std::pair<size_t, size_t>>* finished) {
  Conn& conn = conns_[c];
  for (;;) {
    const size_t avail = conn.in.size() - conn.in_off;
    if (avail < net::kFrameHeaderBytes) break;
    const auto* base =
        reinterpret_cast<const uint8_t*>(conn.in.data() + conn.in_off);
    auto parsed = net::ParseFrameHeader(base, net::kFrameHeaderBytes);
    if (!parsed.ok()) return parsed.status();
    const net::FrameHeader header = parsed.value();
    if (avail < net::kFrameHeaderBytes + header.length) break;
    const uint8_t* payload = base + net::kFrameHeaderBytes;
    conn.in_off += net::kFrameHeaderBytes + header.length;
    if (header.type == net::FrameType::kGoodbye) {
      return Status::Unavailable("server said goodbye mid-run");
    }
    auto it = conn.streams.find(header.stream);
    if (it == conn.streams.end()) {
      return Status::DataLoss("frame for unknown stream " +
                              std::to_string(header.stream));
    }
    Outcome& o = (*out)[it->second];
    bool terminal = false;
    switch (header.type) {
      case net::FrameType::kSubmitAck: {
        auto ack = net::DecodeSubmitAck(payload, header.length);
        if (!ack.ok()) return ack.status();
        o.session_id = ack.value().session_id;
        break;
      }
      case net::FrameType::kToken: {
        auto token = net::DecodeToken(payload, header.length);
        if (!token.ok()) return token.status();
        if (token.value().index != o.tokens.size() && o.error.empty()) {
          o.error = "token index gap at " + std::to_string(o.tokens.size());
        }
        o.tokens.push_back(token.value().token);
        o.token_ns.push_back(now_ns);
        break;
      }
      case net::FrameType::kDone: {
        auto done = net::DecodeDone(payload, header.length);
        if (!done.ok()) return done.status();
        if (o.error.empty() &&
            (done.value().generated_tokens != o.tokens.size() ||
             o.tokens.size() != o.request.max_new_tokens)) {
          o.error = "Done count " +
                    std::to_string(done.value().generated_tokens) +
                    " != received " + std::to_string(o.tokens.size());
        }
        terminal = true;
        break;
      }
      case net::FrameType::kError: {
        auto error = net::DecodeError(payload, header.length);
        if (!error.ok()) return error.status();
        o.error = "Error frame: " + error.value().message;
        terminal = true;
        break;
      }
      default:
        return Status::DataLoss("unexpected frame type " +
                                std::to_string(static_cast<int>(header.type)));
    }
    if (terminal) {
      o.done_ns = now_ns;
      EmitRequestSpans(o);
      finished->emplace_back(c, it->second);
      conn.streams.erase(it);
      --in_flight_;
    }
  }
  if (conn.in_off == conn.in.size()) {
    conn.in.clear();
    conn.in_off = 0;
  } else if (conn.in_off > (1u << 16)) {
    conn.in.erase(0, conn.in_off);
    conn.in_off = 0;
  }
  return Status::OK();
}

Status LoadGenerator::Poll(int timeout_ms, std::vector<Outcome>* out,
                           std::vector<std::pair<size_t, size_t>>* finished) {
  std::vector<pollfd> fds(conns_.size());
  for (size_t c = 0; c < conns_.size(); ++c) {
    fds[c].fd = conns_[c].fd;
    fds[c].events =
        static_cast<short>(POLLIN | (conns_[c].pending_out.empty() ? 0
                                                                   : POLLOUT));
  }
  const int ready = poll(fds.data(), fds.size(), timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return Status::OK();
    return Errno("poll");
  }
  char buf[1 << 16];
  for (size_t c = 0; c < conns_.size(); ++c) {
    Conn& conn = conns_[c];
    if ((fds[c].revents & POLLOUT) != 0 && !conn.pending_out.empty()) {
      const ssize_t n = send(conn.fd, conn.pending_out.data(),
                             conn.pending_out.size(), MSG_NOSIGNAL);
      if (n > 0) conn.pending_out.erase(0, static_cast<size_t>(n));
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        return Errno("send");
      }
    }
    if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    for (;;) {
      const ssize_t n = read(conn.fd, buf, sizeof(buf));
      if (n > 0) {
        const uint64_t now_ns = MonotonicNowNs();
        conn.in.append(buf, static_cast<size_t>(n));
        PQC_RETURN_IF_ERROR(HandleFrames(c, now_ns, out, finished));
        continue;
      }
      if (n == 0) return Status::Unavailable("server closed a connection");
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return Errno("read");
    }
  }
  return Status::OK();
}

Status LoadGenerator::WaitAll(std::vector<Outcome>* out) {
  const uint64_t deadline = MonotonicNowNs() + kDrainTimeoutNs;
  std::vector<std::pair<size_t, size_t>> finished;
  while (in_flight_ > 0) {
    if (MonotonicNowNs() > deadline) {
      return Status::DeadlineExceeded("requests still in flight after drain");
    }
    finished.clear();
    PQC_RETURN_IF_ERROR(Poll(100, out, &finished));
  }
  return Status::OK();
}

Status LoadGenerator::RunBatch(std::vector<Request> requests,
                               std::vector<Outcome>* out) {
  out->clear();
  for (Request& r : requests) out->push_back(MakeOutcome(std::move(r)));
  for (size_t i = 0; i < out->size(); ++i) {
    PQC_RETURN_IF_ERROR(Send(i % conns_.size(), i, out));
  }
  return WaitAll(out);
}

Status LoadGenerator::RunClosed(Workload& workload, uint64_t end_ns,
                                std::vector<Outcome>* out) {
  out->clear();
  for (size_t c = 0; c < conns_.size(); ++c) {
    out->push_back(MakeOutcome(workload.Next()));
    PQC_RETURN_IF_ERROR(Send(c, out->size() - 1, out));
  }
  std::vector<std::pair<size_t, size_t>> finished;
  for (uint64_t now = MonotonicNowNs(); now < end_ns; now = MonotonicNowNs()) {
    finished.clear();
    PQC_RETURN_IF_ERROR(Poll(
        static_cast<int>(std::min<uint64_t>((end_ns - now) / 1'000'000, 100)),
        out, &finished));
    for (const auto& [c, index] : finished) {
      if (MonotonicNowNs() >= end_ns) break;
      out->push_back(MakeOutcome(workload.Next()));
      PQC_RETURN_IF_ERROR(Send(c, out->size() - 1, out));
    }
  }
  return WaitAll(out);
}

Status LoadGenerator::RunOpen(std::vector<Request> schedule, uint64_t start_ns,
                              std::vector<Outcome>* out) {
  out->clear();
  std::unordered_map<std::string, size_t> conn_of_tenant;
  for (Request& r : schedule) {
    Outcome o = MakeOutcome(std::move(r));
    o.due_ns = start_ns + static_cast<uint64_t>(o.request.due_s * 1e9);
    out->push_back(std::move(o));
  }
  std::vector<std::pair<size_t, size_t>> finished;
  for (size_t next = 0; next < out->size();) {
    const uint64_t now = MonotonicNowNs();
    const uint64_t due = (*out)[next].due_ns;
    if (now >= due) {
      const std::string& tenant = (*out)[next].request.tenant;
      auto [it, inserted] =
          conn_of_tenant.emplace(tenant, conn_of_tenant.size());
      PQC_RETURN_IF_ERROR(Send(it->second % conns_.size(), next, out));
      ++next;
      continue;
    }
    finished.clear();
    // Wake at the due time; the poll's millisecond granularity is covered by
    // a short spin on the final millisecond.
    const uint64_t wait_ns = due - now;
    const int timeout_ms =
        wait_ns > 1'000'000 ? static_cast<int>((wait_ns - 1'000'000) /
                                               1'000'000)
                            : 0;
    PQC_RETURN_IF_ERROR(Poll(timeout_ms, out, &finished));
  }
  return WaitAll(out);
}

}  // namespace perfbench
