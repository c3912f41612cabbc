// perfbench_driver: runs one workload against an in-process net::Server over
// a Unix-domain socket and writes every raw observation as JSON for
// perfbench/run.py, which computes and prints the metrics.
//
//   perfbench_driver --workload longdoc_qa --seed 1 --seconds 25 --trace 0
//       --out DIR     (writes DIR/raw.json, and DIR/trace.json if traced)
//   perfbench_driver --workload tenant_chat --seed 1 --dump-plan 20
//
// Threads: this one (load generator), the server's net and scheduler
// threads, and a one-worker ThreadPool, so steps run on two compute threads
// and the process never holds more threads than a 4-vCPU host has.
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "perfbench/driver/loadgen.h"
#include "perfbench/driver/replay.h"
#include "perfbench/driver/workloads.h"
#include "src/common/threadpool.h"
#include "src/net/server.h"
#include "src/obs/clock.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/simd.h"

namespace perfbench {
namespace {

using pqcache::Status;
using pqcache::obs::MonotonicNowNs;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// Set-ups per run; the reported setup_s is their median.
constexpr int kSetups = 3;
// Trace ring per thread: large enough that no event of a timed phase is
// overwritten.
constexpr size_t kTraceRingEvents = size_t{1} << 17;
// Reference sample size per coverage class.
constexpr size_t kReferenceSamples = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
  int dump_plan = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--out") {
      args->out = value;
    } else if (key == "--dump-plan") {
      args->dump_plan = std::atoi(value);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() &&
         args->seconds > 2;
}

// The one deployment every workload runs against: paper-default engine
// options, 256-token PQ spans equal to the prefix block so prefixes are
// shareable, prefix sharing on, 4 decode slots, and no wall-clock-triggered
// policies (preemption, pressure suspends, deadlines), whose firing would
// vary between runs of the same code.
pqcache::ServeOptions ServeConfig(pqcache::ThreadPool* pool) {
  pqcache::ServeOptions serve;
  serve.engine = pqcache::PQCacheEngineOptions{};
  serve.engine.pq_span_tokens = 256;
  serve.max_sessions = 4;
  serve.pool = pool;
  serve.enable_prefix_sharing = true;
  serve.prefix.block_tokens = 256;
  serve.prefix.max_nodes = 128;
  return serve;
}

uint64_t PromptHash(const std::vector<int32_t>& prompt) {
  uint64_t h = 1469598103934665603ull;
  for (int32_t t : prompt) h = (h ^ static_cast<uint32_t>(t)) * 1099511628211ull;
  return h;
}

int DumpPlan(const Args& args) {
  auto workload = Workload::Create(args.workload, args.seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  Workload& w = *workload.value();
  auto print = [](const char* phase, const Request& r) {
    std::printf("%s %" PRIu64 " %s %s %u %d %.6f %" PRIu64 " %zu %016" PRIx64
                "\n",
                phase, r.index, r.tenant.c_str(), r.user.c_str(), r.weight,
                r.group, r.due_s, r.max_new_tokens, r.prompt.size(),
                PromptHash(r.prompt));
  };
  for (const Request& r : w.Warmup()) print("warmup", r);
  if (w.shape().open_loop) {
    std::vector<Request> schedule = w.Schedule(args.seconds);
    for (size_t i = 0; i < schedule.size() && i < size_t(args.dump_plan); ++i) {
      print("timed", schedule[i]);
    }
  } else {
    for (int i = 0; i < args.dump_plan; ++i) print("timed", w.Next());
  }
  return 0;
}

size_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

// Minimal JSON emitter for the raw record.
class Json {
 public:
  Json& Key(const std::string& k) {
    Sep();
    Quoted(k);
    out_ += ':';
    fresh_ = true;
    return *this;
  }
  Json& Str(const std::string& s) {
    Sep();
    Quoted(s);
    return *this;
  }
  Json& Num(double v) {
    Sep();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& Int(int64_t v) {
    Sep();
    out_ += std::to_string(v);
    return *this;
  }
  Json& Open(char c) {
    Sep();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  Json& Close(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }
  void Quoted(const std::string& s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    out_ += '"';
  }
  std::string out_;
  bool fresh_ = true;
};

// Counters a timed phase is judged by, captured before and after it.
struct Counters {
  pqcache::obs::MetricsSnapshot metrics;
  pqcache::net::NetStats net;
  pqcache::PrefixRegistry::Stats prefix;
};

Counters Capture(pqcache::net::Server& server) {
  Counters c;
  c.metrics = pqcache::obs::MetricsRegistry::Global().Snapshot();
  c.net = server.net_stats();
  c.prefix = server.manager().prefix_registry()->stats();
  return c;
}

struct Phase {
  bool traced = false;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::vector<Outcome> outcomes;
  Counters before;
  Counters after;
};

void WriteCounters(Json& j, const Phase& p) {
  using pqcache::obs::Counter;
  const Counters& a = p.after;
  const Counters& b = p.before;
  const auto put = [&](const char* name, uint64_t after, uint64_t before) {
    j.Key(name).Int(static_cast<int64_t>(after - before));
  };
  const auto counter = [&](const char* name, Counter c) {
    put(name, a.metrics.counter(c), b.metrics.counter(c));
  };
  j.Key("counters").Open('{');
  counter("serve_rounds", Counter::kServeRounds);
  counter("prefills", Counter::kPrefills);
  counter("decode_steps", Counter::kDecodeSteps);
  counter("tokens_generated", Counter::kTokensGenerated);
  counter("admission_charge_failures", Counter::kAdmissionChargeFailures);
  counter("dedup_deferrals", Counter::kPrefixDedupDeferrals);
  put("net_frames_sent", a.net.frames_sent, b.net.frames_sent);
  put("net_backpressure_suspends", a.net.backpressure_suspends,
      b.net.backpressure_suspends);
  put("prefix_lookups", a.prefix.lookups, b.prefix.lookups);
  put("prefix_hits", a.prefix.hits, b.prefix.hits);
  put("prefix_publishes", a.prefix.publishes, b.prefix.publishes);
  put("prefix_evictions", a.prefix.evictions, b.prefix.evictions);
  j.Close('}');
}

void WriteOutcomes(Json& j, const std::vector<Outcome>& outcomes) {
  j.Key("requests").Open('[');
  for (const Outcome& o : outcomes) {
    j.Open('{');
    j.Key("index").Int(static_cast<int64_t>(o.request.index));
    j.Key("due_ns").Int(static_cast<int64_t>(o.due_ns));
    j.Key("sent_ns").Int(static_cast<int64_t>(o.sent_ns));
    j.Key("session").Int(o.session_id);
    j.Key("error").Str(o.error);
    j.Key("token_ns").Open('[');
    for (uint64_t t : o.token_ns) j.Int(static_cast<int64_t>(t));
    j.Close(']');
    j.Close('}');
  }
  j.Close(']');
}

void WriteSessions(Json& j, const pqcache::ServerStats& stats) {
  j.Key("sessions").Open('[');
  for (const pqcache::SessionRecord& r : stats.sessions) {
    j.Open('{');
    j.Key("id").Int(r.id);
    j.Key("queue_wait_s").Num(r.queue_wait_seconds);
    j.Key("ttft_s").Num(r.ttft_seconds);
    j.Key("prefill_s").Num(r.prefill_seconds);
    j.Key("prompt_tokens").Int(static_cast<int64_t>(r.prompt_tokens));
    j.Key("prefix_shared_tokens")
        .Int(static_cast<int64_t>(r.prefix_shared_tokens));
    j.Key("cache_lookups").Int(static_cast<int64_t>(r.cache_token_lookups));
    j.Key("cache_hits").Int(static_cast<int64_t>(r.cache_token_hits));
    j.Close('}');
  }
  j.Close(']');
}

// Compares a seeded sample of successful requests, covering every coverage
// class, token for token against lone unshared engines. Mismatches are
// written into the outcome's error. Returns the number of requests checked.
pqcache::Result<size_t> CheckReferences(
    const pqcache::PQCacheEngineOptions& serve_engine, int groups,
    uint64_t seed, std::vector<Phase>* phases) {
  std::vector<std::vector<Outcome*>> candidates(groups);
  for (Phase& phase : *phases) {
    for (Outcome& o : phase.outcomes) {
      if (o.error.empty()) candidates[o.request.group].push_back(&o);
    }
  }
  pqcache::Rng rng(seed, /*stream=*/0xC4EC);
  std::vector<Outcome*> sample;
  const size_t per_group = std::max<size_t>(1, kReferenceSamples / groups);
  for (int g = 0; g < groups; ++g) {
    std::vector<Outcome*>& pool = candidates[g];
    if (pool.empty()) {
      return Status::FailedPrecondition(
          "no successful request in coverage class " + std::to_string(g));
    }
    for (size_t i = 0; i < per_group && !pool.empty(); ++i) {
      const size_t pick = rng.UniformInt(pool.size());
      sample.push_back(pool[pick]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  pqcache::PQCacheEngineOptions options = serve_engine;
  options.prefix = nullptr;
  options.pool = nullptr;
  options.shared_hierarchy = nullptr;
  std::vector<Status> statuses(sample.size(), Status::OK());
  // The server is gone by now, so the sample may use every vCPU.
  pqcache::ThreadPool pool(2);
  pqcache::ParallelFor(pool, 0, sample.size(), [&](size_t i) {
    Outcome& o = *sample[i];
    auto engine = pqcache::PQCacheEngine::Create(options);
    if (!engine.ok()) {
      statuses[i] = engine.status();
      return;
    }
    std::vector<int32_t> tokens;
    auto first = engine.value()->Prefill(o.request.prompt);
    if (!first.ok()) {
      statuses[i] = first.status();
      return;
    }
    tokens.push_back(first.value());
    while (tokens.size() < o.request.max_new_tokens) {
      auto next = engine.value()->DecodeNext();
      if (!next.ok()) {
        statuses[i] = next.status();
        return;
      }
      tokens.push_back(next.value());
    }
    if (tokens != o.tokens) {
      o.error = "token mismatch against the lone unshared engine";
    }
  });
  for (const Status& s : statuses) PQC_RETURN_IF_ERROR(s);
  return sample.size();
}

struct Live {
  std::unique_ptr<pqcache::net::Server> server;
  std::unique_ptr<LoadGenerator> gen;
};

// One set-up: server start, handshakes, warm-up requests. Warm-up failures
// fail the run.
pqcache::Result<Live> SetUp(const pqcache::ServeOptions& serve,
                            const std::string& uds_path, Workload& workload) {
  Live live;
  pqcache::net::ServerOptions options;
  options.listen_tcp = false;
  options.uds_path = uds_path;
  auto server = pqcache::net::Server::Start(serve, options);
  if (!server.ok()) return server.status();
  live.server = std::move(server).value();
  auto gen = LoadGenerator::Connect(uds_path, workload.shape().connections);
  if (!gen.ok()) return gen.status();
  live.gen = std::move(gen).value();
  std::vector<Outcome> warm;
  PQC_RETURN_IF_ERROR(live.gen->RunBatch(workload.Warmup(), &warm));
  for (const Outcome& o : warm) {
    if (!o.error.empty()) return Status::Internal("warm-up: " + o.error);
  }
  return live;
}

// Closes the generator's connections, then drains and stops the server.
Status TearDown(Live& live) {
  live.gen.reset();
  return live.server->Shutdown();
}

Status RunTimed(Live& live, Workload& workload, double seconds, Phase* phase) {
  phase->before = Capture(*live.server);
  phase->start_ns = MonotonicNowNs();
  phase->end_ns = phase->start_ns + static_cast<uint64_t>(seconds * 1e9);
  if (workload.shape().open_loop) {
    PQC_RETURN_IF_ERROR(live.gen->RunOpen(workload.Schedule(seconds),
                                          phase->start_ns, &phase->outcomes));
  } else {
    PQC_RETURN_IF_ERROR(
        live.gen->RunClosed(workload, phase->end_ns, &phase->outcomes));
  }
  phase->after = Capture(*live.server);
  return Status::OK();
}

Status Run(const Args& args) {
  auto created = Workload::Create(args.workload, args.seed);
  PQC_RETURN_IF_ERROR(created.status());
  Workload& workload = *created.value();
  const std::string uds_path =
      args.out + "/perfbench-" + std::to_string(getpid()) + ".sock";
  pqcache::ThreadPool pool(1);
  const pqcache::ServeOptions serve = ServeConfig(&pool);

  std::vector<double> setup_s;
  Live live;
  for (int i = 0; i < kSetups; ++i) {
    const uint64_t start = MonotonicNowNs();
    auto set_up = SetUp(serve, uds_path, workload);
    PQC_RETURN_IF_ERROR(set_up.status());
    live = std::move(set_up).value();
    setup_s.push_back((MonotonicNowNs() - start) * 1e-9);
    if (i + 1 < kSetups) {
      PQC_RETURN_IF_ERROR(TearDown(live));
      live.server.reset();  // Free its registry before the next set-up.
    }
  }

  std::vector<Phase> phases(args.trace ? 2 : 1);
  for (size_t p = 0; p < phases.size(); ++p) {
    phases[p].traced = p == 1;
    if (phases[p].traced) {
      pqcache::obs::Tracer::Global().ResetForTesting(kTraceRingEvents);
      pqcache::obs::Tracer::Global().Start();
    }
    Status timed = RunTimed(live, workload, args.seconds, &phases[p]);
    if (phases[p].traced) pqcache::obs::Tracer::Global().Stop();
    PQC_RETURN_IF_ERROR(timed);
  }
  const size_t peak_rss_kb = PeakRssKb();
  const uint64_t trace_dropped =
      pqcache::obs::Tracer::Global().DroppedEvents();
  PQC_RETURN_IF_ERROR(TearDown(live));
  const pqcache::ServerStats stats = live.server->serve_stats();
  live.server.reset();
  if (args.trace) {
    PQC_RETURN_IF_ERROR(pqcache::obs::Tracer::Global().ExportChromeTrace(
        args.out + "/trace.json"));
  }

  auto checked = CheckReferences(serve.engine, workload.shape().groups,
                                 args.seed, &phases);
  PQC_RETURN_IF_ERROR(checked.status());

  Json j;
  j.Open('{');
  j.Key("workload").Str(args.workload);
  j.Key("seed").Int(static_cast<int64_t>(args.seed));
  j.Key("seconds").Num(args.seconds);
  j.Key("ramp_s").Num(workload.shape().ramp_s);
  j.Key("simd").Str(pqcache::simd::LevelName(pqcache::simd::ActiveLevel()));
  j.Key("build_type").Str(PERFBENCH_BUILD_TYPE);
  j.Key("setup_s").Open('[');
  for (double s : setup_s) j.Num(s);
  j.Close(']');
  j.Key("peak_rss_kb").Int(static_cast<int64_t>(peak_rss_kb));
  j.Key("peak_gpu_bytes").Int(static_cast<int64_t>(stats.peak_gpu_bytes));
  j.Key("trace_dropped_events").Int(static_cast<int64_t>(trace_dropped));
  j.Key("references_checked").Int(static_cast<int64_t>(checked.value()));
  j.Key("phases").Open('[');
  for (const Phase& p : phases) {
    j.Open('{');
    j.Key("traced").Int(p.traced ? 1 : 0);
    j.Key("start_ns").Int(static_cast<int64_t>(p.start_ns));
    j.Key("end_ns").Int(static_cast<int64_t>(p.end_ns));
    WriteCounters(j, p);
    WriteOutcomes(j, p.outcomes);
    j.Close('}');
  }
  j.Close(']');
  WriteSessions(j, stats);

  if (args.trace) {
    auto replay = RunReplay(serve.engine, workload.ReplayPrompt());
    PQC_RETURN_IF_ERROR(replay.status());
    const ReplayResult& r = replay.value();
    j.Key("replay").Open('{');
    const std::pair<const char*, double> fields[] = {
        {"context", static_cast<double>(r.context)},
        {"k", static_cast<double>(r.k)},
        {"selected_tokens_per_step", r.selected_tokens_per_step},
        {"topk_bytes_per_step", r.topk_bytes_per_step},
        {"code_bytes_per_step", r.code_bytes_per_step},
        {"cache_evictions_per_step", r.cache_evictions_per_step},
        {"reserved_over_used", r.reserved_over_used},
        {"llm_prefill_forward_ms", r.llm_prefill_forward_ms},
        {"llm_dense_decode_step_ms", r.llm_dense_decode_step_ms},
        {"pq_train_ms_per_span", r.pq_train_ms_per_span},
        {"pq_encode_us_per_span", r.pq_encode_us_per_span},
        {"pq_lut_build_us", r.pq_lut_build_us},
        {"pq_adc_us", r.pq_adc_us},
        {"tensor_topk_us", r.tensor_topk_us},
    };
    for (const auto& [name, value] : fields) j.Key(name).Num(value);
    j.Close('}');
  }
  j.Close('}');

  std::ofstream out(args.out + "/raw.json");
  out << j.str() << "\n";
  out.close();
  if (!out) return Status::Internal("cannot write " + args.out + "/raw.json");
  return Status::OK();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out DIR | --dump-plan N\n");
    return 2;
  }
  if (args.dump_plan > 0) return perfbench::DumpPlan(args);
  const pqcache::Status status = perfbench::Run(args);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench_driver: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
