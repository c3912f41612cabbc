"""Metric definitions of the serving benchmark.

Pure functions over the raw record perfbench_driver writes (raw.json) and
the Chrome trace of a traced run. Every timing is taken at the client unless
the name says otherwise; see perfbench/README.md for the definitions.
"""

import bisect
import math

# Every reported percentile needs at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

# Step spans that occupy a compute thread inside a scheduler round.
STEP_SPANS = ("session.prefill", "session.decode", "session.restore")
# Threads that run steps: the scheduler thread plus the one pool worker.
COMPUTE_THREADS = 2


class InsufficientSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p < 100).

    Refuses (raises InsufficientSamples) unless at least MIN_SAMPLES_BEYOND
    samples lie strictly above the returned rank.
    """
    n = len(values)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_SAMPLES_BEYOND:
        raise InsufficientSamples(
            f"p{p:g} of {n} samples has {n - rank} beyond it, "
            f"needs {MIN_SAMPLES_BEYOND}")
    return sorted(values)[rank - 1]


def request_tpot_ms(token_ns):
    """Mean inter-token gap of one request: (last - first) / (n - 1).

    Averaging within a request keeps one prefill stall from splitting the
    distribution into a decode mode and a stall mode. None below 2 tokens.
    """
    if len(token_ns) < 2:
        return None
    return (token_ns[-1] - token_ns[0]) / (len(token_ns) - 1) / 1e6


def steady_tokens(requests, start_ns, end_ns):
    """Token frames that arrived inside [start_ns, end_ns), any request."""
    return sum(
        1 for r in requests for t in r["token_ns"] if start_ns <= t < end_ns)


def window(raw, phase):
    """The steady window of a phase: its head (the ramp) is excluded."""
    start = phase["start_ns"] + int(raw["ramp_s"] * 1e9)
    return start, phase["end_ns"]


def window_requests(raw, phase):
    """Successful requests that were due inside the steady window."""
    start, end = window(raw, phase)
    return [r for r in phase["requests"]
            if not r["error"] and start <= r["due_ns"] < end]


def output_tok_per_s(raw, phase):
    start, end = window(raw, phase)
    return steady_tokens(phase["requests"], start, end) / ((end - start) / 1e9)


def end_to_end(raw, phase):
    """The end-to-end metrics of one untraced phase, as (value, unit).

    TTFT p90 and its interactive-tenant variant are not among them: on
    rag_prefill the TTFT p90 sits on the edge of the mode of requests that
    wait out another client's prefill round and moved 15% between seeds
    (see README.md).
    """
    reqs = window_requests(raw, phase)
    ttft = [(r["token_ns"][0] - r["due_ns"]) / 1e6 for r in reqs]
    tpot = [t for t in (request_tpot_ms(r["token_ns"]) for r in reqs)
            if t is not None]
    setups = sorted(raw["setup_s"])
    return {
        "ttft_p50_ms": (percentile(ttft, 50), "ms"),
        "tpot_p50_ms": (percentile(tpot, 50), "ms"),
        "tpot_p90_ms": (percentile(tpot, 90), "ms"),
        "output_tok_per_s": (output_tok_per_s(raw, phase), "tok/s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "setup_s": (setups[len(setups) // 2], "s"),
    }


# --- Per-layer metrics ------------------------------------------------------


def _maybe_percentile(values, p, notes, name):
    """Per-layer percentile; 0 with a note when the workload has too few."""
    try:
        return percentile(values, p)
    except InsufficientSamples as e:
        notes.append(f"{name}: not applicable here ({e})")
        return 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def spans_by_name(trace):
    out = {}
    for ev in trace.get("traceEvents", []):
        if ev.get("ph") == "X":
            out.setdefault(ev["name"], []).append(ev)
    return out


def round_idle_share(rounds, steps, compute_threads=COMPUTE_THREADS):
    """Share of compute-thread time inside rounds that no step span covers.

    Each step is attributed to the round whose interval contains its start;
    a round offers compute_threads * its duration of thread time.
    """
    rounds = sorted(rounds, key=lambda e: e["ts"])
    starts = [r["ts"] for r in rounds]
    covered = [0.0] * len(rounds)
    for s in steps:
        i = bisect.bisect_right(starts, s["ts"]) - 1
        if i < 0:
            continue
        r = rounds[i]
        end = min(s["ts"] + s["dur"], r["ts"] + r["dur"])
        covered[i] += max(0.0, end - s["ts"])
    capacity = compute_threads * sum(r["dur"] for r in rounds)
    return _ratio(capacity - sum(covered), capacity)


def per_layer(raw, traced, untraced, trace):
    """Per-layer metrics of a traced run, as {name: (value, unit)}, notes."""
    notes = []
    c = traced["counters"]
    reqs = [r for r in traced["requests"] if not r["error"]]
    by_id = {s["id"]: s for s in raw["sessions"]}
    sessions = [by_id[r["session"]] for r in reqs if r["session"] in by_id]
    spans = spans_by_name(trace)
    replay = raw["replay"]

    overhead = [
        (r["token_ns"][0] - r["sent_ns"]) / 1e6 - by_id[r["session"]]["ttft_s"] * 1e3
        for r in reqs if r["session"] in by_id and r["token_ns"]]
    queue_wait = [s["queue_wait_s"] * 1e3 for s in sessions]
    hit_prefill = [s["prefill_s"] * 1e3 for s in sessions
                   if s["prefix_shared_tokens"] > 0]
    rounds = spans.get("serve.round", [])
    steps = [e for name in STEP_SPANS for e in spans.get(name, [])]
    prefill = spans.get("engine.prefill", [])
    decode = spans.get("engine.decode_step", [])
    build = spans.get("pq.build", [])
    lag = [(r["sent_ns"] - r["due_ns"]) / 1e6 for r in traced["requests"]]
    traced_tps = output_tok_per_s(raw, traced)

    m = {
        "net.overhead_ms_p50":
            (_maybe_percentile(overhead, 50, notes, "net.overhead_ms_p50"), "ms"),
        "net.frames_per_token":
            (_ratio(c["net_frames_sent"], c["tokens_generated"]), "frames/token"),
        "net.backpressure_suspends": (c["net_backpressure_suspends"], "count"),
        "serve.queue_wait_ms_p50": (_maybe_percentile(
            queue_wait, 50, notes, "serve.queue_wait_ms_p50"), "ms"),
        "serve.queue_wait_ms_p90": (_maybe_percentile(
            queue_wait, 90, notes, "serve.queue_wait_ms_p90"), "ms"),
        "serve.steps_per_round": (_ratio(
            c["prefills"] + c["decode_steps"], c["serve_rounds"]), "steps"),
        "serve.round_ms_p50": (_maybe_percentile(
            [e["dur"] / 1e3 for e in rounds], 50, notes,
            "serve.round_ms_p50"), "ms"),
        "serve.round_idle_share": (round_idle_share(rounds, steps), "ratio"),
        "serve.dedup_deferrals": (c["dedup_deferrals"], "count"),
        "serve.admission_charge_failures":
            (c["admission_charge_failures"], "count"),
        "prefix.hit_rate":
            (_ratio(c["prefix_hits"], c["prefix_lookups"]), "ratio"),
        "prefix.reused_token_share": (_ratio(
            sum(s["prefix_shared_tokens"] for s in sessions),
            sum(s["prompt_tokens"] for s in sessions)), "ratio"),
        "prefix.hit_prefill_ms_p50": (_maybe_percentile(
            hit_prefill, 50, notes, "prefix.hit_prefill_ms_p50"), "ms"),
        "prefix.evictions_per_publish": (_ratio(
            c["prefix_evictions"], c["prefix_publishes"]), "ratio"),
        "engine.prefill_ms_p50": (_maybe_percentile(
            [e["dur"] / 1e3 for e in prefill], 50, notes,
            "engine.prefill_ms_p50"), "ms"),
        "engine.pq_build_share": (_ratio(
            sum(e["dur"] for e in build), sum(e["dur"] for e in prefill)),
            "ratio"),
        "engine.decode_step_ms_p50": (_maybe_percentile(
            [e["dur"] / 1e3 for e in decode], 50, notes,
            "engine.decode_step_ms_p50"), "ms"),
        "engine.selected_tokens_per_step":
            (replay["selected_tokens_per_step"], "tokens"),
        "engine.topk_bytes_per_step": (replay["topk_bytes_per_step"], "B"),
        "engine.code_bytes_per_step": (replay["code_bytes_per_step"], "B"),
        "llm.prefill_forward_ms": (replay["llm_prefill_forward_ms"], "ms"),
        "llm.dense_decode_step_ms": (replay["llm_dense_decode_step_ms"], "ms"),
        "pq.train_ms_per_span": (replay["pq_train_ms_per_span"], "ms"),
        "pq.encode_us_per_span": (replay["pq_encode_us_per_span"], "us"),
        "pq.lut_build_us": (replay["pq_lut_build_us"], "us"),
        "pq.adc_us": (replay["pq_adc_us"], "us"),
        "tensor.topk_us": (replay["tensor_topk_us"], "us"),
        "cache.hit_rate": (_ratio(sum(s["cache_hits"] for s in sessions),
                                  sum(s["cache_lookups"] for s in sessions)),
                           "ratio"),
        "cache.evictions_per_step":
            (replay["cache_evictions_per_step"], "blocks"),
        "memory.peak_gpu_mb": (raw["peak_gpu_bytes"] / 2**20, "MB"),
        "memory.reserved_over_used": (replay["reserved_over_used"], "ratio"),
        "bench.send_lag_ms_p90": (_maybe_percentile(
            lag, 90, notes, "bench.send_lag_ms_p90"), "ms"),
        "obs.trace_overhead_ratio": (_ratio(
            output_tok_per_s(raw, untraced), traced_tps), "ratio"),
    }
    return m, notes
