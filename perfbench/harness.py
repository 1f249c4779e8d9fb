"""The benchmark's arithmetic: percentiles, TEPS, span self time, the
device-model overshoot, spreads, and the assembly of end-to-end and
per-layer metrics from the driver's raw report.

Everything here is pure and unit-tested (perfbench/tests/test_harness.py).
"""

import math
import statistics


def percentile(samples, target):
    """The `target` percentile (0 < target < 1) by the benchmark's rule.

    The rule uses the highest percentile, at most `target`, with at least
    ten samples beyond it, and never less than the median. Returns
    (value, percentile_used, sample_count). The value is the nearest-rank
    sample: the smallest sample with at least that share of samples at or
    below it.
    """
    n = len(samples)
    if n == 0:
        return 0.0, target, 0
    q = max(0.5, min(target, 1.0 - 10.0 / n))
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * n - 1e-9))
    return ordered[rank - 1], q, n


def median(samples):
    return statistics.median(samples) if samples else 0.0


def teps_hmean(edges, seconds):
    """Graph500 harmonic-mean TEPS: total edges over total seconds."""
    total = sum(seconds)
    return sum(edges) / total if total > 0 else 0.0


def teps_median(edges, seconds):
    return median([e / s for e, s in zip(edges, seconds) if s > 0])


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its children cover. `spans` holds (id, parent, op, name, start,
    end) tuples; returns {id: self_ns}."""
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[4], s[5]))
    result = {}
    for s in spans:
        start, end = s[4], s[5]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(s[0], [])):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[s[0]] = (end - start) - covered
    return result


def span_summary(spans):
    """Per span name: count, total and self nanoseconds."""
    own = self_times(spans)
    summary = {}
    for s in spans:
        row = summary.setdefault(s[3], {"count": 0, "total_ns": 0, "self_ns": 0})
        row["count"] += 1
        row["total_ns"] += s[5] - s[4]
        row["self_ns"] += own[s[0]]
    return summary


def service_overshoot(busy_s, requests, nbytes, read_latency_us, bandwidth_bps,
                      time_scale):
    """Measured device busy time over the time the device model asks for:
    busy / ((requests * latency + bytes / bandwidth) * time_scale).
    0 when the window saw no modeled service time."""
    modeled = requests * read_latency_us * 1e-6
    if bandwidth_bps > 0:
        modeled += nbytes / bandwidth_bps
    modeled *= time_scale
    return busy_s / modeled if modeled > 0 else 0.0


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (statistics.quantiles with n=4)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def _ratio(a, b):
    return a / b if b else 0.0


def rider_frac(lanes, batched_queries):
    """Share of batched answers that rode another query's lane: the
    planner gives each distinct root of a batch one lane, and every further
    query with that root shares it."""
    return 1.0 - lanes / batched_queries if batched_queries else 0.0


def _ops(report):
    """Timed operations of a traversal workload as (edges, seconds, traced)."""
    s = report["series"]
    return list(zip(s.get("op_edges", []), s.get("op_seconds", []),
                    [int(f) for f in s.get("op_traced", [])]))


def best_per_root(report):
    """Each root's fastest timed traversal in the run, as (edges, seconds).

    Noise from other tenants of a shared machine only ever adds time, so a
    root's fastest traversal over the run's passes is the steadiest estimate
    of what the program takes for it."""
    s = report["series"]
    best = {}
    for root, edges, seconds in zip(s.get("op_root", []), s.get("op_edges", []),
                                    s.get("op_seconds", [])):
        if root not in best or seconds < best[root][1]:
            best[root] = (edges, seconds)
    return list(best.values())


def window_metrics(report):
    """serve_rw's timing metrics of each timed window, as a list of
    {name: value}: goodput over the window's real length, TEPS over its
    full-traversal answers, and its median latency."""
    s = report["series"]
    answers = [int(w) for w in s.get("answer_window", [])]
    full = [int(w) for w in s.get("full_window", [])]
    rows = []
    for w, length in enumerate(s.get("window.length_s", [])):
        done = sum(d for d, i in zip(s.get("answer_done", []), answers) if i == w)
        latency = [x for x, i in zip(s.get("latency_ms", []), answers) if i == w]
        edges = [x for x, i in zip(s.get("full_edges", []), full) if i == w]
        secs = [x for x, i in zip(s.get("full_latency_s", []), full) if i == w]
        rows.append({"goodput_qps": _ratio(done, length),
                     "teps_hmean": teps_hmean(edges, secs) / 1e6,
                     "teps_median": teps_median(edges, secs) / 1e6,
                     "latency_ms_p50": percentile(latency, 0.5)[0]})
    return rows


def end_to_end(report):
    """{name: (value, unit, samples)} for every end-to-end metric.

    Traversal workloads take each root at its fastest traversal in the run
    (best_per_root); the sample count is the number of roots. serve_rw
    takes the median over its timed windows (window_metrics); the sample
    count is the answers (full-traversal answers for TEPS) of all windows."""
    v, s = report["values"], report["series"]
    out = {
        "setup_s": (median(report["setup_s"]), "s", len(report["setup_s"])),
        "rss_mib": (v["rss_mib"] - v.get("checker_mib", 0.0), "MiB", 1),
    }
    if report["workload"] == "serve_rw":
        rows = window_metrics(report)
        counts = {"goodput_qps": int(sum(s.get("answer_done", []))),
                  "teps_hmean": len(s.get("full_edges", [])),
                  "teps_median": len(s.get("full_edges", [])),
                  "latency_ms_p50": len(s.get("latency_ms", []))}
        units = {"goodput_qps": "1/s", "teps_hmean": "MTEPS", "teps_median": "MTEPS",
                 "latency_ms_p50": "ms"}
        for name, unit in units.items():
            out[name] = (median([r[name] for r in rows]), unit, counts[name])
        return out
    best = best_per_root(report)
    edges = [e for e, _ in best]
    secs = [t for _, t in best]
    n = len(best)
    out["goodput_qps"] = (_ratio(n, sum(secs)), "1/s", n)
    out["teps_hmean"] = (teps_hmean(edges, secs) / 1e6, "MTEPS", n)
    out["teps_median"] = (teps_median(edges, secs) / 1e6, "MTEPS", n)
    out["latency_ms_p50"] = (percentile([1e3 * t for t in secs], 0.5)[0], "ms", n)
    return out


def latencies_ms(report):
    """Every operation's latency: a traversal's run time, or a query's time
    from submit to its observed terminal state."""
    if report["workload"] == "serve_rw":
        return report["series"].get("latency_ms", [])
    return [1e3 * t for _, t, _ in _ops(report)]


def trace_overhead(report):
    """Untraced over traced rate, minus one, inside one traced run: TEPS of
    untraced vs traced passes, or goodput of untraced vs traced windows."""
    s, v = report["series"], report["values"]
    if report["workload"] == "serve_rw":
        window, traced_s = v["window_s"], v["window.traced_s"]
        done = s.get("answer_done", [])
        flags = [int(f) for f in s.get("answer_traced", [])]
        traced = sum(d for d, f in zip(done, flags) if f == 1)
        untraced = sum(d for d, f in zip(done, flags) if f == 0)
        rate_traced = _ratio(traced, traced_s)
        rate_untraced = _ratio(untraced, window - traced_s)
    else:
        ops = _ops(report)
        rate_traced = teps_hmean([e for e, _, f in ops if f], [t for _, t, f in ops if f])
        rate_untraced = teps_hmean([e for e, _, f in ops if not f],
                                   [t for _, t, f in ops if not f])
    return _ratio(rate_untraced, rate_traced) - 1.0 if rate_traced else 0.0


# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "latency_ms_p99": "ms",
    "fail_frac": "frac",
    "write_ms_p95": "ms",
    "remote_kib_per_bfs": "KiB",
    "graph500.generate_s": "s",
    "graph500.construct_s": "s",
    "graph500.bfs_s": "s",
    "bfs.td_s": "s",
    "bfs.bu_s": "s",
    "bfs.unattributed_s": "s",
    "bfs.unattributed_frac": "frac",
    "bfs.td_levels": "count",
    "bfs.bu_levels": "count",
    "bfs.switches": "count",
    "bfs.td_edges": "count",
    "bfs.bu_edges": "count",
    "bfs.bu_edges_per_claim": "ratio",
    "bfs.words_skipped_frac": "frac",
    "bfs.degraded_levels": "count",
    "nvm.requests": "count",
    "nvm.bytes_per_edge": "B/edge",
    "nvm.avgrq_sectors": "sectors",
    "nvm.busy_s": "s",
    "nvm.queue_wait_s": "s",
    "nvm.avgqu_sz": "requests",
    "nvm.cache_hit_ratio": "frac",
    "nvm.sched_retries": "count",
    "nvm.retries": "count",
    "nvm.service_overshoot": "ratio",
    "parallel.regions_per_bfs": "count",
    "parallel.step_us_p99": "us",
    "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_p99": "ms",
    "serve.exec_ms_p50": "ms",
    "serve.exec_ms_p99": "ms",
    "serve.lanes_per_batch": "count",
    "serve.batches": "count",
    "serve.session_queries": "count",
    "serve.msbfs_words_skipped_frac": "frac",
    "serve.rider_frac": "frac",
    "serve.observe_lag_ms_p99": "ms",
    "serve.window_overrun_s": "s",
    "serve.failed": "count",
    "serve.rejected": "count",
    "serve.deadline_expired": "count",
    "graph.apply_ms_p50": "ms",
    "graph.write_late_ms_p95": "ms",
    "graph.writes_in_window": "count",
    "graph.delta_ops": "count",
    "graph.delta_bytes": "B",
    "shard.remote_bytes": "B",
    "shard.remote_messages": "count",
    "shard.nvm_requests": "count",
    "shard.exchange_s": "s",
    "shard.compute_s": "s",
    "shard.io_failures": "count",
    "obs.trace_overhead": "frac",
    "harness.reader_blocked_ms": "ms",
    "harness.check_pending_peak": "count",
}


def per_layer(report):
    """{name: (value, unit, samples)} for every per-layer metric of a traced
    run. Sums are per operation (traversal or answer) over the traced
    passes or windows; a layer the workload does not reach reads 0."""
    v, s = report["values"], report["series"]
    counters = report.get("obs_counters", {})
    hists = report.get("obs_histograms", {})
    serve = report["workload"] == "serve_rw"
    if serve:
        ops = len(s.get("latency_ms", []))
        traced_ops = int(sum(s.get("answer_traced", [])))
    else:
        ops = traced_ops = int(v.get("traversals", 0))
    per = lambda key: _ratio(v.get(key, 0.0), ops)
    out = {}

    def put(name, value, samples=ops):
        out[name] = (value, PER_LAYER_UNITS[name], samples)

    value, _, n = percentile(latencies_ms(report), 0.99)
    put("latency_ms_p99", value, n)
    put("fail_frac", _ratio(report["failed"], report["attempted"]), report["attempted"])
    value, _, n = percentile(s.get("write_ms", []), 0.95)
    put("write_ms_p95", value, n)
    remote = s.get("op_remote_bytes", [])
    put("remote_kib_per_bfs", _ratio(sum(remote), len(remote)) / 1024, len(remote))
    put("graph500.generate_s", median(s.get("graph500.generate_s", [])),
        len(s.get("graph500.generate_s", [])))
    put("graph500.construct_s", median(s.get("graph500.construct_s", [])),
        len(s.get("graph500.construct_s", [])))

    bfs_s = per("graph500.bfs_s")
    td_s, bu_s = per("bfs.td_s"), per("bfs.bu_s")
    put("graph500.bfs_s", bfs_s)
    put("bfs.td_s", td_s)
    put("bfs.bu_s", bu_s)
    put("bfs.unattributed_s", bfs_s - td_s - bu_s if bfs_s else 0.0)
    put("bfs.unattributed_frac", _ratio(bfs_s - td_s - bu_s, bfs_s))
    for name in ("bfs.td_levels", "bfs.bu_levels", "bfs.switches",
                 "bfs.td_edges", "bfs.bu_edges"):
        put(name, per(name))
    put("bfs.bu_edges_per_claim", _ratio(v.get("bfs.bu_edges", 0), v.get("bfs.bu_claims", 0)))
    swept = counters.get("bfs.bottom_up.words_swept", 0)
    skipped = counters.get("bfs.bottom_up.words_skipped", 0)
    put("bfs.words_skipped_frac", _ratio(skipped, swept + skipped))
    put("bfs.degraded_levels", v.get("bfs.degraded_levels", 0.0))

    requests = v.get("nvm.requests", 0.0)
    put("nvm.requests", per("nvm.requests"))
    put("nvm.bytes_per_edge", _ratio(v.get("nvm.bytes", 0.0), v.get("teps_edges", 0.0)))
    put("nvm.avgrq_sectors", _ratio(v.get("nvm.sectors", 0.0), requests))
    put("nvm.busy_s", per("nvm.busy_s"))
    put("nvm.queue_wait_s", _ratio(v.get("nvm.wait_s", 0.0) - v.get("nvm.busy_s", 0.0), ops))
    put("nvm.avgqu_sz", _ratio(v.get("nvm.queue_integral", 0.0), v.get("nvm.elapsed_s", 0.0)))
    hits, misses = counters.get("chunk_cache.hits", 0), counters.get("chunk_cache.misses", 0)
    put("nvm.cache_hit_ratio", _ratio(hits, hits + misses))
    put("nvm.sched_retries", counters.get("io_sched.retries", 0))
    put("nvm.retries", v.get("nvm.retries", 0.0))
    put("nvm.service_overshoot", service_overshoot(
        v.get("nvm.busy_s", 0.0), requests, v.get("nvm.bytes", 0.0),
        v.get("nvm.read_latency_us", 0.0), v.get("nvm.read_bandwidth_bps", 0.0),
        v.get("nvm.time_scale", 1.0)), int(requests))

    put("parallel.regions_per_bfs", _ratio(counters.get("pool.regions", 0), traced_ops),
        traced_ops)
    merged = hists.get("pool.step_us.merged", {})
    put("parallel.step_us_p99", merged.get("p99", 0.0), int(merged.get("count", 0)))

    for key in ("queue_wait_ms", "exec_ms"):
        samples = s.get("serve." + key, [])
        value, _, n = percentile(samples, 0.5)
        put("serve.%s_p50" % key, value, n)
        value, _, n = percentile(samples, 0.99)
        put("serve.%s_p99" % key, value, n)
    lanes = hists.get("serve.batch_lanes", {})
    put("serve.lanes_per_batch", lanes.get("mean", 0.0), int(lanes.get("count", 0)))
    batched = counters.get("serve.batched_queries", 0)
    put("serve.rider_frac", rider_frac(lanes.get("sum", 0), batched), batched)
    for name in ("serve.batches", "serve.session_queries", "serve.failed",
                 "serve.rejected", "serve.deadline_expired"):
        put(name, v.get(name, 0.0))
    swept = counters.get("serve.msbfs.words_swept", 0)
    skipped = counters.get("serve.msbfs.words_skipped", 0)
    put("serve.msbfs_words_skipped_frac", _ratio(skipped, swept + skipped))
    value, _, n = percentile(s.get("observe_lag_ms", []), 0.99)
    put("serve.observe_lag_ms_p99", value, n)
    put("serve.window_overrun_s", v.get("window.overrun_s", 0.0), 1)

    value, _, n = percentile(s.get("graph.apply_ms", []), 0.5)
    put("graph.apply_ms_p50", value, n)
    value, _, n = percentile(s.get("write_late_ms", []), 0.95)
    put("graph.write_late_ms_p95", value, n)
    put("graph.writes_in_window", v.get("write.in_window", 0.0), len(s.get("write_ms", [])))
    put("graph.delta_ops", v.get("graph.delta_ops", 0.0))
    put("graph.delta_bytes", v.get("graph.delta_bytes", 0.0))

    for name in ("shard.remote_bytes", "shard.remote_messages", "shard.nvm_requests",
                 "shard.exchange_s", "shard.compute_s"):
        put(name, per(name))
    put("shard.io_failures", v.get("shard.io_failures", 0.0))
    put("obs.trace_overhead", trace_overhead(report))
    put("harness.reader_blocked_ms", v.get("reader_blocked_ms", 0.0), 1)
    put("harness.check_pending_peak", v.get("check.pending_peak", 0.0), 1)
    return out


def harness_faults(report):
    """Runs whose figures describe the harness rather than the program:
    serve_rw's reader waited for the checker inside the window, so its
    answer rate was (in part) the checker's."""
    blocked = report["values"].get("reader_blocked_ms", 0.0)
    if blocked > 0:
        return ["reader blocked %.1f ms in the window waiting for the checker "
                "(peak %d answers pending)"
                % (blocked, report["values"].get("check.pending_peak", 0))]
    return []
