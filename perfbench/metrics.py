"""Turns the raw samples of one recloud_perfbench run into named metrics.

The benchmark binary (perfbench.cpp) prints raw samples; this module holds
every rule that turns them into the numbers BENCHMARK.json names, so the
rules can be tested without building the program (test_metrics.py).
"""

import math
import statistics

# Percentiles the percentile rule may report, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
# A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10

# Request record columns, as perfbench.cpp writes them.
DUE, SENT, DONE, OK, QUEUE_WAIT, SEARCH, PLANS_GENERATED, SCENARIO = range(8)

LEDGER_LAYERS = ("neighbor", "symmetry", "sampling", "cache_lookup", "routing",
                 "unattributed")


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it. Infinite samples (misses) sort last."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count, q):
    """How many of `count` samples lie beyond the nearest-rank q-th
    percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def highest_percentile(values, ladder=PERCENTILE_LADDER):
    """The percentile rule: the highest percentile of `ladder` with at least
    MIN_TAIL_SAMPLES samples beyond it, as (q, value, sample count). None
    when not even the lowest qualifies."""
    best = None
    for q in ladder:
        if samples_beyond(len(values), q) >= MIN_TAIL_SAMPLES:
            best = (q, percentile(values, q), len(values))
    return best


def reported_percentile(values, q):
    """The q-th percentile, or ValueError when the percentile rule does not
    allow reporting it for this many samples."""
    if samples_beyond(len(values), q) < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} needs {MIN_TAIL_SAMPLES} samples beyond it, have "
            f"{samples_beyond(len(values), q)} of {len(values)}")
    return percentile(values, q)


def open_loop_latencies_ms(records):
    """Latency of each open-loop request from the instant it was due, so a
    generator that sent late (send lag) or a stall that delayed later sends
    counts against the request. A failed or rejected request is a miss:
    infinitely late."""
    return [(r[DONE] - r[DUE]) / 1e6 if r[OK] else math.inf for r in records]


def send_lags_ms(records):
    return [(r[SENT] - r[DUE]) / 1e6 for r in records]


def pooled(per_input):
    """Every sample of every input and pass, from one list per input (or
    per pass). Each pass of a run repeats the same inputs; pooling their
    samples spreads every metric over the whole run."""
    return [value for values in per_input for value in values]


def burst_capacity_rps(records):
    """Completions per second of a burst whose requests were all due at 0:
    completed requests over the time the last one took. Failed requests do
    not count as completions."""
    completed = [r[DONE] for r in records if r[OK]]
    return len(completed) / (max(r[DONE] for r in records) / 1e9)


def end_to_end(raw):
    """Every end-to-end metric as {name: value}."""
    search = raw["search"]
    assess = raw["assess"]
    latencies = pooled(open_loop_latencies_ms(records)
                       for records in raw["service"]["rate"])
    return {
        "setup_s": median(raw["setup_s"]),
        "search_s": median(pooled(search["serial_s"])),
        "search_parallel_s": median(pooled(search["parallel_s"])),
        "assess_s": median(assess["parallel_s"]),
        "assess_engine_s": median(assess["engine_s"]),
        "assess_to_ciw_s": statistics.fmean(assess["ciw_s"]),
        "request_p50_ms": reported_percentile(latencies, 50.0),
        "request_p95_ms": reported_percentile(latencies, 95.0),
    }


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def ledger(raw):
    """Outside-in layer ledger of the workload's primary operation: unit
    costs of public calls times the counts the program returned, as shares
    of the measured total, with the residual reported as `unattributed`."""
    units = raw["units"]
    workload = raw["workload"]
    parts = dict.fromkeys(LEDGER_LAYERS, 0.0)
    if workload == "search":
        search = raw["search"]
        total_ns = sum(pooled(search["serial_s"])) * 1e9
        parts["neighbor"] = units["neighbor_ns"] * search["plans_generated"]
        # One signature per generated neighbor, one per accepted move and
        # one for each initial plan.
        parts["symmetry"] = units["symmetry_ns"] * (
            search["plans_generated"] + search["accepted"] + search["searches"])
        parts["sampling"] = (units["sample_round_ns"] *
                             search["trace"]["counters"].get("sample.rounds", 0.0))
        parts["cache_lookup"] = (units["cache_lookup_ns"] *
                                 search["cache"]["rounds"])
        parts["routing"] = units["routing_check_ns"] * search["cache"]["misses"]
    else:
        assess = raw["assess"]
        # Capacity of the parallel backend: wall time x worker threads.
        total_ns = sum(assess["parallel_s"]) * raw["nproc"] * 1e9
        parts["sampling"] = (units["sample_round_ns"] *
                             assess["trace"]["counters"].get("sample.rounds", 0.0))
        parts["cache_lookup"] = (units["cache_lookup_micro_ns"] *
                                 assess["parallel_cache"]["rounds"])
        parts["routing"] = (units["judge_micro_round_ns"] *
                            assess["parallel_cache"]["misses"])
    parts["unattributed"] = total_ns - sum(parts.values())
    return {f"ledger.{name}_frac": _ratio(value, total_ns)
            for name, value in parts.items()}


def per_layer(raw):
    """Every per-layer metric of a traced run as {name: value}."""
    units = raw["units"]
    search = raw["search"]
    assess = raw["assess"]
    service = raw["service"]
    searches = search["searches"]
    cache = search["cache"]
    rate = pooled(service["rate"])
    queue_ms = [r[QUEUE_WAIT] / 1e6 for r in rate]
    search_ms = [r[SEARCH] / 1e6 for r in rate]
    engine_runs = len(assess["engine_s"])
    metrics = {
        "setup.topology_ms": units["topology_ms"],
        "setup.scenario_ms": median(raw["setup_scenario_ms"]),
        "setup.recloud_ms": median(raw["setup_recloud_ms"]),
        "search.iter_ms.p50": reported_percentile(search["iter_ms"], 50.0),
        "search.iter_ms.p95": reported_percentile(search["iter_ms"], 95.0),
        "search.neighbor_us": units["neighbor_ns"] / 1e3,
        "search.symmetry_us": units["symmetry_ns"] / 1e3,
        "search.plans_evaluated": _ratio(search["plans_evaluated"], searches),
        "search.symmetric_skips": _ratio(search["symmetric_skips"], searches),
        "assess.evaluate_ms": median(search["evaluate_ms"]),
        "cache.hit_rate": _ratio(cache["hits"] + cache["empty_hits"],
                                 cache["rounds"]),
        "cache.misses": _ratio(cache["misses"], searches),
        "cache.warm_rebinds": _ratio(cache["warm_rebinds"], searches),
        "cache.cross_plan_hits": _ratio(cache["cross_plan_hits"], searches),
        "assess.rounds_to_ciw": statistics.fmean(assess["rounds_to_ciw"]),
        "sampling.round_ns": units["sample_round_ns"],
        "sampling.failed_per_round": units["failed_per_round"],
        "routing.check_ns": units["routing_check_ns"],
        "cache.lookup_ns": units["cache_lookup_ns"],
        "judge.microservice_round_ns": units["judge_micro_round_ns"],
        "exec.bytes_per_round": _ratio(assess["engine_bytes"],
                                       assess["engine_rounds"]),
        "exec.dispatches": _ratio(assess["engine_dispatches"], engine_runs),
        "exec.retries": assess["engine_retries"],
        "exec.degraded": assess["engine_degraded"],
        "exec.parallel_efficiency": _ratio(
            assess["serial_equivalent_s"],
            median(assess["parallel_s"]) * raw["nproc"]),
        "service.queue_wait_ms.p50": reported_percentile(queue_ms, 50.0),
        "service.queue_wait_ms.p95": reported_percentile(queue_ms, 95.0),
        "service.search_ms.p50": reported_percentile(search_ms, 50.0),
        "service.search_ms.p95": reported_percentile(search_ms, 95.0),
        "service.capacity_rps": burst_capacity_rps(service["burst"]),
        "service.send_lag_ms.max": max(send_lags_ms(rate + service["burst"])),
        "service.peak_queue_depth": service["peak_queue_depth"],
        "service.shed": service["shed"],
        "trace.overhead_frac": units["overhead_traced_s"] /
        units["overhead_untraced_s"] - 1.0,
        "error_frac": _ratio(raw["failed"], raw["attempted"]),
    }
    metrics.update(ledger(raw))
    return metrics


def result(raw, spec, trace):
    """The benchmark's result object: the metrics `spec` (BENCHMARK.json)
    names for this mode, each with its unit, plus the correctness verdict."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer(raw) if trace else end_to_end(raw)
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise ValueError(f"metrics {sorted(set(values) ^ set(names))} are not "
                         "both computed and declared")
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    correct = raw["failed"] == 0 and all(c["ok"] for c in raw["checks"])
    return {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in declared},
    }
