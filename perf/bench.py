"""Measurement: the untraced end-to-end pass and the traced layer pass.

``measure_end_to_end`` times whole runs with tracing off; a separate
``measure_layers`` pass wraps the public seams listed in
:data:`RUN_SEAMS` and reports where the time went.  Both check every
run's outcome against the first repeat, the transport twin and
``expected.json``; any mismatch is a failed operation.

End-to-end host times are in *reference seconds*: every timed call runs
under a :class:`~perf.hostspeed.Sampler`, and its seconds are divided by
the stretch the host slowdown measured during that call implies
(``hostspeed`` says why).  The measured seconds stay in each entry under
``raw``.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from . import workloads
from .hostspeed import Reference, Sampler
from .trace import Seam, Tracer
from .workloads import Prepared, Workload

PERF_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = PERF_DIR / "expected.json"
#: Seeds whose outcomes ``--record`` pins; seed 1 is held out: never
#: look at it while writing a change, only when claiming its gain.
RECORDED_SEEDS = (0, 1)

#: Timed repeats never go below this, whatever ``--seconds`` says.
MIN_REPEATS = {"full": 5, "smoke": 1}
SETUPS = {"full": 5, "smoke": 1}

#: name -> (unit, better, bound).  ``bound`` is the regression bound of
#: ``BENCHMARK.json``, set from the spread of ten seeds on the shared
#: 2-core reference box (README "Noise bounds").  The sim_* rows are
#: deterministic at a fixed seed (``--compare`` demands equality) and
#: carry a bound only because the driver compares medians across
#: *different* seeds.
E2E_METRICS = {
    "setup_s": ("s", "lower", 0.25),
    "queries_per_wall_s": ("1/s", "higher", 0.25),
    "greedy_queries_per_wall_s": ("1/s", "higher", 0.25),
    "cpu_s_per_kquery": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.15),
    "sim_throughput_qps": ("1/s", "higher", 0.1),
    "sim_mean_response_ms": ("ms", "lower", 0.2),
    "sim_p99_response_ms": ("ms", "lower", 0.2),
    "sim_response_ratio_vs_greedy": ("ratio", "lower", 0.1),
}
#: Reported by the full command only.  The first two are 0 on healthy
#: runs, and the driver's contract wants end-to-end metrics that are never
#: 0; the third describes the host, not the program.
REPORT_ONLY_E2E = {
    "sim_drop_fraction": ("fraction", "lower"),
    "run_failed_fraction": ("fraction", "lower"),
    "host_slowdown_ratio": ("ratio", "lower"),
}

#: name -> (unit, better).  Every ``*_s`` is a layer's *self* time unless
#: the README says otherwise, so the layers under one root add up.
LAYER_METRICS = {
    "workload.trace_gen_s": ("s", "lower"),
    "workload.events": ("count", "higher"),
    "workload.distinct_ticks": ("count", "higher"),
    "setups.world_build_s": ("s", "lower"),
    "shards.plan_s": ("s", "lower"),
    "shards.local_classes": ("count", "higher"),
    "shards.residual_classes": ("count", "lower"),
    "shards.shard_imbalance": ("ratio", "lower"),
    "transport.spawn_s": ("s", "lower"),
    "transport.close_s": ("s", "lower"),
    "transport.exchange_calls": ("count", "lower"),
    "transport.exchange_wait_s": ("s", "lower"),
    "transport.post_calls": ("count", "lower"),
    "transport.post_s": ("s", "lower"),
    "transport.posted_frames": ("count", "lower"),
    "transport.barrier_wait_s": ("s", "lower"),
    "protocol.encode_calls": ("count", "lower"),
    "protocol.encode_s": ("s", "lower"),
    "protocol.decode_calls": ("count", "lower"),
    "protocol.decode_s": ("s", "lower"),
    "protocol.frame_encode_calls": ("count", "lower"),
    "protocol.frame_encode_s": ("s", "lower"),
    "protocol.frame_bytes": ("bytes", "lower"),
    "protocol.frame_decode_s": ("s", "lower"),
    "shards.run_s": ("s", "lower"),
    "shards.run_self_s": ("s", "lower"),
    "shards.shard_busy_s_sum": ("s", "lower"),
    "shards.shard_busy_s_max": ("s", "lower"),
    "shards.overlap_ratio": ("ratio", "higher"),
    "shards.fork_over_inline": ("ratio", "higher"),
    "shards.batch_ticks": ("count", "lower"),
    "shards.mean_batch": ("count", "higher"),
    "shards.reconcile_barriers": ("count", "lower"),
    "shards.merge_digest_s": ("s", "lower"),
    "allocation.assign_calls": ("count", "lower"),
    "allocation.assign_s": ("s", "lower"),
    "allocation.assign_batch_calls": ("count", "lower"),
    "allocation.assign_batch_s": ("s", "lower"),
    "market_tick.exchange_calls": ("count", "lower"),
    "market_tick.exchange_s": ("s", "lower"),
    "market_tick.scalar_fallbacks": ("count", "lower"),
    "period_engine.advance_calls": ("count", "lower"),
    "period_engine.advance_s": ("s", "lower"),
    "supply.solve_calls": ("count", "lower"),
    "supply.solve_s": ("s", "lower"),
    "network.round_trip_calls": ("count", "lower"),
    "network.round_trip_s": ("s", "lower"),
    "engine.run_s": ("s", "lower"),
    "engine.self_s": ("s", "lower"),
    "engine.events": ("count", "lower"),
    "metrics.summarise_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "host.slowdown_ratio": ("ratio", "lower"),
    "sim.drop_fraction": ("fraction", "lower"),
}

#: Seams wrapped for the traced run (installed after the workers fork).
RUN_SEAMS = (
    Seam("transport.exchange", "repro.sim.shards.ShardTransport.exchange"),
    Seam("transport.post", "repro.sim.shards.ShardTransport.post"),
    Seam("protocol.encode", "repro.protocol.messages.encode"),
    Seam("protocol.decode", "repro.protocol.messages.decode"),
    Seam(
        "protocol.frame_encode",
        "repro.protocol.transport.encode_frame",
        count=lambda args, result: len(result),
    ),
    Seam("protocol.frame_decode", "repro.protocol.transport.FrameDecoder.feed"),
    Seam("shards.merge_digest", "repro.sim.shards.ShardedRunResult.invariant_payload"),
    Seam("shards.merge_digest", "repro.sim.shards.ShardedRunResult.outcome_digest"),
    Seam("allocation.assign", "repro.allocation.qant.QantAllocator.assign"),
    Seam("allocation.assign_batch", "repro.allocation.qant.QantAllocator.assign_batch"),
    Seam(
        "market_tick.exchange",
        "repro.allocation.market_tick.MarketTickDispatcher.exchange",
    ),
    Seam("period_engine.advance", "repro.core.period_engine.QantPeriodEngine.advance"),
    Seam("supply.solve", "repro.core.supply.CapacitySupplySet.optimal_supply"),
    Seam("network.round_trip", "repro.sim.network.Network.round_trip_ms"),
    Seam(
        "engine.run",
        "repro.sim.engine.Simulator.run",
        count=lambda args, result: args[0].events_processed,
    ),
    Seam("metrics.summarise", "repro.sim.metrics.MetricsCollector.mean_response_ms"),
    Seam(
        "metrics.summarise",
        "repro.sim.metrics.MetricsCollector.percentile_response_ms",
    ),
    Seam("metrics.summarise", "repro.sim.metrics.MetricsCollector.batch_summary"),
    Seam("metrics.summarise", "repro.sim.shards.ShardedRunResult.mean_response_ms"),
    Seam(
        "metrics.summarise",
        "repro.sim.shards.ShardedRunResult.percentile_response_ms",
    ),
    Seam("metrics.summarise", "repro.sim.shards.ShardedRunResult.batch_summary"),
)

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _cpu_s() -> float:
    """CPU seconds of this process plus its live multiprocessing workers."""
    total = time.process_time()
    for child in multiprocessing.active_children():
        try:
            with open("/proc/%d/stat" % child.pid) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # the worker exited between the listing and the read
            continue
        total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return total


def _load_expected() -> Dict[str, object]:
    if not EXPECTED_PATH.exists():
        return {}
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


class Checker:
    """Counts runs attempted and failed, and remembers first outcomes."""

    def __init__(self, workload: Workload, seed: int, scale: str) -> None:
        self.attempted = 0
        self.failed = 0
        self.first: Dict[str, Dict[str, object]] = {}
        expected = _load_expected() if scale == "full" else {}
        # Twins share inputs, so they share the pinned outcome.
        self._expected = expected.get(workload.inputs, {}).get(str(seed), {})

    def run(self, prepared: Prepared, mechanism: str) -> Optional[Dict[str, object]]:
        """Run once; ``None`` (and a counted failure) if it raised or the
        outcome differs from the first repeat or the pinned one."""
        self.attempted += 1
        try:
            outcome = prepared.run(mechanism)
        except Exception:  # a failed run must not hide the other runs
            traceback.print_exc()
            self.failed += 1
            return None
        summary = outcome["summary"]
        first = self.first.setdefault(mechanism, summary)
        pinned = self._expected.get(mechanism)
        if summary != first:
            self._mismatch(mechanism, "the first run of the pass", summary, first)
            return None
        if pinned is not None and summary != pinned:
            self._mismatch(mechanism, "expected.json", summary, pinned)
            return None
        return outcome

    def twin(self, prepared: Prepared, mode: str) -> None:
        """Run the same inputs through ``mode``: a twin's outcome must
        equal the first outcome of this pass like any other repeat's."""
        other = prepared.twin(mode)
        try:
            for mechanism in workloads.MECHANISMS:
                self.run(other, mechanism)
        finally:
            other.close()

    def _mismatch(self, mechanism, against, got, want) -> None:
        self.failed += 1
        print(
            "perf: MISMATCH %s differs from %s:\n  got  %r\n  want %r"
            % (mechanism, against, got, want),
            file=sys.stderr,
        )


def _stat(values: List[float], raw: Optional[List[float]] = None) -> Dict[str, float]:
    """Median with the sample's range and quartiles (``--compare`` reads
    the quartile distance as the run-to-run spread).  ``raw`` is the same
    sample in measured, not reference, seconds: its median is kept."""
    stat = {
        "value": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }
    if len(values) > 1:
        q1, _median, q3 = statistics.quantiles(values, n=4)
        stat.update(q1=q1, q3=q3)
    if raw is not None:
        stat["raw"] = statistics.median(raw)
    return stat


class Timing(NamedTuple):
    """One timed call: measured seconds net of the sampler's own chunks,
    the host slowdown sampled while it ran, and the stretch that implies."""

    wall_s: float
    cpu_s: float
    slowdown: float
    stretch: float

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s / self.stretch

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s / self.stretch


def _timed(reference: Reference, call):
    """``(result, Timing)`` of ``call()`` under the host-speed sampler."""
    gc.collect()  # the previous run's garbage is not this run's cost
    with Sampler(reference) as sampler:
        cpu = _cpu_s()
        started = time.perf_counter()
        result = call()
        wall = time.perf_counter() - started
        cpu = _cpu_s() - cpu
    # The timer's chunks ran in this process, inside the timed call.
    chunk_s = sampler.inside_s
    return result, Timing(
        wall - chunk_s, cpu - chunk_s, sampler.slowdown, sampler.stretch
    )


def _run_wall(checker: Checker, prepared: Prepared, mechanism: str):
    """``(outcome, measured wall seconds)`` of one checked, unsampled run."""
    gc.collect()
    started = time.perf_counter()
    outcome = checker.run(prepared, mechanism)
    return outcome, time.perf_counter() - started


def measure_end_to_end(
    workload: Workload, seed: int, seconds: float, scale: str = "full"
) -> Dict[str, object]:
    """The untraced pass: set-up medians, warm-up, then timed repeats.

    Repeats (one ``qa-nt`` run then one ``greedy`` run, timed separately)
    continue until ``seconds`` have passed and at least
    ``MIN_REPEATS`` are in.  Medians are reported with min/max/n; no
    percentile is, because this few samples cannot carry one.
    """
    reference = Reference()
    # One untimed set-up first: lazy imports finish before timing.
    prepared = workloads.prepare(workload, seed, scale)
    setups: List[Timing] = []
    for _ in range(SETUPS[scale]):
        prepared.close()
        prepared, timing = _timed(
            reference, lambda: workloads.prepare(workload, seed, scale)
        )
        setups.append(timing)
    checker = Checker(workload, seed, scale)
    timings: Dict[str, List[Timing]] = {m: [] for m in workloads.MECHANISMS}
    try:
        for mechanism in workloads.MECHANISMS:  # warm-up pair, checked, untimed
            checker.run(prepared, mechanism)
        started = time.perf_counter()
        repeats = 0
        while (
            repeats < MIN_REPEATS[scale]
            or time.perf_counter() - started < seconds
        ):
            repeats += 1
            for mechanism in workloads.MECHANISMS:
                outcome, timing = _timed(
                    reference, lambda: checker.run(prepared, mechanism)
                )
                if outcome is not None:
                    timings[mechanism].append(timing)
        if workload.engine == "tcp":
            checker.twin(prepared, "fork")
        child_kb = (
            prepared.engine.transport.child_peak_kb() if workload.sharded else 0
        )
    finally:
        prepared.close()
    result = {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "offered_queries": len(prepared.trace),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {},
    }
    if not timings["qa-nt"] or not timings["greedy"]:
        return result  # every run failed: nothing to report but the count
    offered = len(prepared.trace)
    qant, greedy = checker.first["qa-nt"], checker.first["greedy"]
    parent_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def rate(mechanism: str) -> Dict[str, float]:
        sample = timings[mechanism]
        return _stat(
            [offered / t.ref_wall_s for t in sample],
            raw=[offered / t.wall_s for t in sample],
        )

    kqueries = offered / 1000.0
    metrics = {
        "setup_s": _stat(
            [t.ref_wall_s for t in setups], raw=[t.wall_s for t in setups]
        ),
        "queries_per_wall_s": rate("qa-nt"),
        "greedy_queries_per_wall_s": rate("greedy"),
        "cpu_s_per_kquery": _stat(
            [t.ref_cpu_s / kqueries for t in timings["qa-nt"]],
            raw=[t.cpu_s / kqueries for t in timings["qa-nt"]],
        ),
        "peak_rss_mb": {"value": (parent_kb + child_kb) / 1024.0},
        "sim_throughput_qps": {
            "value": qant["completed"] / (prepared.horizon_ms / 1000.0)
        },
        "sim_mean_response_ms": {"value": qant["mean_response_ms"]},
        "sim_p99_response_ms": {"value": qant["p99_response_ms"]},
        "sim_response_ratio_vs_greedy": {
            "value": qant["mean_response_ms"] / greedy["mean_response_ms"]
        },
        "sim_drop_fraction": {"value": qant["dropped"] / offered},
        "run_failed_fraction": {"value": checker.failed / checker.attempted},
        "host_slowdown_ratio": _stat([t.slowdown for t in timings["qa-nt"]]),
    }
    specs = {**E2E_METRICS, **REPORT_ONLY_E2E}
    for name, entry in metrics.items():
        entry["unit"] = specs[name][0]
    result["metrics"] = metrics
    result["outcomes"] = dict(checker.first)
    return result


#: Span-derived layer metrics: name -> (layer, field).  ``field`` is a
#: :class:`~perf.trace.LayerStats` attribute or ``"counter"`` (the seam's
#: own count).  A seam that was wrapped and never called reads 0.
RUN_SPAN_METRICS = {
    "transport.exchange_calls": ("transport.exchange", "calls"),
    "transport.exchange_wait_s": ("transport.exchange", "self_s"),
    "transport.post_calls": ("transport.post", "calls"),
    "transport.post_s": ("transport.post", "self_s"),
    "protocol.encode_calls": ("protocol.encode", "calls"),
    "protocol.encode_s": ("protocol.encode", "self_s"),
    "protocol.decode_calls": ("protocol.decode", "calls"),
    "protocol.decode_s": ("protocol.decode", "self_s"),
    "protocol.frame_encode_calls": ("protocol.frame_encode", "calls"),
    "protocol.frame_encode_s": ("protocol.frame_encode", "self_s"),
    "protocol.frame_bytes": ("protocol.frame_encode", "counter"),
    "protocol.frame_decode_s": ("protocol.frame_decode", "self_s"),
    "shards.run_s": ("shards.run", "total_s"),
    "shards.run_self_s": ("shards.run", "self_s"),
    "shards.merge_digest_s": ("shards.merge_digest", "self_s"),
    "allocation.assign_calls": ("allocation.assign", "calls"),
    "allocation.assign_s": ("allocation.assign", "self_s"),
    "allocation.assign_batch_calls": ("allocation.assign_batch", "calls"),
    "allocation.assign_batch_s": ("allocation.assign_batch", "self_s"),
    "market_tick.exchange_calls": ("market_tick.exchange", "calls"),
    "market_tick.exchange_s": ("market_tick.exchange", "self_s"),
    "period_engine.advance_calls": ("period_engine.advance", "calls"),
    "period_engine.advance_s": ("period_engine.advance", "self_s"),
    "supply.solve_calls": ("supply.solve", "calls"),
    "supply.solve_s": ("supply.solve", "self_s"),
    "network.round_trip_calls": ("network.round_trip", "calls"),
    "network.round_trip_s": ("network.round_trip", "self_s"),
    "engine.run_s": ("engine.run", "total_s"),
    "engine.self_s": ("engine.run", "self_s"),
    "engine.events": ("engine.run", "counter"),
    "metrics.summarise_s": ("metrics.summarise", "self_s"),
}
SETUP_SPAN_METRICS = {
    "workload.trace_gen_s": ("workload.trace_gen", "self_s"),
    "setups.world_build_s": ("setups.world_build", "self_s"),
    "shards.plan_s": ("shards.plan", "self_s"),
    "transport.spawn_s": ("transport.spawn", "total_s"),
    "transport.close_s": ("transport.close", "total_s"),
}
#: Units whose values must repeat exactly on every traced run.
_EXACT_UNITS = ("count", "bytes", "fraction")


def _span_values(tracer: Tracer, table) -> Dict[str, object]:
    stats = tracer.stats()
    values: Dict[str, object] = {}
    for name, (layer, field) in table.items():
        if layer in tracer.missing:
            values[name] = None
        elif field == "counter":
            values[name] = tracer.counters.get(layer, 0)
        else:
            values[name] = getattr(stats[layer], field) if layer in stats else 0
    return values


def _layer_pass(prepared: Prepared, checker: Checker) -> Dict[str, object]:
    """One traced ``qa-nt`` run: the run-time layer values, or ``None``
    under ``"values"`` when the run failed its check."""
    tracer = Tracer()
    # On the sharded engine the root span *is* shards.run: the engine's
    # run plus the digest that consumes its result.
    root = "shards.run" if prepared.workload.sharded else "bench.run"
    with tracer.patched(RUN_SEAMS):
        started = time.perf_counter()
        with tracer.span(root):
            outcome = checker.run(prepared, "qa-nt")
        wall = time.perf_counter() - started
    if outcome is None:
        return {"tracer": tracer, "wall_s": wall, "values": None}
    counters = outcome["counters"]
    values = _span_values(tracer, RUN_SPAN_METRICS)
    values["market_tick.scalar_fallbacks"] = counters["scalar_fallbacks"]
    values["sim.drop_fraction"] = outcome["summary"]["dropped"] / len(
        prepared.trace
    )
    if prepared.workload.sharded:
        # Shard-side work is invisible to the wrappers: read the engine's
        # own public counters.
        engine = prepared.engine
        busy = engine.shard_self_time_s()
        values.update(
            {
                "shards.local_classes": counters["local_classes"],
                "shards.residual_classes": counters["residual_classes"],
                "shards.shard_imbalance": counters["shard_imbalance"],
                "transport.posted_frames": engine.transport.posted_frames,
                "transport.barrier_wait_s": engine.transport.barrier_wait_ms / 1e3,
                "shards.shard_busy_s_sum": sum(busy),
                "shards.shard_busy_s_max": max(busy),
                "shards.overlap_ratio": (values["shards.run_self_s"] + sum(busy))
                / values["shards.run_s"],
                "shards.batch_ticks": counters["batch_ticks"],
                "shards.mean_batch": counters["batched_queries"]
                / counters["batch_ticks"],
                "shards.reconcile_barriers": counters["reconcile_barriers"],
            }
        )
    return {"tracer": tracer, "wall_s": wall, "values": values}


def measure_layers(
    workload: Workload,
    seed: int,
    seconds: float,
    scale: str = "full",
    out_dir: Optional[Path] = None,
) -> Dict[str, object]:
    """The traced pass: one traced set-up, then traced ``qa-nt`` runs.

    Untraced runs come first (their median is the base of
    ``trace.overhead_ratio``); traced runs repeat until ``seconds`` have
    passed.  Times and ratios are medians over the traced runs; counts
    must be equal on every one.  A metric that does not apply to the
    workload's engine, or whose seam is gone, reads ``None`` + reason.

    Layer times are measured seconds: a timer inside a traced run would
    land in whatever span is open.  ``host.slowdown_ratio``, sampled
    between the runs, says how slow the host was while they ran.
    """
    # As in the untraced pass, lazy imports finish in an untimed set-up.
    workloads.prepare(workload, seed, scale).close()
    setup_tracer = Tracer()
    prepared = workloads.prepare(workload, seed, scale, tracer=setup_tracer)
    checker = Checker(workload, seed, scale)
    host = Sampler(Reference())
    untraced: List[float] = []
    passes: List[Dict[str, object]] = []
    inline_wall = None
    try:
        checker.run(prepared, "qa-nt")  # warm-up
        started = time.perf_counter()
        for _ in range(min(3, MIN_REPEATS[scale])):
            outcome, wall = _run_wall(checker, prepared, "qa-nt")
            if outcome is not None:
                untraced.append(wall)
        while not passes or time.perf_counter() - started < seconds:
            host.sample()
            passes.append(_layer_pass(prepared, checker))
            host.sample()
        if workload.sharded:
            inline = prepared.twin("inline")
            try:
                outcome, wall = _run_wall(checker, inline, "qa-nt")
                if outcome is not None:
                    inline_wall = wall
            finally:
                inline.close()
    finally:
        with setup_tracer.span("transport.close"):
            prepared.close()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / ("spans-%s.jsonl" % workload.name), "w") as handle:
            setup_tracer.write_jsonl(handle, phase="setup")
            for index, item in enumerate(passes):
                item["tracer"].write_jsonl(handle, phase="run", traced_run=index)
    result = {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "traced_runs": len(passes),
        "metrics": {},
    }
    good = [item for item in passes if item["values"] is not None]
    if not good or not untraced:
        return result
    base = statistics.median(untraced)
    values = _span_values(setup_tracer, SETUP_SPAN_METRICS)
    values["workload.events"] = len(prepared.trace)
    values["workload.distinct_ticks"] = len(
        {event.time_ms for event in prepared.trace}
    )
    values["trace.overhead_ratio"] = (
        statistics.median(item["wall_s"] for item in good) / base
    )
    values["host.slowdown_ratio"] = host.slowdown
    if inline_wall is not None:
        values["shards.fork_over_inline"] = inline_wall / base
    for name in good[0]["values"]:
        column = [item["values"][name] for item in good]
        if None in column:
            values[name] = None
        elif LAYER_METRICS[name][0] in _EXACT_UNITS:
            values[name] = column[0]
            if any(value != column[0] for value in column):
                result["failed"] += 1
                print(
                    "perf: MISMATCH %s moved between traced runs: %r"
                    % (name, column),
                    file=sys.stderr,
                )
        else:
            values[name] = statistics.median(column)
    missing = dict(setup_tracer.missing)
    for item in good:
        missing.update(item["tracer"].missing)
    layer_of = dict(RUN_SPAN_METRICS, **SETUP_SPAN_METRICS)
    for name, (unit, _better) in LAYER_METRICS.items():
        entry = {"value": values.get(name), "unit": unit}
        if entry["value"] is None:
            layer = layer_of.get(name, (None,))[0]
            entry["reason"] = (
                "seam gone: " + missing[layer]
                if layer in missing
                else "not measured on this engine"
            )
        result["metrics"][name] = entry
    return result
