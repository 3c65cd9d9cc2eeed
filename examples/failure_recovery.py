"""Watching the market react to node failures.

The paper motivates autonomic query allocation with transient overloads
caused by node failures (Section 1): prices are the decentralised
overload signal (Section 5.1).  This example fails a third of the
federation mid-run, traces every node's private prices, and shows the
overload signal rising during the outage and settling afterwards —
alongside the response-time comparison against Greedy.

Run:  python examples/failure_recovery.py
"""

from dataclasses import replace

from repro.allocation import QantAllocator
from repro.experiments.failures import failed_node_ids
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_sweep
from repro.experiments.setups import two_query_world
from repro.experiments.spec import REGISTRY, ScalePreset
from repro.sim import FederationConfig, build_federation
from repro.sim.tracing import MarketTracer
from repro.workload import PoissonArrivals, build_trace

#: Nodes 0, 3, 6, ... of 30 go down during [20 s, 40 s).
FAILED = failed_node_ids(range(30), 0.3)
OUTAGE_MS = (20_000.0, 40_000.0)


def main() -> None:
    # --- response-time comparison around the outage --------------------------
    # The registered ``failures`` sweep, sized for this example.
    spec = replace(
        REGISTRY.get("failures"),
        scales={
            "small": ScalePreset(
                points=(0.3,),
                fixed={
                    "num_nodes": 30,
                    "outage_window_ms": OUTAGE_MS,
                    "horizon_ms": 60_000.0,
                    "load_fraction": 0.8,
                },
            )
        },
    )
    result = run_sweep(spec, seeds=(1,))
    metrics = ("before_ms", "during_ms", "after_ms", "degradation", "recovery_ms")
    phases = {
        mechanism: {m: result.stats(mechanism, 0, m).mean for m in metrics}
        for mechanism in sorted(result.mechanisms)
    }
    print(
        format_table(
            ("mechanism", *metrics),
            [(name, *phase.values()) for name, phase in phases.items()],
        )
    )
    print(
        "outage: nodes %s down during [%.0f, %.0f) ms" % (list(FAILED), *OUTAGE_MS)
    )
    print()
    qant = phases["qa-nt"]
    print(
        "QA-NT returns to %.0f ms after the outage (baseline %.0f ms, Greedy"
        " still at %.0f ms): the market sheds the backlog instead of"
        " dragging it along."
        % (qant["after_ms"], qant["before_ms"], phases["greedy"]["after_ms"])
    )
    print()

    # --- the price signal ------------------------------------------------------
    world = two_query_world(num_nodes=30, seed=1)
    capacity = world.capacity_qpms([2.0, 1.0])
    trace = build_trace(
        {
            0: PoissonArrivals(0.8 * capacity * 2.0 / 3.0),
            1: PoissonArrivals(0.8 * capacity / 3.0),
        },
        horizon_ms=60_000.0,
        origin_nodes=world.placement.node_ids,
        seed=2,
    )
    allocator = QantAllocator()
    tracer = MarketTracer(allocator)
    federation = build_federation(
        world.specs,
        world.placement,
        world.classes,
        world.cost_model,
        allocator,
        FederationConfig(seed=3, drain_ms=60_000.0),
    )
    for nid in FAILED:
        federation.nodes[nid].schedule_outage(*OUTAGE_MS)
    federation.run(trace)

    overloaded = tracer.overload_periods(threshold=2.0)
    if overloaded:
        print(
            "Price-based overload signal active from %.1fs to %.1fs"
            " (outage was 20s-40s)."
            % (min(overloaded) / 1000.0, max(overloaded) / 1000.0)
        )
    else:
        print("No node's prices crossed the overload threshold.")
    # Show one healthy node's signal around the outage.
    series = tracer.price_series(node_id=1)
    samples = [s for s in series if s[0] % 5000 < 500]
    print("max price at node 1 over time:")
    for time_ms, price in samples:
        bar = "#" * min(60, int(price * 4))
        print("  %6.1fs  %8.2f  %s" % (time_ms / 1000.0, price, bar))


if __name__ == "__main__":
    main()
