"""Deterministic fault injection for the federation simulator.

The paper motivates QA-NT with "multiple node failures" and temporary
overloads (Section 1) and claims the non-tatonnement process re-converges
without coordination — behaviour that only shows up when messages are
lost, replies arrive late, and agents act on stale prices.  This module
provides that adversity as a first-class, *seeded* subsystem:

* **message faults** — per-message drop probability, latency spikes, and
  scripted node-pair partitions, applied by :class:`repro.sim.network
  .Network` when an injector is attached;
* **node churn** — crash/recover windows (exponential or scripted)
  layered on :meth:`repro.sim.node.SimulatedNode.schedule_outage`'s
  existing fail/drain machinery;
* **client-side robustness policy** — the bid timeout the allocators
  apply to their request-for-bid fan-outs and the capped exponential
  backoff the federation applies to resubmissions.

Everything is driven by a dedicated fault RNG hierarchy derived from
``fault_seed`` with sha256 (process-stable, like the sweep runner's seed
derivation), so fault streams are reproducible independently of the
workload seeds.  With no injector attached — the default — the simulator
follows exactly the pre-fault code paths and consumes exactly the same
RNG draws, so golden traces stay byte-identical.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import SimulatedNode

__all__ = [
    "PartitionWindow",
    "FaultSpec",
    "FaultInjector",
    "derive_fault_seed",
    "half_partition",
]


def derive_fault_seed(seed: int, tag: Sequence[object]) -> int:
    """A process-stable child seed for one fault sub-stream.

    Mirrors the sweep runner's derivation: Python's builtin ``hash`` is
    salted per process, so sub-streams key a :class:`random.Random` off a
    sha256 digest of ``(seed, tag)`` instead — the same pair yields the
    same child seed in every process, which is what makes parallel chaos
    sweeps byte-identical to serial ones.
    """
    payload = repr((int(seed), tuple(tag))).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class PartitionWindow:
    """A network partition severing two node groups during a window.

    While ``start_ms <= now < end_ms``, no message crosses between a node
    of ``group_a`` and a node of ``group_b`` (both directions); traffic
    within each group is unaffected.  Nodes in neither group are never
    severed by this window.
    """

    group_a: Tuple[int, ...]
    group_b: Tuple[int, ...]
    start_ms: float
    end_ms: float

    def __post_init__(self) -> None:
        if self.end_ms <= self.start_ms:
            raise ValueError("a partition must end after it starts")
        if self.start_ms < 0:
            raise ValueError("partition start must be non-negative")
        set_a, set_b = frozenset(self.group_a), frozenset(self.group_b)
        if not set_a or not set_b:
            raise ValueError("both partition groups must be non-empty")
        if set_a & set_b:
            raise ValueError("partition groups must be disjoint")
        object.__setattr__(self, "group_a", tuple(sorted(set_a)))
        object.__setattr__(self, "group_b", tuple(sorted(set_b)))
        object.__setattr__(self, "_set_a", set_a)
        object.__setattr__(self, "_set_b", set_b)

    def severs(self, a: int, b: int, now_ms: float) -> bool:
        """True iff this window cuts the ``a``<->``b`` pair at ``now_ms``."""
        if not self.start_ms <= now_ms < self.end_ms:
            return False
        set_a: frozenset = self._set_a  # type: ignore[attr-defined]
        set_b: frozenset = self._set_b  # type: ignore[attr-defined]
        return (a in set_a and b in set_b) or (a in set_b and b in set_a)


def half_partition(
    node_ids: Iterable[int], start_ms: float, end_ms: float
) -> PartitionWindow:
    """Split ``node_ids`` into even/odd halves for ``[start_ms, end_ms)``.

    The even/odd split is deliberately nasty for the two-query world:
    Q2's data lives only on even nodes, so every odd-origin Q2 request is
    severed from *all* of its candidate servers for the window.
    """
    ids = sorted(node_ids)
    return PartitionWindow(
        group_a=tuple(n for n in ids if n % 2 == 0),
        group_b=tuple(n for n in ids if n % 2 == 1),
        start_ms=start_ms,
        end_ms=end_ms,
    )


@dataclass(frozen=True)
class FaultSpec:
    """Declarative description of one run's fault schedule and policy.

    The default instance is completely inert (:attr:`active` is False):
    a federation built with it behaves — and draws RNG — exactly like one
    built with no fault spec at all.
    """

    #: Probability that any individual message (request or reply leg) is
    #: silently lost.
    drop_probability: float = 0.0
    #: Probability that a message leg suffers a latency spike, and the
    #: extra delay the spike adds.
    spike_probability: float = 0.0
    spike_ms: float = 25.0
    #: Scripted node-pair partitions.
    partitions: Tuple[PartitionWindow, ...] = ()
    #: Node churn: Poisson crash rate per node per simulated minute, with
    #: exponentially distributed downtime.  Crashed nodes drain committed
    #: work but accept nothing new (the existing outage machinery).
    crash_rate_per_min: float = 0.0
    mean_downtime_ms: float = 2_500.0
    #: Scripted per-node outage windows ``{node_id: ((start, end), ...)}``
    #: driven through the same scheduler as churn (experiment F1 uses
    #: this instead of ad-hoc node toggling).
    scripted_outages: Mapping[int, Tuple[Tuple[float, float], ...]] = field(
        default_factory=dict
    )
    #: Client-side robustness policy: how long a client waits for bid
    #: replies before treating a silent peer as failed, and the capped
    #: exponential backoff applied to resubmissions.
    bid_timeout_ms: float = 10.0
    backoff_base_ms: float = 250.0
    backoff_factor: float = 2.0
    backoff_cap_ms: float = 2_000.0
    #: Seed of the dedicated fault RNG hierarchy (independent of every
    #: workload seed).
    fault_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")
        if not 0.0 <= self.spike_probability <= 1.0:
            raise ValueError("spike probability must be in [0, 1]")
        if self.spike_ms < 0:
            raise ValueError("spike latency must be non-negative")
        if self.crash_rate_per_min < 0:
            raise ValueError("crash rate must be non-negative")
        if self.mean_downtime_ms <= 0:
            raise ValueError("mean downtime must be positive")
        if self.bid_timeout_ms <= 0:
            raise ValueError("bid timeout must be positive")
        if self.backoff_base_ms <= 0:
            raise ValueError("backoff base must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if self.backoff_cap_ms < self.backoff_base_ms:
            raise ValueError("backoff cap must be >= the base delay")
        for windows in self.scripted_outages.values():
            for start, end in windows:
                if end <= start or start < 0:
                    raise ValueError(
                        "scripted outage windows must be non-negative and "
                        "end after they start"
                    )

    @property
    def message_faults(self) -> bool:
        """True when the message layer (and the client-side timeout /
        backoff machinery) is engaged."""
        return (
            self.drop_probability > 0.0
            or self.spike_probability > 0.0
            or bool(self.partitions)
        )

    @property
    def node_faults(self) -> bool:
        """True when any node crash/recover schedule is requested."""
        return self.crash_rate_per_min > 0.0 or bool(self.scripted_outages)

    @property
    def active(self) -> bool:
        """True when the spec injects any fault at all."""
        return self.message_faults or self.node_faults


class FaultInjector:
    """Executes one :class:`FaultSpec` against a federation run.

    Holds the dedicated fault RNG streams (message decisions and churn
    schedules are drawn from *separate* sha-derived children of
    ``fault_seed``, so enabling churn does not shift the drop stream) and
    the fault counters the metrics layer snapshots at the end of a run.
    """

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self._msg_rng = random.Random(
            derive_fault_seed(spec.fault_seed, ("messages",))
        )
        self._churn_seed = derive_fault_seed(spec.fault_seed, ("churn",))
        self._churn_windows: Optional[Dict[int, List[Tuple[float, float]]]] = None
        # -- counters (snapshotted into MetricsCollector at end of run) --
        self.timeouts = 0
        self.lost_messages = 0
        self.degraded_assignments = 0
        self.backoff_retries = 0
        self.crash_count = 0

    # -- message faults ----------------------------------------------------------

    @property
    def message_faults(self) -> bool:
        """Mirror of :attr:`FaultSpec.message_faults`."""
        return self.spec.message_faults

    def drop_message(self) -> bool:
        """Decide (from the fault stream) whether one message leg is lost."""
        p = self.spec.drop_probability
        if p <= 0.0:
            return False
        return self._msg_rng.random() < p

    def spike_penalty_ms(self) -> float:
        """Extra latency (possibly zero) one message leg suffers."""
        spec = self.spec
        if spec.spike_probability <= 0.0:
            return 0.0
        if self._msg_rng.random() < spec.spike_probability:
            return spec.spike_ms
        return 0.0

    def partitioned(self, a: int, b: int, now_ms: float) -> bool:
        """True iff nodes ``a`` and ``b`` cannot exchange messages now."""
        for window in self.spec.partitions:
            if window.severs(a, b, now_ms):
                return True
        return False

    def reachable(
        self, origin: int, candidates: Sequence[int], now_ms: float
    ) -> Tuple[int, ...]:
        """``candidates`` minus the nodes partitioned away from ``origin``."""
        if not self.spec.partitions:
            return tuple(candidates)
        return tuple(
            nid
            for nid in candidates
            if not self.partitioned(origin, nid, now_ms)
        )

    def partition_ms(self) -> float:
        """Total wall-clock during which *any* partition window is active.

        Overlapping windows are unioned, so the value is the length of
        time the network was split at all — the paper-style "length of
        the (partition-induced) overload period".
        """
        intervals = sorted(
            (w.start_ms, w.end_ms) for w in self.spec.partitions
        )
        total = 0.0
        cur_start: Optional[float] = None
        cur_end = 0.0
        for start, end in intervals:
            if cur_start is None:
                cur_start, cur_end = start, end
            elif start <= cur_end:
                cur_end = max(cur_end, end)
            else:
                total += cur_end - cur_start
                cur_start, cur_end = start, end
        if cur_start is not None:
            total += cur_end - cur_start
        return total

    # -- client-side policy -------------------------------------------------------

    def backoff_ms(self, attempt: int) -> float:
        """Capped exponential resubmission delay for retry ``attempt``:
        ``backoff_base_ms * backoff_factor ** attempt``, clamped to
        ``backoff_cap_ms``.

        Monotone non-decreasing in ``attempt`` and bounded by
        ``backoff_cap_ms`` — the properties the hypothesis suite pins.
        """
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        spec = self.spec
        delay = spec.backoff_base_ms * (spec.backoff_factor**attempt)
        cap = spec.backoff_cap_ms
        return cap if delay > cap else delay

    # -- node churn ---------------------------------------------------------------

    def churn_windows(
        self, node_ids: Sequence[int], horizon_ms: float
    ) -> Dict[int, List[Tuple[float, float]]]:
        """The crash/recover schedule for this run (generated once).

        Per node, crash times follow a Poisson process at
        ``crash_rate_per_min`` with exponentially distributed downtimes;
        everything is drawn from the dedicated churn stream in ascending
        node-id order, so the schedule depends only on
        ``(fault_seed, node_ids, horizon_ms)``.
        """
        if self._churn_windows is not None:
            return self._churn_windows
        windows: Dict[int, List[Tuple[float, float]]] = {}
        spec = self.spec
        if spec.crash_rate_per_min > 0.0 and horizon_ms > 0.0:
            rng = random.Random(self._churn_seed)
            rate_per_ms = spec.crash_rate_per_min / 60_000.0
            for nid in sorted(node_ids):
                t = rng.expovariate(rate_per_ms)
                node_windows: List[Tuple[float, float]] = []
                while t < horizon_ms:
                    downtime = rng.expovariate(1.0 / spec.mean_downtime_ms)
                    node_windows.append((t, t + downtime))
                    t += downtime + rng.expovariate(rate_per_ms)
                if node_windows:
                    windows[nid] = node_windows
        self._churn_windows = windows
        return windows

    def install_node_faults(
        self, nodes: Mapping[int, "SimulatedNode"], horizon_ms: float
    ) -> None:
        """Schedule every scripted outage and churn window on the nodes.

        Layered directly on :meth:`SimulatedNode.schedule_outage`, so a
        crashed node drains its committed queue and refuses new work —
        the same fail/drain semantics the F1 experiment always had.
        """
        for nid in sorted(self.spec.scripted_outages):
            node = nodes.get(nid)
            if node is None:
                continue
            for start, end in self.spec.scripted_outages[nid]:
                node.schedule_outage(start, end)
        for nid, windows in sorted(
            self.churn_windows(sorted(nodes), horizon_ms).items()
        ):
            node = nodes.get(nid)
            if node is None:
                continue
            for start, end in windows:
                node.schedule_outage(start, end)
                self.crash_count += 1

    # -- counters -----------------------------------------------------------------

    def note_lost(self, count: int = 1) -> None:
        """Account ``count`` lost messages (drops and partition losses)."""
        self.lost_messages += count

    def note_timeouts(self, count: int = 1) -> None:
        """Account ``count`` peers that never answered within the timeout."""
        self.timeouts += count

    def note_degraded(self) -> None:
        """Account one graceful-degradation assignment (stale-cache path)."""
        self.degraded_assignments += 1

    def note_backoff(self) -> None:
        """Account one backoff-scheduled resubmission."""
        self.backoff_retries += 1
