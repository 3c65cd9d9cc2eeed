"""Federation-wide numpy mirrors of per-node scheduler state.

The scalar allocators probe nodes one at a time (``estimated_completion_ms``
per candidate per query).  At 1,000 nodes that per-query Python loop is the
dominant cost of the fan-out, so :class:`FleetArrays` keeps one shared
``slot_free`` vector — mirrored from each node's FIFO watermark on every
:meth:`~repro.sim.node.SimulatedNode.enqueue` — plus per-class row/cost
views, letting an allocator compute every candidate's completion estimate
with one vectorised expression that is bit-identical to the scalar
probes.  Every federation builds one, so allocators may rely on it.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

__all__ = [
    "ClassView",
    "FleetArrays",
]


class ClassView:
    """Row indices and execution costs of one class's candidate set."""

    __slots__ = ("ids", "rows", "costs")

    def __init__(self, ids, rows, costs) -> None:
        self.ids = ids  # candidate node ids, ascending (int64 array)
        self.rows = rows  # fleet rows of those ids (intp array)
        self.costs = costs  # per-candidate execution cost (float64 array)


class FleetArrays:
    """Shared vectorised view of a federation's node schedulers."""

    __slots__ = ("node_ids", "row_of", "slot_free", "_views")

    def __init__(
        self,
        node_ids: Tuple[int, ...],
        row_of: Dict[int, int],
        slot_free,
    ) -> None:
        self.node_ids = node_ids
        self.row_of = row_of
        #: ``slot_free[row_of[nid]]`` mirrors node ``nid``'s watermark.
        self.slot_free = slot_free
        self._views: Dict[int, Tuple[object, ClassView]] = {}

    @staticmethod
    def build(nodes: Mapping[int, object]) -> "FleetArrays":
        """Mirror ``nodes`` (id -> :class:`SimulatedNode`) into arrays."""
        node_ids = tuple(sorted(nodes))
        row_of = {nid: row for row, nid in enumerate(node_ids)}
        slot_free = np.zeros(len(node_ids), dtype=float)
        fleet = FleetArrays(node_ids, row_of, slot_free)
        for nid in node_ids:
            nodes[nid].attach_fleet(slot_free, row_of[nid])
        return fleet

    def class_view(
        self,
        class_index: int,
        candidates: Sequence[int],
        nodes: Mapping[int, object],
    ) -> ClassView:
        """Rows/costs for ``candidates`` of class ``class_index``.

        Cached per class against the exact candidate tuple object — the
        outage-free fast path hands out the registry's tuple unchanged, so
        an identity check suffices and a changed candidate set (churn,
        outages) rebuilds the view.
        """
        cached = self._views.get(class_index)
        if cached is not None and cached[0] is candidates:
            return cached[1]
        row_of = self.row_of
        rows = np.array(
            [row_of[nid] for nid in candidates], dtype=np.intp
        )
        ids = np.array(candidates, dtype=np.int64)
        costs = np.array(
            [nodes[nid]._costs[class_index] for nid in candidates],
            dtype=float,
        )
        view = ClassView(ids, rows, costs)
        self._views[class_index] = (candidates, view)
        return view

    def estimates(self, view: ClassView, now: float):
        """Completion estimates for every candidate of ``view`` at ``now``.

        ``where(sf > now, sf, now) + cost`` is element-for-element the
        scalar ``start = max(now, earliest); start + cost`` probe, so the
        floats (and any downstream argmin tie-breaks) are bit-identical.
        """
        sf = self.slot_free[view.rows]
        return np.where(sf > now, sf, now) + view.costs
