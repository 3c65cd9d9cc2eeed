"""The partition policy: which shard owns which nodes, and which plane
owns which query class.

:func:`plan_shards` packs the catalog's affinity components onto shards
by bidding load; :func:`split_market_classes` turns a plan into class
ownership, a shard index for a class whose whole component landed on
one shard and ``-1`` for the coordinator's residual plane.  Both are
pure functions of the catalog, so every process computes the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic assignment of federation nodes to shards.

    ``shard_nodes[s]`` lists shard *s*'s nodes in ascending id order;
    ``loads[s]`` is the shard's bidding load — the number of
    (node, candidate-class) memberships it hosts.  :func:`plan_shards`
    balances the part of it that whole affinity components contribute,
    which is the part a shard's market plane prices.
    """

    num_shards: int
    shard_nodes: Tuple[Tuple[int, ...], ...]
    loads: Tuple[int, ...]

    @property
    def node_to_shard(self) -> Dict[int, int]:
        """Node id → owning shard index."""
        owner: Dict[int, int] = {}
        for shard, nodes in enumerate(self.shard_nodes):
            for nid in nodes:
                owner[nid] = shard
        return owner

    def imbalance(self) -> float:
        """Max-over-mean of the per-shard bidding loads (1.0 = perfect)."""
        if not self.loads:
            return 1.0
        mean = sum(self.loads) / len(self.loads)
        if mean <= 0:
            return 1.0
        return max(self.loads) / mean


def _affinity_components(
    candidates_by_class: Mapping[int, Sequence[int]],
) -> Tuple[Dict[int, List[int]], Dict[int, int]]:
    """The catalog's affinity components, by union-find over the classes'
    candidate sets (every class unions its bidders, so classes with
    overlapping bidder sets share a component).

    Returns ``(components, root_of)``: root → the component's nodes in
    ascending order, and node → root for every node that bids at all.
    The root is the component's smallest node id, whatever order the
    classes arrive in.
    """
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for candidates in candidates_by_class.values():
        members = sorted(candidates)
        for nid in members:
            parent.setdefault(nid, nid)
        for nid in members[1:]:
            ra, rb = find(members[0]), find(nid)
            if ra != rb:
                # Smaller root wins, keeping group identity canonical.
                if rb < ra:
                    ra, rb = rb, ra
                parent[rb] = ra
    root_of = {nid: find(nid) for nid in sorted(parent)}
    components: Dict[int, List[int]] = {}
    for nid, root in root_of.items():
        components.setdefault(root, []).append(nid)
    return components, root_of


def plan_shards(
    candidates_by_class: Mapping[int, Sequence[int]],
    node_ids: Sequence[int],
    num_shards: int,
) -> ShardPlan:
    """Partition ``node_ids`` into ``num_shards`` by class affinity and load.

    Whole affinity components (:func:`_affinity_components`) are packed
    by weight — a component's (node, class) membership count, the
    trace-free estimate of the pricing work its classes cost a plane:
    heaviest first (ties: smallest root node id), each onto the shard
    whose whole components weigh least so far (ties: lowest index).  A
    component is split only when it alone outweighs a shard's fair share
    ``total / num_shards``: such components' nodes are dealt round-robin
    over the shards, so their classes price on the coordinator's
    residual plane, the one otherwise idle processor.  Nodes bidding in
    no class carry no load and are dealt last, ascending, each to the
    shard holding the fewest nodes.  Purely a function of the catalog —
    no RNG, independent of mapping and ``node_ids`` order — so every
    process computes the identical plan.
    """
    if num_shards <= 0:
        raise ValueError("need at least one shard")
    components, root_of = _affinity_components(candidates_by_class)
    idle = sorted(set(node_ids) - set(root_of))
    if num_shards > len(root_of) + len(idle):
        raise ValueError("more shards than nodes")
    membership: Dict[int, int] = {}
    for candidates in candidates_by_class.values():
        for nid in candidates:
            membership[nid] = membership.get(nid, 0) + 1
    weight = {
        root: sum(membership[nid] for nid in nodes)
        for root, nodes in components.items()
    }
    share = sum(weight.values()) / num_shards
    shard_nodes: List[List[int]] = [[] for _ in range(num_shards)]
    packed = [0] * num_shards
    oversized: List[int] = []
    for root in sorted(components, key=lambda r: (-weight[r], r)):
        if weight[root] > share:
            oversized.extend(components[root])
        else:
            lightest = packed.index(min(packed))
            shard_nodes[lightest].extend(components[root])
            packed[lightest] += weight[root]
    for i, nid in enumerate(oversized):
        shard_nodes[i % num_shards].append(nid)
    for nid in idle:
        min(shard_nodes, key=len).append(nid)
    return ShardPlan(
        num_shards=num_shards,
        shard_nodes=tuple(tuple(sorted(nodes)) for nodes in shard_nodes),
        loads=tuple(
            sum(membership.get(nid, 0) for nid in nodes)
            for nodes in shard_nodes
        ),
    )


def split_market_classes(
    candidates_by_class: Mapping[int, Sequence[int]], plan: ShardPlan
) -> Dict[int, int]:
    """Market-plane ownership of every query class under ``plan``.

    Returns ``owner``: class index → shard index when the class's whole
    *affinity component* landed inside one shard of ``plan`` (the class
    is **shard-local**: that shard may own its full bid/price/refusal
    dynamics), or ``-1`` when the component's nodes span shards (the
    class belongs to the coordinator's **residual plane**).

    Ownership is decided per component, never per class: two classes
    sharing a bidder are coupled through that node's busy clock and
    Section 5.1 max-price latch, so they must price inside one plane
    together — a class whose own candidates fit one shard still goes
    residual if a sibling class drags the component across the boundary.
    """
    components, root_of = _affinity_components(candidates_by_class)
    node_to_shard = plan.node_to_shard
    component_owner: Dict[int, int] = {}
    for root, nodes in components.items():
        shards = {node_to_shard[nid] for nid in nodes}
        component_owner[root] = shards.pop() if len(shards) == 1 else -1
    owner: Dict[int, int] = {}
    for class_index, candidates in candidates_by_class.items():
        # A class nobody bids in belongs to no shard.
        owner[class_index] = (
            component_owner[root_of[min(candidates)]] if candidates else -1
        )
    return owner
