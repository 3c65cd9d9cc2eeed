"""A market plane's per-boundary and per-assignment arithmetic runs over
its lanes: the eq. 4 solve, greedy and execution replay, each held bit
for bit to the dense node x class (or numpy) program it replaced, which
is kept here as the oracle; and the premise that makes the lane solve
eq. 4, that a plane's finite costs are exactly its lanes, for every plane
the sharded engine builds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.setups import zipf_world
from repro.sim import ShardedFederation, ShardPlan
from repro.sim import shards as shards_module
from repro.sim.shards import _MarketPlane

from test_shards import _plane_init

FLOOR, CAP = 0.01, 4.0


# -- the oracles: the plane's dense and numpy forms ----------------------------


def _dense_costs(plane, init):
    return np.array(init["costs"], dtype=float).reshape(
        len(plane._ids), plane._num_classes
    )


def _dense_period_solve(plane, costs, credit, now):
    """The dense eq. 4 solve the lane solve replaced, over every node x
    class cell; ``credit`` is the dense carry-over, updated in place.
    Returns the new remaining supply of the plane's lanes."""
    rows, cols = plane._flat_rows, plane._flat_cols
    prices = np.ones((len(plane._ids), plane._num_classes), dtype=float)
    prices[rows, cols] = plane._Vf
    backlog = plane._exec_busy - now
    np.clip(backlog, 0.0, None, out=backlog)
    free = plane._allow - backlog
    np.clip(free, 0.0, None, out=free)
    D = prices / costs
    top = D.max(axis=1)
    W = np.zeros_like(D)
    live = top > 0.0
    if live.any():
        W[live] = (D[live] / top[live, None]) ** 2.0
    total = W.sum(axis=1)
    total[total == 0.0] = 1.0
    counts = (free[:, None] * W / total[:, None]) / costs
    credit += counts
    whole = np.floor(credit + 1e-9)
    credit -= whole
    return whole[rows, cols]


def _numpy_greedy(plane, costs, busy, class_index, now):
    """Greedy as it was: a numpy gather, ``maximum`` and ``argmin``."""
    cand = plane._block.members[class_index]
    est = np.maximum(busy[cand], now)
    est += costs[cand, class_index]
    winner = int(est.argmin())
    row = int(cand[winner])
    busy[row] = float(est[winner])
    return plane._ids[row]


def _numpy_replay(plane, costs, busy, ebusy, now, assignments):
    """Execution replay as it was: 2-D cost indexing, numpy clocks.
    Draws from and appends to ``plane``'s own streams and columns."""
    base, jitter = plane._base, plane._jitter
    for qid, class_index, origin, arrival, resub, node in assignments:
        i = plane._index[node]
        if jitter == 0.0:
            delay = base + base
        else:
            rnd = plane._rngs[i].random
            delay = (base + jitter * rnd()) + (base + jitter * rnd())
        assigned = now + delay
        prior = ebusy[i]
        start = prior if prior > assigned else assigned
        finish = start + costs[i, class_index]
        ebusy[i] = finish
        for column, value in zip(
            plane._cols,
            (qid, class_index, origin, arrival, assigned, node, start,
             finish, resub),
        ):
            column.append(value)
        busy[i] = finish


# -- drawn planes ---------------------------------------------------------------

_COST = st.floats(0.5, 5_000.0, allow_nan=False)


@st.composite
def _planes(draw, min_nodes=0):
    """A plane spec of 0-7 nodes and 1-6 or 9-30 classes (a row of more
    than eight cells is where numpy's row sum goes pairwise): each cell
    ``inf`` or a drawn cost, so a class may have no bidder and a node no
    class, with drawn allowances and latency jitter."""
    num_nodes = draw(st.integers(min_nodes, 7))
    num_classes = draw(st.one_of(st.integers(1, 6), st.integers(9, 30)))
    costs = [
        [draw(st.one_of(st.just(math.inf), _COST)) for _ in range(num_classes)]
        for _ in range(num_nodes)
    ]
    if not num_nodes:
        init = _plane_init([[math.inf] * num_classes])
        init.update(
            node_ids=[], costs=[], allowances=[], latency_seeds=[],
            classes=[[k, []] for k in range(num_classes)],
        )
    else:
        init = _plane_init(costs, cap=CAP)
        init["allowances"] = draw(
            st.lists(
                st.floats(0.0, 20_000.0), min_size=num_nodes, max_size=num_nodes
            )
        )
    init["jitter_ms"] = draw(st.sampled_from([0.0, 0.5]))
    return init


def _draw_clocks(draw, plane, now):
    """Drawn backlogs: each execution clock up to 1 s before (no backlog)
    or 3 s after ``now``."""
    n = len(plane._ids)
    plane._exec_busy[:] = [
        now + x for x in draw(
            st.lists(st.floats(-1_000.0, 3_000.0), min_size=n, max_size=n)
        )
    ]


# -- the eq. 4 solve -----------------------------------------------------------


@given(_planes(), st.data())
@settings(max_examples=150, deadline=None)
def test_lane_solve_is_the_dense_solve(init, data):
    """Several boundaries with carried credit: the supply after each, and
    every lane's credit, equal the dense program's bit for bit, and the
    dense credit off the lanes never leaves zero."""
    plane = _MarketPlane(init)
    costs = _dense_costs(plane, init)
    credit = np.zeros(costs.shape)
    rows, cols = plane._flat_rows, plane._flat_cols
    lanes = len(rows)
    # The bind-time solve, which the plane ran at construction.
    _dense_period_solve(plane, costs, credit, 0.0)
    assert plane._credit.tobytes() == credit[rows, cols].tobytes()
    now = 0.0
    for _ in range(data.draw(st.integers(1, 5))):
        now += data.draw(st.floats(0.0, 2_000.0))
        plane._Vf[:] = data.draw(
            st.lists(st.floats(FLOOR, CAP), min_size=lanes, max_size=lanes)
        )
        _draw_clocks(data.draw, plane, now)
        expected = _dense_period_solve(plane, costs, credit, now)
        plane._period_solve(now)
        assert plane._Rf.tobytes() == expected.tobytes()
        assert plane._credit.tobytes() == credit[rows, cols].tobytes()
        off = np.ones(costs.shape, dtype=bool)
        off[rows, cols] = False
        assert not credit[off].any()


def test_zero_node_plane_solves_nothing():
    init = _plane_init([[math.inf, math.inf]])
    init.update(
        node_ids=[], costs=[], allowances=[], latency_seeds=[],
        classes=[[0, []], [1, []]],
    )
    plane = _MarketPlane(init)
    plane._period_solve(500.0)
    assert plane._Rf.size == plane._credit.size == 0
    assert plane.boundary(500.0) == 0


def test_lane_solve_carries_credit_across_boundaries():
    """The drawn test's premise, on a fixed plane: credit is fractional
    and carried, so a boundary's supply depends on the previous one."""
    init = _plane_init([[300.0, 700.0], [450.0, math.inf], [math.inf, 90.0]])
    plane = _MarketPlane(init)
    costs = _dense_costs(plane, init)
    credit = np.zeros(costs.shape)
    _dense_period_solve(plane, costs, credit, 0.0)
    assert plane._credit.tobytes() == credit[
        plane._flat_rows, plane._flat_cols
    ].tobytes()
    assert 0.0 < plane._credit.max() < 1.0
    for now in (500.0, 1_000.0, 1_500.0):
        expected = _dense_period_solve(plane, costs, credit, now)
        plane._period_solve(now)
        assert plane._Rf.tobytes() == expected.tobytes()


# -- greedy and replay ---------------------------------------------------------


@given(_planes(min_nodes=1), st.data())
@settings(max_examples=120, deadline=None)
def test_greedy_and_replay_match_their_numpy_forms(init, data):
    """A drawn run of greedy exchanges and replays on one plane against
    the numpy forms on a twin plane: the same winners, clocks to the bit
    and outcome columns."""
    plane, twin = _MarketPlane(init), _MarketPlane(init)
    costs = _dense_costs(twin, init)
    busy, ebusy = twin._busy.copy(), twin._exec_busy.copy()
    tradable = [k for k, lanes in plane._cost_at.items() if lanes]
    if not tradable:
        return
    now, qid = 0.0, 0
    for _ in range(data.draw(st.integers(1, 6))):
        now += data.draw(st.sampled_from([0.0, 1.0, 37.5, 400.0]))
        assignments = []
        for k in data.draw(st.lists(st.sampled_from(tradable), max_size=6)):
            node = plane._greedy(k, now)
            assert node == _numpy_greedy(twin, costs, busy, k, now)
            assignments.append((qid, k, qid % 3, now, 0, node))
            qid += 1
        assert plane._busy.tobytes() == busy.tobytes()
        if assignments:
            plane._replay(now, assignments)
            _numpy_replay(twin, costs, busy, ebusy, now, assignments)
        assert plane._busy.tobytes() == busy.tobytes()
        assert plane._exec_busy.tobytes() == ebusy.tobytes()
        assert plane._cols == twin._cols


def test_greedy_pools_a_class_nobody_can_evaluate():
    plane = _MarketPlane(_plane_init([[300.0, math.inf]]))
    assert plane._greedy(1, 0.0) is None
    assert plane._busy.tolist() == [0.0]


# -- a plane's finite costs are its lanes ---------------------------------------


def _offending_init():
    return _plane_init([[300.0, 700.0], [450.0, math.inf]])


def test_plane_refuses_a_finite_cost_off_its_lanes():
    init = _offending_init()
    init["node_ids"] = [4, 9]
    init["classes"] = [[0, [4, 9]], [1, []]]
    with pytest.raises(ValueError, match=r"node 4 has the finite cost 700\.0 "
                       r"for class 1"):
        _MarketPlane(init)


def test_plane_refuses_a_lane_without_a_finite_cost():
    init = _offending_init()
    init["node_ids"] = [4, 9]
    init["classes"] = [[0, [4, 9]], [1, [4, 9]]]
    with pytest.raises(ValueError, match=r"node 9 has a lane with the "
                       r"non-finite cost inf for class 1"):
        _MarketPlane(init)


def _random_plan(order):
    """A ``plan_shards`` stand-in dealing nodes to shards in ``order``'s
    turn: components split across shards, so classes go residual."""

    def plan(candidates_by_class, node_ids, num_shards):
        nodes = sorted(node_ids)
        shard_nodes = tuple(
            tuple(sorted(nodes[i] for i in order[s::num_shards]))
            for s in range(num_shards)
        )
        loads = tuple(
            sum(n in cand for cand in candidates_by_class.values() for n in part)
            for part in shard_nodes
        )
        return ShardPlan(
            num_shards=num_shards, shard_nodes=shard_nodes, loads=loads
        )

    return plan


def _built_planes(world, num_shards, planner=None):
    """Every plane init a ``ShardedFederation`` builds over ``world``
    (``planner`` in place of ``plan_shards``), and its residual classes."""
    inits = []

    class Recording(_MarketPlane):
        def __init__(self, init):
            inits.append(init)
            super().__init__(init)

    with pytest.MonkeyPatch.context() as patch:
        # The residual plane, and every shard's (its worker core).
        patch.setattr(shards_module, "_MarketPlane", Recording)
        patch.setitem(shards_module._CORE_KINDS, "market", Recording)
        if planner is not None:
            patch.setattr(shards_module, "plan_shards", planner)
        federation = ShardedFederation(
            world.specs, world.placement, world.classes, world.cost_model,
            shards=num_shards, mode="inline",
        )
        federation.close()
    assert len(inits) == num_shards + 1
    return inits, federation._residual_classes


def _assert_finite_costs_are_lanes(init):
    costs = np.array(init["costs"], dtype=float).reshape(
        len(init["node_ids"]), init["num_classes"]
    )
    lanes = np.zeros(costs.shape, dtype=bool)
    row = {nid: i for i, nid in enumerate(init["node_ids"])}
    for k, cand in init["classes"]:
        for nid in cand:
            lanes[row[nid], k] = True
    assert (np.isfinite(costs) == lanes).all()


@given(
    st.integers(0, 10_000),
    st.integers(8, 40),
    st.integers(2, 12),
    st.integers(2, 4),
    st.data(),
)
@settings(max_examples=25, deadline=None)
def test_every_built_plane_has_its_lanes_as_finite_costs(
    seed, num_nodes, num_classes, num_shards, data
):
    """Over ``plan_shards`` and ``split_market_classes`` on drawn Zipf
    worlds, and on drawn node deals that send classes to the residual
    plane, every plane init's finite cost cells are exactly its lanes."""
    world = zipf_world(
        num_nodes, num_relations=60, num_classes=num_classes, seed=seed
    )
    planner = None
    if data.draw(st.booleans()):
        planner = _random_plan(data.draw(st.permutations(range(num_nodes))))
    inits, _ = _built_planes(world, num_shards, planner)
    for init in inits:
        _assert_finite_costs_are_lanes(init)


@pytest.mark.parametrize("num_shards", [3, 4])
def test_residual_planes_have_their_lanes_as_finite_costs(num_shards):
    """The drawn test's residual case, made certain: nodes dealt in turn
    split components, and the residual plane that prices them passes."""
    world = zipf_world(40, num_relations=60, num_classes=12, seed=3)
    inits, residual = _built_planes(
        world, num_shards, _random_plan(list(range(40)))
    )
    (plane,) = [
        init for init in inits if [k for k, _ in init["classes"]] == residual
    ]
    assert residual and plane["node_ids"]
    for init in inits:
        _assert_finite_costs_are_lanes(init)
