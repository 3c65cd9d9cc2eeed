"""Unit tests for repro.sim.capacity (the workload-scaling LP)."""

import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.setups import two_query_world
from repro.sim.capacity import _capacity_linprog, system_capacity_qpms

INF = math.inf


def _dense_capacity_linprog(costs, mix):
    """The LP as a dense list-of-lists problem: the differential reference
    for the sparse assembly in :func:`_capacity_linprog`."""
    from scipy.optimize import linprog

    num_nodes, num_classes = len(costs), len(mix)
    num_vars = num_nodes * num_classes + 1  # f_ik at i * K + k, then R
    c = [0.0] * num_vars
    c[-1] = -1.0
    a_ub, b_ub = [], []
    for i in range(num_nodes):
        row = [0.0] * num_vars
        for k in range(num_classes):
            row[i * num_classes + k] = 1.0
        a_ub.append(row)
        b_ub.append(1.0)
    for k in range(num_classes):
        row = [0.0] * num_vars
        for i in range(num_nodes):
            if not math.isinf(costs[i][k]):
                row[i * num_classes + k] = -1.0 / costs[i][k]
        row[-1] = mix[k]
        a_ub.append(row)
        b_ub.append(0.0)
    bounds = [
        (0.0, 0.0) if math.isinf(costs[i][k]) else (0.0, 1.0)
        for i in range(num_nodes)
        for k in range(num_classes)
    ]
    bounds.append((0.0, None))
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not result.success:
        raise RuntimeError("capacity LP failed: %s" % result.message)
    return float(result.x[-1])


@st.composite
def _lp_instances(draw):
    """Cost matrices with ~30 % ineligible cells, some wholly ineligible
    classes, and mixes with zero weights (all zero included)."""
    num_nodes = draw(st.integers(1, 40))
    num_classes = draw(st.integers(1, 6))
    dark = draw(st.sets(st.integers(0, num_classes - 1), max_size=num_classes))
    cell = st.one_of(
        st.floats(1.0, 20_000.0), st.floats(1.0, 20_000.0), st.just(INF)
    )
    costs = [
        [INF if k in dark else draw(cell) for k in range(num_classes)]
        for __ in range(num_nodes)
    ]
    weight = st.one_of(st.just(0.0), st.floats(0.01, 10.0))
    mix = draw(st.lists(weight, min_size=num_classes, max_size=num_classes))
    return costs, mix


def _exact_two_class_capacity(costs):
    """The exact optimum of the LP at the 2:1 mix, by the two-class rule.

    Each node's rates ``1 / e_ik`` are exact fractions of its float
    costs.  Nodes go in order of comparative advantage ``e_i1 / e_i0``
    (class-0-only nodes first, class-1-only nodes last).  Class 0 takes
    whole nodes until its throughput would pass twice class 1's; the
    node where that happens is split so that the two meet exactly.
    Shares no code with :mod:`repro.sim.capacity`.
    """
    rates = []
    for e0, e1 in costs:
        r0 = Fraction(0) if math.isinf(e0) else 1 / Fraction(e0)
        r1 = Fraction(0) if math.isinf(e1) else 1 / Fraction(e1)
        if r0 or r1:
            rates.append((r0, r1))

    def advantage(rate):
        r0, r1 = rate
        if not r1:
            return (0, 0)
        if not r0:
            return (2, 0)
        return (1, -r0 / r1)

    rates.sort(key=advantage)
    t0, t1 = Fraction(0), sum(r1 for __, r1 in rates)
    for r0, r1 in rates:
        if t0 + r0 >= 2 * (t1 - r1):
            # Split this node: a share x of it serves class 0, so that
            # t0 + x r0 == 2 (t1 - x r1); then R = t0 + t1 = 1.5 t0.
            x = (2 * t1 - t0) / (r0 + 2 * r1)
            return Fraction(3, 2) * (t0 + x * r0)
        t0, t1 = t0 + r0, t1 - r1
    return Fraction(0)


class TestCapacity:
    def test_single_node_single_class(self):
        # One node, 100 ms per query -> 0.01 queries per ms.
        assert system_capacity_qpms([[100.0]], [1.0]) == pytest.approx(
            0.01, rel=1e-3
        )

    def test_two_identical_nodes_double_capacity(self):
        one = system_capacity_qpms([[100.0]], [1.0])
        two = system_capacity_qpms([[100.0], [100.0]], [1.0])
        assert two == pytest.approx(2 * one, rel=1e-3)

    def test_mix_weighting(self):
        # One node; class 0 costs 100, class 1 costs 300; equal mix.
        # Per 'unit' of mixed traffic: 0.5*100 + 0.5*300 = 200 ms.
        cap = system_capacity_qpms([[100.0, 300.0]], [1.0, 1.0])
        assert cap == pytest.approx(1.0 / 200.0, rel=1e-3)

    def test_specialisation_exploited(self):
        # Two nodes, each fast at a different class; equal mix.  The
        # optimum dedicates each node to its fast class.
        costs = [[100.0, 1000.0], [1000.0, 100.0]]
        cap = system_capacity_qpms(costs, [1.0, 1.0])
        assert cap == pytest.approx(0.02, rel=1e-2)

    def test_ineligible_class_limits_capacity(self):
        # Class 1 only on node 1.
        costs = [[100.0, INF], [100.0, 100.0]]
        cap = system_capacity_qpms(costs, [0.0, 1.0])
        assert cap == pytest.approx(0.01, rel=1e-3)

    def test_mix_normalisation(self):
        costs = [[100.0, 200.0]]
        assert system_capacity_qpms(costs, [2.0, 1.0]) == pytest.approx(
            system_capacity_qpms(costs, [4.0, 2.0]), rel=1e-6
        )

    def test_zero_mix_rejected(self):
        with pytest.raises(ValueError):
            system_capacity_qpms([[100.0]], [0.0])

    def test_unservable_class_gives_zero_capacity(self):
        cap = system_capacity_qpms([[INF]], [1.0])
        assert cap == pytest.approx(0.0, abs=1e-6)


class TestExactOptimum:
    """HiGHS against an exact two-class optimum on the Figs. 3-5 worlds.

    On the 20 worlds below, HiGHS returned the correctly rounded
    optimum in 8 and was within 5 ulps (relative 9.6e-16, at n = 1000,
    seed 0) in all; the bound leaves room for a solver's roundoff, not
    for a wrong vertex.
    """

    def test_oracle_on_a_hand_instance(self):
        # Node 0 only serves class 0 (10/s); node 1 serves class 0 at
        # 10/s or class 1 at 20/s.  The 2:1 mix splits node 1: x = 0.6
        # of it on class 0 gives t0 = 16/s, t1 = 8/s, R = 24/s.
        costs = [[100.0, INF], [100.0, 50.0]]
        assert _exact_two_class_capacity(costs) == Fraction(24, 1000)
        assert system_capacity_qpms(costs, [2.0, 1.0]) == pytest.approx(
            0.024, rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("num_nodes", [10, 30, 100, 300, 1000])
    def test_lp_meets_the_exact_optimum(self, num_nodes, seed):
        costs = two_query_world(num_nodes, seed).cost_matrix()
        exact = _exact_two_class_capacity(costs)
        capacity = system_capacity_qpms(costs, [2.0, 1.0])
        assert abs(Fraction(capacity) - exact) <= exact * Fraction(1, 10**12)


class TestSparseAssembly:
    @settings(max_examples=150, deadline=None)
    @given(_lp_instances())
    def test_sparse_lp_matches_dense_reference_bit_for_bit(self, instance):
        costs, mix = instance
        try:
            expected = _dense_capacity_linprog(costs, mix)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                _capacity_linprog(costs, mix)
            return
        assert _capacity_linprog(costs, mix) == expected


class TestScipyRequired:
    def test_blocked_scipy_raises_instead_of_approximating(self, monkeypatch):
        costs = two_query_world(30).cost_matrix()
        for name in ("scipy", "scipy.optimize", "scipy.sparse"):
            monkeypatch.setitem(sys.modules, name, None)
        with pytest.raises(ImportError):
            system_capacity_qpms(costs, [2.0, 1.0])


#: A plane run's set-up, as the ``zipf_planes_*`` benchmark workloads
#: build it: no capacity is solved, so SciPy must stay unloaded.
_PLANE_SETUP = """
import sys
import repro, repro.sim.capacity
from repro.experiments.setups import zipf_world
from repro.sim import ShardedFederation
world = zipf_world(300, num_classes=120, seed=0)
federation = ShardedFederation(
    world.specs, world.placement, world.classes, world.cost_model,
    shards=2, mode="inline",
)
federation.close()
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
"""


def test_plane_setup_leaves_scipy_unloaded():
    """SciPy is imported inside the capacity solve, not at module level:
    loading it costs a process tens of MiB, which a plane run that never
    solves a capacity must not pay."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    completed = subprocess.run(
        [sys.executable, "-c", _PLANE_SETUP],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
