"""Property tests for the price epoch (hypothesis).

The period engine keys its plan cache on a row's price epoch, and its
twin tests hold that epoch to the listing agent's, so the agent's epoch
must move exactly when a price does: these tests drive random
interleavings of ``_raise_price`` / ``_lower_price`` — the only two
operations that move prices — and check it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qant import QantPricingAgent
from repro.core.supply import CapacitySupplySet

costs_lists = st.lists(
    st.floats(min_value=50.0, max_value=1000.0), min_size=2, max_size=5
)
capacities = st.floats(min_value=100.0, max_value=2000.0)
# (kind, class pick, leftover) — class pick is reduced modulo K inside.
price_ops = st.lists(
    st.tuples(
        st.sampled_from(["raise", "lower"]),
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=0.1, max_value=20.0),
    ),
    max_size=25,
)


def _apply(agent: QantPricingAgent, ops) -> None:
    for kind, pick, leftover in ops:
        class_index = pick % agent.num_classes
        if kind == "raise":
            agent._raise_price(class_index)
        else:
            agent._lower_price(class_index, leftover)


class TestEpochTokenCache:
    @settings(max_examples=40, deadline=None)
    @given(costs_lists, capacities, price_ops)
    def test_epoch_and_max_price_invariants(self, costs, capacity, ops):
        agent = QantPricingAgent(CapacitySupplySet(costs, capacity))
        last_epoch = agent.price_epoch
        last_prices = list(agent._price_values)
        for op in ops:
            _apply(agent, [op])
            prices = list(agent._price_values)
            if prices == last_prices:
                # No actual change -> the epoch (plan-cache key) must not move.
                assert agent.price_epoch == last_epoch
            else:
                assert agent.price_epoch > last_epoch
            # The incrementally maintained overload signal never drifts.
            assert agent.max_price == max(prices)
            last_epoch = agent.price_epoch
            last_prices = prices
