"""Quickstart: query markets in five minutes.

Walks through the paper's core ideas on its own worked example (Section 1
/ Figure 1):

1. the load balancer vs the throughput-optimal allocation (662 ms vs
   431 ms average response);
2. Pareto optimality of the QA allocation, checked by enumeration;
3. a market of QA-NT pricing agents *discovering* that allocation on its
   own: constant demand drives excess demand to zero (Proposition 3.1).

Run:  python examples/quickstart.py
"""

import random

from repro.core import CapacitySupplySet, QantParameters, QantPricingAgent
from repro.experiments.fig1 import EXECUTION_TIMES_MS, run_fig1


def main() -> None:
    # --- 1 + 2: the worked example, recomputed and verified ------------------
    fig1 = run_fig1()
    print("Figure 1 — load balancing vs throughput-optimal allocation")
    print(fig1.render())
    print()
    print("QA Pareto-dominates LB:", fig1.qa_dominates_lb)
    print("QA is Pareto optimal:  ", fig1.qa_is_pareto_optimal)
    print()

    # --- 3: let the market find it -------------------------------------------
    # One QA-NT agent per node; capacities are one 500 ms period.  Corner
    # ("greedy") supply shows the specialisation crisply: at the market's
    # fixed point N1 sells only q2 and N2 only q1 — exactly the QA
    # allocation of Figure 1.
    parameters = QantParameters(adjustment=0.1, supply_method="greedy")
    agents = [
        QantPricingAgent(CapacitySupplySet(times, 500.0), parameters)
        for times in EXECUTION_TIMES_MS  # N1: q1 400, q2 100; N2: 450, 500
    ]
    rng = random.Random(7)
    backlog = []
    print("Market discovery — consumption under constant at-capacity load:")
    for period in range(1, 31):
        # Demand at system capacity: one q1 (N2's whole period) and five
        # q2 (N1's whole period), plus whatever no node took last period.
        requests = backlog + [0] + [1] * 5
        rng.shuffle(requests)
        for agent in agents:
            agent.begin_period()
        consumed, backlog = [0, 0], []
        order = list(range(len(agents)))
        for class_index in requests:
            # The client asks the nodes one by one; the first to offer
            # gets the query ("servers ... immediately accept").
            rng.shuffle(order)
            for i in order:
                if agents[i].would_offer(class_index):
                    agents[i].accept(class_index)
                    consumed[class_index] += 1
                    break
            else:
                backlog.append(class_index)
        for agent in agents:
            agent.end_period()
        supply = [tuple(int(x) for x in a.planned_supply) for a in agents]
        if period % 5 == 0 or period == 1:
            print(
                "  period %2d: consumed=%s planned supply: N1=%s N2=%s"
                % (period, tuple(consumed), *supply)
            )
    print()
    print("Final per-period consumption:", tuple(consumed))
    print("Node specialisation: N1=%s N2=%s" % tuple(supply))
    print(
        "The invisible hand found Figure 1's QA allocation:"
        if supply == [(0, 5), (1, 0)]
        else "Specialisation still drifting (non-tatonnement is stochastic):"
    )
    print("  N1 sells only the cheap q2 queries, N2 only q1.")


if __name__ == "__main__":
    main()
