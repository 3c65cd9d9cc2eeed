"""System capacity estimation for workload scaling.

Several experiments express load as a percentage of *total system
capacity* (Fig. 5a sweeps 10–300 %, Fig. 5b runs at 80 %).  Capacity here
is the maximum sustainable aggregate throughput (queries per millisecond)
for a given class mix: the largest ``R`` such that arrival rates
``R * mix_k`` can be served when every node divides its time optimally
among the classes it can evaluate.

This is a small linear program::

    maximise R
    s.t.  sum_k f_ik <= 1                 for every node i
          sum_i f_ik / e_ik >= R * mix_k  for every class k
          f_ik = 0 where node i cannot evaluate class k

solved exactly by HiGHS through :func:`scipy.optimize.linprog`.  SciPy is
a runtime dependency; it is imported inside the solve, so code that never
asks for a capacity never loads it.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Sequence

import numpy as np

__all__ = [
    "system_capacity_qpms",
]


def system_capacity_qpms(
    cost_matrix_ms: Sequence[Sequence[float]],
    mix: Sequence[float],
) -> float:
    """Max sustainable throughput in queries/ms for the given class mix.

    ``cost_matrix_ms[i][k]`` is node *i*'s execution time for class *k*
    (``inf`` = ineligible); ``mix`` is the workload's class proportions
    (normalised internally).
    """
    # Sums here run left to right: builtin ``sum`` compensates its
    # rounding from Python 3.12 on.
    total_mix = reduce(operator.add, mix, 0.0)
    if total_mix <= 0:
        raise ValueError("the class mix must have positive total weight")
    shares = [m / total_mix for m in mix]
    return _capacity_linprog(cost_matrix_ms, shares)


def _capacity_linprog(
    costs: Sequence[Sequence[float]], mix: Sequence[float]
) -> float:
    from scipy.optimize import linprog
    from scipy.sparse import coo_array

    weights = np.asarray(mix, dtype=float)
    matrix = np.asarray(costs, dtype=float).reshape(-1, len(weights))
    (num_nodes, num_classes), cost = matrix.shape, matrix.ravel()
    cells = cost.size
    node, k = np.divmod(np.arange(cells), num_classes)
    eligible = ~np.isinf(cost)
    mixed = np.flatnonzero(weights)
    # Variables f_ik (at i * K + k), then R.  Rows: the node budgets
    # sum_k f_ik <= 1, then the class covers R * mix_k - sum_i f_ik / e_ik
    # <= 0.  Zero entries are left out, as a dense matrix's conversion
    # drops them, so HiGHS gets the dense assembly's problem.
    values = (np.ones(cells), -1.0 / cost[eligible], weights[mixed])
    rows = (node, num_nodes + k[eligible], num_nodes + mixed)
    cols = (np.arange(cells), np.flatnonzero(eligible), np.full(len(mixed), cells))
    a_ub = coo_array(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
        shape=(num_nodes + num_classes, cells + 1),
    )
    b_ub = np.repeat([1.0, 0.0], [num_nodes, num_classes])
    bounds = np.zeros((cells + 1, 2))
    bounds[:, 1] = np.append(eligible, np.inf)  # ineligible f_ik pinned to 0
    c = np.zeros(cells + 1)
    c[-1] = -1.0  # maximise R

    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not result.success:
        raise RuntimeError("capacity LP failed: %s" % result.message)
    return float(result.x[-1])
