"""repro — reproduction of "Autonomic Query Allocation based on
Microeconomics Principles" (Pentaris & Ioannidis, ICDE 2007).

The package implements the paper's query-market mechanism (QA-NT) and
every substrate its evaluation depends on:

* :mod:`repro.core` — query markets: vectors, Pareto optimality, supply
  optimisation, tatonnement, and the QA-NT pricing agent;
* :mod:`repro.sim` — a discrete-event simulator of a federation of
  heterogeneous autonomous RDBMSs;
* :mod:`repro.catalog` — the synthetic mirrored catalog (Table 3);
* :mod:`repro.query` — SJPS query classes, SQL rendering, cost model,
  and history-calibrated estimators;
* :mod:`repro.workload` — sinusoid, Zipf and uniform workload generators;
* :mod:`repro.allocation` — QA-NT plus every baseline of Section 4;
* :mod:`repro.protocol` — the wire: typed messages, the versioned
  codec, framing, and the simulator's fan-out charge record;
* :mod:`repro.dbms` — a real substrate: SQLite server nodes that answer
  the protocol, and the real-time client that sends them its messages
  (the paper's Section 5.2 deployment);
* :mod:`repro.experiments` — one driver per paper table and figure.

Subpackages load lazily (PEP 562): ``repro.protocol`` is importable
without dragging in the simulator stack, and nothing else pays import
cost it does not use.
"""

import importlib

__version__ = "1.0.0"

_SUBPACKAGES = frozenset(
    {
        "allocation",
        "catalog",
        "core",
        "protocol",
        "query",
        "sim",
        "workload",
    }
)

__all__ = ["__version__", *sorted(_SUBPACKAGES)]


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(
        "module %r has no attribute %r" % (__name__, name)
    )


def __dir__():
    return sorted(set(globals()) | _SUBPACKAGES)
