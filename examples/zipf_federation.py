"""Heterogeneous federation under a bursty Zipf workload.

Generates the paper's Table 3 world — a mirrored catalog of relations
spread over heterogeneous RDBMSs, select-join-project-sort query classes
with up to dozens of joins — and studies how QA-NT's advantage over
Greedy changes with the workload's mean inter-arrival time (the Figure 6
experiment at its ``small`` scale).

Run:  python examples/zipf_federation.py
"""

from repro.experiments.runner import run_sweep
from repro.experiments.setups import zipf_world
from repro.experiments.spec import REGISTRY
from repro.experiments.table3 import run_table3


def main() -> None:
    world = zipf_world(
        num_nodes=30, num_relations=300, num_classes=30, seed=0
    )
    print("Generated world (Table 3 at example scale):")
    print(run_table3(world=world).render())
    print()

    # The registered ``fig6`` sweep; its "small" preset is this world.
    result = run_sweep(REGISTRY.get("fig6"), scale="small", seeds=(0,))
    print("Greedy response normalised by QA-NT (>1 means QA-NT wins):")
    print(result.render())
    print()
    ratios = [stats.mean for stats in result.ratio_series()]
    print(
        "Under overload (%.0f ms between arrivals) QA-NT wins by %.0f%%; at"
        " the %.0f ms crossover, where the system stops being overloaded,"
        " the ratio is %.2f."
        % (result.points[0], 100 * (ratios[0] - 1.0), result.points[-1], ratios[-1])
    )


if __name__ == "__main__":
    main()
