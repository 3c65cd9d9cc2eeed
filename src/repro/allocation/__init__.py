"""Query allocation mechanisms: QA-NT and every baseline of paper Section 4."""

from .base import (
    AllocationContext,
    Allocator,
    AssignmentDecision,
    BatchDecisions,
)
from .bnqrd import BnqrdAllocator
from .greedy import GreedyAllocator
from .least_imbalance import LeastImbalanceAllocator
from .markov import MarkovAllocator, optimise_routing
from .qant import QantAllocator
from .random_choice import RandomAllocator
from .round_robin import RoundRobinAllocator
from .two_probes import TwoRandomProbesAllocator

__all__ = [
    "AllocationContext",
    "Allocator",
    "AssignmentDecision",
    "BatchDecisions",
    "BnqrdAllocator",
    "GreedyAllocator",
    "LeastImbalanceAllocator",
    "MarkovAllocator",
    "QantAllocator",
    "RandomAllocator",
    "RoundRobinAllocator",
    "TwoRandomProbesAllocator",
    "optimise_routing",
]

#: Registry of default-constructible mechanisms keyed by report name.
#: Markov is absent because it needs the static class rates up front.
DEFAULT_MECHANISMS = {
    "qa-nt": QantAllocator,
    "greedy": GreedyAllocator,
    "random": RandomAllocator,
    "round-robin": RoundRobinAllocator,
    "bnqrd": BnqrdAllocator,
    "two-probes": TwoRandomProbesAllocator,
    "least-imbalance": LeastImbalanceAllocator,
}
