"""Workload generation: arrival processes and trace builders."""

from .arrival import (
    ArrivalProcess,
    FixedArrivals,
    PoissonArrivals,
    UniformArrivals,
)
from .sinusoid import PAPER_PHASE_DIFFERENCE_DEG, SinusoidArrivals
from .trace import (
    Trace,
    WorkloadEvent,
    build_trace,
    trace_columns,
    two_class_sinusoid_trace,
    zipf_trace,
)
from .zipf import MAX_INTERARRIVAL_MS, TruncatedZipf, ZipfArrivals

__all__ = [
    "ArrivalProcess",
    "FixedArrivals",
    "MAX_INTERARRIVAL_MS",
    "PAPER_PHASE_DIFFERENCE_DEG",
    "PoissonArrivals",
    "SinusoidArrivals",
    "Trace",
    "TruncatedZipf",
    "UniformArrivals",
    "WorkloadEvent",
    "ZipfArrivals",
    "build_trace",
    "trace_columns",
    "two_class_sinusoid_trace",
    "zipf_trace",
]
