"""Trace-driven load generation for the serve path.

The serving claims in the reproduction — continuous batching keeps
tail latency bounded, admission control sheds instead of collapsing,
prefix-sharing KV reuse pays off on shared-prefix traffic — are only
claims until a load test exercises them.  This package is that test
harness, layered the way the serving papers slice it:

``arrivals``
    Seeded inter-arrival processes: Poisson, bursty, diurnal.  Same
    seed → byte-identical offsets.
``traffic``
    Seeded request mixes (shared-prefix chat, long-doc summarization,
    weighted blends) and :class:`Workload`, which binds a mix to an
    arrival process and fingerprints the whole trace (sha256).
``harness``
    The deterministic replay on a modeled clock: every outcome
    (completed/shed/expired/error) recorded, rolled into a summary
    with a zero-lost accounting invariant.

Serving latency and throughput under load are recorded by perfbench
(``python3 perfbench/run.py``), which builds its traces from
:class:`Workload`.
"""

from repro.load.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    from_spec,
)
from repro.load.harness import LoadResult, RequestRecord, replay
from repro.load.traffic import (
    LongDocSummarization,
    MixedTraffic,
    RequestSpec,
    SharedPrefixChat,
    TrafficModel,
    Workload,
)

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "from_spec",
    "TrafficModel",
    "SharedPrefixChat",
    "LongDocSummarization",
    "MixedTraffic",
    "RequestSpec",
    "Workload",
    "replay",
    "LoadResult",
    "RequestRecord",
]
