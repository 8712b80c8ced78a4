"""The thread-scaling model.

The paper's Figures 15 and 16 plot cluster throughput against the number
of client threads (4 YCSB clients x 12..32 threads).  Reproducing that
curve with real OS threads in CPython is meaningless -- the GIL
serializes them -- so the reproduction does the honest equivalent:

1. **Measure** the real per-operation service time single-stream
   through the full stack (smart client -> network fabric -> KV engine
   / query service).  That is the perf ledger's job
   (``benchmarks/ledger``: ``op_p50_us`` of ``kv_a_resident`` and
   ``n1ql_e_scan``); nothing in this package reads a wall clock.
2. **Model** the closed-loop thread sweep (this module) with mean-value
   analysis (MVA) of a two-station queueing network: an
   infinite-server "delay" station (client think time + network round
   trip) and a multi-server "cluster" station (the 4 nodes' worth of
   service capacity), using the Seidmann approximation for the
   multi-server queue.  Closed MVA is exactly the model of N YCSB
   threads issuing synchronous requests: throughput rises roughly
   linearly while the delay dominates and saturates at
   ``servers / service_time``.  ``benchmarks/figures.py`` joins the two.

The *shape* -- rise and saturate, and the ~33x gap between KV ops and
N1QL range queries -- comes from the measured service times, not from
fitted constants.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SweepPoint:
    threads: int
    throughput: float
    mean_latency: float


def seidmann_extra_delay(service_time: float, servers: int) -> float:
    """The pure-delay leg of the Seidmann transformation of an
    ``servers``-server queueing station."""
    return service_time * (servers - 1) / servers


def mva_throughput(
    population: int,
    service_time: float,
    servers: int,
    delay: float,
) -> tuple[float, float]:
    """Closed-network MVA: returns (throughput, mean response time).

    ``population`` concurrent customers circulate between a delay
    station (``delay`` seconds, infinite servers) and a queueing station
    with ``servers`` servers each taking ``service_time`` per job.  The
    multi-server station is handled with the Seidmann transformation:
    an FCFS station with service ``service_time / servers`` in series
    with a pure delay of ``service_time * (servers - 1) / servers``.

    The mean response time is the residence time at the queueing
    station of the transformed network, i.e. the cycle time minus
    *both* delay legs -- the think/RTT delay **and** the Seidmann
    ``extra_delay`` shift.  With that convention the returned pair
    satisfies Little's law for the closed loop exactly::

        population == throughput * (response + delay + extra_delay)

    (Subtracting only ``delay``, as an earlier version did, leaks the
    Seidmann shift into the response and overstates per-op latency.)
    """
    if population < 1:
        return 0.0, 0.0
    fast_service = service_time / servers
    extra_delay = seidmann_extra_delay(service_time, servers)
    total_delay = delay + extra_delay
    queue_length = 0.0
    throughput = 0.0
    for customers in range(1, population + 1):
        response = fast_service * (1.0 + queue_length)
        throughput = customers / (response + total_delay)
        queue_length = throughput * response
    if not throughput:
        return 0.0, 0.0
    return throughput, (population / throughput) - total_delay


@dataclass
class ClusterModel:
    """Capacity parameters for the sweep model.

    The paper's testbed: a 4-node cluster and 4 client machines on a
    LAN.  ``effective_servers`` is nodes x per-node concurrency; the
    default models each data node happily serving a handful of
    in-flight requests (network I/O overlap), which is what makes the
    curve keep climbing past 4 threads the way Figure 15 does."""

    nodes: int = 4
    per_node_concurrency: int = 8
    network_round_trip: float = 0.0005  # 0.5 ms LAN RTT + client think

    @property
    def effective_servers(self) -> int:
        return self.nodes * self.per_node_concurrency


def sweep_threads(
    service_time: float,
    thread_counts: list[int],
    model: ClusterModel | None = None,
) -> list[SweepPoint]:
    """Model the thread sweep for a measured per-op service time."""
    model = model if model is not None else ClusterModel()
    points = []
    for threads in thread_counts:
        throughput, response = mva_throughput(
            threads, service_time, model.effective_servers,
            model.network_round_trip,
        )
        points.append(SweepPoint(threads, throughput, response))
    return points
