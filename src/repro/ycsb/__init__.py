"""YCSB (Yahoo! Cloud Serving Benchmark) harness: generators, core
workloads A-F, the client adapter (KV ops + the paper's N1QL scan
query), and the closed-MVA thread-sweep model that turns a measured
service time into Figures 15 and 16 (appendix 10.1)."""

from .client import SCAN_QUERY, YcsbClient
from .generators import (
    CounterGenerator,
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
    fnv_hash_64,
    make_request_generator,
)
from .runner import (
    ClusterModel,
    SweepPoint,
    mva_throughput,
    seidmann_extra_delay,
    sweep_threads,
)
from .workload import (
    WORKLOADS,
    CoreWorkload,
    Operation,
    WorkloadConfig,
    workload_a,
    workload_b,
    workload_c,
    workload_d,
    workload_e,
    workload_f,
)

__all__ = [
    "CoreWorkload", "ClusterModel", "CounterGenerator", "LatestGenerator",
    "Operation", "SCAN_QUERY", "ScrambledZipfianGenerator", "SweepPoint",
    "UniformGenerator", "WORKLOADS", "WorkloadConfig", "YcsbClient",
    "ZipfianGenerator", "fnv_hash_64", "make_request_generator",
    "mva_throughput", "seidmann_extra_delay", "sweep_threads",
    "workload_a", "workload_b", "workload_c", "workload_d", "workload_e",
    "workload_f",
]
