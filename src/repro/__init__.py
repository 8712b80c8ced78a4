"""repro -- a reproduction of "Have Your Data and Query It Too: From
Key-Value Caching to Big Data Management" (SIGMOD 2016).

An in-process, memory-first, shared-nothing, auto-partitioned document
database in the Couchbase Server 4.1/4.5 mold: key-value access with CAS
and durability options, local map/reduce view indexes, global secondary
indexes, the N1QL query language, DCP change streams, rebalance and
failover, multi-dimensional scaling, and XDCR -- plus a YCSB harness that
regenerates the paper's two evaluation figures.

The application surface is ``SmartClient`` (KV, N1QL and view queries)
plus ``Cluster``'s DDL and topology calls; what it returns is the
application's own copy.  The services behind it hand each other their
stored values in place.

Quickstart::

    from repro import Cluster

    cluster = Cluster(nodes=2, vbuckets=64)
    bucket = cluster.create_bucket("profiles")
    client = cluster.connect()
    client.upsert("profiles", "borkar123",
                  {"name": "Dipti", "email": "dipti@couchbase.com"})
    client.query("CREATE PRIMARY INDEX ON profiles USING GSI")
    rows = client.query("SELECT p.name FROM profiles p").rows
"""

__version__ = "1.0.0"

from .client.smart_client import BatchResult
from .common.errors import ReproError
from .server import Cluster

__all__ = ["BatchResult", "Cluster", "ReproError", "__version__"]
