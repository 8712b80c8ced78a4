"""The tracer: span arithmetic, and wrappers that leave no trace."""

import itertools

from repro import Cluster
from repro.common.scheduler import Scheduler
from repro.kv.engine import KVEngine
from repro.n1ql import parser, service
from repro.storage.btree import BTree

from benchmarks.ledger.trace import LAYERS, Tracer


def _tick_clock():
    """A clock that advances one second per reading."""
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_self_time_is_duration_minus_child_cover():
    # root [0, 9]: child a [1, 4] holding grandchild [2, 3]; child b [5, 8].
    tracer = Tracer(clock=_tick_clock())
    tracer.layer_of.update(root="client", a="kv", b="kv", leaf="disk")
    root = tracer.enter("root")
    a = tracer.enter("a")
    leaf = tracer.enter("leaf")
    tracer.exit(leaf, value=7)
    tracer.exit(a)
    b = tracer.enter("b")
    filler = tracer.enter("leaf")
    tracer.exit(filler, value=5)
    tracer.exit(b)
    tracer.exit(root)

    assert tracer.durations() == [9.0, 3.0, 1.0, 3.0, 1.0]
    assert tracer.self_times() == [3.0, 2.0, 1.0, 2.0, 1.0]
    assert sum(tracer.self_times()) == tracer.durations()[0]
    layers = tracer.by_layer()
    assert layers["client"] == (3.0, 1)
    assert layers["kv"] == (4.0, 2)
    assert layers["disk"] == (2.0, 2)
    assert tracer.by_name()["leaf"] == (2, 2.0, 12)
    assert tracer.sum_under("leaf", "a") == (1, 7)
    assert tracer.sum_under("leaf", "root") == (2, 12)
    assert tracer.first_descendant_delays("root", ("leaf",)) == {root: 2.0}
    assert tracer.current == -1


def test_wrappers_are_fully_removed():
    originals = (vars(KVEngine)["get"], vars(BTree)["range"],
                 vars(Scheduler)["register"], service.parse)
    tracer = Tracer()
    tracer.install()
    try:
        assert vars(KVEngine)["get"] is not originals[0]
        assert service.parse is not parser.parse or \
            parser.parse is not originals[3]
    finally:
        tracer.uninstall()
    assert (vars(KVEngine)["get"], vars(BTree)["range"],
            vars(Scheduler)["register"], service.parse) == originals
    assert parser.parse is originals[3]


def test_spans_nest_across_layers_and_stop_with_recording():
    tracer = Tracer()
    tracer.install()
    try:
        cluster = Cluster(nodes=2, vbuckets=8, network_latency=1e-4)
        cluster.create_bucket("b", replicas=1)
        client = cluster.connect()
        client.upsert("b", "k", {"v": 1})
        cluster.run_until_idle()
        assert tracer.names == []          # nothing recorded while off
        tracer.recording = True
        tracer.op_id = 7
        client.get("b", "k")
        tracer.op_id = -1
        client.upsert("b", "k", {"v": 2})
        cluster.run_until_idle()
        tracer.recording = False
        client.get("b", "k")
    finally:
        tracer.uninstall()

    get = [i for i, op in enumerate(tracer.op_ids) if op == 7]
    assert [tracer.names[i] for i in get] == [
        "SmartClient.get", "AdmissionController.acquire", "Network.call",
        "AdmissionController.fabric_filter", "Node.kv_get", "KVEngine.get"]
    assert tracer.parents[get[-1]] == get[-2]      # engine under node RPC
    assert tracer.names.count("SmartClient.get") == 1
    # Pumps registered while installed are timed under their kind, and
    # report whether they made progress as the span's value.
    flushes = [v for n, v in zip(tracer.names, tracer.values)
               if n == "pump.flusher"]
    assert flushes and set(flushes) == {0, 1}
    assert {tracer.layer_of[name] for name in tracer.names} <= set(LAYERS)
    assert abs(sum(tracer.self_times())
               - sum(d for d, p in zip(tracer.durations(), tracer.parents)
                     if p < 0)) < 1e-9
