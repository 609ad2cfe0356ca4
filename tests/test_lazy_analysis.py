"""PathFinder derives its outputs on first read, online and loaded alike.

An :class:`~repro.core.profiler.EpochResult` carries only its snapshot;
the path map, stall breakdown and queue report are computed when first
read and then memoized, and ``PathFinder.materializer`` ingests the
epochs it has not seen yet each time it is read.  These tests pin that
neither a run nor a load runs any technique, that the derived outputs
equal the eager ones epoch for epoch, and that aggregated sessions total
the same counters as continuous ones.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.core import AppSpec, PathFinder, ProfileSpec
from repro.core.analyzer import PFAnalyzer
from repro.core.builder import PFBuilder
from repro.core.estimator import PFEstimator
from repro.core.materializer import PFMaterializer
from repro.core.persistence import result_from_document, result_to_document
from repro.core.spec import ProfilingMode
from repro.live import LiveSpec, QueueSampler
from repro.sim import Machine, spr_config
from repro.workloads import RandomAccess, SequentialStream, build_app

TECHNIQUES = (
    (PFBuilder, "build"),
    (PFEstimator, "breakdown"),
    (PFAnalyzer, "analyze"),
    (PFMaterializer, "ingest"),
)

NO_CALLS = {"build": 0, "breakdown": 0, "analyze": 0, "ingest": 0}


def _profiler(node, workload, epoch_cycles, mode=ProfilingMode.CONTINUOUS,
              **kwargs):
    machine = Machine(spr_config(num_cores=2))
    if node == "interleave":
        app = AppSpec(workload=workload, core=0,
                      interleave=(machine.local_node.node_id,
                                  machine.cxl_node.node_id, 0.5))
    else:
        node_id = (machine.cxl_node if node == "cxl"
                   else machine.local_node).node_id
        app = AppSpec(workload=workload, core=0, membind=node_id)
    spec = ProfileSpec(apps=[app], epoch_cycles=epoch_cycles, mode=mode)
    return PathFinder(machine, spec, **kwargs)


def _session(node, workload, epoch_cycles, mode=ProfilingMode.CONTINUOUS):
    return _profiler(node, workload, epoch_cycles, mode).run()


def _stream():
    return SequentialStream(num_ops=2000, working_set_bytes=1 << 20,
                            read_ratio=0.8, seed=3)


def _records(db):
    return {name: list(db.measurement(name)) for name in db.measurements()}


SPECS = {
    "stream@local": lambda: _session(
        "local", SequentialStream(num_ops=2000, working_set_bytes=1 << 20,
                                  read_ratio=0.8, seed=3), 5_000.0),
    "stream@cxl": lambda: _session(
        "cxl", SequentialStream(num_ops=2000, working_set_bytes=1 << 20,
                                read_ratio=0.8, seed=3), 5_000.0),
    "random@cxl-fine-epochs": lambda: _session(
        "cxl", RandomAccess(num_ops=1500, working_set_bytes=1 << 21,
                            read_ratio=0.6, seed=5), 1_000.0),
    "random@interleave": lambda: _session(
        "interleave", RandomAccess(num_ops=1500, working_set_bytes=1 << 21,
                                   read_ratio=0.7, seed=9), 5_000.0),
}


@pytest.fixture
def call_counts(monkeypatch):
    """Count calls to each technique, keyed by method name."""
    counts = {method: 0 for _cls, method in TECHNIQUES}
    for cls, method in TECHNIQUES:
        original = getattr(cls, method)

        def counted(self, *args, _original=original, _method=method,
                    **kwargs):
            counts[_method] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, counted)
    return counts


@pytest.mark.parametrize("name", sorted(SPECS))
def test_loaded_analyses_equal_online_ones(name):
    online = SPECS[name]()
    loaded = result_from_document(result_to_document(online))
    assert loaded.num_epochs == online.num_epochs > 1
    for live, again in zip(online.epochs, loaded.epochs):
        assert again.epoch == live.epoch
        assert again.path_map == live.path_map
        assert again.stalls == live.stalls
        assert again.queues == live.queues


def test_loading_runs_no_technique(cxl_session, call_counts):
    _m, _p, online = cxl_session
    document = result_to_document(online)
    loaded = result_from_document(document)
    assert call_counts == NO_CALLS
    assert loaded.final is loaded.epochs[-1]

    epoch = loaded.epochs[1]
    stalls = epoch.stalls
    assert call_counts == dict(NO_CALLS, breakdown=1)
    assert epoch.stalls is stalls
    assert call_counts == dict(NO_CALLS, breakdown=1)
    assert stalls == online.epochs[1].stalls


def test_a_run_derives_nothing(call_counts):
    result = SPECS["stream@cxl"]()
    assert result.num_epochs > 1
    assert call_counts == NO_CALLS


@pytest.mark.parametrize("mode", list(ProfilingMode))
def test_first_materializer_read_ingests_each_epoch_once(call_counts, mode):
    profiler = _profiler("cxl", _stream(), 5_000.0, mode=mode)
    result = profiler.run()
    assert call_counts == NO_CALLS
    epochs = result.final.epoch
    assert epochs > 1

    materializer = profiler.materializer
    assert materializer.snapshots_ingested == epochs
    assert call_counts == dict(NO_CALLS, build=epochs, ingest=epochs)
    # The ingest memoized each epoch's path map; nothing is built twice.
    for epoch in result.epochs:
        epoch.path_map
    assert profiler.materializer is materializer
    assert call_counts == dict(NO_CALLS, build=epochs, ingest=epochs)


def test_materialized_tsdb_equals_eager_ingest():
    profiler = _profiler("cxl", _stream(), 5_000.0)
    result = profiler.run()
    eager = PFMaterializer()
    for epoch in result.epochs:
        eager.ingest(epoch.snapshot, epoch.path_map)
    assert _records(profiler.materializer.db) == _records(eager.db)


def test_aggregated_materializer_ingests_every_epoch_in_order(monkeypatch):
    ingested = []
    original = PFMaterializer.ingest

    def spied(self, snapshot, path_map=None):
        ingested.append(snapshot)
        return original(self, snapshot, path_map)

    monkeypatch.setattr(PFMaterializer, "ingest", spied)
    profiler = _profiler("cxl", _stream(), 5_000.0,
                         mode=ProfilingMode.AGGREGATED)
    result = profiler.run()
    db = profiler.materializer.db
    monkeypatch.setattr(PFMaterializer, "ingest", original)

    assert len(ingested) == result.final.epoch > 1
    bounds = [(s.t_start, s.t_end) for s in ingested]
    assert bounds[0][0] == result.final.snapshot.t_start
    assert bounds[-1][1] == result.final.snapshot.t_end
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    eager = PFMaterializer()
    for snapshot in ingested:
        eager.ingest(snapshot, PFBuilder().build(snapshot))
    assert _records(db) == _records(eager.db)


def test_live_runs_ingest_each_epoch_before_sampling_it(monkeypatch):
    log = []
    for cls, method in ((PFMaterializer, "ingest"), (QueueSampler, "sample")):
        original = getattr(cls, method)

        def logged(self, *args, _original=original, _method=method,
                   **kwargs):
            log.append(_method)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, logged)
    ingested_at_digest = []
    profiler = _profiler(
        "cxl", _stream(), 5_000.0, live=LiveSpec(),
        on_epoch=lambda digest: ingested_at_digest.append(
            (digest["epoch"], log.count("ingest"))))
    result = profiler.run()
    epochs = result.num_epochs
    assert epochs > 1
    assert ingested_at_digest == [(n, n) for n in range(1, epochs + 1)]
    assert log == ["ingest", "sample"] * epochs
    profiler.materializer
    assert log.count("ingest") == epochs


@pytest.mark.parametrize("node", ["local", "cxl"])
def test_aggregated_counters_equal_continuous(node):
    def counted(mode):
        config = spr_config()
        from repro.exec import cxl_node_id, local_node_id

        node_id = (local_node_id(config) if node == "local"
                   else cxl_node_id(config))
        spec = ProfileSpec(
            apps=[AppSpec(workload=build_app("bfs", num_ops=1500, seed=7),
                          core=0, membind=node_id)],
            epoch_cycles=5_000.0, mode=mode)
        result = api.run(spec, config=config, cache=False)
        loaded = result_from_document(result_to_document(result))
        return api.counters(result), api.counters(loaded)

    continuous, continuous_loaded = counted(ProfilingMode.CONTINUOUS)
    aggregated, aggregated_loaded = counted(ProfilingMode.AGGREGATED)
    assert continuous[("core0", "app.ops_completed")] > 0
    assert aggregated == continuous
    assert aggregated_loaded == continuous_loaded


def test_aggregated_final_spans_the_session():
    profiler = _profiler("cxl", _stream(), 5_000.0,
                         mode=ProfilingMode.AGGREGATED)
    result = profiler.run()
    final = result.final
    assert result.epochs == []
    assert final.snapshot.t_start == 0.0
    assert final.snapshot.t_end == result.total_cycles
    assert final.snapshot.duration > 5_000.0


def test_aggregated_only_documents_round_trip(call_counts):
    online = _session(
        "cxl", SequentialStream(num_ops=1500, working_set_bytes=1 << 20,
                                read_ratio=0.8, seed=3), 5_000.0,
        mode=ProfilingMode.AGGREGATED)
    document = result_to_document(online)
    assert document["aggregated_only"]
    before = dict(call_counts)
    loaded = result_from_document(document)
    assert call_counts == before
    assert loaded.epochs == []
    assert loaded.final.epoch == online.final.epoch
    assert loaded.final.path_map == online.final.path_map
    assert loaded.final.stalls == online.final.stalls
    assert loaded.final.queues == online.final.queues
    assert result_to_document(loaded) == document


def test_epochs_compare_by_value(cxl_session, call_counts):
    _m, _p, online = cxl_session
    document = result_to_document(online)
    first, second = (result_from_document(document) for _ in range(2))
    assert "epoch=2" in repr(first.epochs[1])
    assert call_counts == NO_CALLS
    assert first == second
    assert first.epochs[0] != first.epochs[1]
