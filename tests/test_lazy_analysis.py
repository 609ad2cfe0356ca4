"""Loaded sessions derive PathFinder's analyses on first read.

An :class:`~repro.core.profiler.EpochResult` rebuilt from a session
document carries only its snapshot; the path map, stall breakdown and
queue report are computed when first read and then memoized.  These
tests pin two things: the derived analyses equal the ones the profiler
computed online, epoch for epoch, and loading runs no technique at all.
"""

from __future__ import annotations

import pytest

from repro.core import AppSpec, PathFinder, ProfileSpec
from repro.core.analyzer import PFAnalyzer
from repro.core.builder import PFBuilder
from repro.core.estimator import PFEstimator
from repro.core.persistence import result_from_document, result_to_document
from repro.core.spec import ProfilingMode
from repro.sim import Machine, spr_config
from repro.workloads import RandomAccess, SequentialStream

TECHNIQUES = (
    (PFBuilder, "build"),
    (PFEstimator, "breakdown"),
    (PFAnalyzer, "analyze"),
)


def _session(node, workload, epoch_cycles, mode=ProfilingMode.CONTINUOUS):
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
    return PathFinder(machine, spec).run()


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
    assert call_counts == {"build": 0, "breakdown": 0, "analyze": 0}
    assert loaded.final is loaded.epochs[-1]

    epoch = loaded.epochs[1]
    stalls = epoch.stalls
    assert call_counts == {"build": 0, "breakdown": 1, "analyze": 0}
    assert epoch.stalls is stalls
    assert call_counts == {"build": 0, "breakdown": 1, "analyze": 0}
    assert stalls == online.epochs[1].stalls


def test_online_epochs_keep_what_the_profiler_computed(call_counts):
    result = SPECS["stream@cxl"]()
    computed = dict(call_counts)
    assert computed == {"build": result.num_epochs,
                        "breakdown": result.num_epochs,
                        "analyze": result.num_epochs}
    for epoch in result.epochs:
        epoch.path_map, epoch.stalls, epoch.queues
    assert call_counts == computed


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
    assert call_counts == {"build": 0, "breakdown": 0, "analyze": 0}
    assert first == second
    assert first.epochs[0] != first.epochs[1]
