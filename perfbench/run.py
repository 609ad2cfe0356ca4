#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the PathFinder reproduction.

Drives one workload (see ``cells.py`` and ``README.md``) through the
public ``repro.api`` from this single process for ``--seconds`` and
prints, as its last stdout line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
no instrumentation.  With ``--trace 1`` every op is run twice, traced
and untraced, and the metrics are per-layer self times and counts per
traced pass plus the tracing overhead; the spans are written to
``.perfbench/trace-<workload>-seed<seed>.json``.

An op fails when it raises, when its job record failed, or when its
session counter digest differs from the golden digest (``parity.py``).

Usage::

    python3 perfbench/run.py --workload fine-epoch --seed 7 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import cells
import parity
from reference import Reference
from tracing import BOOKKEEPING, OP_SPAN, SPLIT_SPANS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: Import and set-up are each repeated this often per untraced run;
#: ``setup_s`` is the median import plus the median set-up.
SETUP_REPEATS = 5


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _whole_passes(seconds: float):
    """Yield once per pass while one more pass, as long as the last,
    still ends within ``seconds``; always at least once."""
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        yield
        now = time.perf_counter()
        if now + (now - began) > deadline:
            return


def _import_s() -> float:
    """Wall of a fresh interpreter that imports ``repro.api``."""
    began = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
                    "import repro.api"], check=True)
    return time.perf_counter() - began


def _at_reference_speed(metrics: dict, scale: float) -> dict:
    """Host times divided, and rates multiplied, by the host's scale."""
    factor = {"s": 1.0 / scale, "1/s": scale}
    return {name: (value * factor.get(unit, 1.0), unit)
            for name, (value, unit) in metrics.items()}


def _stop_mp_helpers() -> None:
    """Stop and reap the forkserver and resource tracker, if started.

    The campaign pool starts both; reaping them here makes the process
    leave nothing running and folds the workers' peak RSS into
    ``RUSAGE_CHILDREN``.
    """
    from multiprocessing import forkserver, resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class Workload:
    """Shared bookkeeping of one benchmark workload."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.check = None
        self.reference = Reference()

    def setup(self) -> None:
        self.check = parity.load_check(self.name, self.seed,
                                       cells.WORKLOADS[self.name])

    def _verify(self, tag: str, result) -> bool:
        return self.check.check(tag, parity.counter_digest(result))

    def _call(self, op_id: int, fn, tracer):
        """``(output, wall)`` of ``fn``; traced when a tracer is given."""
        if tracer is not None:
            return tracer.op(op_id, fn)
        began = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - began

    def correct(self) -> bool:
        return self.failed == 0

    def close(self) -> None:
        pass


class MatrixWorkload(Workload):
    """Sequential ``api.run(cache=False)`` over the six app x node cells."""

    def setup(self) -> None:
        from repro import api

        super().setup()
        self.cells = cells.specs(self.name, self.seed)
        _tag, spec, config = self.cells[0]
        api.run(spec, config=config, cache=False)  # warm-up

    def op(self, op_id: int, index: int, tracer=None):
        """One ``api.run`` of cell ``index``; ``(result, wall)`` or None."""
        from repro import api

        tag, spec, config = self.cells[index]
        self.attempted += 1
        try:
            result, wall = self._call(
                op_id, lambda: api.run(spec, config=config, cache=False),
                tracer)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if not self._verify(tag, result):
            self.failed += 1
            return None
        return result, wall

    def measure(self, seconds: float) -> dict:
        walls = defaultdict(list)
        cycles, epochs = {}, {}
        deadline = time.perf_counter() + seconds
        op_id = 0
        while op_id < len(self.cells) or time.perf_counter() < deadline:
            index = op_id % len(self.cells)
            out = self.op(op_id, index)
            op_id += 1
            self.reference.sample()
            if out is not None:
                result, wall = out
                walls[index].append(wall)
                cycles[index] = result.total_cycles
                epochs[index] = result.num_epochs
        if not walls:
            raise RuntimeError("every op failed")
        median = {i: statistics.median(w) for i, w in walls.items()}
        pass_s = sum(median.values())
        print(f"{self.name}: {op_id} api.run calls, per-cell median walls "
              + ", ".join(f"{self.cells[i][0]}={median[i]:.3f}s"
                          f"(n={len(walls[i])})" for i in sorted(median)),
              file=sys.stderr)
        return {
            "sim_cycles_per_s": (_geomean(cycles[i] / median[i]
                                          for i in median), "1/s"),
            "epochs_per_s": (sum(epochs[i] for i in median) / pass_s, "1/s"),
            "jobs_per_s": (len(median) / pass_s, "1/s"),
            "campaign_wall_p50_s": (_geomean(median.values()), "s"),
        }

    def measure_traced(self, seconds: float, tracer):
        """Whole passes; each cell runs traced and untraced back to back."""
        traced, plain = defaultdict(list), defaultdict(list)
        passes = op_id = 0
        for _ in _whole_passes(seconds):
            for index in range(len(self.cells)):
                # Alternate which run of the pair goes first.
                for use in ((tracer, None) if passes % 2 == 0
                            else (None, tracer)):
                    out = self.op(op_id, index, use)
                    op_id += 1
                    if out is not None:
                        (traced if use else plain)[index].append(out[1])
            passes += 1
        pairs = [i for i in traced if plain[i]]
        if not pairs:
            raise RuntimeError("every op failed")
        return passes, _geomean(
            statistics.median(traced[i]) / statistics.median(plain[i])
            for i in pairs)


class CampaignWorkload(Workload):
    """Repeated ``api.run_many`` calls over one half-cached job list."""

    def setup(self) -> None:
        from repro import api

        super().setup()
        self.workers = cells.CAMPAIGN_WORKERS
        self.jobs = cells.campaign_jobs(self.seed)
        self.expect_hits = (len(self.jobs) + 1) // 2
        self.split_ok = True
        self.work = OUT_DIR / f"campaign-{os.getpid()}"
        self.template = self.work / "template"
        self.cache = self.work / "cache"
        shutil.rmtree(self.template, ignore_errors=True)
        # The template holds exactly the even-indexed jobs' entries.  Its
        # keys embed the code fingerprint, so it is rebuilt per checkout.
        prefill = api.run_many(self.jobs[::2], parallel=True,
                               workers=self.workers, cache=str(self.template),
                               retries=0)
        if prefill.failed:
            raise RuntimeError(f"cache pre-fill failed: {prefill.summary()}")
        self._restore()
        api.run_many(cells.campaign_jobs(self.seed)[:4], parallel=True,
                     workers=self.workers, cache=str(self.cache))  # warm-up

    def _restore(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)
        shutil.copytree(self.template, self.cache)

    def op(self, op_id: int, tracer=None):
        """One ``run_many`` over all jobs; ``(campaign, wall)`` or None."""
        from repro import api

        self._restore()
        jobs = cells.campaign_jobs(self.seed)
        self.attempted += len(jobs)
        try:
            campaign, wall = self._call(
                op_id,
                lambda: api.run_many(jobs, parallel=True, workers=self.workers,
                                     cache=str(self.cache)),
                tracer)
        except Exception:
            traceback.print_exc()
            self.failed += len(jobs)
            return None
        ok = True
        for record, result in campaign:
            if not record.ok or result is None \
                    or not self._verify(record.tag, result):
                self.failed += 1
                ok = False
        if campaign.cache_hits != self.expect_hits:
            print(f"call {op_id}: {campaign.cache_hits} cache hits, expected "
                  f"{self.expect_hits}", file=sys.stderr)
            self.split_ok = False
        return (campaign, wall) if ok else None

    def measure(self, seconds: float) -> dict:
        walls, cycles, epochs = [], [], []
        deadline = time.perf_counter() + seconds
        op_id = 0
        while op_id == 0 or time.perf_counter() < deadline:
            out = self.op(op_id)
            op_id += 1
            self.reference.sample()
            if out is not None:
                campaign, wall = out
                walls.append(wall)
                cycles.append(sum(j.total_cycles for j in campaign.jobs))
                epochs.append(sum(j.num_epochs for j in campaign.jobs))
        if not walls:
            raise RuntimeError("every op failed")
        p50 = statistics.median(walls)
        print(f"{self.name}: {len(walls)} run_many calls of {len(self.jobs)} "
              f"jobs, wall p50 {p50:.3f}s, min {min(walls):.3f}s, "
              f"max {max(walls):.3f}s", file=sys.stderr)
        return {
            "sim_cycles_per_s": (statistics.median(
                c / w for c, w in zip(cycles, walls)), "1/s"),
            "epochs_per_s": (statistics.median(
                e / w for e, w in zip(epochs, walls)), "1/s"),
            "jobs_per_s": (len(walls) * len(self.jobs) / sum(walls), "1/s"),
            "campaign_wall_p50_s": (p50, "s"),
        }

    def measure_traced(self, seconds: float, tracer):
        """Pairs of calls, one traced and one untraced, order alternating."""
        traced, plain = [], []
        passes = op_id = 0
        for _ in _whole_passes(seconds):
            for use in (tracer, None) if passes % 2 == 0 else (None, tracer):
                out = self.op(op_id, use)
                op_id += 1
                if out is not None:
                    (traced if use else plain).append(out[1])
            passes += 1
        if not (traced and plain):
            raise RuntimeError("every op failed")
        return passes, statistics.median(traced) / statistics.median(plain)

    def correct(self) -> bool:
        return super().correct() and self.split_ok

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOAD_CLASSES = {
    "exact-matrix": MatrixWorkload,
    "fine-epoch": MatrixWorkload,
    "campaign-mixed": CampaignWorkload,
}


def layer_metrics(tracer, passes: int, overhead: float) -> dict:
    """Per-layer metrics, normalised per traced pass.

    Every workload reports every metric.  One reads 0 when the workload
    does not exercise its layer (``exec.*`` on the in-process matrix
    workloads) or when nothing went wrong (``spawn_failures``,
    ``retries``).  Per-layer metrics carry no bound, so nothing is ever
    taken as a share of such a zero; end-to-end metrics do carry one,
    which is why the failure share travels in ``failed``/``attempted``.
    """
    self_s = defaultdict(float, tracer.self_s)
    calls = defaultdict(int, tracer.calls)
    counts = defaultdict(float, tracer.counts)
    out = {}

    def put(name, value, unit, per_pass=True):
        out[name] = (value / passes if per_pass else value, unit)

    put("sim.machine.build_s", self_s["sim.machine.build"], "s/pass")
    put("sim.machine.run_s", self_s["sim.machine.run"], "s/pass")
    put("sim.engine.events", counts["sim.engine.events"], "count/pass")
    put("sim.engine.events_per_mem_op",
        counts["sim.engine.events"] / counts["sim.mem_ops"]
        if counts["sim.mem_ops"] else 0.0, "events/op", per_pass=False)
    put("sim.engine.events_per_s",
        counts["sim.engine.events"] / self_s["sim.machine.run"]
        if self_s["sim.machine.run"] else 0.0, "1/s", per_pass=False)
    put("core.profiler.run_s", self_s["core.profiler.run"], "s/pass")
    put("core.profiler.epochs", counts["core.profiler.epochs"], "count/pass")
    for span in SPLIT_SPANS:
        for context in ("profiler", "persistence"):
            put(f"{span}_s.{context}", self_s[f"{span}.{context}"], "s/pass")
            put(f"{span}.calls.{context}", calls[f"{span}.{context}"],
                "count/pass")
        put(f"{span}_s", sum(v for k, v in self_s.items()
                             if k.startswith(span + ".")), "s/pass")
        put(f"{span}.calls", sum(v for k, v in calls.items()
                                 if k.startswith(span + ".")), "count/pass")
    put("core.persistence.to_document_s",
        self_s["core.persistence.to_document"], "s/pass")
    put("core.persistence.from_document_self_s",
        self_s["core.persistence.from_document"], "s/pass")
    put("core.persistence.from_document.calls",
        calls["core.persistence.from_document"], "count/pass")
    put("core.persistence.document_bytes",
        counts["core.persistence.document_bytes"], "B/pass")
    put("exec.hashing.job_key_s", self_s["exec.hashing.job_key"], "s/pass")
    put("exec.cache.get_s", self_s["exec.cache.get"], "s/pass")
    put("exec.cache.put_s", self_s["exec.cache.put"], "s/pass")
    put("exec.cache.hits", counts["exec.cache.hits"], "count/pass")
    put("exec.cache.misses", counts["exec.cache.misses"], "count/pass")
    reads = counts["exec.cache.hits"] + counts["exec.cache.misses"]
    put("exec.cache.hit_ratio",
        counts["exec.cache.hits"] / reads if reads else 0.0, "ratio",
        per_pass=False)
    put("exec.pool.dispatch_s", self_s["exec.pool.dispatch"], "s/pass")
    put("exec.pool.wait_s", self_s["exec.pool.wait"], "s/pass")
    put("exec.pool.close_s", self_s["exec.pool.close"], "s/pass")
    put("exec.pool.spawned", counts["exec.pool.spawned"], "count/pass")
    put("exec.pool.spawn_failures", counts["exec.pool.spawn_failures"],
        "count/pass")
    put("exec.runner.run_campaign_s", self_s["exec.runner.run_campaign"],
        "s/pass")
    put("exec.runner.job_wall_s", counts["exec.runner.job_wall_s"], "s/pass")
    put("exec.runner.retries", counts["exec.runner.retries"], "count/pass")
    put("exec.runner.events_executed", counts["exec.runner.events_executed"],
        "count/pass")
    layers = {
        "layer.sim_s": ["sim.machine.build", "sim.machine.run"],
        "layer.core_s": ["core.profiler.run"] + [
            f"{span}.{context}" for span in SPLIT_SPANS
            for context in ("profiler", "persistence", "other")],
        "layer.persistence_s": [
            "core.persistence.to_document", "core.persistence.from_document",
            "exec.cache.get", "exec.cache.put", "exec.hashing.job_key"],
        "layer.exec_s": ["exec.pool.dispatch", "exec.pool.wait",
                         "exec.pool.close", "exec.runner.run_campaign"],
    }
    for name, keys in layers.items():
        put(name, sum(self_s[k] for k in keys), "s/pass")
    put("trace.uninstrumented_s", self_s[OP_SPAN], "s/pass")
    put("trace.bookkeeping_s", self_s[BOOKKEEPING], "s/pass")
    put("trace.wall_s", sum(self_s.values()), "s/pass")
    put("trace.spans", len(tracer.spans), "count/pass")
    put("trace.overhead_ratio", overhead, "ratio", per_pass=False)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="PathFinder reproduction benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    import repro.api  # noqa: F401 - also compiles a fresh checkout

    bench = WORKLOAD_CLASSES[args.workload](args.workload, args.seed)
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            started = time.perf_counter()
            bench.setup()
            setups.append(time.perf_counter() - started)
        if args.trace:
            tracer = Tracer()
            passes, overhead = bench.measure_traced(args.seconds, tracer)
            metrics = layer_metrics(tracer, passes, overhead)
            path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                               "passes": passes})
            print(f"{args.workload}: {passes} traced passes, spans in {path}",
                  file=sys.stderr)
        else:
            metrics = bench.measure(args.seconds)
    finally:
        bench.close()
        _stop_mp_helpers()
    if not args.trace:
        # Read before the import probes, which are children too.
        metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
        imports = [_import_s() for _ in range(SETUP_REPEATS)]
        metrics["setup_s"] = (statistics.median(imports)
                              + statistics.median(setups), "s")
        print("setup: imports "
              + ", ".join(f"{t:.3f}s" for t in imports) + "; set-ups "
              + ", ".join(f"{t:.3f}s" for t in setups), file=sys.stderr)
        reference = bench.reference
        print(f"host slowdown {reference.slowdown():.4f} scale "
              f"{reference.scale():.4f} (median of {len(reference.walls)} "
              "reference samples); as measured: "
              + ", ".join(f"{k}={v:.6g}" for k, (v, _u) in metrics.items()),
              file=sys.stderr)
        metrics = _at_reference_speed(metrics, reference.scale())

    golden = "stored" if bench.check.stored else "self-reference"
    print(f"{args.workload} seed {args.seed}: {bench.failed}/"
          f"{bench.attempted} ops failed (golden: {golden})", file=sys.stderr)
    print(json.dumps({
        "correct": bench.correct(),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
