#!/usr/bin/env python3
"""Engine hot-path benchmark + regression gate.

Runs the fixed BENCH matrix (same apps/nodes/ops/seed/epoch as
``scripts/bench_snapshot.py``) through the simulation engine and writes
``BENCH_engine.json`` at the repo root with, per cell:

* ``sim_cycles_per_s`` - simulated cycles per wall-second through the
  public ``api.run`` path (the number the trajectory tracks);
* ``counter_sha256`` - a digest of the run's PMU counter totals (a speed
  change is an optimisation, not a model change, so it must not move).

Top-level, the snapshot also records:

* ``geomean_sim_cycles_per_s`` - geometric mean across the matrix, the
  number the ``--check`` gate compares (single-cell jitter can no longer
  fail CI on its own);
* ``fidelity`` - the warp axis: ``fidelity="exact"`` must keep sha256
  counter parity with the default path on all six matrix cells, and
  ``fidelity="adaptive"`` must show >= 3x geomean sim-cycles/s on a
  steady-state matrix (64 MiB cache-defeating streams) while staying
  within the warp tolerance of the exact counters;
* ``pool`` - warm worker pool vs per-job spawn over a campaign of 50
  cache-miss trivial jobs.  Two baselines are reported honestly: the
  platform-default fork context (cheap on Linux, so the pool is roughly
  neutral there) and a per-job spawn at the pool's own safety class
  (forkserver, safe to use from the threaded serve daemon), where every
  one-shot worker pays the interpreter+import startup the pool exists
  to amortise.  The >= 2x acceptance gate applies to the latter.

``--check`` re-measures the matrix and fails (exit 1) when the geomean
regresses more than ``--tolerance`` (default 15%) below the committed
snapshot, when a cell's counter digest differs from the committed one,
or when the committed fidelity/pool sections no longer meet their floors
- wire this into CI (``make bench-engine-check``).  Absolute numbers are host-dependent; the
gate therefore compares against a snapshot produced on the same host
class, and the committed file records the host.

Usage:
    python scripts/bench_engine.py                  # measure + write
    python scripts/bench_engine.py --check          # gate vs committed
    python scripts/bench_engine.py --baseline-json PATH   # add speedups
        # vs an external {tag: cycles_per_s} map (e.g. a pre-overhaul
        # worktree measured on this host)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import api  # noqa: E402
from repro.core import AppSpec, ProfileSpec  # noqa: E402
from repro.exec import WorkerPool, cxl_node_id  # noqa: E402
from repro.exec.runner import run_single_job  # noqa: E402
from repro.sim import spr_config  # noqa: E402
from repro.sim.warp import WarpSpec  # noqa: E402
from repro.workloads import SequentialStream  # noqa: E402

from bench_snapshot import (  # noqa: E402
    EPOCH_CYCLES,
    MATRIX_APPS,
    MATRIX_NODES,
    MATRIX_SEED,
    make_job,
)

DEFAULT_OUT = ROOT / "BENCH_engine.json"
FLEET_SNAPSHOT = ROOT / "BENCH_fleet.json"

#: Steady-state matrix for the adaptive-fidelity axis: 64 MiB working
#: sets defeat every cache level, so the per-epoch rate is constant and
#: the warp detector has something real to detect.
STEADY_GAPS = [1.0, 2.0, 4.0]
STEADY_OPS = 20_000

#: Warm-pool campaign: many trivial cache-miss jobs, so per-job process
#: overhead dominates and the pool's amortisation is what gets measured.
POOL_JOBS = 50
POOL_OPS = 20

#: Floors the committed snapshot must keep (acceptance criteria).
ADAPTIVE_GEOMEAN_FLOOR = 3.0
POOL_SPEEDUP_FLOOR = 2.0


def _geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _counter_checksum(result) -> str:
    """Order-stable digest of the session's total PMU counters."""
    totals = api.counters(result)
    payload = json.dumps(
        sorted((scope, event, repr(value))
               for (scope, event), value in totals.items())
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def measure(ops: int, repeat: int = 3) -> dict:
    """Best-of-``repeat`` walls per cell: single runs jitter 10-20%."""
    rows = {}
    for app in MATRIX_APPS:
        for node in MATRIX_NODES:
            job = make_job(app, node, ops)
            # Trajectory number: the public api.run path, like BENCH_fleet.
            api_wall = float("inf")
            for _ in range(repeat):
                for a in job.spec.apps:
                    a.workload.reseed()
                began = time.perf_counter()
                result = api.run(job.spec, config=job.config, cache=False)
                api_wall = min(api_wall, time.perf_counter() - began)
            cycles = result.total_cycles
            rows[job.tag] = {
                "wall_s": round(api_wall, 4),
                "num_epochs": result.num_epochs,
                "sim_cycles": cycles,
                "sim_cycles_per_s": round(cycles / api_wall, 1),
                "counter_sha256": _counter_checksum(result),
            }
    return rows


# -- fidelity axis -----------------------------------------------------------


def _steady_job(gap: float, ops: int):
    config = spr_config(num_cores=2)
    workload = SequentialStream(
        num_ops=ops, working_set_bytes=64 << 20, gap=gap, seed=MATRIX_SEED,
    )
    spec = ProfileSpec(
        apps=[AppSpec(workload=workload, core=0, membind=cxl_node_id(config))],
        epoch_cycles=EPOCH_CYCLES,
        max_epochs=100_000,
    )
    return spec, config


def _counter_drift(exact, adaptive, floor: float = 100.0) -> dict:
    """Drift of the adaptive totals, judged by the warp contract.

    Mirrors :class:`repro.sim.warp.SteadyStateDetector.matches`: the
    headline number is the magnitude-weighted aggregate deviation
    ``sum |a-b| / sum max(|a|,|b|)`` (must stay within the spec
    tolerance), and any counter carrying >= 1% of the total magnitude
    must individually stay within ``4 * tolerance`` plus a
    ``3 * sqrt(count)`` shot-noise allowance.  ``max_rel_error`` is
    reported unfiltered for the record: low-weight noisy integrals
    (queue-occupancy samples) legitimately exceed the per-epoch
    tolerance and are what the aggregate criterion exists to absorb.
    """
    se, sa = api.counters(exact), api.counters(adaptive)
    deviation = total = 0.0
    rows = []
    worst = 0.0
    for key, value in se.items():
        if abs(value) < floor:
            continue
        diff = abs(sa.get(key, 0.0) - value)
        magnitude = max(abs(value), abs(sa.get(key, 0.0)))
        deviation += diff
        total += magnitude
        rows.append((magnitude, diff))
        worst = max(worst, diff / abs(value))
    aggregate = deviation / total if total else 0.0
    tolerance = WarpSpec().tolerance
    weight_floor = 0.01 * total
    guarded_ok = all(
        diff <= 4.0 * tolerance * magnitude + 3.0 * magnitude ** 0.5
        for magnitude, diff in rows if magnitude >= weight_floor
    )
    return {
        "aggregate_drift": round(aggregate, 4),
        "max_rel_error": round(worst, 4),
        "within_tolerance": aggregate <= tolerance and guarded_ok,
    }


def measure_fidelity(ops: int, steady_ops: int) -> dict:
    """The warp axis: exact parity on the classic matrix, adaptive
    speedup (with counter drift) on the steady-state matrix."""
    # fidelity="exact" must be byte-identical to the default path on
    # every matrix cell: warp plumbing may not perturb exact runs.
    matched = 0
    cells = 0
    for app in MATRIX_APPS:
        for node in MATRIX_NODES:
            job = make_job(app, node, ops)
            for a in job.spec.apps:
                a.workload.reseed()
            default = api.run(job.spec, config=job.config, cache=False)
            for a in job.spec.apps:
                a.workload.reseed()
            exact = api.run(job.spec, config=job.config, cache=False,
                            fidelity="exact")
            cells += 1
            matched += _counter_checksum(default) == _counter_checksum(exact)
    tolerance = WarpSpec().tolerance
    rows = {}
    for gap in STEADY_GAPS:
        spec, config = _steady_job(gap, steady_ops)
        began = time.perf_counter()
        exact = api.run(spec, config=config, cache=False)
        exact_wall = time.perf_counter() - began
        spec, config = _steady_job(gap, steady_ops)
        began = time.perf_counter()
        adaptive = api.run(spec, config=config, cache=False,
                           fidelity="adaptive")
        adaptive_wall = time.perf_counter() - began
        exact_cps = exact.total_cycles / exact_wall
        adaptive_cps = adaptive.total_cycles / adaptive_wall
        warp = adaptive.warp
        drift = _counter_drift(exact, adaptive)
        rows[f"steady@gap{gap:g}"] = {
            "exact_wall_s": round(exact_wall, 4),
            "adaptive_wall_s": round(adaptive_wall, 4),
            "exact_epochs": exact.num_epochs,
            "adaptive_epochs": adaptive.num_epochs,
            "warps": len(warp.events) if warp is not None else 0,
            "epochs_skipped": round(warp.epochs_skipped, 1) if warp else 0.0,
            "speedup": round(adaptive_cps / exact_cps, 3),
            **drift,
        }
    return {
        "exact_parity": {"cells": cells, "matched": matched},
        "tolerance": tolerance,
        "steady_matrix": rows,
        "adaptive_geomean_speedup": round(
            _geomean([row["speedup"] for row in rows.values()]), 3
        ),
    }


# -- warm worker pool --------------------------------------------------------


def _pool_job(seed: int, ops: int):
    config = spr_config(num_cores=2)
    workload = SequentialStream(
        num_ops=ops, working_set_bytes=1 << 20, gap=2.0, seed=seed,
    )
    spec = ProfileSpec(
        apps=[AppSpec(workload=workload, core=0, membind=cxl_node_id(config))],
        epoch_cycles=EPOCH_CYCLES,
        max_epochs=50,
    )
    return spec, config


def measure_pool(jobs: int, ops: int) -> dict:
    """Campaign of ``jobs`` cache-miss trivial jobs, three ways.

    * ``per_job_spawn``: one forkserver worker per job (recycling quota
      1), the pool's own safety class - what a per-job spawn costs when
      forking from a threaded daemon is off the table.  Every job pays
      the interpreter+import startup.
    * ``per_job_fork``: :func:`run_single_job` on the platform-default
      context (fork on Linux) - cheap, but only safe from
      single-threaded parents.
    * ``warm``: the :class:`WorkerPool` steady state (workers=1, spawn
      excluded via one untimed warm-up job, matching a daemon that
      spawns its pool at boot).
    """
    config = _pool_job(0, ops)[1]

    began = time.perf_counter()
    with WorkerPool(workers=1, max_jobs_per_worker=1) as pool:
        for seed in range(jobs):
            spec, _ = _pool_job(seed, ops)
            outcome = pool.run_job(spec, config, timeout=300)
            assert outcome["ok"], outcome
    spawn_wall = time.perf_counter() - began

    began = time.perf_counter()
    for seed in range(jobs):
        spec, _ = _pool_job(1000 + seed, ops)
        outcome = run_single_job(spec, config, timeout=300)
        assert outcome["ok"], outcome
    fork_wall = time.perf_counter() - began

    with WorkerPool(workers=1) as pool:
        began = time.perf_counter()
        spec, _ = _pool_job(9999, ops)
        pool.run_job(spec, config, timeout=300)
        warmup = time.perf_counter() - began
        began = time.perf_counter()
        for seed in range(jobs):
            spec, _ = _pool_job(2000 + seed, ops)
            outcome = pool.run_job(spec, config, timeout=300)
            assert outcome["ok"], outcome
        warm_wall = time.perf_counter() - began
        spawned = pool.spawned

    return {
        "jobs": jobs,
        "ops_per_job": ops,
        "per_job_spawn_wall_s": round(spawn_wall, 4),
        "per_job_fork_wall_s": round(fork_wall, 4),
        "warm_wall_s": round(warm_wall, 4),
        "pool_warmup_s": round(warmup, 4),
        "workers_spawned": spawned,
        "speedup_vs_spawn": round(spawn_wall / warm_wall, 3),
        "speedup_vs_fork": round(fork_wall / warm_wall, 3),
    }


# -- snapshot assembly / gate ------------------------------------------------


def add_fleet_speedups(rows: dict) -> None:
    """Fold in the ratio against the committed BENCH_fleet engine numbers."""
    if not FLEET_SNAPSHOT.exists():
        return
    fleet = json.loads(FLEET_SNAPSHOT.read_text()).get("engine", {})
    for tag, row in rows.items():
        old = fleet.get(tag, {}).get("sim_cycles_per_s")
        if old:
            row["speedup_vs_bench_fleet"] = round(
                row["sim_cycles_per_s"] / old, 3
            )


def add_baseline_speedups(rows: dict, baseline_path: str) -> None:
    """Fold in speedups vs an external {tag: cycles_per_s} baseline."""
    baseline = json.loads(Path(baseline_path).read_text())
    for tag, row in rows.items():
        old = baseline.get(tag)
        if old:
            row["pre_overhaul_cycles_per_s"] = old
            row["speedup_vs_pre_overhaul"] = round(
                row["sim_cycles_per_s"] / old, 3
            )


def check(ops: int, tolerance: float, snapshot_path: Path) -> int:
    """Gate on the geomean (not per-cell jitter), per-cell counter
    digests, and the committed fidelity/pool floors."""
    if not snapshot_path.exists():
        print(f"no committed snapshot at {snapshot_path}; run without --check first")
        return 2
    committed = json.loads(snapshot_path.read_text())
    rows = measure(ops, repeat=3)
    failed = []
    for tag, row in rows.items():
        new = row["sim_cycles_per_s"]
        cell = committed["engine"].get(tag, {})
        old = cell.get("sim_cycles_per_s")
        if row["counter_sha256"] != cell.get("counter_sha256"):
            failed.append(
                f"{tag}: counter digest {row['counter_sha256']} != "
                f"committed {cell.get('counter_sha256')}"
            )
            status = "PARITY-FAIL"
        else:
            status = "ok"
        ratio = f"{new / old:5.2f}x" if old else "  n/a"
        print(f"{tag:24s} {new:12.1f} c/s  vs committed {ratio}  {status}")

    geomean = _geomean([row["sim_cycles_per_s"] for row in rows.values()])
    committed_geomean = committed.get("geomean_sim_cycles_per_s")
    if committed_geomean:
        floor = committed_geomean * (1.0 - tolerance)
        verdict = "ok" if geomean >= floor else "REGRESSED"
        print(f"{'geomean':24s} {geomean:12.1f} c/s  vs committed "
              f"{geomean / committed_geomean:5.2f}x  {verdict}")
        if geomean < floor:
            failed.append(
                f"geomean: {geomean:.0f} c/s < {floor:.0f} "
                f"(committed {committed_geomean:.0f}, "
                f"tolerance {tolerance:.0%})"
            )
    else:
        failed.append("committed snapshot predates the geomean field; "
                      "regenerate BENCH_engine.json")

    # The committed fidelity/pool sections must keep their floors: a
    # regenerated snapshot that fails acceptance cannot pass CI.
    fidelity = committed.get("fidelity", {})
    parity = fidelity.get("exact_parity", {})
    if parity.get("matched") != parity.get("cells") or not parity.get("cells"):
        failed.append("committed fidelity.exact_parity is not clean "
                      f"({parity.get('matched')}/{parity.get('cells')})")
    adaptive = fidelity.get("adaptive_geomean_speedup", 0.0)
    if adaptive < ADAPTIVE_GEOMEAN_FLOOR:
        failed.append(
            f"committed adaptive_geomean_speedup {adaptive} < "
            f"{ADAPTIVE_GEOMEAN_FLOOR} floor"
        )
    if not all(row.get("within_tolerance")
               for row in fidelity.get("steady_matrix", {}).values()):
        failed.append("committed steady_matrix has counter drift beyond "
                      "the warp tolerance")
    pool = committed.get("pool", {})
    if pool.get("speedup_vs_spawn", 0.0) < POOL_SPEEDUP_FLOOR:
        failed.append(
            f"committed pool.speedup_vs_spawn {pool.get('speedup_vs_spawn')} "
            f"< {POOL_SPEEDUP_FLOOR} floor"
        )

    if failed:
        print("\nFAIL:")
        for line in failed:
            print(f"  - {line}")
        return 1
    print("\nOK: geomean within tolerance, counter digests match, "
          "fidelity/pool floors hold")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=4000,
                        help="ops per app in the fixed matrix")
    parser.add_argument("--steady-ops", type=int, default=STEADY_OPS,
                        help="ops per cell in the steady-state warp matrix")
    parser.add_argument("--pool-jobs", type=int, default=POOL_JOBS,
                        help="trivial jobs in the warm-pool campaign")
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed snapshot; "
                             "exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed geomean sim_cycles_per_s drop for "
                             "--check")
    parser.add_argument("--baseline-json", default=None,
                        help="optional {tag: cycles_per_s} map to compute "
                             "speedup_vs_pre_overhaul against")
    args = parser.parse_args()

    if args.check:
        return check(args.ops, args.tolerance, Path(args.out))

    rows = measure(args.ops)
    add_fleet_speedups(rows)
    if args.baseline_json:
        add_baseline_speedups(rows, args.baseline_json)
    fidelity = measure_fidelity(args.ops, args.steady_ops)
    pool = measure_pool(args.pool_jobs, POOL_OPS)
    snapshot = {
        "matrix": {
            "apps": MATRIX_APPS,
            "nodes": MATRIX_NODES,
            "ops": args.ops,
            "seed": MATRIX_SEED,
            "epoch_cycles": EPOCH_CYCLES,
        },
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "engine": rows,
        "geomean_sim_cycles_per_s": round(
            _geomean([row["sim_cycles_per_s"] for row in rows.values()]), 1
        ),
        "fidelity": fidelity,
        "pool": pool,
    }
    Path(args.out).write_text(json.dumps(snapshot, indent=2) + "\n")
    print(json.dumps(snapshot, indent=2))
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
