"""Workload definitions: the cells and campaign jobs each workload runs.

Every workload crosses the same three applications with a local-DDR and
a CXL memory binding; the seed given to the benchmark becomes the
workload RNG seed, so one seed always yields the same address streams.
A definition is plain data: ``parity.py`` stores it next to the golden
digests and refuses goldens made for another definition.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

APPS = ["541.leela_r", "519.lbm_r", "bfs"]
NODES = ["local", "cxl"]

WORKLOADS: Dict[str, Dict] = {
    # Coarse epochs: engine dispatch and the simulated stages dominate.
    "exact-matrix": {"apps": APPS, "nodes": NODES, "ops": [12_000],
                     "epoch_cycles": 20_000.0},
    # 20x finer epochs: snapshot, the four techniques and the document
    # round trip run once per epoch and take about a third of the wall.
    "fine-epoch": {"apps": APPS, "nodes": NODES, "ops": [12_000],
                   "epoch_cycles": 1_000.0},
    # 24 small jobs; even-indexed ones are pre-cached before every call.
    "campaign-mixed": {"apps": APPS, "nodes": NODES,
                       "ops": [600, 900, 1_200, 1_500],
                       "epoch_cycles": 1_000.0},
}

#: Pool size of ``campaign-mixed`` (the host has two cores).
CAMPAIGN_WORKERS = 2


def specs(workload: str, seed: int) -> List[Tuple[str, object, object]]:
    """Fresh ``(tag, ProfileSpec, MachineConfig)`` per cell or job."""
    from repro.core import AppSpec, ProfileSpec
    from repro.exec import cxl_node_id, local_node_id
    from repro.sim import spr_config
    from repro.workloads import build_app

    definition = WORKLOADS[workload]
    many = len(definition["ops"]) > 1
    out = []
    for app in definition["apps"]:
        for node in definition["nodes"]:
            for ops in definition["ops"]:
                config = spr_config()
                node_id = (local_node_id(config) if node == "local"
                           else cxl_node_id(config))
                spec = ProfileSpec(
                    apps=[AppSpec(
                        workload=build_app(app, num_ops=ops, seed=seed),
                        core=0, membind=node_id)],
                    epoch_cycles=definition["epoch_cycles"],
                )
                tag = f"{app}@{node}" + (f"#{ops}" if many else "")
                out.append((tag, spec, config))
    return out


def campaign_jobs(seed: int):
    """The fixed ``campaign-mixed`` job list, as fresh CampaignJobs."""
    from repro.exec import CampaignJob

    return [CampaignJob(spec=spec, config=config, tag=tag)
            for tag, spec, config in specs("campaign-mixed", seed)]
