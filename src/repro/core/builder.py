"""PFBuilder: construct the CXL data-path map (section 4.3).

Traceroute is impossible inside a processor, but PMUs report path-specific
hit/miss counts at every stage, so the path map is reconstructed per
snapshot by synthesising the Table 5 counters: core counters give per-path
traffic at SB/L1D/LFB/L2, the CHA TOR records the core->CHA mapping and
LLC outcome, and M2PCIe/IMC counters pin down the DIMM hop.

The output :class:`PathMap` is exactly the shape of the paper's Table 7:
per-core hit distribution over {SB, L1D, LFB, L2} and uncore hit
distribution over {local LLC, SNC LLC, remote LLC, local DRAM, remote
DRAM, CXL memory}, per path family.  Cells the real PMU cannot observe
(RFO/DWr at L1D and LFB - section 5.9's stated limitation) are ``None``
here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..pmu.views import CHAPMUView, CorePMUView, M2PCIeView, core_ids
from .snapshot import Snapshot

CORE_COMPONENTS = ("SB", "L1D", "LFB", "L2")
UNCORE_COMPONENTS = (
    "local_LLC", "snc_LLC", "remote_LLC", "local_DRAM", "remote_DRAM",
    "CXL_memory",
)
FAMILIES = ("DRd", "RFO", "HWPF", "DWr")

# ocr scenario feeding each uncore component row.
_OCR_FOR_COMPONENT = {
    "local_LLC": "l3_hit",
    "snc_LLC": "snc_cache",
    "remote_LLC": "remote_cache",
    "local_DRAM": "local_dram",
    "remote_DRAM": "remote_dram",
    "CXL_memory": "cxl_dram",
}


@dataclass
class PathMap:
    """All mFlow-induced paths of one snapshot with quantitative loads."""

    snapshot_id: int
    duration: float
    # core -> family -> component -> hits (None = not observable, section 5.9)
    per_core: Dict[int, Dict[str, Dict[str, Optional[float]]]]
    # family -> component -> hits, aggregated from per-core ocr counters
    uncore: Dict[str, Dict[str, float]] = field(default_factory=dict)
    # family -> {hit, miss, miss_cxl, ...} socket-level TOR classification
    tor: Dict[str, Dict[str, float]] = field(default_factory=dict)
    # per CXL endpoint: loads (block data) and stores (acks) observed at M2PCIe
    cxl_traffic: Dict[int, Dict[str, float]] = field(default_factory=dict)

    # -- queries used by the case studies ---------------------------------

    def core_hits(self, core_id: int, family: str, component: str) -> Optional[float]:
        return self.per_core.get(core_id, {}).get(family, {}).get(component)

    def uncore_hits(self, family: str, component: str) -> float:
        return self.uncore.get(family, {}).get(component, 0.0)

    def total_core_requests(self, core_id: Optional[int] = None) -> float:
        """Sum of demand hits across core components (the 5.8x gcc metric)."""
        cores = [core_id] if core_id is not None else list(self.per_core)
        total = 0.0
        for cid in cores:
            for family in ("DRd", "RFO", "DWr"):
                for component in CORE_COMPONENTS:
                    value = self.core_hits(cid, family, component)
                    if value:
                        total += value
        return total

    def cxl_hits(self, family: Optional[str] = None) -> float:
        families = [family] if family else list(FAMILIES)
        return sum(self.uncore_hits(f, "CXL_memory") for f in families)

    def family_share_at_cxl(self) -> Dict[str, float]:
        """Which path dominates the CXL DIMM traffic (fotonik3d: HWPF 89%)."""
        total = self.cxl_hits()
        if total <= 0:
            return {f: 0.0 for f in FAMILIES}
        return {f: self.uncore_hits(f, "CXL_memory") / total for f in FAMILIES}

    def hot_path_core(self, core_id: int) -> str:
        """Family with the most core-level (SB..L2) hits."""
        best, best_value = FAMILIES[0], -1.0
        for family in FAMILIES:
            value = sum(
                v or 0.0
                for v in self.per_core.get(core_id, {}).get(family, {}).values()
            )
            if value > best_value:
                best, best_value = family, value
        return best

    def hot_path_uncore(self) -> str:
        best, best_value = FAMILIES[0], -1.0
        for family in FAMILIES:
            value = sum(self.uncore.get(family, {}).values())
            if value > best_value:
                best, best_value = family, value
        return best

    def rows(self, core_id: int) -> List[Tuple[str, Dict[str, Optional[float]]]]:
        """Table 7-shaped rows: component -> {family: hits}."""
        out: List[Tuple[str, Dict[str, Optional[float]]]] = []
        for component in CORE_COMPONENTS:
            out.append(
                (
                    component,
                    {
                        family: self.core_hits(core_id, family, component)
                        for family in FAMILIES
                    },
                )
            )
        for component in UNCORE_COMPONENTS:
            out.append(
                (
                    component,
                    {family: self.uncore_hits(family, component) for family in FAMILIES},
                )
            )
        return out


class PFBuilder:
    """Builds a :class:`PathMap` from one snapshot's counter delta."""

    def __init__(self, socket: int = 0) -> None:
        self.socket = socket

    def build(self, snapshot: Snapshot) -> PathMap:
        delta = snapshot.delta
        per_core: Dict[int, Dict[str, Dict[str, Optional[float]]]] = {}
        uncore: Dict[str, Dict[str, float]] = {
            family: {component: 0.0 for component in UNCORE_COMPONENTS}
            for family in FAMILIES
        }
        for core_id in core_ids(delta):
            view = CorePMUView(delta, core_id)
            per_core[core_id] = self._core_paths(view)
            for family in FAMILIES:
                histogram = self._serve_histogram(view, family)
                for component, value in histogram.items():
                    uncore[family][component] += value
        cha = CHAPMUView(delta, self.socket)
        tor = {
            family: {
                scenario: cha.tor_inserts(family, scenario)
                for scenario in ("total", "hit", "miss", "miss_cxl")
            }
            for family in ("DRd", "RFO", "HWPF")
        }
        tor["DWr"] = {"total": cha.tor_inserts("DWr", "total")}
        # Non-zero counts only: saved sessions drop the zeros live ones carry.
        cxl_traffic: Dict[int, Dict[str, float]] = {}
        for (scope, _event), value in delta.items():
            if value and scope.startswith("m2pcie") and scope[6:].isdigit():
                node = int(scope[6:])
                if node not in cxl_traffic:
                    m2p = M2PCIeView(delta, node)
                    cxl_traffic[node] = {
                        "loads": m2p.data_responses,
                        "stores": m2p.write_acks,
                        "inserts": m2p.ingress_inserts,
                    }
        return PathMap(
            snapshot_id=snapshot.snapshot_id,
            duration=snapshot.duration,
            per_core=per_core,
            uncore=uncore,
            tor=tor,
            cxl_traffic=cxl_traffic,
        )

    # -- per-core stage (SB -> L1D -> LFB -> L2) -------------------------------

    def _core_paths(self, view: CorePMUView) -> Dict[str, Dict[str, Optional[float]]]:
        paths: Dict[str, Dict[str, Optional[float]]] = {}
        # DRd: observable at L1D, LFB and L2.
        paths["DRd"] = {
            "SB": None,
            "L1D": view.l1_hits,
            "LFB": view.fb_hits,
            "L2": view.l2_hits("DRd"),
        }
        # RFO / DWr: the core PMU has no L1D/LFB split (section 5.9).
        paths["RFO"] = {
            "SB": None,
            "L1D": None,
            "LFB": None,
            "L2": view.l2_hits("RFO"),
        }
        paths["HWPF"] = {
            "SB": None,
            "L1D": None,
            "LFB": None,
            "L2": view.l2_hits("HWPF"),
        }
        paths["DWr"] = {
            "SB": view.get("mem_inst_retired.all_stores"),
            "L1D": None,
            "LFB": None,
            "L2": view.get("mem_store_retired.l2_hit"),
        }
        return paths

    # -- uncore stage (LLC tiers and DIMMs) --------------------------------

    def _serve_histogram(self, view: CorePMUView, family: str) -> Dict[str, float]:
        out: Dict[str, float] = {}
        if family == "HWPF":
            # Combine the three prefetch flavours (L1D HWPF, L2 HWPF DRd/RFO).
            for component, scenario in _OCR_FOR_COMPONENT.items():
                out[component] = (
                    view.ocr("HWPF", scenario)
                    + view.ocr("HWPF_L1", scenario)
                    + view.ocr("HWPF_RFO", scenario)
                )
            return out
        for component, scenario in _OCR_FOR_COMPONENT.items():
            out[component] = view.ocr(family, scenario)
        return out
