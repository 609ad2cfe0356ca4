"""Counter-parity checks: session digests against stored goldens.

A speed-only change must leave every simulated statistic identical, so
each benchmark op's session counters are digested (sha256 over the
sorted, non-zero ``api.counters`` totals) and compared with a golden
digest stored in ``golden.json`` for that workload, seed and cell or
campaign job.  A mismatch counts as a failed op.

Seeds without stored goldens fall back to self-reference: the first
digest seen for a cell in the run becomes its reference, so the run
still catches non-determinism but not a change of the model.

Regenerate the goldens after changing a workload definition::

    python3 perfbench/parity.py --seeds 0-31
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Optional

import cells

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"


def counter_digest(result) -> str:
    """sha256 of a session's total counters, order- and zero-insensitive."""
    from repro import api

    totals = api.counters(result)
    payload = json.dumps(sorted(
        (scope, event, repr(value))
        for (scope, event), value in totals.items() if value
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


class DigestCheck:
    """Reference digests for one workload and seed."""

    def __init__(self, stored: Optional[Dict[str, str]]) -> None:
        self.stored = stored is not None
        self._reference: Dict[str, str] = dict(stored or {})

    def check(self, tag: str, digest: str) -> bool:
        return self._reference.setdefault(tag, digest) == digest


def load_check(workload: str, seed: int, definition: Dict) -> DigestCheck:
    """The golden digests for ``workload`` at ``seed``.

    Raises ``ValueError`` when the stored goldens were made for another
    workload definition: they would flag every op as failed.
    """
    goldens = (json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists()
               else {})
    entry = goldens.get(workload)
    if entry is None:
        return DigestCheck(None)
    if entry["definition"] != definition:
        raise ValueError(
            f"{GOLDEN_PATH.name} was made for another {workload} definition; "
            "regenerate it with perfbench/parity.py"
        )
    return DigestCheck(entry["seeds"].get(str(seed)))


def _seed_list(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31",
                        help="seeds to store, e.g. 0-31 or 7,23")
    args = parser.parse_args(argv)

    from repro import api

    goldens = (json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists()
               else {})
    for name in cells.WORKLOADS:
        definition = cells.WORKLOADS[name]
        entry = goldens.get(name)
        if entry is None or entry["definition"] != definition:
            entry = {"definition": definition, "seeds": {}}
        for seed in _seed_list(args.seeds):
            digests = {}
            for tag, spec, config in cells.specs(name, seed):
                digests[tag] = counter_digest(
                    api.run(spec, config=config, cache=False))
            entry["seeds"][str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} digests",
                  file=sys.stderr)
        goldens[name] = entry
        GOLDEN_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True)
                               + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(main())
