"""Regenerate bench/pins.json: the outputs of every workload at the pinned
seed, which bench/run.py then requires of every commit.

    python3 bench/pin.py

Run from the repository root, only at a commit whose outputs are known to
be right: a change that claims a speed-up must not change the pins.
"""

from __future__ import annotations

import json
import os

from run import HERE, spawn
from workloads import WORKLOADS

PINNED_SEED = 0


def main() -> None:
    pins = {"seed": PINNED_SEED}
    for name in WORKLOADS:
        rep = spawn(name, PINNED_SEED)
        if rep["failed"]:
            raise SystemExit(f"{name}: {rep['failed']} failed runs; not pinning")
        pins[name] = rep["outputs"]
    # one pinned item (a cell or a trace hash) per line, for readable diffs
    parts = [f' "seed": {PINNED_SEED}']
    for name in WORKLOADS:
        ((key, items),) = pins[name].items()
        rows = ",\n".join(f"   {json.dumps(item)}" for item in items)
        parts.append(f' "{name}": {{"{key}": [\n{rows}\n ]}}')
    with open(os.path.join(HERE, "pins.json"), "w") as fh:
        fh.write("{\n" + ",\n".join(parts) + "\n}\n")

if __name__ == "__main__":
    main()
