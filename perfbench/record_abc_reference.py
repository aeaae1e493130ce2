#!/usr/bin/env python3
"""Record the (a)/(b)/(c) answers of the abc pass into abc_reference.json.

Run from the root of a checkout: ``python3 perfbench/record_abc_reference.py``.
The benchmark's abc gate compares every later run, on every seed, with the
answers recorded here.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main():
    abc = workloads.Abc(reference=[])
    instances = []
    for index, s, t in workloads.abc_pool(workloads.ABC_QUOTA):
        item = workloads.Item(f"pool #{index}", (s, t))
        instances.append(
            {
                "index": index,
                "dim": s.dim,
                "s_points": len(s),
                "tile_points": len(t.tile),
                "abc": list(abc.run(item)),
            }
        )
    doc = {"pool_seed": workloads.ABC_POOL_SEED, "instances": instances}
    with open(workloads.ABC_REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
