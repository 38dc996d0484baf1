"""Regenerate ``perfbench/pinned.json``, the outputs the checks expect.

Usage (from the repository root)::

    python3 perfbench/pin.py

Run it only when a change is meant to alter the program's outputs; the
reproduced figures are otherwise bit-identical across serial, parallel,
sharded and cached runs, which is what the pinned values hold the
program to.  ``paper_all`` pins the sha256 of the ``all --json`` output
for each of its grid base seeds; ``scale_hybrid`` pins the mean setup
and forwarding delays, which do not depend on the seed (the seed only
renames the flows).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import OUT, PINNED, PaperAll, ScaleHybrid  # noqa: E402


def main() -> int:
    OUT.mkdir(exist_ok=True)
    paper = PaperAll()
    digests = {}
    for base in range(paper.PINNED_SEEDS):
        cold, warm = paper.iteration(paper.inputs(base))[:2]
        if cold.error or warm.output != cold.output:
            print(f"seed {base}: {cold.error or 'warm != cold'}",
                  file=sys.stderr)
            return 1
        digests[str(base)] = cold.output
        print(f"paper_all seed {base}: {cold.output}", file=sys.stderr)
    scale = ScaleHybrid()
    completed, total, setup, fwd = scale.iteration(scale.inputs(0))[0].output
    if completed != total:
        print(f"scale_hybrid completed {completed} of {total}",
              file=sys.stderr)
        return 1
    pinned = {
        "paper_all": {"argv": paper.inputs(0)[:-2], "sha256": digests},
        "scale_hybrid": {str(scale.flows): {
            "setup_delay_mean": setup, "forwarding_delay_mean": fwd}},
    }
    PINNED.write_text(json.dumps(pinned, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
