"""One fresh-process set-up of a workload, timed by ``run.py`` as ``setup_s``.

It imports ``repro`` and does the workload's set-up: data generation and
index build (``figures``, ``sweeps``), or starting and stopping the job
manager and HTTP server (``service``).  Run from the repository root.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--tmp", required=True, help="directory for the cell store")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](args.seed, args.scale, Path(args.tmp))
    try:
        workload.setup_probe()
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
