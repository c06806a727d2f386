"""Record the design builds' outputs as the reference later runs are checked against.

Run from the repository root, with the commit to pin checked out:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json
import subprocess

import workloads as wl


def main() -> None:
    builds = {}
    for build in wl.design_small_builds() + wl.design_ar1_builds():
        _, rep = build.run()
        builds[build.label] = {"regime": rep.regime, "power": rep.power,
                               "efficacy": rep.efficacy}
        print(build.label, builds[build.label], flush=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip()
    with open(wl.REFERENCE, "w") as fh:
        json.dump({"commit": commit, "builds": builds}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
