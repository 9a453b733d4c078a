"""Freeze the paper_suite reference reports from the current code.

    python3 perfbench/freeze_reference.py

Runs ``opframe reproduce`` for the eight bundled scenarios at the reference
seed and at a second seed, and writes reference/paper_suite.json: the
reports without timing fields, and the same reports with every value
that differs between the two seeds masked, for comparison at any seed.
The benchmark compares every paper_suite report with these values
(workloads.RTOL, workloads.ATOL).  Re-freeze only when a change to opframe
is meant to change report values, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

REFERENCE_SEED = 0
OTHER_SEED = 1


def seed_free(a, b, workloads):
    """a with every value that differs between the two seeds' reports masked."""
    if isinstance(a, dict) and isinstance(b, dict) and set(a) == set(b):
        return {k: seed_free(a[k], b[k], workloads) for k in a}
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [seed_free(x, y, workloads) for x, y in zip(a, b)]
    return a if a == b else workloads.SEED_DEPENDENT


def main():
    run.prepare_process(run.envinfo.nproc())
    workloads = run.import_program()
    run.WORK.mkdir(exist_ok=True)
    workdir = run.WORK / "freeze"
    workdir.mkdir(exist_ok=True)
    try:
        reports = {}
        for seed in (REFERENCE_SEED, OTHER_SEED):
            suite = workloads.PaperSuite(seed, workdir)
            codes = suite.execute(suite.ops[0])
            if any(codes.values()):
                raise SystemExit(f"reproduce failed: {codes}")
            reports[seed] = {name: suite.report(name) for name in suite.names}
        ref, other = reports[REFERENCE_SEED], reports[OTHER_SEED]
        payload = {"seed": REFERENCE_SEED, "reports": ref,
                   "any_seed": {n: seed_free(ref[n], other[n], workloads) for n in ref}}
        workloads.REFERENCE.parent.mkdir(exist_ok=True)
        workloads.REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {workloads.REFERENCE}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
