"""Record the RMSEs every input set must reproduce, into references.json.

    python3 perfbench/record_references.py WORKLOAD ...

Runs one untraced sample per input set of each named workload and stores
the RMSEs it wrote, if any. Run it only when the program's results are
meant to change, and say why in the change that updates references.json.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main(names: list[str]) -> int:
    references = workloads.load_references()
    for name in names:
        workload = workloads.WORKLOADS[name]
        recorded = {}
        for slot in range(workloads.SLOTS):
            work = run.WORK / f"record-{name}-{os.getpid()}"
            run.remove_work_dir(work)
            (work / "inputs").mkdir(parents=True)
            try:
                inputs = workload.prepare(run.ROOT, work / "inputs", slot)
                result = run.run_sample(workload, inputs, work / "sample", trace=False)
                if "error" in result:
                    print(f"{name} input set {slot}: {result['error']}", file=sys.stderr)
                    return 1
                observed, _ = workload.observe(inputs, work / "sample")
            finally:
                run.remove_work_dir(work)
            if observed:
                recorded[str(slot)] = observed
                print(f"{name} input set {slot}: {json.dumps(observed)}", flush=True)
        if recorded:
            references[name] = recorded
    workloads.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
