"""One cold pass of an in-process workload, in this fresh interpreter.

Started by :meth:`workloads.Workload.cold_pass` with the environment
``run.py`` prepared (``PYTHONPATH``, ``TMPDIR``)::

    python3 perfbench/cold_pass.py <workload> <seed> <pass index> <run dir>

Prints one JSON object: attempted, failed, the pass's wall seconds and its
result records.
"""

import json
import sys
import time

from workloads import make_workload


def main() -> int:
    name, seed, index, run_dir = sys.argv[1:5]
    from repro.sim._native import native_lib

    native_lib()
    workload = make_workload(name, int(seed), run_dir)
    start = time.perf_counter()
    attempted, failed, records = workload.run_pass(int(index), traced=False)
    seconds = time.perf_counter() - start
    print(json.dumps({"attempted": attempted, "failed": failed,
                      "seconds": seconds, "records": records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
