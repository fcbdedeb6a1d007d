"""Time one set-up of a workload in a fresh interpreter.

    python3 setup_probe.py SRC_DIR WORKLOAD SEED OUT_DIR

Set-up is importing graphcurv (with numpy) and generating and serializing
the workload's graph files.  Prints the elapsed seconds; run.py starts
several of these and reports their median as ``setup_s``.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    src, workload, seed, out_dir = sys.argv[1:]
    start = time.perf_counter()
    sys.path.insert(0, src)
    import graphcurv  # noqa: F401  (timed: the import is part of set-up)
    from workloads import prepare

    prepare(workload, int(seed), Path(out_dir))
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
