"""Print the seconds a fresh process spends on a workload's set-up.

Set-up is the import of cyclobox (and numpy with it) plus building the
workload's boxes, configs and alphas.  run.py starts this script several
times with src/ on PYTHONPATH and reports the median as setup_s:

    PYTHONPATH=src python3 perfbench/setup_time.py vertex-laws 1
"""

import sys
import time


def main() -> None:
    start = time.perf_counter()
    import suites

    suites.build_cells(sys.argv[1], int(sys.argv[2]))
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
