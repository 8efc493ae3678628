"""One workload's set-up in a fresh interpreter, timed from outside by run.py.

Usage: python3 setup_probe.py <workload>   (with the package's sources on
PYTHONPATH).  Set-up is importing the modules the workload uses and building
its inputs: the five boundary tables for phase-sweep.
"""

import sys

if sys.argv[1] == "cli-cold":
    import imbilliards.cli  # noqa: F401
else:
    import workloads

    if sys.argv[1] == "phase-sweep":
        workloads.PhaseSweep(0, workloads.Tally())
