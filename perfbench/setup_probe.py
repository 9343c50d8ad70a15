"""Time one cold set-up: import hybft and build a workload's first object.

run.py starts this in a fresh interpreter several times and reports the
median as ``setup_s``. Usage: ``python3 perfbench/setup_probe.py <workload>
<seed>``; it prints the wall and reference seconds taken (see speed.py).
"""

import sys
from pathlib import Path

import speed

with speed.Clock() as clock:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads  # noqa: E402  (imports hybft; timed on purpose)

    workloads.first_build(sys.argv[1], int(sys.argv[2]))
print(clock.wall, clock.ref)
