"""Set one workload up in a fresh interpreter, then print ``ready``.

``run.py`` starts this script several times and times each from process
start to the ``ready`` line: that is the workload's set-up time (interpreter
start, ``import fibrelab``, the deferred sympy import, input generation).

    python3 benchmarks/setup_probe.py <workload> <seed>
"""

import sys

from checkout import require_source

require_source()

import workloads  # noqa: E402  (needs the checkout's src on sys.path)

workloads.build(sys.argv[1], int(sys.argv[2]))
sys.stdout.write("ready\n")
sys.stdout.flush()
