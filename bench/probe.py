"""One set-up round: import pressgraph and run one small CLI op.

Usage: python3 bench/probe.py SRC_DIR CLI_ARG...

Times this process from just before ``import pressgraph.cli`` through
``cli.main([CLI_ARG...])`` with standard output captured, between two
calibration rounds (see calibration.py), then prints one JSON object:
``seconds``, the rounds' ``calibration_ns``, the op's exit ``code``
(null if it raised), its ``out`` and the ``module`` file the library
was loaded from.
"""

import io
import sys
import time

import calibration

before = calibration.round_ns()
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from pressgraph import cli  # noqa: E402

captured = io.StringIO()
real, sys.stdout = sys.stdout, captured
try:
    code = cli.main(sys.argv[2:])
except Exception:  # a traceback is a failed op, not a failed round
    code = None
finally:
    sys.stdout = real
seconds = time.perf_counter() - start
after = calibration.round_ns()

import json  # noqa: E402

print(
    json.dumps(
        {
            "seconds": seconds,
            "calibration_ns": [before, after],
            "code": code,
            "out": captured.getvalue(),
            "module": cli.__file__,
        }
    )
)
