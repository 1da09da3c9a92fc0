"""One set-up sample in a fresh interpreter: ``import selfsim.cli`` and the
workload's machine and data construction.

    python3 benchmarks/setup_probe.py <workload>

Prints one JSON line with ``import_s`` and ``setup_s`` (import included).
"""

import sys
import time
from pathlib import Path

SRC = (Path.cwd() / "src").resolve()
sys.path.insert(0, str(SRC))
T0 = time.perf_counter()
import selfsim.cli  # noqa: E402

T1 = time.perf_counter()
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].setup()
T2 = time.perf_counter()

import json  # noqa: E402

if not Path(selfsim.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"selfsim was imported from {selfsim.__file__}, not from {SRC}")
print(json.dumps({"import_s": T1 - T0, "setup_s": T2 - T0}))
