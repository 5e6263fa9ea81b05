"""The end-to-end benchmark's node still starts against this source tree.

``e2ebench/node.py <workload> --probe`` builds exactly what the benchmark
serves (sessions, ``ModelServer`` deployments, the gateway) through the
program's public API, reports ready and exits.  Running it for every
workload here turns an API change that would break the benchmark into a
test failure.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

NODE = Path(__file__).resolve().parents[1] / "e2ebench" / "node.py"


@pytest.mark.parametrize("workload", ["offline-prefill", "gateway-infer",
                                      "gateway-decode"])
def test_node_probe_reports_ready(workload):
    proc = subprocess.run(
        [sys.executable, str(NODE), workload, "--seed", "1", "--probe"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["ready"] is True, last
