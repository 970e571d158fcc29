"""No process a run starts outlives it: orphans are adopted and reaped."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

# Runs in its own interpreter: becoming a subreaper changes the process.
_SCRIPT = """
import json, subprocess, sys
sys.path.insert(0, sys.argv[1])
from perfbench.procs import (become_subreaper, reap_children,
                             stop_resource_tracker)
from multiprocessing import shared_memory

become_subreaper()
seg = shared_memory.SharedMemory(create=True, size=64)
seg.close()
seg.unlink()
# a shell that exits at once, leaving its background sleep an orphan
subprocess.run(["sh", "-c", "sleep 30 &"], check=True)
stop_resource_tracker()
killed = reap_children(grace=1.0)
print(json.dumps({"killed": killed, "left": reap_children(grace=0.0)}))
"""


def test_orphans_are_killed_and_the_tracker_ends_on_its_own():
    out = subprocess.run([sys.executable, "-c", _SCRIPT, ROOT],
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert len(result["killed"]) == 1
    assert "sleep 30" in result["killed"][0]
    assert result["left"] == []
