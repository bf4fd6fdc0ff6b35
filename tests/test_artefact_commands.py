"""Artefact commands are total at any ``-n``.

At small ``-n`` a paper claim may fail (exit 1), but the command must
still print its table and claims and exit normally: never a traceback.
Each command runs in a fresh interpreter, exactly as a user types it.

Only the cheap commands run here, about 8.5 s for the first ten runs on
a 2-vCPU host; the two chaos runs add about 0.7 s.  Left out, with the
seconds their ``-n 1`` plus ``-n 2`` runs took on that host:
scheduler-ablation 3.5, drops 3.4, faults 3.9, table1 4.0, figure5 4.1,
defenses 6.2, fingerprint 19.7, streaming 31.9 and dos 32.5.  The CI
``paper-claims`` job runs every command at its default ``-n``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

CHEAP_COMMANDS = ("baseline", "table2", "quic", "recovery-ablation",
                  "dupserve-ablation", "chaos")


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("command", CHEAP_COMMANDS)
def test_artefact_command_exits_cleanly(command, n):
    argv = [sys.executable, "-m", "repro", command, "-n", str(n),
            "--no-cache"]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    assert "PASS" in proc.stdout or "FAIL" in proc.stdout, proc.stdout
