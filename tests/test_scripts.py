"""scripts/run_verification.py, run in its own process as a user runs it."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"


def test_run_verification_rejects_negative_order():
    result = subprocess.run([sys.executable, str(SCRIPT), "--order", "-1"], capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stderr == "error: --order must be >= 0\n"  # the message of `verify --order -1`, no traceback
    assert result.stdout == ""
