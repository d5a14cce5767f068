import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import parity_sweep  # noqa: E402


def test_prints_one_line_per_seed_and_epoch():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "parity_sweep.py"), "--seeds", "1", "--epochs", "1"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["1", "1", "0"]


def test_seed_10_after_3_epochs_deploys_exactly():
    # here conv1 units of one held-out image lie within float32 rounding of
    # their BN threshold, so eval agrees with the deployed encoder only if it
    # sums the integer pixels as the deployed conv1 does
    assert [bad for _epoch, bad in parity_sweep.mismatches(10, 3)] == [0, 0, 0]
