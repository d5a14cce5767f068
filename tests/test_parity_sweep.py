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
    # the benchmark recipe at the seed and epoch where eval and deploy once
    # disagreed; the near-threshold case of parity now lives in
    # test_training's test_near_zero_variance_conv1
    assert [bad for _epoch, bad in parity_sweep.mismatches(10, 3)] == [0, 0, 0]
