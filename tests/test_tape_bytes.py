import subprocess
import sys
from pathlib import Path

import numpy as np

from bitmotor.training import DcaeNet, TrainConfig

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import tape_bytes  # noqa: E402

MICRO = TrainConfig(mode="partial", input_size=16, channels=(8, 16), fc1_out=64, feature_dim=64, batch_size=2)


def test_micro_tape_rows_follow_the_walk():
    net = DcaeNet(MICRO)
    batch = np.random.default_rng(0).random((2, 16, 16, 3)).astype(np.float32)
    rows = tape_bytes.tape_bytes(net, batch)
    names = [s.name for s in net.stages]
    assert sorted({r[0] for r in rows}, key=names.index) == names
    assert [r[0] for r in rows] == sorted((r[0] for r in rows), key=names.index)
    by_key = {(name, key): nbytes for name, key, nbytes, _shared in rows}
    # conv1 keeps the batch it read; dec_out alone keeps columns, 9x its input
    assert by_key["enc_conv1", "x_in"] == batch.nbytes
    assert [k for k in by_key if k[1] == "cols"] == [("dec_out", "cols")]
    assert by_key["dec_out", "cols"] == 9 * 2 * 16 * 16 * MICRO.channels[0] * 4
    # float weights are the parameters themselves, not tape memory
    assert all(shared for name, key, _n, shared in rows if key == "w_eff" and name not in net.binarized)


def test_report_ends_with_tape_total_and_step_peak():
    lines = tape_bytes.report(MICRO, 2)
    names = {spec.name for spec in DcaeNet(MICRO).stages}
    assert all(line.split()[0] in names for line in lines[:-2])
    assert lines[-2].split()[0] == "tape"
    assert lines[-1].startswith("step peak") and float(lines[-1].split()[-1]) > 0


def test_cli_prints_desk_report():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "tape_bytes.py"), "--size", "desk", "--batch", "1"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[-2].startswith("tape") and lines[-1].startswith("step peak")
    assert any(line.split()[:2] == ["dec_out", "cols"] for line in lines)
