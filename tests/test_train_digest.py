import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from bitmotor.training import MODES, TrainConfig

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import train_digest  # noqa: E402

MICRO = TrainConfig(input_size=16, channels=(8, 16), fc1_out=64, feature_dim=64, epochs=2, batch_size=8)


def test_two_runs_print_the_same_three_lines():
    rng = np.random.default_rng([0, 1])
    train, held = (train_digest.train_desk.synthetic_images(rng, n, 16) for n in (16, 8))
    first = train_digest.lines(MICRO, train, held)
    assert [line.split()[0] for line in first] == list(MODES)
    assert all(len(line.split()[1]) == 64 for line in first)
    assert train_digest.lines(MICRO, train, held) == first
    # the digest reads the run: another seed gives three other lines
    other = train_digest.lines(replace(MICRO, seed=1), train, held)
    assert all(a != b for a, b in zip(first, other))
