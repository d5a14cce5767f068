"""Train -> deploy parity of the ``train_desk`` benchmark recipe, epoch by epoch.

    python3 tools/parity_sweep.py --seeds 1 2 3 --epochs 80 [--mode binary]

``train_desk`` trains for a fixed time and then counts the held-out images
whose packed features (``PackedEncoder(net.encoder_params())``) differ from
``extract_features``; each such image is a failed operation. The epoch that
check lands on moves with the step time. This tool builds the net, optimizer
and images of each seed as ``train_desk.run`` does, runs
``train_desk.epoch`` ``--epochs`` times, and after every epoch prints one
line ``seed epoch mismatched``. It exits 1 if any count is nonzero.

``--mode`` picks the training mode, ``partial`` (the benchmark's) or
``binary``; both binarize the encoder, and binary mode trains it beside a
binarized decoder.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import train_desk  # noqa: E402

from bitmotor.layers import PackedEncoder  # noqa: E402
from bitmotor.training import Adam, DcaeNet, TrainConfig, extract_features  # noqa: E402


def mismatches(seed, epochs, mode="partial"):
    """Yield (epoch, mismatched held-out images) after each of ``epochs`` epochs."""
    cfg = TrainConfig.for_size("desk", mode=mode, batch_size=train_desk.BATCH, seed=seed)
    img_rng = np.random.default_rng([seed, 1])
    x = train_desk.synthetic_images(img_rng, train_desk.TRAIN_IMAGES, cfg.input_size)
    x = x.astype(np.float32) / np.float32(255.0)
    held_u8 = train_desk.synthetic_images(img_rng, train_desk.HELD_OUT_IMAGES, cfg.input_size)
    xv = held_u8.astype(np.float32) / np.float32(255.0)
    rng = np.random.default_rng(cfg.seed)
    net = DcaeNet(cfg, rng)
    opt = Adam(net.params, lr=cfg.learning_rate, clip_names=tuple(n + "_w" for n in net.binarized))
    for epoch in range(1, epochs + 1):
        train_desk.epoch(net, opt, rng, x, xv, train_desk._untraced)
        deployed = PackedEncoder(net.encoder_params())
        packed = np.stack([deployed.features(img) for img in held_u8])
        yield epoch, int(np.any(packed != extract_features(net, held_u8), axis=1).sum())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--epochs", type=int, required=True)
    ap.add_argument("--mode", choices=("partial", "binary"), default="partial")
    args = ap.parse_args(argv)
    failed = False
    for seed in args.seeds:
        for epoch, bad in mismatches(seed, args.epochs, args.mode):
            print(seed, epoch, bad, flush=True)
            failed |= bad > 0
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
