"""One sha256 per training mode of a seeded desk run, for bit-identity checks.

    python3 tools/train_digest.py [--seed 0] [--epochs 8]

For each of full, partial and binary, trains the desk preset at batch 16 with
``train_dcae`` on ``train_desk``'s synthetic images (64 to train on, 32 held
out) and prints one line ``mode sha256``. The digest covers the curve, every
parameter and running statistic, ``reconstruct`` and ``extract_features`` of
the held-out images, and, where the encoder is binarized, the packed feature
words of the deployed encoder. Run it on two checkouts: equal lines mean the
two train, evaluate and deploy to the same bits.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import train_desk  # noqa: E402

from bitmotor.kernels import PIXEL_MAX  # noqa: E402
from bitmotor.layers import PackedEncoder  # noqa: E402
from bitmotor.training import MODES, TrainConfig, extract_features, train_dcae  # noqa: E402


def digest(cfg, train, held):
    """sha256 hex digest of one seeded ``train_dcae`` run on uint8 images."""
    run = train_dcae(train, cfg, held)
    net = run.net
    h = hashlib.sha256()

    def add(name, a):
        a = np.ascontiguousarray(a)
        h.update(f"{name} {a.dtype.str} {a.shape}".encode())
        h.update(a.tobytes())

    add("curve", np.array(run.curve, np.float64))
    for store in (net.params, net.running):
        for key in sorted(store):
            add(key, store[key])
    add("reconstruct", net.reconstruct(held.astype(np.float32) / PIXEL_MAX))
    add("features", extract_features(net, held))
    if net.enc_specs[-1].name in net.binarized:
        deployed = PackedEncoder(net.encoder_params())
        add("packed", np.stack([deployed.feature_words(img) for img in held]))
    return h.hexdigest()


def lines(cfg, train, held):
    """``mode sha256`` for each mode, with ``cfg``'s other fields."""
    return [f"{mode} {digest(replace(cfg, mode=mode), train, held)}" for mode in MODES]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=8)
    args = ap.parse_args(argv)
    cfg = TrainConfig.for_size("desk", epochs=args.epochs, batch_size=train_desk.BATCH, seed=args.seed)
    img_rng = np.random.default_rng([args.seed, 1])
    train = train_desk.synthetic_images(img_rng, train_desk.TRAIN_IMAGES, cfg.input_size)
    held = train_desk.synthetic_images(img_rng, train_desk.HELD_OUT_IMAGES, cfg.input_size)
    for line in lines(cfg, train, held):
        print(line, flush=True)


if __name__ == "__main__":
    main()
