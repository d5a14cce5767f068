"""What a training step keeps on its tape, and its tracemalloc peak.

    python3 tools/tape_bytes.py --size desk --mode partial --batch 16

Builds the preset's net (seed 0) and a batch of seeded random images, runs
``forward_train`` and prints one line ``stage key MB`` per array the tape
holds, in walk order, then the tape's total. An array whose buffer is
already counted, or belongs to the net's parameters, counts 0 MB and is
marked ``shared``. Last comes the tracemalloc peak of one train step as
``train_dcae`` runs it: ``forward_train``, ``backward`` and ``Adam.step``.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from bitmotor.training import MODES, SIZE_PRESETS, Adam, DcaeNet, TrainConfig  # noqa: E402


def _owner(a):
    """The array that owns ``a``'s buffer."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def tape_bytes(net, batch):
    """(stage, key, bytes, shared) for each array on ``forward_train``'s tape.

    A key that holds a tuple (the BN and pool caches) sums its arrays.
    ``shared`` is true when every buffer was counted before or is a
    parameter's; such an entry counts 0 bytes.
    """
    seen = {id(_owner(p)) for p in net.params.values()}
    _, tape = net.forward_train(batch)
    rows = []
    for entry in tape:
        for key, value in entry.items():
            arrays = [a for a in (value if isinstance(value, tuple) else (value,)) if isinstance(a, np.ndarray)]
            if not arrays:
                continue
            new = {id(o): o.nbytes for o in map(_owner, arrays) if id(o) not in seen}
            seen.update(new)
            rows.append((entry["spec"].name, key, sum(new.values()), not new))
    return rows


def step_peak(net, opt, batch):
    """tracemalloc peak, in bytes, of one train step on ``batch``."""
    tracemalloc.start()
    try:
        recon, tape = net.forward_train(batch)
        diff = recon - batch
        grads = net.backward(tape, ((2.0 / diff.size) * diff).astype(np.float32))
        opt.step(net.params, grads)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def report(cfg, batch_size):
    """The lines this tool prints for config ``cfg`` at ``batch_size``."""
    net = DcaeNet(cfg)
    opt = Adam(net.params, lr=cfg.learning_rate, clip_names=tuple(n + "_w" for n in net.binarized))
    s = cfg.input_size
    batch = np.random.default_rng(0).random((batch_size, s, s, 3)).astype(np.float32)
    rows = tape_bytes(net, batch)
    lines = [f"{name:<12}{key:<8}{nbytes / 1e6:>10.2f}" + ("  shared" if shared else "")
             for name, key, nbytes, shared in rows]
    lines.append(f"{'tape':<20}{sum(r[2] for r in rows) / 1e6:>10.2f}")
    lines.append(f"{'step peak':<20}{step_peak(net, opt, batch) / 1e6:>10.2f}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", choices=sorted(SIZE_PRESETS), required=True)
    ap.add_argument("--mode", choices=MODES, default="partial")
    ap.add_argument("--batch", type=int, default=16)
    args = ap.parse_args(argv)
    cfg = TrainConfig.for_size(args.size, mode=args.mode, batch_size=args.batch)
    print("\n".join(report(cfg, args.batch)))


if __name__ == "__main__":
    main()
