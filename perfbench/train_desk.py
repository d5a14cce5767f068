"""Partial-mode training at the desk preset, ``train_desk``.

Each step is ``forward_train`` -> loss -> ``backward`` -> ``Adam.step``, as
``train_dcae`` runs it, and each epoch ends with the eval pass
``train_dcae`` makes: ``DcaeNet.reconstruct`` on a held-out set.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from bitmotor.layers import PackedEncoder, pool_out_size
from bitmotor.training import Adam, DcaeNet, TrainConfig, extract_features
from measure import Tracer, peak_rss_mb, step_metrics, time_setup

BATCH = 16
TRAIN_IMAGES = 64      # four steps per epoch
HELD_OUT_IMAGES = 32   # two eval batches per epoch


def synthetic_images(rng, n, size):
    """Blocky colour fields plus pixel noise, as uint8 (n, size, size, 3)."""
    coarse = rng.integers(0, 256, (n, size // 8, size // 8, 3))
    img = np.repeat(np.repeat(coarse, 8, axis=1), 8, axis=2)
    img = img + rng.integers(-24, 25, img.shape)
    return np.clip(img, 0, 255).astype(np.uint8)


def step_flops(net, batch):
    """GEMM FLOPs of one train step, from the stage specs.

    Each conv and FC stage runs one GEMM forward and two of the same size
    backward (input and weight gradients).
    """
    fwd = 0
    s = net.cfg.input_size
    for spec in net.enc_specs:
        if spec.kind == "conv":
            fwd += 2 * batch * s * s * 9 * spec.in_dim * spec.out_dim
            s = pool_out_size(s) if spec.pool else s
        else:
            fwd += 2 * batch * spec.in_dim * spec.out_dim
    for spec in net.dec_specs + [net.out_spec]:
        if spec.kind == "conv":
            fwd += 2 * batch * spec.resize_to**2 * 9 * spec.in_dim * spec.out_dim
        else:
            fwd += 2 * batch * spec.in_dim * spec.out_dim
    return 3 * fwd


def _untraced(name):
    return nullcontext({})


def epoch(net, opt, rng, x, xv, span):
    """One epoch as ``train_dcae`` runs it, then its eval pass.

    Returns the seconds of each train step, the seconds of the eval pass,
    and the number of non-finite losses (train losses and the eval MSE).
    """
    step_s, bad = [], 0
    order = rng.permutation(len(x))
    for start in range(0, len(x), BATCH):
        batch = x[order[start : start + BATCH]]
        t0 = time.perf_counter()
        with span("step"):
            with span("training.forward_train"):
                recon, tape = net.forward_train(batch)
            diff = recon - batch
            loss = float(np.mean(diff.astype(np.float64) ** 2))
            drecon = ((2.0 / diff.size) * diff).astype(np.float32)
            with span("training.backward"):
                grads = net.backward(tape, drecon)
            with span("training.adam_step"):
                opt.step(net.params, grads)
        step_s.append(time.perf_counter() - t0)
        bad += not np.isfinite(loss)
    t0 = time.perf_counter()
    with span("eval"):
        total = 0.0
        for start in range(0, len(xv), BATCH):
            held = xv[start : start + BATCH]
            with span("training.eval_reconstruct"):
                recon = net.reconstruct(held)
            total += float(np.mean((recon - held).astype(np.float64) ** 2)) * len(held)
    eval_s = time.perf_counter() - t0
    return step_s, eval_s, bad + (not np.isfinite(total))


def run(seed, seconds, trace):
    cfg = TrainConfig.for_size("desk", mode="partial", batch_size=BATCH, seed=seed)
    img_rng = np.random.default_rng([seed, 1])
    x = synthetic_images(img_rng, TRAIN_IMAGES, cfg.input_size).astype(np.float32) / np.float32(255.0)
    held_u8 = synthetic_images(img_rng, HELD_OUT_IMAGES, cfg.input_size)
    xv = held_u8.astype(np.float32) / np.float32(255.0)

    def build():
        rng = np.random.default_rng(cfg.seed)
        net = DcaeNet(cfg, rng)
        opt = Adam(net.params, lr=cfg.learning_rate, clip_names=tuple(n + "_w" for n in net.binarized))
        return net, opt, rng

    (net, opt, rng), setup_s = time_setup(build)
    # one untimed epoch first: the first second of work in a fresh process
    # can run up to twice as slow as the rest
    warm_steps, _, failed = epoch(net, opt, rng, x, xv, _untraced)
    attempted = len(warm_steps) + 1
    span = _untraced
    if trace:
        tracer = Tracer()
        span = tracer.span
        encode = net.encode

        def traced_encode(x01):
            with span("training.eval_encode"):
                return encode(x01)

        net.encode = traced_encode  # reconstruct calls self.encode

    step_s, eval_s, epochs = [], [], []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        steps, ev, bad = epoch(net, opt, rng, x, xv, span)
        step_s += steps
        eval_s.append(ev)
        failed += bad
        epochs.append((len(x) + len(xv), sum(steps) + ev))
    rss = peak_rss_mb()
    if trace:
        del net.encode

    # train -> deploy parity: the packed encoder built from the trained net
    # gives the eval-mode features of the trained net, image by image
    deployed = PackedEncoder(net.encoder_params())
    packed = np.stack([deployed.features(img) for img in held_u8])
    mismatched = int(np.any(packed != extract_features(net, held_u8), axis=1).sum())
    failed += mismatched

    train_images = len(step_s) * BATCH
    eval_images = len(eval_s) * len(xv)
    e2e = step_metrics(step_s, epochs)
    if trace:
        metrics = {"traced." + k: v for k, v in e2e.items()}
        metrics["traced.setup_s"] = setup_s
        steps = tracer.per_root("step")
        del steps["self_ms"]  # loss and its gradient
        evals = tracer.per_root("eval")
        del evals["self_ms"]  # MSE of the reconstructions
        metrics.update(steps, **evals)
        metrics["training.step_flops"] = step_flops(net, BATCH)
    else:
        metrics = dict(e2e, setup_s=setup_s, peak_rss_mb=rss)
    detail = {
        "train_steps": len(step_s),
        "eval_passes": len(eval_s),
        "train_images_per_s": train_images / sum(step_s),
        "eval_images_per_s": eval_images / sum(eval_s),
        "checked_losses": attempted + len(step_s) + len(eval_s),
        "checked_parity_images": len(held_u8),
        "parity_mismatched_images": mismatched,
    }
    return {
        "attempted": attempted + len(step_s) + len(eval_s) + len(held_u8),
        "failed": failed,
        "checked": len(held_u8),
        "metrics": metrics,
        "detail": detail,
    }
