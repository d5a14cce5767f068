"""Closed-loop packed-encoder workloads, ``loop_paper`` and ``loop_desk``.

One client sends one distinct seeded uint8 frame at a time to
``PackedEncoder.features`` and waits for the result, so no queue forms and
``images_per_s`` is the highest camera rate the encoder keeps up with.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from bitmotor import core, kernels, layers
from measure import Tracer, peak_rss_mb, step_metrics, time_setup, time_windows

GEOMETRY = {
    "loop_paper": (layers.PAPER_INPUT_SIZE, layers.PAPER_CHANNELS, layers.PAPER_FC1_OUT),
    "loop_desk": (layers.DESK_INPUT_SIZE, layers.DESK_CHANNELS, layers.DESK_FC1_OUT),
}

# Frames per run, drawn uniformly by a seeded reservoir, that are checked
# bit for bit against the float reference after the timed region.
CHECKED_FRAMES = 8
# Untimed frames before the timed region: at least WARMUP_FRAMES and for at
# least WARMUP_SECONDS. The first second of frames in a fresh process can run
# up to twice as slow as the rest.
WARMUP_FRAMES = 3
WARMUP_SECONDS = 1.0


def replay_setup(enc, tracer):
    """``PackedEncoder(enc)`` from outside: fold BN, pack weights, with spans."""
    with tracer.span("setup"):
        for i, lay in enumerate(enc.layers):
            with tracer.span("layers.fold_bn_sign"):
                t = layers.fold_bn_sign(lay.bn)
            wsigns = core.unpack(lay.weights)
            if i:
                kernel = kernels.BinConvKernel if lay.kind == "conv" else kernels.BinFcKernel
                with tracer.span("kernels.pack_weights"):
                    kernel(wsigns, t.tau, t.flip)


def _pool(xw, tracer):
    with tracer.span("kernels.pool") as n:
        out = kernels.pool_or(xw)
    n["bytes"] = xw.nbytes + out.nbytes
    return out


def replay_features(pe, names, pixels, tracer):
    """``pe.features(pixels)`` stage by stage, with a span around each kernel.

    ``names`` are the layer names of ``pe.stages``. Multiply-accumulates and
    operand bytes (inputs, packed weights, outputs) are computed from the
    array sizes of each call.
    """
    with tracer.span("frame"):
        px = layers._check_pixels(pixels, pe.input_size, pe.in_channels)
        with tracer.span("kernels.conv1") as n:
            xw = kernels.conv1_forward(px, pe.conv1_signs, pe.conv1_tau, pe.conv1_flip)
        c = pe.conv1_signs.shape[0]
        n["macs"] = xw.shape[0] * xw.shape[1] * c * 9 * px.shape[2]
        n["bytes"] = px.nbytes + pe.conv1_signs.nbytes + xw.nbytes
        if pe.conv1_pool:
            xw = _pool(xw, tracer)
        spatial = True
        for name, (kind, k, pool) in zip(names, pe.stages):
            if kind == "conv":
                with tracer.span(f"kernels.{name}") as n:
                    out = k(xw)
                n["macs"] = out.shape[0] * out.shape[1] * k.out_channels * 9 * k.in_channels
                n["bytes"] = xw.nbytes + k.ww.nbytes + out.nbytes
                xw, c = out, k.out_channels
                if pool:
                    xw = _pool(xw, tracer)
                continue
            if spatial:
                with tracer.span("kernels.flatten") as n:
                    out = kernels.flat_words(xw, c)
                n["bytes"] = xw.nbytes + out.nbytes
                xw, spatial = out, False
            with tracer.span(f"kernels.{name}") as n:
                out = k(xw)
            n["macs"] = k.out_features * k.in_features
            n["bytes"] = xw.nbytes + k.wv.nbytes + out.nbytes
            xw = out
        bits = kernels.unpack_channel_words(xw[None, :], pe.feature_dim)[0]
        return (bits.astype(np.float32) * 2.0 - 1.0).astype(np.float32)


def run(workload, seed, seconds, trace):
    size, channels, fc1_out = GEOMETRY[workload]
    enc = layers.random_encoder_params(np.random.default_rng(seed), size, channels, fc1_out)
    pe, setup_s = time_setup(lambda: layers.PackedEncoder(enc))
    step = pe.features
    if trace:
        tracer = Tracer()
        _, setup_s = time_setup(lambda: replay_setup(enc, tracer))
        names = [lay.name for lay in enc.layers[1:]]
        step = functools.partial(replay_features, pe, names, tracer=tracer)

    frame_rng = np.random.default_rng([seed, 1])
    pick_rng = np.random.default_rng([seed, 2])
    warm_end = time.perf_counter() + WARMUP_SECONDS
    warmed = 0
    while warmed < WARMUP_FRAMES or time.perf_counter() < warm_end:
        pe.features(frame_rng.integers(0, 256, (size, size, 3), dtype=np.uint8))
        warmed += 1
    lat, kept, failed = [], [], 0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        frame = frame_rng.integers(0, 256, (size, size, 3), dtype=np.uint8)
        t0 = time.perf_counter()
        feats = step(frame)
        lat.append(time.perf_counter() - t0)
        if trace and not np.array_equal(feats, pe.features(frame)):
            failed += 1
        if len(kept) < CHECKED_FRAMES:
            kept.append((frame, feats))
        else:
            j = pick_rng.integers(0, len(lat))
            if j < CHECKED_FRAMES:
                kept[j] = (frame, feats)
    rss = peak_rss_mb()

    ref_ms = []
    for frame, feats in kept:
        t0 = time.perf_counter()
        ref = layers.encoder_forward(frame, enc, path="reference")
        ref_ms.append((time.perf_counter() - t0) * 1e3)
        failed += not np.array_equal(ref, feats)

    e2e = step_metrics(lat, time_windows(lat))
    if trace:
        metrics = {"traced." + k: v for k, v in e2e.items()}
        metrics["traced.setup_s"] = setup_s
        setup = tracer.per_root("setup")
        del setup["self_ms"]  # set-up outside fold and pack: core.unpack and the loop
        frames = tracer.per_root("frame")
        metrics["kernels.glue_ms"] = frames.pop("self_ms")
        metrics.update(setup, **frames)
        metrics["layers.reference_frame_ms"] = float(np.median(ref_ms))
    else:
        metrics = dict(e2e, setup_s=setup_s, peak_rss_mb=rss)
    detail = {
        "frames": len(lat),
        "checked_vs_reference": len(kept),
        "checked_vs_features": len(lat) if trace else 0,
    }
    return {"attempted": len(lat), "failed": failed, "checked": len(kept), "metrics": metrics,
            "detail": detail}
