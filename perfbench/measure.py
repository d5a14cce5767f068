"""Metric names, timing helpers and the in-memory span tracer.

Every workload reports the same metric names, so one table here is the
single list of what the benchmark prints. A per-layer metric a workload
does not exercise (``training.*`` on the loops, ``kernels.*`` on
``train_desk``) is reported as 0.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager

import numpy as np

END_TO_END = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "images_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_STAGES = ("conv1", "conv2", "conv3", "conv4", "fc1", "fc2")

PER_LAYER = {
    **{f"kernels.{s}_ms": "ms" for s in _STAGES},
    "kernels.pool_ms": "ms",
    "kernels.flatten_ms": "ms",
    "kernels.glue_ms": "ms",
    **{f"kernels.{s}_macs": "MAC" for s in _STAGES},
    **{f"kernels.{s}_bytes": "B" for s in _STAGES + ("pool", "flatten")},
    "kernels.pack_weights_ms": "ms",
    "layers.fold_bn_sign_ms": "ms",
    "layers.reference_frame_ms": "ms",
    "training.forward_train_ms": "ms",
    "training.backward_ms": "ms",
    "training.adam_step_ms": "ms",
    "training.step_flops": "FLOP",
    "training.eval_encode_ms": "ms",
    "training.eval_reconstruct_ms": "ms",
    # end-to-end numbers of the traced run; minus the untraced run's
    # numbers they give the tracing overhead
    "traced.setup_s": "s",
    "traced.step_ms_p50": "ms",
    "traced.step_ms_p90": "ms",
    "traced.images_per_s": "1/s",
}

# Set-up is timed as the median of several constructions: at least
# SETUP_MIN_REPEATS, and more while under SETUP_MIN_SECONDS in total. The
# machine's speed shifts by up to a third over seconds, so the constructions
# are spread over two seconds rather than taken in a burst.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0


def time_setup(build):
    """Call ``build()`` repeatedly; return (last result, median seconds)."""
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        obj = build()
        times.append(time.perf_counter() - t0)
    return obj, float(np.median(times))


def step_metrics(step_s, windows):
    """Latency percentiles of the timed steps, and throughput.

    p90 is the highest percentile with at least ten samples beyond it in
    the shortest workload (about 120 train steps a run). Throughput is the
    median over ``windows``, a list of (images, busy seconds), so a burst
    of contention from other machines' load moves it as little as it moves
    the median latency.
    """
    ms = np.asarray(step_s) * 1e3
    return {
        "step_ms_p50": float(np.percentile(ms, 50)),
        "step_ms_p90": float(np.percentile(ms, 90)),
        "images_per_s": float(np.median([n / s for n, s in windows])),
    }


def time_windows(step_s, window_s=1.0):
    """Split one-image steps into runs of at least ``window_s`` busy seconds.

    Returns (images, seconds) per run; a shorter tail joins the last run.
    """
    windows, n, busy = [], 0, 0.0
    for s in step_s:
        n, busy = n + 1, busy + s
        if busy >= window_s:
            windows.append((n, busy))
            n, busy = 0, 0.0
    if n and windows:
        last_n, last_busy = windows.pop()
        n, busy = n + last_n, busy + last_busy
    if n:
        windows.append((n, busy))
    return windows


def peak_rss_mb():
    """Peak resident set size of this process so far (ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Tracer:
    """Spans kept in memory: name, parent, root, start and end in ns.

    ``span`` yields a dict the caller may fill with work counts for that
    call (multiply-accumulates, bytes), summed per root like the times.
    """

    def __init__(self):
        self.spans = []  # [name, parent, root, t0, t1, counts]
        self._open = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        root = self.spans[parent][2] if self._open else idx
        rec = [name, parent, root, 0, 0, {}]
        self.spans.append(rec)
        self._open.append(idx)
        rec[3] = time.perf_counter_ns()
        try:
            yield rec[5]
        finally:
            rec[4] = time.perf_counter_ns()
            self._open.pop()

    def per_root(self, name):
        """Medians over the root spans called ``name``.

        For each descendant span name ``n`` the result holds ``n_ms``, its
        summed time per root, and ``n_<count>`` for each count it recorded;
        ``self_ms`` is the root's time not covered by its direct children.
        """
        roots = {}
        for i, (n, parent, root, t0, t1, counts) in enumerate(self.spans):
            ms = (t1 - t0) / 1e6
            if parent == -1:
                if n == name:
                    roots[i] = {"self_ms": ms}
                continue
            entry = roots.get(root)
            if entry is None:
                continue
            entry[n + "_ms"] = entry.get(n + "_ms", 0.0) + ms
            for k, v in counts.items():
                entry[f"{n}_{k}"] = entry.get(f"{n}_{k}", 0) + v
            if parent == root:
                entry["self_ms"] -= ms
        keys = {k for e in roots.values() for k in e}
        return {k: float(np.median([e.get(k, 0) for e in roots.values()])) for k in keys}
