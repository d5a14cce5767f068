"""The program API that ``perfbench/`` reads, checked on micro geometries.

The benchmark replays ``PackedEncoder`` set-up and stages from outside
(``loops``) and counts train-step FLOPs from the stage specs
(``train_desk``). A rename or deletion of an attribute it reads fails here,
in tier-1, rather than only in the much slower ``perfbench/test_smoke.py``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from bitmotor import core, kernels
from bitmotor.layers import PackedEncoder, encoder_forward, random_encoder_params
from bitmotor.training import DcaeNet, TrainConfig, extract_features, train_dcae

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import loops  # noqa: E402
import train_desk  # noqa: E402
from measure import Tracer  # noqa: E402


def test_replayed_encoder_equals_packed_and_reference():
    # conv2 of the (16, 128) encoder carries two output channels per sgemm
    # column, so the replay reads k.ww of a paired kernel
    rng = np.random.default_rng(0)
    for channels in ((8, 16), (16, 128)):
        enc = random_encoder_params(rng, input_size=33, channels=channels, fc1_out=32)
        tracer = Tracer()
        loops.replay_setup(enc, tracer)
        pe = PackedEncoder(enc)
        conv2 = pe.stages[0][1]
        assert conv2.ww.shape[1] == (64 if channels[1] == 128 else 16)
        names = [lay.name for lay in enc.layers[1:]]
        for _ in range(3):
            img = rng.integers(0, 256, (33, 33, 3), dtype=np.uint8)
            got = loops.replay_features(pe, names, img, tracer)
            assert np.array_equal(got, pe.features(img))
            assert np.array_equal(got, encoder_forward(img, enc, path="reference"))
        assert {"layers.fold_bn_sign_ms", "kernels.pack_weights_ms"} <= tracer.per_root("setup").keys()
        stages = {f"kernels.{s}_ms" for s in ("conv1", "conv2", "fc1", "fc2", "pool", "flatten")}
        assert stages <= tracer.per_root("frame").keys()


def test_replay_unpacks_the_stored_weights():
    # replay_setup builds its kernels from core.unpack(lay.weights): +1.0
    # where the stored bool is True, -1.0 elsewhere
    rng = np.random.default_rng(2)
    imgs = rng.integers(0, 256, (8, 16, 16, 3), dtype=np.uint8)
    cfg = TrainConfig(mode="partial", input_size=16, channels=(8, 16), fc1_out=64,
                      epochs=1, batch_size=8)
    net = train_dcae(imgs, cfg).net
    for spec in net.enc_specs:
        net.params[spec.name + "_w"].flat[:2] = (0.0, -0.0)  # sign(0) is +1 either way
    trained = net.encoder_params()
    for enc in (random_encoder_params(rng, input_size=17, channels=(4, 8), fc1_out=16), trained):
        for lay in enc.layers:
            want = np.where(lay.weights, 1, -1).astype(np.float32)
            got = core.unpack(lay.weights)
            assert got.dtype == np.float32 and np.array_equal(got, want), lay.name
        loops.replay_setup(enc, Tracer())
    for lay in trained.layers:
        assert np.all(core.unpack(lay.weights).flat[:2] == 1.0), lay.name
    pe = PackedEncoder(trained)
    for img, feat in zip(imgs, extract_features(net, imgs)):
        assert np.array_equal(pe.features(img), feat)


def test_step_flops_is_a_positive_int():
    net = DcaeNet(TrainConfig(mode="partial", input_size=16, channels=(8, 16), fc1_out=64))
    # step_flops walks the encoder specs, then the decoder specs and out_spec
    assert net.enc_specs + net.dec_specs + [net.out_spec] == net.stages
    flops = train_desk.step_flops(net, 4)
    assert isinstance(flops, int) and flops > 0


def test_deployed_path_builds_no_conv_columns(monkeypatch):
    # conv1 fills its columns from slices of pixel planes and the binary
    # convs multiply row-shifted tap rows; only the trainer and the float
    # reference call im2col
    rng = np.random.default_rng(1)
    enc = random_encoder_params(rng, input_size=17, channels=(4, 8), fc1_out=16)
    img = rng.integers(0, 256, (17, 17, 3), dtype=np.uint8)
    want = encoder_forward(img, enc, path="reference")
    pe = PackedEncoder(enc)

    def no_columns(*args):
        raise AssertionError("im2col called on the deployed path")

    monkeypatch.setattr(kernels, "im2col", no_columns)
    names = [lay.name for lay in enc.layers[1:]]
    assert np.array_equal(pe.features(img), want)
    assert np.array_equal(loops.replay_features(pe, names, img, Tracer()), want)
    with pytest.raises(AssertionError, match="deployed path"):
        encoder_forward(img, enc, path="reference")  # the patch is live
