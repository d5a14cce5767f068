import re
import tracemalloc

import numpy as np
import pytest

from bitmotor import kernels
from bitmotor.core import sign_values
from bitmotor.layers import (
    BNParams,
    PackedEncoder,
    bn_forward,
    conv2d_float,
    conv_pad_value,
    encoder_geometry,
    fc_float,
    logistic,
    nn_resize,
    pool_out_size,
)
from bitmotor.training import (
    BN_EPS,
    MODES,
    Adam,
    DcaeNet,
    DivergenceError,
    TrainConfig,
    dcae_loss,
    extract_features,
    train_dcae,
)

MICRO = dict(input_size=16, channels=(8, 16), fc1_out=64, feature_dim=64,
             epochs=5, batch_size=10, seed=0)


def micro_cfg(mode="partial", **kw):
    args = dict(MICRO)
    args.update(kw)
    return TrainConfig(mode=mode, **args)


def decoder_oracle(net, feat):
    """Per-image float decoder of ``net``: one feature vector -> image.

    The plain walk of ``net.dec_specs`` and ``net.out_spec`` over the net's
    parameters and running statistics, one op of ``layers`` per step, as
    the oracle of the batched ``DcaeNet.reconstruct``.
    """
    x = feat
    for spec in net.dec_specs + [net.out_spec]:
        w = net.params[spec.name + "_w"]
        if spec.name in net.binarized:
            w = sign_values(w)
        if spec.kind == "fc":
            x = fc_float(x, w)
        else:
            if x.ndim == 1:  # the bottleneck: the twin encoder conv's pooled output
                side = pool_out_size(spec.resize_to)
                x = x.reshape(side, side, spec.in_dim)
            x = conv2d_float(nn_resize(x, spec.resize_to), w, pad_value=spec.pad_value)
        if spec is net.out_spec:
            return logistic(x + net.params[spec.name + "_b"])
        bn = BNParams(net.params[spec.name + "_gamma"], net.params[spec.name + "_beta"],
                      net.running[spec.name + "_mu"], net.running[spec.name + "_var"], eps=BN_EPS)
        x = bn_forward(x, bn)
        x = sign_values(x) if spec.name in net.binarized else np.tanh(x)


def micro_images(n=20, size=16, seed=0):
    rng = np.random.default_rng(seed)
    imgs = np.full((n, size, size, 3), 128, np.uint8)
    for i in range(n):
        y, x = rng.integers(2, size - 6, 2)
        imgs[i, y : y + 4, x : x + 4] = rng.integers(0, 256, 3)
    return imgs


class TestDcaeLoss:
    def test_equal_is_zero(self):
        x = np.random.default_rng(0).random((4, 4, 3)).astype(np.float32)
        assert dcae_loss(x, x) == 0.0

    def test_uniform_offset(self):
        x = np.zeros((5, 5, 3), np.float32)
        assert dcae_loss(x, x + 0.1) == pytest.approx(0.01, abs=1e-7)

    def test_matches_two_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.random((6, 7)).astype(np.float32)
        b = rng.random((6, 7)).astype(np.float32)
        acc, count = 0.0, 0
        for i in range(6):
            for j in range(7):
                acc += (float(a[i, j]) - float(b[i, j])) ** 2
                count += 1
        assert dcae_loss(a, b) == pytest.approx(acc / count, rel=1e-7)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dcae_loss(np.zeros((2, 2)), np.zeros((3, 2)))


def _loss_fn(net, batch):
    recon, _ = net.forward_train(batch, update_running=False)
    return float(np.mean((recon - batch).astype(np.float64) ** 2))


def _analytic_grads(net, batch):
    recon, tape = net.forward_train(batch, update_running=False)
    diff = recon - batch
    drecon = (2.0 / diff.size) * diff
    return net.backward(tape, drecon.astype(np.float32))


def _fd_check(net, batch, names, rng, samples=8, h=1e-3, tol=1e-3):
    grads = _analytic_grads(net, batch)
    worst = 0.0
    for name in names:
        arr = net.params[name]
        g = grads[name]
        flat = np.abs(g).ravel()
        big = np.flatnonzero(flat > max(3e-4, 0.01 * flat.max()))
        if big.size == 0:
            continue
        for idx in rng.choice(big, size=min(samples, big.size), replace=False):
            ij = np.unravel_index(idx, arr.shape)
            old = arr[ij]
            arr[ij] = old + h
            lp = _loss_fn(net, batch)
            arr[ij] = old - h
            lm = _loss_fn(net, batch)
            arr[ij] = old
            num = (lp - lm) / (2 * h)
            ana = float(g[ij])
            rel = abs(ana - num) / max(abs(ana), abs(num))
            worst = max(worst, rel)
    assert worst < tol, f"finite-difference mismatch: worst rel err {worst:.2e}"
    return worst


class TestGradients:
    def test_full_mode_finite_differences(self):
        cfg = micro_cfg("full", batch_size=4)
        net = DcaeNet(cfg, dtype=np.float64)
        batch = micro_images(4).astype(np.float32) / 255.0
        rng = np.random.default_rng(2)
        names = [k for k in net.params if k.endswith(("_w", "_b", "_gamma", "_beta"))]
        # a +-1e-3 step on a conv1 weight moves a max-pool argmax here; at
        # 1e-4 every sampled step stays on one smooth piece
        _fd_check(net, batch, names, rng, h=1e-4)

    def test_partial_mode_decoder_finite_differences(self):
        cfg = micro_cfg("partial", batch_size=4)
        net = DcaeNet(cfg, dtype=np.float64)
        batch = micro_images(4, seed=3).astype(np.float32) / 255.0
        rng = np.random.default_rng(4)
        names = [k for k in net.params if k.startswith("dec_")]
        _fd_check(net, batch, names, rng)

    def test_saturated_binarization_blocks_gradient(self):
        # push conv1's BN output to |z| >= 1 everywhere: STE mask must zero
        # every gradient upstream of that sign node
        net = DcaeNet(micro_cfg("partial", batch_size=4))
        net.params["enc_conv1_gamma"][:] = 0.001
        net.params["enc_conv1_beta"][:] = 10.0
        batch = micro_images(4, seed=5).astype(np.float32) / 255.0
        grads = _analytic_grads(net, batch)
        assert np.all(grads["enc_conv1_w"] == 0.0)
        assert np.all(grads["enc_conv1_gamma"] == 0.0)
        assert np.all(grads["enc_conv1_beta"] == 0.0)

    def test_zero_loss_gradient_zeroes_everything(self):
        net = DcaeNet(micro_cfg("partial", batch_size=2))
        batch = micro_images(2, seed=6).astype(np.float32) / 255.0
        _, tape = net.forward_train(batch, update_running=False)
        grads = net.backward(tape, np.zeros((2, 16, 16, 3), np.float32))
        assert all(np.all(g == 0) for g in grads.values())

    def test_ste_mask_positions_are_exact(self):
        # a sign stage keeps its straight-through mask on the tape: bools that
        # are true exactly where its BN output z = xhat * gamma + beta, as
        # _bn_fwd evaluates it, has |z| < 1
        net = DcaeNet(micro_cfg("partial", batch_size=3))
        batch = micro_images(3, seed=7).astype(np.float32) / 255.0
        _, tape = net.forward_train(batch, update_running=False)
        entry = next(e for e in tape if e["spec"].name == "enc_fc2")
        xhat, _inv, gamma = entry["bn"]
        z = xhat * gamma + net.params["enc_fc2_beta"]
        mask = entry["act"]
        assert mask.dtype == np.bool_
        assert mask.any() and not mask.all()
        assert np.array_equal(mask, np.abs(z) < 1.0)


class TestTapeLifetime:
    def test_backward_empties_the_tape(self):
        net = DcaeNet(micro_cfg("partial", batch_size=2))
        batch = micro_images(2, seed=8).astype(np.float32) / 255.0
        recon, tape = net.forward_train(batch, update_running=False)
        assert len(tape) == len(net.stages)
        net.backward(tape, np.ones_like(recon) / recon.size)
        assert tape == []

    def test_two_desk_steps_peak_below_50_mb(self):
        # each step's saved arrays are freed during its backward, so the next
        # step's forward never runs beside a full tape, and only dec_out keeps
        # its 9x columns: one step peaks near 40 MB, near 70 MB with every
        # conv's columns on the tape, and near 129 MB with two live tapes
        cfg = TrainConfig.for_size("desk", batch_size=16)
        net = DcaeNet(cfg)
        opt = Adam(net.params, lr=cfg.learning_rate, clip_names=tuple(n + "_w" for n in net.binarized))
        x = np.random.default_rng(9).random((32, 64, 64, 3)).astype(np.float32)
        tracemalloc.start()
        try:
            for batch in (x[:16], x[16:]):
                recon, tape = net.forward_train(batch)
                diff = recon - batch
                drecon = (2.0 / diff.size) * diff
                grads = net.backward(tape, drecon.astype(np.float32))
                opt.step(net.params, grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6, peak

    @pytest.mark.parametrize("mode", MODES)
    def test_only_the_last_stage_keeps_columns(self, mode):
        # every other conv keeps the map it read, and backward rebuilds its
        # columns; a sign stage keeps its straight-through mask as bools
        net = DcaeNet(micro_cfg(mode, batch_size=2))
        batch = micro_images(2, seed=8).astype(np.float32) / 255.0
        _, tape = net.forward_train(batch, update_running=False)
        assert [e["spec"] for e in tape if "cols" in e] == [net.stages[-1]]
        for entry in tape[:-1]:
            spec = entry["spec"]
            if spec.kind == "conv":
                assert entry["x_in"].shape[-1] == spec.in_dim
            if spec.name in net.binarized:
                assert entry["act"].dtype == np.bool_, spec.name


class TestFloat64Eval:
    @pytest.mark.parametrize("mode", ["full", "partial"])
    def test_encode_and_reconstruct_keep_float64(self, mode):
        net = DcaeNet(micro_cfg(mode), dtype=np.float64)
        x01 = micro_images(3).astype(np.float32) / 255.0
        assert net.encode(x01).dtype == np.float64
        assert net.reconstruct(x01).dtype == np.float64


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"w": np.ones((3, 3), np.float32)}
        opt = Adam(params, lr=0.1)
        opt.step(params, {"w": np.zeros((3, 3), np.float32)})
        assert np.array_equal(params["w"], np.ones((3, 3)))

    def test_descent_direction(self):
        params = {"w": np.zeros(4, np.float32)}
        opt = Adam(params, lr=0.01)
        for _ in range(50):
            opt.step(params, {"w": np.full(4, 2.0, np.float32)})
        assert np.all(params["w"] < 0)

    def test_shadow_clipping(self):
        params = {"w": np.zeros(4, np.float32)}
        opt = Adam(params, lr=1.0, clip_names=("w",))
        for _ in range(10):
            opt.step(params, {"w": np.full(4, -1.0, np.float32)})
        assert np.all(params["w"] <= 1.0)

    def test_shape_mismatch(self):
        params = {"w": np.zeros(4, np.float32)}
        opt = Adam(params)
        with pytest.raises(ValueError):
            opt.step(params, {"w": np.zeros(5, np.float32)})

    def test_unknown_key(self):
        params = {"w": np.zeros(4, np.float32)}
        opt = Adam(params)
        with pytest.raises(ValueError, match="'b'"):
            opt.step(params, {"w": np.ones(4, np.float32), "b": np.zeros(4, np.float32)})
        assert opt.t == 0 and not params["w"].any()  # nothing was updated


class TestTrainDcae:
    def test_overfit_smoke_partial(self):
        imgs = micro_images(20)
        cfg = micro_cfg("partial", epochs=200, batch_size=10, learning_rate=2e-3)
        result = train_dcae(imgs, cfg)
        first = result.curve[0][1]
        last = result.curve[-1][1]
        assert last < 0.25 * first, (first, last)

    def test_full_mode_at_least_as_good(self):
        imgs = micro_images(20)
        run = {}
        for mode in ("full", "partial"):
            cfg = micro_cfg(mode, epochs=120, batch_size=10, learning_rate=2e-3)
            run[mode] = train_dcae(imgs, cfg).curve[-1][1]
        assert run["full"] <= run["partial"], run

    def test_full_mode_binarizes_nothing(self):
        net = DcaeNet(micro_cfg("full"))
        assert net.binarized == frozenset()

    def test_partial_mode_never_binarizes_decoder(self):
        net = DcaeNet(micro_cfg("partial"))
        names = net.binarized
        assert names and all(n.startswith("enc_") for n in names)

    def test_binary_mode_binarizes_everything(self):
        net = DcaeNet(micro_cfg("binary"))
        names = net.binarized
        assert any(n.startswith("dec_") for n in names)
        assert "dec_out" in names

    def test_deterministic_given_seed(self):
        imgs = micro_images(12)
        cfg = micro_cfg("partial", epochs=3, batch_size=6)
        a = train_dcae(imgs, cfg)
        b = train_dcae(imgs, cfg)
        for k in a.net.params:
            assert np.array_equal(a.net.params[k], b.net.params[k]), k
        assert a.curve == b.curve

    @pytest.mark.parametrize("mode", MODES)
    def test_uint8_images_train_as_their_floats(self, mode):
        # a uint8 set is kept as given and converted a batch at a time, to
        # the values of the whole set divided by 255 up front
        imgs, val = micro_images(12), micro_images(5, seed=1)
        cfg = micro_cfg(mode, epochs=2, batch_size=5)
        a = train_dcae(imgs, cfg, val)
        b = train_dcae(imgs.astype(np.float32) / 255, cfg, val.astype(np.float32) / 255)
        assert a.curve == b.curve
        for k in a.net.params:
            assert np.array_equal(a.net.params[k], b.net.params[k]), k
        assert np.array_equal(extract_features(a.net, val), extract_features(b.net, val.astype(np.float32) / 255))

    @pytest.mark.parametrize("shape", [(4, 16, 15, 3), (4, 16, 16, 4), (16, 16, 3), "float255", "inf"])
    @pytest.mark.parametrize("path", ["train", "val", "extract"])
    def test_malformed_images_rejected(self, path, shape):
        if shape == "float255":  # well-shaped, but float pixels in 0..255
            bad = micro_images(4).astype(np.float32)
            match = r"\[0, 1\], got values in \[4\.0, 248\.0\]"
        elif shape == "inf":  # +-Inf fails the range check, so a loss never sees it
            bad = micro_images(4).astype(np.float32) / 255.0
            bad[0, 0, 0, 0], bad[1, 2, 3, 1] = np.inf, -np.inf
            match = r"\[0, 1\], got values in \[-inf, inf\]"
        else:
            bad = np.zeros(shape, np.uint8)
            match = r"\(N, 16, 16, 3\)"
        good = micro_images(4)
        cfg = micro_cfg("partial", epochs=1, batch_size=4)
        with pytest.raises(ValueError, match=match):
            if path == "train":
                train_dcae(bad, cfg)
            elif path == "val":
                train_dcae(good, cfg, val_images=bad)
            else:
                extract_features(DcaeNet(cfg), bad)

    def test_divergence_reports_epoch(self):
        imgs = micro_images(8).astype(np.float32) / 255.0
        imgs[0, 0, 0, 0] = np.nan
        with pytest.raises(DivergenceError) as err:
            train_dcae(imgs, micro_cfg("partial", epochs=2, batch_size=8))
        assert err.value.epoch == 0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_dcae(np.zeros((0, 16, 16, 3), np.uint8), micro_cfg())

    def test_encoder_params_requires_binarized_encoder(self):
        imgs = micro_images(8)
        full = train_dcae(imgs, micro_cfg("full", epochs=1, batch_size=8))
        with pytest.raises(ValueError):
            full.net.encoder_params()
        pb = train_dcae(imgs, micro_cfg("partial", epochs=1, batch_size=8))
        enc = pb.net.encoder_params()
        assert enc.input_size == 16

    def test_features_shape_and_codomain(self):
        imgs = micro_images(6)
        pb = train_dcae(imgs, micro_cfg("partial", epochs=1, batch_size=6))
        feats = extract_features(pb.net, imgs)
        assert feats.shape == (6, 64)
        assert set(np.unique(feats)) <= {-1.0, 1.0}
        full = train_dcae(imgs, micro_cfg("full", epochs=1, batch_size=6))
        ff = extract_features(full.net, imgs)
        assert np.all(np.abs(ff) < 1.0)  # tanh features

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_features_of_no_images(self, dtype):
        net = DcaeNet(micro_cfg("partial"), dtype=dtype)
        feats = extract_features(net, np.zeros((0, 16, 16, 3), np.uint8))
        assert feats.shape == (0, 64) and feats.dtype == dtype


class TestInputDomain:
    @pytest.mark.parametrize("mode", MODES)
    def test_off_grid_images_read_as_their_pixels(self, mode):
        # the net reads rint(255 * x) in every mode, so float images off the
        # 1/255 grid train and evaluate exactly as the 8-bit images they round to
        x = np.random.default_rng(12).random((4, 16, 16, 3)).astype(np.float32)
        q = np.rint(x * np.float32(255.0)) / np.float32(255.0)
        assert not np.array_equal(x, q)
        nets = [DcaeNet(micro_cfg(mode)) for _ in (x, q)]
        recon_x, recon_q = (net.forward_train(img)[0] for net, img in zip(nets, (x, q)))
        assert np.array_equal(recon_x, recon_q)
        for k in nets[0].running:
            assert np.array_equal(nets[0].running[k], nets[1].running[k]), k
        for method in ("encode", "reconstruct"):
            out_x, out_q = (getattr(net, method)(img) for net, img in zip(nets, (x, q)))
            assert np.array_equal(out_x, out_q), method


class TestBatchShape:
    @pytest.mark.parametrize("shape", [(2, 32, 32, 3), (64, 64, 3), (2, 64, 64, 1)])
    @pytest.mark.parametrize("entry", ["forward_train", "encode", "reconstruct"])
    def test_wrong_shape_names_the_expected_one(self, entry, shape):
        net = DcaeNet(TrainConfig.for_size("desk"))
        match = re.escape(f"expected images of shape (N, 64, 64, 3), got {shape}")
        with pytest.raises(ValueError, match=match):
            getattr(net, entry)(np.zeros(shape, np.float32))


class TestDeployParity:
    @pytest.mark.parametrize("mode", ["partial", "binary"])
    def test_packed_encoder_matches_extract_features(self, mode):
        # eval-mode features of the trained float net equal the packed
        # encoder deployed from it, on training and unseen images
        imgs = micro_images(20)
        unseen = np.random.default_rng(1).integers(0, 256, (8, 16, 16, 3), dtype=np.uint8)
        probe = np.concatenate([imgs, unseen])
        net = train_dcae(imgs, micro_cfg(mode)).net
        deployed = PackedEncoder(net.encoder_params())
        want = extract_features(net, probe)
        for img, feat in zip(probe, want):
            assert np.array_equal(deployed.features(img), feat)

    def test_near_zero_variance_conv1(self):
        # conv1 running var far below eps, running mean at the median of its
        # integer pre-activations, |beta| up to 3: many conv1 units sit where
        # BN's sign turns on eps, so deploy must fold the eps training uses.
        # This is the near-threshold case of train -> deploy parity
        for trial in range(20):
            rng = np.random.default_rng(trial)
            net = DcaeNet(micro_cfg("partial"), rng)
            imgs = rng.integers(0, 256, (16, 16, 16, 3), dtype=np.uint8)
            w = sign_values(net.params["enc_conv1_w"])
            pre = conv2d_float(imgs.astype(np.float32), w)
            net.running["enc_conv1_mu"][:] = np.median(pre, axis=(0, 1, 2))
            net.running["enc_conv1_var"][:] = 1e-6
            net.params["enc_conv1_beta"][:] = rng.uniform(-3, 3, len(w))
            bn = BNParams(net.params["enc_conv1_gamma"], net.params["enc_conv1_beta"],
                          net.running["enc_conv1_mu"], net.running["enc_conv1_var"], eps=BN_EPS)
            deployed = PackedEncoder(net.encoder_params())
            conv1 = [kernels.conv1_forward(img, deployed.conv1_signs, deployed.conv1_tau, deployed.conv1_flip)
                     for img in imgs]
            assert np.array_equal(np.stack(conv1), bn_forward(pre, bn) >= 0), trial
            want = extract_features(net, imgs)
            for img, feat in zip(imgs, want):
                assert np.array_equal(deployed.features(img), feat), trial


class TestReconstructionConsistency:
    def test_eval_paths_agree(self):
        # batched eval reconstruction equals the per-image decoder oracle
        imgs = micro_images(4)
        pb = train_dcae(imgs, micro_cfg("partial", epochs=2, batch_size=4))
        x01 = imgs.astype(np.float32) / 255.0
        batched = pb.net.reconstruct(x01)
        feats = pb.net.encode(x01)
        single = np.stack([decoder_oracle(pb.net, f) for f in feats])
        assert np.allclose(batched, single, atol=1e-6)


@pytest.fixture(scope="module", params=[(size, mode) for size in ("desk", "paper")
                                         for mode in ("full", "partial", "binary")],
                ids=lambda p: "-".join(p))
def preset_net(request):
    size, mode = request.param
    return DcaeNet(TrainConfig.for_size(size, mode=mode))


class TestStageWalk:
    def test_walk_is_encoder_decoder_out(self, preset_net):
        net = preset_net
        assert net.stages == net.enc_specs + net.dec_specs + [net.out_spec]
        assert net.out_spec.name == "dec_out" and net.out_spec.out_dim == 3
        assert len(net.dec_specs) + 1 == len(net.enc_specs)

    def test_binarized_is_a_leading_run(self, preset_net):
        net = preset_net
        n = {"full": 0, "partial": len(net.enc_specs), "binary": len(net.stages)}[net.cfg.mode]
        assert net.binarized == frozenset(spec.name for spec in net.stages[:n])

    def test_decoder_mirrors_encoder(self, preset_net):
        net = preset_net
        cfg = net.cfg
        enc, dec = net.enc_specs, net.dec_specs + [net.out_spec]
        twins = enc[::-1]
        assert [(s.kind, s.in_dim, s.out_dim) for s in dec] == [(s.kind, s.out_dim, s.in_dim) for s in twins]
        convs = [f"dec_conv{i}" for i in range(1, len(cfg.channels))]
        assert [s.name for s in dec] == ["dec_fc1", "dec_fc2"] + convs + ["dec_out"]
        geometry = encoder_geometry(cfg.input_size, cfg.channels, cfg.fc1_out, cfg.feature_dim)
        conv_inputs = [size for _n, kind, size, *_ in geometry if kind == "conv"]
        assert [s.resize_to for s in dec if s.kind == "conv"] == conv_inputs[::-1]
        assert all(s.resize_to is None for s in dec if s.kind == "fc")
        by_name = {s.name: s for s in net.stages}
        assert by_name["dec_fc2"].out_dim == by_name["enc_fc1"].in_dim
        # encoder stages after the first read +-1 maps unless the mode is full
        binary_enc = cfg.mode != "full"
        assert [s.pad_value for s in enc] == [conv_pad_value(i > 0 and binary_enc) for i in range(len(enc))]
        assert all(s.pad_value == 0.0 for s in dec)


class TestConfig:
    def test_paper_preset(self):
        cfg = TrainConfig.for_size("paper", mode="partial")
        assert cfg.mode == "partial"
        assert cfg.input_size == 142
        assert cfg.channels == (32, 64, 128, 256)
        assert cfg.fc1_out == 1024

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="size preset"):
            TrainConfig.for_size("tabletop")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            TrainConfig(mode="float16")

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("batch_size", -1), ("epochs", -1),
        ("learning_rate", 0.0), ("learning_rate", -1.0), ("learning_rate", np.nan), ("learning_rate", np.inf),
        ("channels", (8, 0)), ("channels", ()), ("fc1_out", 0), ("feature_dim", 0),
        # the micro encoder's two pools need an input_size of at least 7
        ("input_size", 4), ("input_size", 0), ("input_size", -3), ("seed", -1),
        ("batch_size", 2.5), ("epochs", 3.0), ("input_size", 16.0), ("input_size", True),
    ], ids=str)
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            micro_cfg(**{field: value})
