import numpy as np
import pytest

from sepnet import nn
from sepnet.errors import (ConfigError, NumericsError, SepnetError, ShapeError,
                           UninitializedStatsError)

from conftest import finite_diff, ref_conv2d, rel_err

F32 = np.float32


class TestConv:
    def test_identity_1x1(self):
        conv = nn.Conv2d(2, 2, 1)
        conv.w[...] = np.eye(2, dtype=F32).reshape(2, 2, 1, 1)
        x = np.arange(8, dtype=F32).reshape(1, 2, 2, 2)
        assert np.array_equal(conv.forward(x), x)

    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_grouped_equals_blockdiag_dense(self, groups, rng):
        cin = cout = 4
        k = 3
        conv = nn.Conv2d(cin, cout, k, groups=groups, rng=rng)
        x = rng.standard_normal((1, cin, 4, 4)).astype(F32)
        # dense weight with the grouped weights on the block diagonal
        dense = np.zeros((cout, cin, k, k), dtype=F32)
        cg, og = cin // groups, cout // groups
        for g in range(groups):
            dense[g * og : (g + 1) * og, g * cg : (g + 1) * cg] = conv.w[g * og : (g + 1) * og]
        want = ref_conv2d(x, dense, stride=1, pad=1)
        got = conv.forward(x)
        assert np.allclose(got, want, atol=1e-6)

    def test_groups1_matches_dense_reference_bitwise_shapes(self, rng):
        conv = nn.Conv2d(3, 5, 3, stride=2, rng=rng)
        x = rng.standard_normal((2, 3, 6, 6)).astype(F32)
        got = conv.forward(x)
        want = ref_conv2d(x, conv.w, stride=2, pad=1)
        assert got.shape == (2, 5, 3, 3)
        assert np.allclose(got, want, atol=1e-5)

    def test_table_block_shape(self, rng):
        # grouped 3x3 with 8 groups mapping 64 -> 128 channels keeps 8x8 maps
        conv = nn.Conv2d(64, 128, 3, groups=8, rng=rng)
        x = rng.standard_normal((1, 64, 8, 8)).astype(F32)
        assert conv.forward(x).shape == (1, 128, 8, 8)

    def test_shape_errors(self, rng):
        conv = nn.Conv2d(4, 4, 3, rng=rng)
        with pytest.raises(ShapeError, match="channels"):
            conv.forward(rng.standard_normal((1, 3, 4, 4)).astype(F32))
        with pytest.raises(ConfigError, match="groups"):
            nn.Conv2d(4, 4, 3, groups=3)

    def test_partitioned_storage_matches_single(self, rng):
        a = nn.Conv2d(8, 8, 1, groups=4, partitions=1, rng=np.random.default_rng(7))
        b = nn.Conv2d(8, 8, 1, groups=4, partitions=4, rng=np.random.default_rng(7))
        x = rng.standard_normal((2, 8, 3, 3)).astype(F32)
        assert np.array_equal(a.forward(x), b.forward(x))

    def test_backward_before_forward(self, rng):
        conv = nn.Conv2d(2, 2, 1, rng=rng)
        with pytest.raises(SepnetError, match="without"):
            conv.backward(np.zeros((1, 2, 2, 2), dtype=F32))

    @pytest.mark.parametrize("cfg", [
        dict(cin=4, cout=4, k=3, stride=1, groups=1),
        dict(cin=4, cout=4, k=3, stride=1, groups=2),
        dict(cin=4, cout=6, k=1, stride=1, groups=2),
        dict(cin=4, cout=4, k=3, stride=2, groups=1),
    ])
    def test_weight_and_input_grads_match_finite_differences(self, cfg, rng):
        conv = nn.Conv2d(cfg["cin"], cfg["cout"], cfg["k"], cfg["stride"],
                         groups=cfg["groups"], rng=rng)
        x = rng.standard_normal((2, cfg["cin"], 5, 5)).astype(F32)
        proj = rng.choice([-1.0, 1.0], size=conv.forward(x).shape).astype(F32)

        def loss():
            return float(np.sum(conv.forward(x).astype(np.float64) * proj))

        conv.zero_grad()
        conv.forward(x, train=True)
        dx = conv.backward(proj)
        idx, fd = finite_diff(loss, conv.w, samples=40, rng=rng)
        assert rel_err(fd, conv.gw.reshape(-1)[idx]).max() <= 1e-3

        idx, fd = finite_diff(loss, x, samples=40, rng=rng)
        assert rel_err(fd, dx.reshape(-1)[idx]).max() <= 1e-3

    def test_zero_upstream_grad_gives_zero_param_grads(self, rng):
        conv = nn.Conv2d(3, 4, 3, rng=rng)
        x = rng.standard_normal((1, 3, 4, 4)).astype(F32)
        y = conv.forward(x, train=True)
        conv.backward(np.zeros_like(y))
        assert not conv.gw.any()

    def test_slice_shares_arrays_and_matches_parent(self, rng):
        conv = nn.Conv2d(8, 12, 3, 2, groups=4, partitions=2, rng=rng)
        x = rng.standard_normal((1, 8, 6, 6)).astype(F32)
        y = conv.forward(x)
        for p in range(2):
            part = conv.slice(p)
            assert (part.in_ch, part.out_ch, part.groups, part.partitions) == (4, 6, 2, 1)
            assert np.shares_memory(part.w, conv.w) and np.shares_memory(part.gw, conv.gw)
            assert np.array_equal(part.forward(x[:, 4 * p : 4 * (p + 1)]), y[:, 6 * p : 6 * (p + 1)])


class TestBatchNorm:
    def test_eval_identity_with_unit_stats(self):
        bn = nn.BatchNorm2d(3)
        bn.initialized = True  # running mean 0, var 1, scale 1, shift 0
        x = np.random.default_rng(0).standard_normal((2, 3, 4, 4)).astype(F32)
        assert np.allclose(bn.forward(x), x, atol=1e-5)

    def test_train_constant_input_returns_shift(self):
        bn = nn.BatchNorm2d(2)
        bn.beta[:] = np.array([3.0, -1.0], dtype=F32)
        x = np.full((4, 2, 3, 3), 7.0, dtype=F32)
        y = bn.forward(x, train=True)
        assert np.allclose(y[:, 0], 3.0, atol=1e-2)
        assert np.allclose(y[:, 1], -1.0, atol=1e-2)

    def test_train_two_value_batch_hand_computed(self):
        bn = nn.BatchNorm2d(1)
        x = np.array([2.0, 4.0], dtype=F32).reshape(2, 1, 1, 1)
        y = bn.forward(x, train=True)
        # mean 3, biased var 1: normalized values +-1/sqrt(1 + eps)
        want = 1.0 / np.sqrt(1.0 + bn.EPS)
        assert np.allclose(y.reshape(-1), [-want, want], atol=1e-6)
        assert np.allclose(bn.rmean, 0.1 * 3.0, atol=1e-6)
        assert np.allclose(bn.rvar, 0.9 * 1.0 + 0.1 * 1.0, atol=1e-6)

    def test_slice_shares_arrays_and_matches_parent(self, rng):
        bn = nn.BatchNorm2d(6, partitions=3)
        bn.forward(rng.standard_normal((4, 6, 3, 3)).astype(F32), train=True)
        x = rng.standard_normal((1, 6, 3, 3)).astype(F32)
        y = bn.forward(x)
        for p in range(3):
            part = bn.slice(p)
            assert (part.channels, part.partitions, part.initialized) == (2, 1, True)
            for name in ("gamma", "beta", "rmean", "rvar", "ggamma", "gbeta"):
                assert np.shares_memory(getattr(part, name), getattr(bn, name)), name
            assert np.array_equal(part.forward(x[:, 2 * p : 2 * (p + 1)]), y[:, 2 * p : 2 * (p + 1)])

    def test_slice_sees_live_running_statistics(self, rng):
        bn = nn.BatchNorm2d(4, partitions=2)
        part = bn.slice(1)
        bn.forward(rng.standard_normal((4, 4, 3, 3)).astype(F32), train=True)
        assert np.array_equal(part.rmean, bn.rmean[2:]) and np.array_equal(part.rvar, bn.rvar[2:])
        assert not np.array_equal(part.rmean, np.zeros(2, dtype=F32))

    def test_eval_before_stats_raises(self):
        bn = nn.BatchNorm2d(2)
        with pytest.raises(UninitializedStatsError):
            bn.forward(np.zeros((1, 2, 2, 2), dtype=F32))

    def test_running_var_strictly_positive(self):
        bn = nn.BatchNorm2d(2)
        bn.forward(np.zeros((2, 2, 2, 2), dtype=F32), train=True)
        assert (bn.rvar + bn.EPS > 0).all()

    def test_backward_matches_finite_differences(self, rng):
        bn = nn.BatchNorm2d(3)
        bn.gamma[:] = rng.standard_normal(3).astype(F32)
        x = rng.standard_normal((4, 3, 3, 3)).astype(F32)
        proj = rng.choice([-1.0, 1.0], size=x.shape).astype(F32)

        def loss():
            return float(np.sum(bn.forward(x, True).astype(np.float64) * proj))

        bn.zero_grad()
        bn.forward(x, train=True)
        dx = bn.backward(proj)
        idx, fd = finite_diff(loss, x, samples=30, rng=rng)
        assert rel_err(fd, dx.reshape(-1)[idx]).max() <= 1e-3
        gsaved = bn.ggamma.copy()
        bn.zero_grad()
        idx, fd = finite_diff(loss, bn.gamma, samples=3, rng=rng)
        assert rel_err(fd, gsaved[idx]).max() <= 1e-3


class TestHeadOps:
    def test_global_avg_pool_constant(self):
        x = np.full((2, 3, 4, 4), 5.5, dtype=F32)
        y = nn.GlobalAvgPool().forward(x)
        assert y.shape == (2, 3, 1, 1)
        assert np.allclose(y, 5.5)

    def test_linear_one_hot_selects_column(self, rng):
        lin = nn.Linear(4, 3, rng=rng)
        x = np.zeros((1, 4), dtype=F32)
        x[0, 2] = 1.0
        assert np.allclose(lin.forward(x)[0], lin.w[:, 2] + lin.b)

    def test_softmax_uniform_logits(self):
        logits = np.zeros((2, 5), dtype=F32)
        loss, probs = nn.softmax_cross_entropy(logits, np.array([0, 3]))
        assert np.allclose(probs, 0.2)
        assert np.isclose(loss, np.log(5), atol=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(ShapeError, match="range"):
            nn.softmax_cross_entropy(np.zeros((1, 3), dtype=F32), np.array([3]))

    def test_ce_grad_is_probs_minus_onehot(self, rng):
        logits = rng.standard_normal((3, 4)).astype(F32)
        labels = np.array([1, 0, 3])
        _, probs = nn.softmax_cross_entropy(logits, labels)
        grad = nn.cross_entropy_grad(probs, labels)
        onehot = np.zeros_like(probs)
        onehot[np.arange(3), labels] = 1
        assert np.allclose(grad, (probs - onehot) / 3, atol=1e-7)

    def test_linear_backward_finite_differences(self, rng):
        lin = nn.Linear(5, 3, rng=rng)
        x = rng.standard_normal((2, 5)).astype(F32)
        proj = rng.choice([-1.0, 1.0], size=(2, 3)).astype(F32)

        def loss():
            return float(np.sum(lin.forward(x).astype(np.float64) * proj))

        lin.forward(x, train=True)
        dx = lin.backward(proj)
        idx, fd = finite_diff(loss, lin.w, rng=rng)
        assert rel_err(fd, lin.gw.reshape(-1)[idx]).max() <= 1e-3
        idx, fd = finite_diff(loss, x, rng=rng)
        assert rel_err(fd, dx.reshape(-1)[idx]).max() <= 1e-3


class TestSgd:
    def test_zero_lr_leaves_params(self):
        p = np.array([1.0, 2.0], dtype=F32)
        nn.sgd_step([("p", p)], [("p", np.ones(2, dtype=F32))], lr=0.0)
        assert np.array_equal(p, [1.0, 2.0])

    def test_basic_step(self):
        p = np.array([1.0], dtype=F32)
        nn.sgd_step([("p", p)], [("p", np.array([2.0], dtype=F32))], lr=0.1)
        assert np.allclose(p, 0.8)

    def test_nonfinite_gradient_rejected(self):
        p = np.array([1.0], dtype=F32)
        with pytest.raises(NumericsError):
            nn.sgd_step([("p", p)], [("p", np.array([np.nan], dtype=F32))], lr=0.1)

    def test_quadratic_descent_monotone(self):
        # loss = p^2, gradient 2p: small lr must decrease the loss every step
        p = np.array([3.0], dtype=F32)
        losses = []
        for _ in range(20):
            losses.append(float(p[0] ** 2))
            nn.sgd_step([("p", p)], [("p", 2 * p)], lr=0.1)
        assert all(b < a for a, b in zip(losses, losses[1:]))


def test_forward_outputs_finite_on_finite_inputs(rng):
    conv = nn.Conv2d(3, 8, 3, rng=rng)
    bn = nn.BatchNorm2d(8)
    x = rng.standard_normal((2, 3, 8, 8)).astype(F32) * 100
    y = bn.forward(conv.forward(x, train=True), train=True)
    assert np.isfinite(y).all()


def test_determinism_same_seed_bitwise(rng):
    x = rng.standard_normal((2, 3, 8, 8)).astype(F32)
    outs = []
    for _ in range(2):
        conv = nn.Conv2d(3, 6, 3, rng=np.random.default_rng(99))
        outs.append(conv.forward(x))
    assert np.array_equal(outs[0], outs[1])
