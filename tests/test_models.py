import numpy as np
import pytest

from sepnet import models, nn
from sepnet import policy as pol
from sepnet.errors import ConfigError



F32 = np.float32

TINY = models.ModelSpec(stages=2, blocks_per_stage=2, cardinality=4, bottleneck_width=4,
                        partitions=4, num_classes=5, alpha=2, in_hw=(8, 8))
TABLE = models.ModelSpec()  # depth-56, 8x16d, 100 classes
TABLE_SEP = models.ModelSpec(partitions=4)


def random_spec(rng) -> models.ModelSpec:
    c = int(rng.choice([2, 4, 8]))
    g = int(rng.choice([p for p in (1, 2, 4) if c % p == 0]))
    spec = models.ModelSpec(
        stages=int(rng.integers(1, 4)),
        blocks_per_stage=int(rng.integers(1, 4)),
        cardinality=c,
        bottleneck_width=int(rng.choice([2, 4, 8, 16])),
        partitions=g,
        num_classes=int(rng.integers(2, 12)),
        alpha=int(rng.integers(1, 4)),
        in_hw=(16, 16),
    )
    try:
        spec.validate()
    except ConfigError:
        return random_spec(rng)
    return spec


class TestSpec:
    def test_depth56_has_18_blocks(self):
        assert TABLE.num_blocks == 18
        assert TABLE.depth == 56

    def test_depth110_has_36_blocks_and_18_steps(self):
        spec = models.ModelSpec(blocks_per_stage=12, partitions=4)
        assert spec.depth == 110
        assert spec.num_steps() == 18

    def test_invalid_partitions(self):
        with pytest.raises(ConfigError):
            models.ModelSpec(cardinality=8, partitions=3).validate()

    def test_downsampling_halves_spatial_dims(self):
        shapes = TABLE_SEP.boundary_shapes()
        assert [hw for _, hw, _ in shapes] == [32, 32, 32, 16, 16, 16, 8, 8, 8]

    def test_table1_stage_widths(self):
        # middle conv widths 128/256/512, per-partition outputs 64/128/256
        assert [TABLE.mid_width(s) for s in range(3)] == [128, 256, 512]
        assert [TABLE.stage_width(s) for s in range(3)] == [64, 128, 256]


class TestBuild:
    def test_single_block_forward_shape(self, rng):
        spec = models.ModelSpec(stages=1, blocks_per_stage=1, cardinality=2,
                                bottleneck_width=2, partitions=1, num_classes=3,
                                alpha=1, in_hw=(8, 8))
        net = models.Network(spec, seed=0)
        x = rng.standard_normal((2, 3, 8, 8)).astype(F32)
        assert net.forward(x, train=True).shape == (2, 3)

    def test_construction_deterministic(self, rng):
        spec = models.ModelSpec(stages=2, blocks_per_stage=2, cardinality=4,
                                bottleneck_width=4, partitions=1, num_classes=5,
                                alpha=2, in_hw=(8, 8))
        a = models.Network(spec, seed=11)
        b = models.Network(spec, seed=11)
        x = rng.standard_normal((2, 3, 8, 8)).astype(F32)
        assert np.array_equal(a.forward(x, train=True), b.forward(x, train=True))

    def test_table1_sep_structure(self):
        net = models.Network(TABLE_SEP, seed=0)
        blk = net.blocks[6]  # second stage
        assert blk.conv1.groups == 4 and blk.conv2.groups == 8 and blk.conv3.groups == 4
        plain = models.Network(TABLE, seed=0)
        # separable in/out widths are G times the plain column
        assert blk.in_ch == 4 * plain.blocks[6].in_ch
        assert blk.out_ch == 4 * plain.blocks[6].out_ch
        assert blk.conv2.in_ch == plain.blocks[6].conv2.in_ch  # middle unchanged

    def test_classifier_reads_first_slice(self, rng):
        net = models.Network(TINY, seed=5)
        x = rng.standard_normal((2, 3, 8, 8)).astype(F32)
        got = net.forward(x, train=True)
        # oracle: drive the layers by hand and slice the full feature map
        ref = models.Network(TINY, seed=5)
        h = ref.stem_relu.forward(ref.stem_bn.forward(ref.stem_conv.forward(x, True), True), True)
        h = np.concatenate([h] * 4, axis=1)
        for blk in ref.blocks:
            h = blk.forward(h, train=True)
        keep = h.shape[1] // 4
        p = nn.GlobalAvgPool().forward(h[:, :keep])
        want = ref.fc.forward(p.reshape(2, keep))
        assert np.array_equal(got, want)

    def test_param_ownership_partition_or_shared(self):
        net = models.Network(TINY, seed=0)
        owners = {name: net.param_owner(name) for name, _ in net.named_params()}
        assert owners["stem.conv.w"] == "shared"
        assert owners["head.fc.w"] == "shared"
        block_owner_counts = [0] * 4
        for name, owner in owners.items():
            if name.startswith("block"):
                assert owner in (0, 1, 2, 3)
                block_owner_counts[owner] += 1
        assert min(block_owner_counts) > 0


class TestParamCounts:
    def test_single_1x1_conv(self):
        net = models.Network(models.ModelSpec(stages=1, blocks_per_stage=1,
                                                    cardinality=2, bottleneck_width=2,
                                                    num_classes=2, alpha=1, in_hw=(4, 4)))
        counted = models.count_params_enumerated(net, "conv_no_ds")
        assert counted == models.block_formula_params(net.spec, 1)

    def test_eq4_hand_value(self):
        assert models.resnet_bottleneck_params(4, 2, 3) == 52

    def test_eq5_hand_value(self):
        assert models.count_params_formula(64, 64, 4, 2, 3) == 2 * (256 + 144 + 256)

    def test_partitioning_leaves_conv_count_unchanged(self):
        plain = models.Network(TABLE, seed=0)
        sep = models.Network(TABLE_SEP, seed=0)
        assert (models.count_params_enumerated(plain, "conv_no_ds")
                == models.count_params_enumerated(sep, "conv_no_ds"))

    def test_table1_totals_and_overhead_band(self):
        plain = models.count_params_enumerated(models.Network(TABLE, seed=0))
        sep = models.count_params_enumerated(models.Network(TABLE_SEP, seed=0))
        assert abs(plain / 4.39e6 - 1) < 0.05
        assert abs(sep / 4.54e6 - 1) < 0.05
        assert 0.0 <= sep / plain - 1 <= 0.08

    def test_enumeration_matches_formula_on_random_specs(self, rng):
        for _ in range(30):
            spec = random_spec(rng)
            net = models.Network(spec, seed=0)
            want = sum(models.block_formula_params(spec, b)
                       for b in range(1, spec.num_blocks + 1))
            assert models.count_params_enumerated(net, "conv_no_ds") == want


class TestFlops:
    def test_tiny_1x1_conv_macs(self):
        assert models.conv_macs(2, 2, 2, 2, 1, 1) == 16

    def test_grouped_macs_scale(self):
        dense = models.conv_macs(8, 4, 4, 8, 1, 3)
        assert models.conv_macs(8, 4, 4, 8, 4, 3) == dense // 4

    def test_per_partition_balance(self):
        spec = models.ModelSpec(cardinality=4, partitions=4)
        fl = models.count_flops(spec)
        per = fl.per_partition_macs(4)
        for p in per:
            assert abs(p / (fl.total_macs / 4) - 1) < 0.05

    def test_window_macs_cover_all_blocks(self):
        fl = models.count_flops(TABLE_SEP)
        windows = fl.window_macs(TABLE_SEP.boundaries(), 4)
        assert len(windows) == 9
        assert sum(windows) == fl.stem_macs + sum(fl.block_macs) // 4


class TestTransmissions:
    def test_all_self_send_equals_no_policy(self, rng):
        net = models.Network(TINY, seed=2)
        x = rng.standard_normal((2, 3, 8, 8)).astype(F32)
        idle = pol.all_self_send_policy(4, TINY.num_blocks, TINY.alpha)
        a = net.forward(x, idle, train=True)
        b = net.forward(x, None, train=True)
        assert np.array_equal(a, b)

    def test_policy_length_mismatch_rejected(self, rng):
        net = models.Network(TINY, seed=2)
        bad = pol.policy_from_ids([(0, 8)], g=4, alpha=2)
        with pytest.raises(ConfigError):
            net.forward(rng.standard_normal((1, 3, 8, 8)).astype(F32), bad)

    def test_adapt_chunk_pool_and_zero_fill(self):
        chunk = np.ones((1, 2, 4, 4), dtype=F32)
        out = models.adapt_chunk(chunk, 5, (2, 2))
        assert out.shape == (1, 5, 2, 2)
        assert np.allclose(out[:, :2], 1.0)
        assert not out[:, 2:].any()

    def test_adapt_round_trip_gradient_shapes(self):
        d = np.ones((1, 5, 2, 2), dtype=F32)
        back = models.adapt_chunk_backward(d, 2, (4, 4))
        assert back.shape == (1, 2, 4, 4)
        assert np.allclose(back, 0.25)

    def test_gradients_flow_through_transmissions(self, rng):
        # decision 23 = [3,2,1,0] twice: partition 3 feeds the head directly
        # at the final step and partition 0's early blocks route through 3,
        # crossing a stage boundary; partitions 1 and 2 never reach the head
        net = models.Network(TINY, seed=7)
        p = pol.policy_from_ids([(23, 0), (23, 8)], g=4, alpha=2)
        x = rng.standard_normal((2, 3, 8, 8)).astype(F32)
        y = np.array([1, 3])

        def loss():
            logits = net.forward(x, p, train=True)
            val, _ = nn.softmax_cross_entropy(logits, y)
            net._tape = None
            return val

        net.zero_grads()
        logits = net.forward(x, p, train=True)
        _, probs = nn.softmax_cross_entropy(logits, y)
        net.backward(nn.cross_entropy_grad(probs, y))
        grads = dict(net.named_grads())

        def directional_fd(arr, v, eps=1e-3):
            flat = arr.reshape(-1)
            orig = flat.copy()
            flat[:] = orig + (eps * v).astype(F32)
            lp = loss()
            flat[:] = orig - (eps * v).astype(F32)
            lm = loss()
            flat[:] = orig
            return (lp - lm) / (2 * eps)

        checked = 0
        for name, arr in net.named_params():
            if name.endswith(("conv1.w3", "conv2.w3", "gamma0")) or name == "stem.conv.w":
                an = grads[name].reshape(-1).astype(np.float64)
                norm = np.linalg.norm(an)
                assert norm > 1e-4, name
                # probe along the analytic gradient: slope must equal its norm
                fd = directional_fd(arr, an / norm)
                assert abs(fd - norm) / norm <= 2e-2, (name, fd, norm)
                # and along a random direction, scaled against the norm
                v = rng.standard_normal(arr.size)
                v /= np.linalg.norm(v)
                fd = directional_fd(arr, v)
                assert abs(fd - v @ an) / norm <= 5e-2, name
                checked += 1
        assert checked >= 4
        # partitions off the routing chain must receive exactly zero gradient
        for name, arr in grads.items():
            if name.startswith("block") and name.endswith(("w1", "w2", "gamma1", "gamma2", "beta1", "beta2")):
                assert not arr.any(), name

    def test_transmission_changes_output(self, rng):
        net = models.Network(TINY, seed=2)
        x = rng.standard_normal((1, 3, 8, 8)).astype(F32)
        base = net.forward(x, None, train=True)
        routed = net.forward(x, pol.policy_from_ids([(7, 8), (13, 8)], 4, 2), train=True)
        assert not np.array_equal(base, routed)

    def test_wire_f16_close_to_f32(self, rng):
        net = models.Network(TINY, seed=2)
        x = rng.standard_normal((1, 3, 8, 8)).astype(F32)
        p = pol.policy_from_ids([(7, 8), (13, 8)], 4, 2)
        net.forward(x, p, train=True)  # record stats so eval works
        a = net.forward(x, p, wire_f16=False)
        b = net.forward(x, p, wire_f16=True)
        assert np.abs(a - b).max() < 0.1


class TestPartitionExecutor:
    def test_slices_match_full_forward_bitwise(self, rng):
        net = models.Network(TINY, seed=9)
        x = rng.standard_normal((1, 3, 8, 8)).astype(F32)
        net.forward(x, None, train=True)  # populate bn stats
        full_logits = net.forward(x, None, train=False)
        # replay the full forward to capture per-block features
        feats = []
        h = net.stem_relu.forward(net.stem_bn.forward(net.stem_conv.forward(x), False))
        h = np.concatenate([h] * 4, axis=1)
        for blk in net.blocks:
            h = blk.forward(h, train=False)
            feats.append(h.copy())
        for node in range(4):
            ex = models.PartitionExecutor(net, node)
            hp = ex.stem(x)
            for i in range(len(net.blocks)):
                hp = ex.block(i, hp)
                sw = feats[i].shape[1] // 4
                assert np.array_equal(hp, feats[i][:, node * sw : (node + 1) * sw]), (node, i)
            if node == 0:
                assert np.array_equal(ex.head(hp), full_logits)

    def test_non_head_node_refuses_head(self):
        net = models.Network(TINY, seed=9)
        ex = models.PartitionExecutor(net, 2)
        with pytest.raises(ConfigError):
            ex.head(np.zeros((1, net.keep_ch, 2, 2), dtype=F32))
