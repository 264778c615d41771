"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 4 trains
twenty short searches (2 samplers x 5 seeds x 10 meta-iterations) and
dominates the runtime; everything else finishes in seconds.
"""

import math
import os
import tempfile
import time

import numpy as np
import pytest

from sepnet import data as dat
from sepnet import checkpoint as ckpt
from sepnet import models, nn, perf, runtime, search, wire
from sepnet import policy as pol
from sepnet.controller import Controller
from sepnet.errors import FramingError
from sepnet.rng import make_rng

from conftest import finite_diff, rel_err
from test_models import random_spec
from test_runtime import Cluster, trained_net, POLICY as RUNTIME_POLICY

TABLE = models.ModelSpec()                    # depth-56, 8x16d
TABLE_SEP = models.ModelSpec(partitions=4)
PAPER4 = models.ModelSpec(cardinality=4, bottleneck_width=16, partitions=4, alpha=2)

TABLE5_SPARSE_F16 = [(9, 4), (22, 6), (18, 6), (3, 6), (16, 7), (23, 8), (9, 8), (13, 8), (20, 7)]


def _report(num: int, name: str, t0: float) -> None:
    print(f"ACCEPTANCE {num} ({name}): PASS  [{time.time() - t0:.1f}s]")


def test_criterion_1_parameter_accounting(rng):
    t0 = time.time()
    for _ in range(200):
        spec = random_spec(rng)
        net = models.Network(spec, seed=0)
        want = sum(models.block_formula_params(spec, b) for b in range(1, spec.num_blocks + 1))
        assert models.count_params_enumerated(net, "conv_no_ds") == want, spec
    plain = models.count_params_enumerated(models.Network(TABLE, seed=0))
    sep = models.count_params_enumerated(models.Network(TABLE_SEP, seed=0))
    overhead = sep / plain - 1
    assert 0.0 <= overhead <= 0.08, overhead
    assert time.time() - t0 < 60
    _report(1, "parameter accounting", t0)


def test_criterion_2_decision_space():
    t0 = time.time()
    decs = pol.enumerate_decisions(4)
    assert len(decs) == 24
    assert decs[0].dest == (0, 1, 2, 3)
    assert decs[7].dest == (1, 0, 3, 2)
    assert decs[13].dest == (2, 0, 3, 1)
    assert decs[23].dest == (3, 2, 1, 0)
    for g, want in [(2, 1), (3, 2), (4, 9), (5, 44)]:
        got = sum(1 for i in range(math.factorial(g))
                  if pol.is_comm_intensive(pol.decision_from_id(i, g)))
        assert got == want
    percentages = [pol.SparsityLevel(i).percentage() for i in range(9)]
    assert percentages == [50.0, 56.25, 62.5, 68.75, 75.0, 81.25, 87.5, 93.75, 100.0]
    assert pol.search_space_size(4, 9) == 2_641_807_540_224
    assert abs(pol.search_space_size(4, 9) / 2.64e12 - 1) < 0.01
    assert abs(pol.search_space_size(4, 18) / 6.98e24 - 1) < 0.01
    assert time.time() - t0 < 1
    _report(2, "decision space", t0)


def test_criterion_3_gradients(rng):
    t0 = time.time()
    # nn-core backward passes vs central finite differences, rel err <= 1e-3
    for cfg in (dict(groups=1, stride=1), dict(groups=2, stride=1), dict(groups=1, stride=2)):
        conv = nn.Conv2d(4, 4, 3, cfg["stride"], groups=cfg["groups"], rng=rng)
        x = rng.standard_normal((2, 4, 5, 5)).astype(np.float32)
        proj = rng.choice([-1.0, 1.0], size=conv.forward(x).shape).astype(np.float32)

        def loss(conv=conv, x=x, proj=proj):
            return float(np.sum(conv.forward(x).astype(np.float64) * proj))

        conv.zero_grad()
        conv.forward(x, train=True)
        dx = conv.backward(proj)
        idx, fd = finite_diff(loss, conv.w, samples=30, rng=rng)
        assert rel_err(fd, conv.gw.reshape(-1)[idx]).max() <= 1e-3
        idx, fd = finite_diff(loss, x, samples=30, rng=rng)
        assert rel_err(fd, dx.reshape(-1)[idx]).max() <= 1e-3

    bn = nn.BatchNorm2d(3)
    xb = rng.standard_normal((4, 3, 4, 4)).astype(np.float32)
    projb = rng.choice([-1.0, 1.0], size=xb.shape).astype(np.float32)
    bn.forward(xb, train=True)
    dxb = bn.backward(projb)
    idx, fd = finite_diff(lambda: float(np.sum(bn.forward(xb, True).astype(np.float64) * projb)),
                          xb, samples=30, rng=rng)
    assert rel_err(fd, dxb.reshape(-1)[idx]).max() <= 1e-3

    lin = nn.Linear(6, 4, rng=rng)
    xl = rng.standard_normal((3, 6)).astype(np.float32)
    projl = rng.choice([-1.0, 1.0], size=(3, 4)).astype(np.float32)
    lin.forward(xl, train=True)
    lin.backward(projl)
    idx, fd = finite_diff(lambda: float(np.sum(lin.forward(xl).astype(np.float64) * projl)),
                          lin.w, rng=rng)
    assert rel_err(fd, lin.gw.reshape(-1)[idx]).max() <= 1e-3

    # controller backward on hidden size 4
    ctl = Controller(g=2, levels=3, hidden=4, seed=6)
    prng = make_rng(11, "acc-grad")
    for _, arr in ctl.params():
        arr += prng.normal(0, 0.3, arr.shape).astype(np.float32)
    pairs = [(1, 2), (0, 0)]
    ctl.zero_grad()
    ctl.accumulate_ascent_grad(pairs, coef=1.0)
    grads = dict(ctl.grads())
    for name, arr in ctl.params():
        idx, fd = finite_diff(lambda: ctl.log_prob(pairs), arr, eps=1e-2, samples=15, rng=rng)
        assert rel_err(fd, grads[name].reshape(-1)[idx], floor=0.05).max() <= 1e-3, name

    # REINFORCE estimator vs the exact enumerated expected-reward gradient
    ctl = Controller(g=2, levels=1, hidden=8, seed=3)
    for _, arr in ctl.params():
        arr += prng.normal(0, 0.3, arr.shape).astype(np.float32)
    rewards = {0: 0.2, 1: 0.9}
    probs = np.array([math.exp(ctl.log_prob([(a, 0)])) for a in (0, 1)])
    assert abs(probs.sum() - 1) < 1e-5

    def grad_sum(weights):
        ctl.zero_grad()
        for a, w in weights.items():
            if w:
                ctl.accumulate_ascent_grad([(a, 0)], coef=w)
        return {n: g.copy() for n, g in ctl.grads()}

    exact = grad_sum({a: probs[a] * rewards[a] for a in (0, 1)})
    n = 100_000
    counts = np.bincount(make_rng(0, "mc").choice(2, size=n, p=probs / probs.sum()), minlength=2)
    mc = grad_sum({a: counts[a] / n * rewards[a] for a in (0, 1)})
    num = sum(float(np.sum((mc[k] - exact[k]) ** 2)) for k in exact)
    den = sum(float(np.sum(exact[k] ** 2)) for k in exact)
    assert math.sqrt(num / den) <= 0.02
    assert time.time() - t0 < 300
    _report(3, "gradient suite", t0)


def test_criterion_4_controller_beats_random_sampler():
    t0 = time.time()
    spec = models.ModelSpec(stages=2, blocks_per_stage=2, cardinality=8, bottleneck_width=4,
                            partitions=4, num_classes=12, alpha=2, in_hw=(16, 16))
    assert spec.depth == 14
    gaps = []
    for seed in range(5):
        ds = dat.make_dataset(dat.DataSpec(num_classes=12, hw=(16, 16), train_pool=2000,
                                           test_n=256, noise=1.5, seed=seed))
        with tempfile.TemporaryDirectory() as wd:
            warm_cfg = search.SearchConfig(meta_iterations=1, shared_steps=40,
                                           controller_steps=1, candidates=1, seed=seed)
            search.random_search_baseline(warm_cfg, spec, ds, out_dir=wd, run_finetune=False)
            warm = os.path.join(wd, "best.snnc")
            cfg = search.SearchConfig(meta_iterations=10, shared_steps=40, controller_steps=40,
                                      candidates=15, seed=seed)
            res_c = search.run_search(cfg, spec, ds, warm_start=warm, run_finetune=False)
            res_r = search.random_search_baseline(cfg, spec, ds, warm_start=warm,
                                                  run_finetune=False)

        def mean_best(log):
            return np.mean([e["candidate_accuracy"] for e in log if e["stage"] == "select"])

        gap = mean_best(res_c.log) - mean_best(res_r.log)
        gaps.append(gap)
        print(f"  seed {seed}: gap {gap:+.4f}")
    mean_gap = float(np.mean(gaps))
    print(f"  mean gap over 5 seeds: {mean_gap:+.4f}")
    assert mean_gap >= 0.02, gaps
    assert time.time() - t0 <= 1800
    _report(4, "controller vs random sampler", t0)


def test_criterion_5_distributed_equivalence(tmp_path):
    t0 = time.time()
    cluster = Cluster(tmp_path)
    try:
        rng = make_rng(0, "acc-dist")
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
            want = runtime.single_process_reference(cluster.net, RUNTIME_POLICY, x, "f32")
            got = cluster.coord.infer(x)
            worst = max(worst, float(np.abs(want.reshape(-1) - got.logits).max()))
        assert worst <= 1e-5, worst
        for _ in range(20):
            x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
            hosted = runtime.run_hosted(cluster.net, RUNTIME_POLICY, x, "f32")
            res = cluster.coord.infer(x)
            assert np.array_equal(hosted.reshape(-1), res.logits)
    finally:
        cluster.close()
    assert time.time() - t0 < 300
    _report(5, "distributed equivalence", t0)


def test_criterion_6_transmission_reduction():
    t0 = time.time()
    full = perf.full_exchange_policy(PAPER4)
    f32 = perf.comm_volume(PAPER4, full, "f32")
    f16 = perf.comm_volume(PAPER4, full, "f16")
    assert f16.total_bytes * 2 == f32.total_bytes
    alpha1 = models.ModelSpec(**{**PAPER4.__dict__, "alpha": 1})
    assert perf.comm_volume(alpha1, include_baseline=False).message_count \
        == 2 * perf.comm_volume(PAPER4, include_baseline=False).message_count
    assert f32.ratio <= 0.35, f32.ratio
    sparse = pol.policy_from_ids(TABLE5_SPARSE_F16, 4, 2)
    best = perf.comm_volume(PAPER4, sparse, "f16")
    assert best.ratio <= 0.20, best.ratio
    assert time.time() - t0 < 60
    _report(6, "transmission reduction", t0)


def test_criterion_7_feasibility_and_speedup():
    t0 = time.time()
    cluster = perf.ClusterSpec(4, 1.7e8, 300e6)
    feas = perf.feasibility(cluster, PAPER4)
    assert feas.feasible and feas.margin >= 0.0
    tl = perf.simulate_latency(cluster, PAPER4)
    assert tl.totals["exposed_wait"] == 0.0
    single = perf.simulate_latency(cluster, PAPER4, single_node=True)
    speedup = single.makespan / tl.makespan
    assert 2.5 <= speedup <= 4.0, speedup
    assert time.time() - t0 < 60
    _report(7, "deployment feasibility", t0)


def test_criterion_8_wire_format(rng):
    t0 = time.time()
    for _ in range(10_000):
        c_total = int(rng.integers(1, 12))
        c_sent = int(rng.integers(0, c_total + 1))
        h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        dtype = int(rng.integers(0, 2))
        chunk = rng.standard_normal((c_sent, h, w)).astype(np.float32)
        if dtype == wire.DTYPE_F16:
            chunk = chunk.astype(np.float16).astype(np.float32)
        meta_in = dict(step_index=int(rng.integers(0, 60000)), source=int(rng.integers(0, 200)),
                       dest=int(rng.integers(0, 200)), dtype=dtype, channels_total=c_total)
        raw = wire.encode_msg(chunk, **meta_in)
        out, meta = wire.decode_msg(raw)
        assert np.array_equal(out[:c_sent], chunk)
        assert not out[c_sent:].any()
        # byte-exact round trip: re-encoding the decoded chunk reproduces the frame
        again = wire.encode_msg(out[:c_sent], **meta_in)
        assert again == raw
    sample = wire.encode_msg(np.ones((2, 3, 3), np.float32), step_index=1, source=0,
                             dest=1, dtype=wire.DTYPE_F32, channels_total=2)
    corrupt_magic = b"XXXX" + sample[4:]
    with pytest.raises(FramingError):
        wire.decode_msg(corrupt_magic)
    bad_len = bytearray(sample)
    bad_len[19:23] = (5).to_bytes(4, "little")
    with pytest.raises(FramingError):
        wire.decode_msg(bytes(bad_len))
    with pytest.raises(FramingError):
        wire.decode_msg(sample[:-1])
    assert time.time() - t0 < 60
    _report(8, "wire format", t0)
