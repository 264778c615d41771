import logging
import multiprocessing as mp
import os
import queue
import socket
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from sepnet import checkpoint as ckpt
from sepnet import models, runtime, wire
from sepnet import policy as pol
from sepnet.errors import ConfigError, PeerFailureError
from sepnet.rng import make_rng

SPEC = models.ModelSpec(stages=2, blocks_per_stage=2, cardinality=8, bottleneck_width=4,
                        partitions=4, num_classes=8, alpha=2, in_hw=(16, 16))
POLICY = pol.policy_from_ids([(7, 3), (13, 8)], 4, 2)

_CTX = mp.get_context("spawn")


def trained_net(seed=3) -> models.Network:
    net = models.Network(SPEC, seed=seed)
    rng = make_rng(seed, "warm")
    x = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
    net.forward(x, POLICY, train=True)
    net._tape = None
    return net


def free_ports(n):
    socks = [socket.create_server(("127.0.0.1", 0)) for _ in range(n)]
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def worker_config(node, addrs, ck, pp, dtype="f32", timeout=6.0):
    return runtime.WorkerConfig(
        node_id=node, num_nodes=len(addrs), listen=addrs[node],
        peers={j: a for j, a in addrs.items() if j != node},
        checkpoint=ck, policy_path=pp, dtype=dtype, recv_timeout=timeout)


class Cluster:
    def __init__(self, tmp_path, dtype="f32", policy=POLICY, net=None):
        self.net = net or trained_net()
        self.ck = str(tmp_path / "model.snnc")
        ckpt.save_model(self.ck, self.net)
        self.pp = str(tmp_path / "run.policy")
        pol.save_policy(self.pp, policy)
        ports = free_ports(4)
        self.addrs = {i: ("127.0.0.1", ports[i]) for i in range(4)}
        self.dtype = dtype
        self.procs = {}
        for i in range(4):
            self.start_worker(i)
        self.coord = runtime.Coordinator(self.addrs, policy.digest(), 4, timeout=8.0)
        self.coord.connect()

    def start_worker(self, node):
        cfgw = worker_config(node, self.addrs, self.ck, self.pp, self.dtype)
        proc = _CTX.Process(target=runtime.run_worker, args=(cfgw,), daemon=True)
        proc.start()
        self.procs[node] = proc

    def kill_worker(self, node):
        self.procs[node].terminate()
        self.procs[node].join(5)

    def reconnect(self):
        self.coord.close()
        self.coord.connect()

    def close(self):
        self.coord.close()
        for proc in self.procs.values():
            proc.terminate()
        for proc in self.procs.values():
            proc.join(5)


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    cl = Cluster(tmp_path_factory.mktemp("cluster"))
    yield cl
    cl.close()


class TestReference:
    def test_all_self_send_equals_independent_partitions(self, rng):
        net = trained_net()
        idle = pol.all_self_send_policy(4, SPEC.num_blocks, SPEC.alpha)
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        want = runtime.single_process_reference(net, idle, x)
        # partition 0 end to end on its own, no messages at all
        ex = models.PartitionExecutor(net, 0)
        h = ex.stem(x)
        for i in range(SPEC.num_blocks):
            h = ex.block(i, h)
        assert np.array_equal(ex.head(h), want)

    def test_full_sparsity_f32_matches_search_evaluation_bitwise(self, rng):
        # the search loop's reward evaluation and the deployment oracle must
        # be the same computation down to the last bit
        from sepnet import search

        net = trained_net()
        full = pol.policy_from_ids([(7, 8), (13, 8)], 4, 2)
        x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
        want = runtime.single_process_reference(net, full, x, "f32")
        assert np.array_equal(net.forward(x, full, train=False), want)
        y = want.argmax(axis=1)
        assert search.evaluate_policy(net, full, x, y) == 1.0

    def test_f16_wire_error_is_bounded(self, rng):
        net = trained_net()
        full = pol.policy_from_ids([(7, 8), (13, 8)], 4, 2)
        worst = 0.0
        for _ in range(10):
            x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
            a = runtime.single_process_reference(net, full, x, "f32")
            b = runtime.single_process_reference(net, full, x, "f16")
            worst = max(worst, float(np.abs(a - b).max()))
        assert worst < 0.1  # recorded bound on unit-scale activations


class TestHosted:
    @pytest.mark.parametrize("dtype", ["f32", "f16"])
    def test_hosted_matches_reference_bitwise(self, dtype, rng):
        net = trained_net()
        for _ in range(5):
            x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
            want = runtime.single_process_reference(net, POLICY, x, dtype)
            got = runtime.run_hosted(net, POLICY, x, dtype)
            assert np.array_equal(want, got)

    def test_wire_determinism_byte_identical_messages(self, rng):
        net = trained_net()
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        logs = []
        for _ in range(2):
            log = []
            runtime.run_hosted(net, POLICY, x, "f16", message_log=log)
            logs.append(log)
        assert logs[0] == logs[1]
        assert len(logs[0]) > 0


    def test_stalled_run_raises_typed_error(self, rng, monkeypatch):
        # nobody sends, yet every receiver waits: no node can progress
        monkeypatch.setattr(runtime.PartitionSession, "send_target", lambda self, step: None)
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        with pytest.raises(PeerFailureError, match="stalled"):
            runtime.run_hosted(trained_net(), POLICY, x)

    def test_undelivered_message_raises_typed_error(self, rng, monkeypatch):
        # every node sends, no node receives
        monkeypatch.setattr(runtime.PartitionSession, "expected_source", lambda self, step: None)
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        with pytest.raises(PeerFailureError, match="undelivered"):
            runtime.run_hosted(trained_net(), POLICY, x)


class TestSessions:
    def test_permutation_routing_one_send_one_receive(self):
        net = trained_net()
        for step in range(len(POLICY)):
            senders = POLICY.steps[step][0].senders()
            assert len({s for s, _ in senders}) == len(senders)
            assert len({d for _, d in senders}) == len(senders)
        ex = models.PartitionExecutor(net, 1)
        sess = runtime.PartitionSession(ex, POLICY)
        assert sess.expected_source(0) == 0  # decision 7: node 0 sends to 1
        assert sess.send_target(0) == 0

    def test_misrouted_message_rejected(self, rng):
        from sepnet import wire

        net = trained_net()
        sess = runtime.PartitionSession(models.PartitionExecutor(net, 1), POLICY)
        sess.start(rng.standard_normal((1, 3, 16, 16)).astype(np.float32))
        sess.compute_to(2)
        bad = wire.encode_msg(np.zeros((4, 16, 16), np.float32), step_index=0,
                              source=0, dest=3, dtype=wire.DTYPE_F32, channels_total=16)
        with pytest.raises(PeerFailureError, match="misrouted"):
            sess.aggregate(0, bad)


def test_corrupt_frame_fails_waiting_inference_at_once():
    worker = SimpleNamespace(cfg=SimpleNamespace(recv_timeout=3.0), input_queue=queue.Queue())
    links = runtime._PeerLinks(worker)
    mine, theirs = socket.socketpair()
    try:
        links.register(1, mine)
        theirs.sendall(b"JUNK" + bytes(wire.HEADER.size - 4))
        t0 = time.monotonic()
        with pytest.raises(PeerFailureError, match="peer 1"):
            links.wait_for(0, 1, timeout=3.0)
        assert time.monotonic() - t0 < 1.0
    finally:
        mine.close()
        theirs.close()


def test_recv_exact_reassembles_many_small_pieces():
    payload = bytes(range(256)) * 80
    mine, theirs = socket.socketpair()

    def trickle():
        for i in range(0, len(payload), 97):
            theirs.sendall(payload[i:i + 97])
            time.sleep(0.0005)

    sender = threading.Thread(target=trickle)
    sender.start()
    try:
        got = runtime._recv_exact(mine, len(payload))
    finally:
        sender.join(10)
        mine.close()
        theirs.close()
    assert not sender.is_alive()
    assert type(got) is bytes and got == payload


def test_recv_exact_peer_closed_mid_payload():
    mine, theirs = socket.socketpair()
    try:
        theirs.sendall(b"x" * 10)
        theirs.close()
        with pytest.raises(PeerFailureError, match="closed"):
            runtime._recv_exact(mine, 20)
    finally:
        mine.close()


def test_aborted_inference_is_logged(tmp_path, caplog, monkeypatch):
    ck, pp = str(tmp_path / "m.snnc"), str(tmp_path / "p.policy")
    ckpt.save_model(ck, trained_net())
    pol.save_policy(pp, POLICY)
    addrs = {i: ("127.0.0.1", 0) for i in range(4)}
    worker = runtime.Worker(worker_config(2, addrs, ck, pp))
    monkeypatch.setattr(worker, "start", lambda: None)  # no sockets needed
    abort = worker._abort_inference

    def abort_then_stop():
        abort()
        worker.stop_event.set()

    monkeypatch.setattr(worker, "_abort_inference", abort_then_stop)
    worker.send_queue.put((1, b"stale frame"))
    worker.input_queue.put(b"JUNK" + bytes(wire.HEADER.size - 4))
    with caplog.at_level(logging.WARNING, logger="sepnet.runtime"):
        worker.serve_forever()
    assert worker.send_queue.empty()
    [record] = [r for r in caplog.records if r.name == "sepnet.runtime"]
    assert record.levelno == logging.WARNING
    assert "node 2" in record.message
    assert "FramingError" in record.message and "bad magic" in record.message


def _set_blas_threads_twice():
    # unpickling this target imported sepnet.runtime, and numpy, before it runs
    return runtime.set_blas_threads(2), runtime.set_blas_threads(1)


def test_blas_thread_cap_in_spawned_child():
    with _CTX.Pool(1) as pool:
        counts = pool.apply(_set_blas_threads_twice)
    if counts == (None, None):
        pytest.skip("numpy bundles no OpenBLAS")
    assert counts == (2, 1)


@pytest.mark.parametrize("read_back, shown", [(1, "BLAS threads 1"),
                                              (None, "BLAS threads not capped")])
def test_run_worker_caps_blas_before_building_worker(monkeypatch, caplog, read_back, shown):
    calls = []

    def cap(n):
        calls.append(("cap", n))
        return read_back

    class StubWorker:
        def __init__(self, cfg):
            calls.append("build")

        def serve_forever(self):
            calls.append("serve")

    monkeypatch.setattr(runtime, "set_blas_threads", cap)
    monkeypatch.setattr(runtime, "Worker", StubWorker)
    with caplog.at_level(logging.INFO, logger="sepnet.runtime"):
        runtime.run_worker(SimpleNamespace(node_id=3))
    assert calls == [("cap", 1), "build", "serve"]
    assert f"node 3: {shown}" in caplog.text


class TestLoopbackCluster:
    def test_matches_reference_over_many_inputs(self, cluster):
        rng = make_rng(0, "loopback")
        worst = 0.0
        for _ in range(20):
            x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
            want = runtime.single_process_reference(cluster.net, POLICY, x, "f32")
            got = cluster.coord.infer(x)
            worst = max(worst, float(np.abs(want.reshape(-1) - got.logits).max()))
        assert worst <= 1e-5

    def test_four_process_matches_hosted_bitwise(self, cluster):
        rng = make_rng(1, "hosted-vs-procs")
        for _ in range(5):
            x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
            hosted = runtime.run_hosted(cluster.net, POLICY, x, "f32")
            res = cluster.coord.infer(x)
            assert np.array_equal(hosted.reshape(-1), res.logits)

    def test_identical_image_identical_class(self, cluster):
        rng = make_rng(2, "repeat")
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        a = cluster.coord.infer(x)
        b = cluster.coord.infer(x)
        assert a.class_id == b.class_id
        assert np.array_equal(a.logits, b.logits)

    def test_timing_categories_sum_to_total(self, cluster):
        rng = make_rng(3, "timing")
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        res = cluster.coord.infer(x)
        t = res.timing
        parts = sum(t[k] for k in runtime.TIMING_FIELDS if k != "total")
        assert t["total"] > 0
        assert abs(parts - t["total"]) / t["total"] <= 0.05

    def test_batch_of_one_enforced(self, cluster):
        with pytest.raises(ConfigError, match="one image"):
            cluster.coord.infer(np.zeros((2, 3, 16, 16), np.float32))

    def test_kill_worker_fails_then_cluster_recovers(self, cluster):
        # node 1 feeds node 0 at both steps under this policy, so killing it
        # must fail the inference; the survivors recover once it is restarted
        rng = make_rng(4, "kill")
        x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        cluster.kill_worker(1)
        with pytest.raises(PeerFailureError):
            cluster.coord.infer(x)
        cluster.start_worker(1)
        time.sleep(1.5)  # peers re-dial and handshake
        cluster.reconnect()
        want = runtime.single_process_reference(cluster.net, POLICY, x, "f32")
        got = cluster.coord.infer(x)
        assert np.abs(want.reshape(-1) - got.logits).max() <= 1e-5


def test_policy_hash_mismatch_refused(tmp_path):
    net = trained_net()
    ck = str(tmp_path / "m.snnc")
    ckpt.save_model(ck, net)
    pp = str(tmp_path / "p.policy")
    pol.save_policy(pp, POLICY)
    ports = free_ports(1)
    addrs = {0: ("127.0.0.1", ports[0])}
    cfgw = runtime.WorkerConfig(node_id=0, num_nodes=1, listen=addrs[0], peers={},
                                checkpoint=ck, policy_path=pp)
    proc = _CTX.Process(target=runtime.run_worker, args=(cfgw,), daemon=True)
    proc.start()
    try:
        other = pol.policy_from_ids([(0, 0), (0, 0)], 4, 2)
        coord = runtime.Coordinator(addrs, other.digest(), 1, timeout=2.0)
        with pytest.raises(PeerFailureError):
            coord.connect(retries=8, delay=0.25)
    finally:
        proc.terminate()
        proc.join(5)


def test_f16_cluster_matches_f16_reference(tmp_path):
    cl = Cluster(tmp_path, dtype="f16")
    try:
        rng = make_rng(5, "f16")
        for _ in range(3):
            x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
            want = runtime.single_process_reference(cl.net, POLICY, x, "f16")
            got = cl.coord.infer(x)
            assert np.array_equal(want.reshape(-1), got.logits)
    finally:
        cl.close()
