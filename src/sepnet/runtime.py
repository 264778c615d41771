"""Distributed inference: workers, coordinator, and the in-process oracle.

Deployment shapes
-----------------
* one process per partition: ``run_worker`` serves a partition over TCP;
  a ``Coordinator`` broadcasts the input image to every worker and reads
  the logits (and a timing report) back from node 0.
* all partitions in one process: ``run_hosted`` takes turns among one
  ``_drive`` generator per node and passes their messages through an
  in-memory mailbox.

Both paths run ``_drive``, the one loop over transmission boundaries, and
push every feature chunk through the wire codec, so a hosted run is
byte-identical to a socket run, and both match
``single_process_reference`` on the full-width graph.

Every worker process runs numpy's BLAS on ``WORKER_BLAS_THREADS`` (one)
thread. OpenBLAS otherwise starts one thread per core in every process,
so G workers on a few cores oversubscribe them many times over while a
batch-1 partition gains nothing from a second thread. The count is set
through OpenBLAS's own call, because a spawned worker has imported numpy
before its target runs and ``OPENBLAS_NUM_THREADS`` is read only then.

Protocol
--------
Connections are TCP with TCP_NODELAY; each pair of peers shares one
full-duplex connection dialed by the lower node id. Both ends of a fresh
connection immediately send a handshake (magic "SNNH") carrying their
node id, the cluster size, and the policy digest; a digest or size
mismatch refuses the connection. Feature messages are self-framing
TensorMsg frames; the coordinator's input and the logits reply use
``step_index = 0xFFFF``, node 0's timing report uses ``0xFFFE``. Routing
is a permutation per step, so every node sends at most one and receives
exactly one message per step (self-sends stay local), and in-order
delivery per link makes deadlock impossible.
"""

from __future__ import annotations

import ctypes
import glob
import logging
import os
import queue
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import wire
from .errors import ConfigError, HandshakeError, PeerFailureError, SepnetError
from .models import Network, PartitionExecutor, adapt_chunk
from .policy import PolicySequence, n_send
from .checkpoint import load_model

log = logging.getLogger("sepnet.runtime")

COORD_ID = 0xFE
WORKER_BLAS_THREADS = 1
# (set, get) symbol pairs of numpy's bundled OpenBLAS, newest naming first
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

TIMING_FIELDS = ("stem", "compute", "wait", "aggregate", "serialize", "head", "other", "total")


def single_process_reference(net: Network, policy: PolicySequence | None,
                             x: np.ndarray, dtype: str = "f32") -> np.ndarray:
    """Oracle: the full-width graph in eval mode with wire-equivalent casting."""
    return net.forward(x, policy, train=False, wire_f16=(dtype == "f16"))


class PartitionSession:
    """Stepwise inference of one partition between transmission boundaries."""

    def __init__(self, executor: PartitionExecutor, policy: PolicySequence, dtype: str = "f32"):
        policy.validate_for(executor.spec.num_blocks)
        self.ex = executor
        self.policy = policy
        self.dtype_code = wire.dtype_code(dtype)
        self.node = executor.node
        self.boundaries = executor.spec.boundaries()
        self.h = None
        self.next_block = 0
        self.timing = dict.fromkeys(TIMING_FIELDS, 0.0)

    def expected_source(self, step: int) -> int | None:
        return self.policy.steps[step][0].receiver_of(self.node)

    def send_target(self, step: int) -> int | None:
        dst = self.policy.steps[step][0].dest[self.node]
        return None if dst == self.node else dst

    def start(self, x: np.ndarray) -> None:
        t0 = time.perf_counter()
        self.h = self.ex.stem(x)
        self.next_block = 0
        self.timing = dict.fromkeys(TIMING_FIELDS, 0.0)
        self.timing["stem"] = time.perf_counter() - t0

    def compute_to(self, block: int) -> None:
        """Run blocks up to and including 1-based ``block``."""
        t0 = time.perf_counter()
        while self.next_block < block:
            self.h = self.ex.block(self.next_block, self.h)
            self.next_block += 1
        self.timing["compute"] += time.perf_counter() - t0

    def aggregate(self, step: int, raw: bytes) -> None:
        t0 = time.perf_counter()
        src = self.expected_source(step)
        if src is None:
            raise ConfigError(f"step {step} has no incoming message for node {self.node}")
        chunk, meta = wire.decode_msg(raw)
        if meta.step_index != step or meta.dest != self.node:
            raise PeerFailureError(
                f"misrouted message: step {meta.step_index}->{meta.dest}, expected {step}->{self.node}")
        self.h = self.h + adapt_chunk(chunk[None], self.h.shape[1], self.h.shape[2:])
        self.timing["aggregate"] += time.perf_counter() - t0

    def capture(self, step: int) -> tuple[int, bytes] | None:
        """Encode this node's outgoing chunk for ``step``; None for self-send."""
        dst = self.send_target(step)
        if dst is None:
            return None
        t0 = time.perf_counter()
        _, level = self.policy.steps[step]
        sw = self.h.shape[1]
        sent = n_send(sw, level)
        raw = wire.encode_msg(np.ascontiguousarray(self.h[0, :sent]), step_index=step,
                              source=self.node, dest=dst, dtype=self.dtype_code,
                              channels_total=sw)
        self.timing["serialize"] += time.perf_counter() - t0
        return dst, raw

    def head(self) -> np.ndarray:
        t0 = time.perf_counter()
        logits = self.ex.head(self.h)
        self.timing["head"] = time.perf_counter() - t0
        return logits


def _drive(session: PartitionSession, x: np.ndarray, send):
    """Run one inference of ``session`` on ``x`` as a generator.

    It yields each step whose incoming message it needs next and must be
    resumed with that message's raw frame; ``send(step, dst, raw)`` takes
    its outgoing frames. It returns the logits on node 0, else ``None``.
    At every boundary the pending message from the previous step is
    aggregated first, then the fresh chunk is captured from the updated
    feature and sent; the final step's message is aggregated after the
    last block, just before the head.
    """
    session.start(x)
    for step, block in enumerate(session.boundaries):
        session.compute_to(block)
        if step >= 1 and session.expected_source(step - 1) is not None:
            session.aggregate(step - 1, (yield step - 1))
        out = session.capture(step)
        if out is not None:
            send(step, *out)
    session.compute_to(session.ex.spec.num_blocks)
    last = len(session.boundaries) - 1
    if last >= 0 and session.expected_source(last) is not None:
        session.aggregate(last, (yield last))
    return session.head() if session.node == 0 else None


def run_hosted(net: Network, policy: PolicySequence, x: np.ndarray, dtype: str = "f32",
               message_log: list | None = None) -> np.ndarray:
    """All partitions in one process, in turns, through the full wire codec."""
    mailbox: dict[tuple[int, int], bytes] = {}

    def send(step: int, dst: int, raw: bytes) -> None:
        mailbox[(step, dst)] = raw
        if message_log is not None:
            message_log.append(raw)

    runs = {node: _drive(PartitionSession(PartitionExecutor(net, node), policy, dtype), x, send)
            for node in range(net.G)}
    waiting: dict[int, tuple[int, int] | None] = dict.fromkeys(runs)
    logits = None
    while runs:
        ready = [node for node, key in waiting.items() if key is None or key in mailbox]
        if not ready:
            raise PeerFailureError("hosted run stalled: " + ", ".join(
                f"node {node} waits for step {key[0]}" for node, key in waiting.items()))
        for node in ready:
            key = waiting[node]
            try:
                step = runs[node].send(None if key is None else mailbox.pop(key))
            except StopIteration as done:
                del runs[node], waiting[node]
                if node == 0:
                    logits = done.value
            else:
                waiting[node] = (step, node)
    if mailbox:
        raise PeerFailureError("undelivered messages: " + ", ".join(
            f"step {step} to node {dst}" for step, dst in sorted(mailbox)))
    return logits


# -- sockets -------------------------------------------------------------------


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        count = sock.recv_into(view[got:])
        if not count:
            raise PeerFailureError("peer closed the connection")
        got += count
    return bytes(buf)


def _read_frame(sock: socket.socket) -> tuple[bytes, wire.MsgMeta]:
    """One whole frame; the header is checked before its payload is read."""
    header = _recv_exact(sock, wire.HEADER.size)
    meta = wire.decode_header(header)
    return header + _recv_exact(sock, meta.payload_len), meta


@dataclass
class WorkerConfig:
    node_id: int
    num_nodes: int
    listen: tuple[str, int]
    peers: dict[int, tuple[str, int]]  # node_id -> (host, port), all other nodes
    checkpoint: str
    policy_path: str
    dtype: str = "f32"
    recv_timeout: float = 30.0

    def validate(self) -> None:
        if not 0 <= self.node_id < self.num_nodes:
            raise ConfigError(f"node_id {self.node_id} out of range for G={self.num_nodes}")
        missing = set(range(self.num_nodes)) - {self.node_id} - set(self.peers)
        if missing:
            raise ConfigError(f"peer table missing nodes {sorted(missing)}")


class _PeerLinks:
    """Connection registry with a shared inbox for feature messages."""

    def __init__(self, worker: "Worker"):
        self.worker = worker
        self.conns: dict[int, socket.socket] = {}
        self.inbox: dict[int, bytes] = {}
        self.cond = threading.Condition()
        self.dead: set[int] = set()

    def register(self, peer: int, sock: socket.socket) -> None:
        with self.cond:
            old = self.conns.get(peer)
            self.conns[peer] = sock
            self.dead.discard(peer)
        if old is not None:
            try:
                old.close()
            except OSError:
                pass
        threading.Thread(target=self._recv_loop, args=(peer, sock), daemon=True).start()

    def _recv_loop(self, peer: int, sock: socket.socket) -> None:
        """Read frames from one peer or the coordinator until the link fails.

        A corrupt frame leaves the stream unusable, so it closes the link
        and marks the peer dead like a disconnect, which fails a waiting
        inference at once."""
        try:
            while True:
                raw, meta = _read_frame(sock)
                if meta.step_index == wire.STEP_INPUT:
                    self.worker.input_queue.put(raw)
                    continue
                with self.cond:
                    # back-to-back inferences reuse step indices; per-link
                    # in-order delivery makes parking until the previous
                    # occupant is consumed safe and deadlock-free
                    deadline = time.monotonic() + self.worker.cfg.recv_timeout
                    while meta.step_index in self.inbox:
                        left = deadline - time.monotonic()
                        if left <= 0:
                            raise PeerFailureError(
                                f"unconsumed message for step {meta.step_index}")
                        self.cond.wait(left)
                    self.inbox[meta.step_index] = raw
                    self.cond.notify_all()
        except (SepnetError, OSError):
            sock.close()
            with self.cond:
                if self.conns.get(peer) is sock:
                    self.dead.add(peer)
                self.cond.notify_all()

    def wait_for(self, step: int, source: int, timeout: float) -> bytes:
        deadline = time.monotonic() + timeout
        with self.cond:
            while step not in self.inbox:
                if source in self.dead:
                    raise PeerFailureError(
                        f"peer {source} disconnected while waiting for step {step}")
                left = deadline - time.monotonic()
                if left <= 0:
                    raise PeerFailureError(f"timeout waiting for step {step} from peer {source}")
                self.cond.wait(left)
            raw = self.inbox.pop(step)
            self.cond.notify_all()
            return raw

    def clear(self) -> None:
        with self.cond:
            self.inbox.clear()
            self.cond.notify_all()


class Worker:
    """One compute node: a listener, per-connection receivers, one sender,
    and a compute loop that serves inferences until stopped."""

    def __init__(self, cfg: WorkerConfig):
        cfg.validate()
        self.cfg = cfg
        net, _, extra = load_model(cfg.checkpoint)
        if net is None:
            raise ConfigError(f"checkpoint {cfg.checkpoint} holds no graph")
        from .policy import load_policy

        self.policy = load_policy(cfg.policy_path)
        self.hash = bytes.fromhex(self.policy.digest())
        self.session = PartitionSession(PartitionExecutor(net, cfg.node_id),
                                        self.policy, cfg.dtype)
        self.links = _PeerLinks(self)
        self.input_queue: queue.Queue = queue.Queue()
        self.send_queue: queue.Queue = queue.Queue()
        self.coordinator: socket.socket | None = None
        self.stop_event = threading.Event()
        self.listener: socket.socket | None = None

    # -- connection management ------------------------------------------

    def _handshake(self, sock: socket.socket, initiator: bool) -> int:
        """Initiator sends first; the accepting side validates before replying,
        so a refused dialer sees the connection close instead of a reply."""
        if initiator:
            sock.sendall(wire.encode_handshake(self.cfg.node_id, self.cfg.num_nodes, self.hash))
        peer_id, peer_g, peer_hash = wire.decode_handshake(_recv_exact(sock, wire.HS.size))
        if peer_g != self.cfg.num_nodes:
            raise HandshakeError(f"peer expects G={peer_g}, this worker has G={self.cfg.num_nodes}")
        if peer_hash != self.hash:
            raise HandshakeError("policy hash mismatch; refusing to start")
        if not initiator:
            sock.sendall(wire.encode_handshake(self.cfg.node_id, self.cfg.num_nodes, self.hash))
        return peer_id

    def _accept_loop(self) -> None:
        while not self.stop_event.is_set():
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                peer = self._handshake(sock, initiator=False)
            except (HandshakeError, PeerFailureError, OSError):
                sock.close()
                continue
            if peer == COORD_ID:
                self.coordinator = sock
                threading.Thread(target=self.links._recv_loop, args=(peer, sock),
                                 daemon=True).start()
            else:
                self.links.register(peer, sock)

    def _dial(self, peer: int) -> bool:
        host, port = self.cfg.peers[peer]
        try:
            sock = socket.create_connection((host, port), timeout=2.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(None)
            self._handshake(sock, initiator=True)
        except (OSError, HandshakeError, PeerFailureError):
            return False
        self.links.register(peer, sock)
        return True

    def _reconnect_loop(self) -> None:
        # the lower node id owns dialing for each pair
        dial_targets = [p for p in self.cfg.peers if p > self.cfg.node_id]
        while not self.stop_event.is_set():
            for peer in dial_targets:
                with self.links.cond:
                    needs = peer in self.links.dead or peer not in self.links.conns
                if needs:
                    self._dial(peer)
            self.stop_event.wait(0.3)

    def _send_loop(self) -> None:
        while not self.stop_event.is_set():
            try:
                peer, raw = self.send_queue.get(timeout=0.2)
            except queue.Empty:
                continue
            sock = self.links.conns.get(peer)
            with self.links.cond:
                usable = sock is not None and peer not in self.links.dead
            if not usable:
                # link not up yet (or being re-dialed): retry shortly
                time.sleep(0.05)
                self.send_queue.put((peer, raw))
                continue
            try:
                sock.sendall(raw)
            except OSError:
                with self.links.cond:
                    self.links.dead.add(peer)
                    self.links.cond.notify_all()

    # -- serving -----------------------------------------------------------

    def start(self) -> None:
        self.listener = socket.create_server(self.cfg.listen)
        threading.Thread(target=self._accept_loop, daemon=True).start()
        threading.Thread(target=self._reconnect_loop, daemon=True).start()
        threading.Thread(target=self._send_loop, daemon=True).start()

    def _serve_one(self, raw_input: bytes) -> None:
        t_start = time.perf_counter()
        chunk, meta = wire.decode_msg(raw_input)
        x = chunk[None]  # wire frames carry exactly one image
        sess = self.session
        run = _drive(sess, x, lambda step, dst, raw: self.send_queue.put((dst, raw)))
        raw = None
        while True:
            try:
                step = run.send(raw)
            except StopIteration as done:
                logits = done.value
                break
            t0 = time.perf_counter()
            raw = self.links.wait_for(step, sess.expected_source(step), self.cfg.recv_timeout)
            sess.timing["wait"] += time.perf_counter() - t0
        sess.timing["total"] = time.perf_counter() - t_start
        accounted = sum(sess.timing[k] for k in TIMING_FIELDS if k not in ("other", "total"))
        sess.timing["other"] = max(0.0, sess.timing["total"] - accounted)
        if self.cfg.node_id == 0 and logits is not None and self.coordinator is not None:
            reply = wire.encode_msg(logits.reshape(-1, 1, 1).astype(np.float32),
                                    step_index=wire.STEP_INPUT, source=0, dest=COORD_ID,
                                    dtype=wire.DTYPE_F32, channels_total=logits.size)
            timing = np.array([sess.timing[k] for k in TIMING_FIELDS],
                              dtype=np.float32).reshape(-1, 1, 1)
            report = wire.encode_msg(timing, step_index=wire.STEP_TIMING, source=0,
                                     dest=COORD_ID, dtype=wire.DTYPE_F32,
                                     channels_total=timing.shape[0])
            try:
                self.coordinator.sendall(reply + report)
            except OSError:
                pass

    def _abort_inference(self) -> None:
        """Drop buffered and queued messages of a failed inference."""
        self.links.clear()
        while True:
            try:
                self.send_queue.get_nowait()
            except queue.Empty:
                return

    def serve_forever(self) -> None:
        self.start()
        while not self.stop_event.is_set():
            try:
                raw = self.input_queue.get(timeout=0.2)
            except queue.Empty:
                continue
            try:
                self._serve_one(raw)
            except Exception as exc:
                # abort this inference, stay alive for the next request
                log.warning("node %d aborted an inference: %s: %s",
                            self.cfg.node_id, type(exc).__name__, exc)
                self._abort_inference()


def set_blas_threads(n: int) -> int | None:
    """Set the thread count of numpy's bundled OpenBLAS for this process.

    Returns the count read back from OpenBLAS, or None when numpy bundles
    no OpenBLAS."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for set_name, get_name in _BLAS_THREAD_SYMBOLS:
            setter, getter = getattr(lib, set_name, None), getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter(n)
                return getter()
    return None


def run_worker(cfg: WorkerConfig) -> None:
    """Blocking entry point for a worker process; caps its BLAS threads first."""
    threads = set_blas_threads(WORKER_BLAS_THREADS)
    log.info("node %d: BLAS threads %s", cfg.node_id,
             "not capped" if threads is None else threads)
    Worker(cfg).serve_forever()


@dataclass
class InferResult:
    class_id: int
    logits: np.ndarray
    timing: dict[str, float] = field(default_factory=dict)


class Coordinator:
    """Connects to every worker, broadcasts inputs, reads node-0 replies."""

    def __init__(self, workers: dict[int, tuple[str, int]], policy_digest_hex: str,
                 num_nodes: int, timeout: float = 30.0):
        self.addrs = workers
        self.hash = bytes.fromhex(policy_digest_hex)
        self.g = num_nodes
        self.timeout = timeout
        self.conns: dict[int, socket.socket] = {}

    def connect(self, retries: int = 50, delay: float = 0.1) -> None:
        for node, addr in sorted(self.addrs.items()):
            last = None
            for _ in range(retries):
                try:
                    sock = socket.create_connection(addr, timeout=2.0)
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    sock.sendall(wire.encode_handshake(COORD_ID, self.g, self.hash))
                    wire.decode_handshake(_recv_exact(sock, wire.HS.size))
                    sock.settimeout(self.timeout)
                    self.conns[node] = sock
                    last = None
                    break
                except OSError as exc:
                    last = exc
                    time.sleep(delay)
            if last is not None:
                raise PeerFailureError(f"cannot reach worker {node} at {addr}: {last}")

    def close(self) -> None:
        for sock in self.conns.values():
            try:
                sock.close()
            except OSError:
                pass
        self.conns.clear()

    def infer(self, image: np.ndarray) -> InferResult:
        """Broadcast one image, await node-0 logits plus the timing report."""
        if image.ndim == 4:
            if image.shape[0] != 1:
                raise ConfigError("streaming inference takes exactly one image at a time")
            image = image[0]
        if image.ndim != 3:
            raise ConfigError(f"expected an image of shape (C, H, W), got {image.shape}")
        t0 = time.perf_counter()
        frame = wire.encode_msg(np.ascontiguousarray(image, dtype=np.float32),
                                step_index=wire.STEP_INPUT, source=COORD_ID, dest=0,
                                dtype=wire.DTYPE_F32, channels_total=image.shape[0])
        try:
            for node in sorted(self.conns):
                self.conns[node].sendall(frame)
        except OSError as exc:
            raise PeerFailureError(f"broadcast failed: {exc}") from exc
        broadcast_s = time.perf_counter() - t0
        try:
            raw, meta = _read_frame(self.conns[0])
            if meta.step_index != wire.STEP_INPUT:
                raise PeerFailureError(f"unexpected reply frame step {meta.step_index}")
            logits = wire.decode_msg(raw)[0].reshape(-1)
            report_raw, report_meta = _read_frame(self.conns[0])
            timing = {}
            if report_meta.step_index == wire.STEP_TIMING:
                values = wire.decode_msg(report_raw)[0].reshape(-1)
                timing = dict(zip(TIMING_FIELDS, (float(v) for v in values)))
        except (OSError, PeerFailureError) as exc:
            raise PeerFailureError(f"inference failed: {exc}") from exc
        timing["broadcast"] = broadcast_s
        timing["round_trip"] = time.perf_counter() - t0
        return InferResult(int(np.argmax(logits)), logits, timing)
