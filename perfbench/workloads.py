"""The benchmark's three workloads.

Each workload function takes the run's arguments, a ``Tracer`` and a
scratch directory, and returns a ``Result``: operations attempted and
failed, the problems its correctness checks found, its end-to-end metrics
and the values it measured for the per-layer report. Checks run after the
timed phase.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import socket
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from spans import NODE0_FIELDS

from sepnet import checkpoint, config, data, models, perf, runtime, search, wire
from sepnet import policy as pol
from sepnet.errors import SepnetError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
D56_CONFIG = os.path.join(ROOT, "configs", "sep-resnext56-4x16d.cfg")
DESK_CONFIG = os.path.join(ROOT, "configs", "desk.cfg")

# the d56 model is fixed; only the images depend on the run's seed
MODEL_SEED = 0
BN_BATCH = 4
# the searched sparse policy of acceptance criterion 6 (paper Table 5), sent at f16
SPARSE_F16 = [(9, 4), (22, 6), (18, 6), (3, 6), (16, 7), (23, 8), (9, 8), (13, 8), (20, 7)]
# search-desk: criterion 4's per-meta-iteration counts (configs/desk.cfg), cut short
DESK_META_ITERATIONS = 2
DESK_FINETUNE_EPOCHS = 1
WORKER_START_TIMEOUT_S = 60.0
# Four workers on two cores run at rates that differ by up to 50 % from one
# set of workers to the next (1.6 against 2.4 images/s in one process), so
# a run measures several sets in turn, each for its share of --seconds.
LOOPBACK_SESSIONS = 3


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    measured: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def image_stream(seed: int, shape=(1, 3, 32, 32)):
    """Standard-normal float32 images from the run's seed."""
    rng = np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, 0x1D6]))
    while True:
        yield rng.standard_normal(shape).astype(np.float32)


def vmhwm_mb(pid="self") -> float:
    """Peak resident set size of a process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for process {pid}")


def median_ms(seconds) -> float:
    return 1e3 * statistics.median(seconds)


def d56_model() -> tuple[models.ModelSpec, models.Network]:
    """The depth-56 G=4 model, its BatchNorm statistics set by one training-mode batch."""
    spec = config.model_spec(config.resolve(D56_CONFIG))
    net = models.Network(spec, seed=MODEL_SEED)
    x = next(image_stream(MODEL_SEED, (BN_BATCH, spec.in_channels, *spec.in_hw)))
    net.forward(x, None, train=True)
    return spec, net


def frame_bytes(net, policy, x, dtype) -> tuple[int, list[bytes]]:
    frames: list[bytes] = []
    runtime.run_hosted(net, policy, x, dtype, message_log=frames)
    return sum(len(f) for f in frames), frames


# -- loopback-d56 ---------------------------------------------------------------


def _free_ports(n: int) -> list[int]:
    socks = [socket.create_server(("127.0.0.1", 0)) for _ in range(n)]
    try:
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def _start_workers(g: int, ckpt_path: str, policy_path: str, dtype: str):
    ports = _free_ports(g)
    addrs = {i: ("127.0.0.1", ports[i]) for i in range(g)}
    ctx = mp.get_context("spawn")
    procs = []
    for node in range(g):
        cfg = runtime.WorkerConfig(
            node_id=node, num_nodes=g, listen=addrs[node],
            peers={j: a for j, a in addrs.items() if j != node},
            checkpoint=ckpt_path, policy_path=policy_path, dtype=dtype)
        proc = ctx.Process(target=runtime.run_worker, args=(cfg,), daemon=True)
        proc.start()
        procs.append(proc)
    return addrs, procs


def _stop_workers(procs) -> None:
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(10)
        if proc.is_alive():
            proc.kill()
            proc.join(10)


def loopback_d56(seed: int, seconds: float, tracer, scratch: str, start: float) -> Result:
    res = Result()
    dtype = "f16"
    with tracer.span("bench.setup"):
        tracer.op = "setup"
        spec, net = d56_model()
        policy = pol.policy_from_ids(SPARSE_F16, spec.partitions, spec.alpha)
        ckpt_path = os.path.join(scratch, "d56.snnc")
        policy_path = os.path.join(scratch, "sparse.policy")
        checkpoint.save_model(ckpt_path, net)
        pol.save_policy(policy_path, policy)
        del net  # the checks use the model as the workers load it
        net, _, _ = checkpoint.load_model(ckpt_path)
        images = image_stream(seed)
        warm = next(images)
        want = runtime.run_hosted(net, policy, warm, dtype)
    replies, sent, wall, rss = [], [], 0.0, 0.0
    for session in range(LOOPBACK_SESSIONS):
        procs, coord = [], None
        try:
            with tracer.span("bench.setup"):
                addrs, procs = _start_workers(spec.partitions, ckpt_path, policy_path, dtype)
                coord = runtime.Coordinator(addrs, policy.digest(), spec.partitions,
                                            timeout=WORKER_START_TIMEOUT_S)
                coord.connect(retries=int(WORKER_START_TIMEOUT_S / 0.1), delay=0.1)
                res.problems += checks.replies_match([coord.infer(warm)], [want])
            if session == 0:
                res.metrics["setup_s"] = (time.perf_counter() - start, "s")

            with tracer.span("bench.timed"):
                t0 = time.perf_counter()
                while time.perf_counter() - t0 < seconds / LOOPBACK_SESSIONS:
                    x = next(images)
                    tracer.op = f"image {len(sent)}"
                    res.attempted += 1
                    try:
                        replies.append(coord.infer(x))
                    except SepnetError as exc:
                        # the stream is no longer aligned after a failed call
                        res.failed += 1
                        res.notes.append(f"infer failed: {exc}")
                        break
                    sent.append(x)
                wall += time.perf_counter() - t0
            session_rss = 0.0
            for node, proc in enumerate(procs):
                if proc.is_alive():
                    session_rss += vmhwm_mb(proc.pid)
                else:
                    res.notes.append(f"worker {node} exited with code {proc.exitcode}")
            rss = max(rss, session_rss)
        finally:
            if coord is not None:
                coord.close()
            _stop_workers(procs)
        if res.failed:
            break

    if not replies:
        raise SepnetError("no image completed in the timed phase: " + "; ".join(res.notes))
    tracer.op = "check"
    with tracer.span("bench.check"):
        hosted = [runtime.run_hosted(net, policy, x, dtype) for x in sent]
        res.problems += checks.replies_match(replies, hosted)
        timings = [r.timing for r in replies]
        res.problems += checks.node0_within_round_trip(timings)
        nbytes, frames = frame_bytes(net, policy, warm, dtype)
        res.problems += checks.frames_match_cost_model(
            frames, wire.HEADER.size, perf.comm_volume(spec, policy, dtype))

    res.metrics.update({
        "images_per_s": (len(replies) / wall, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    })
    round_trips = [t["round_trip"] for t in timings]
    res.measured["round_trip_ms_p50"] = median_ms(round_trips)
    for f in NODE0_FIELDS:
        res.measured[f"node0_{f}_ms"] = median_ms([t[f] for t in timings])
    res.measured["broadcast_ms"] = median_ms([t["broadcast"] for t in timings])
    res.measured["outside_node0_ms"] = median_ms([t["round_trip"] - t["total"] for t in timings])
    res.measured["wire_bytes_per_image"] = nbytes
    split = ", ".join(f"{f} {res.measured[f'node0_{f}_ms']:.1f}" for f in NODE0_FIELDS)
    res.notes.append(f"round trip, median ms over {len(timings)} images: "
                     f"{res.measured['round_trip_ms_p50']:.1f}; node-0 split: {split}; "
                     f"outside node 0 {res.measured['outside_node0_ms']:.1f}")
    if len(round_trips) >= 100:  # at least ten images beyond the 90th percentile
        p90 = 1e3 * statistics.quantiles(round_trips, n=10)[-1]
        res.notes.append(f"round trip p90: {p90:.1f} ms")
    return res


# -- inproc-d56 -----------------------------------------------------------------


def inproc_d56(seed: int, seconds: float, tracer, scratch: str, start: float) -> Result:
    res = Result()
    dtype = "f32"
    with tracer.span("bench.setup"):
        tracer.op = "setup"
        spec, net = d56_model()
        policy = perf.full_exchange_policy(spec)
    res.metrics["setup_s"] = (time.perf_counter() - start, "s")
    images = image_stream(seed)
    warm = next(images)
    runtime.single_process_reference(net, policy, warm, dtype)
    runtime.run_hosted(net, policy, warm, dtype)

    refs, hosted, ref_s, hosted_s = [], [], [], []
    with tracer.span("bench.timed"):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            x = next(images)
            tracer.op = f"image {len(refs)}"
            res.attempted += 1
            t1 = time.perf_counter()
            refs.append(runtime.single_process_reference(net, policy, x, dtype))
            t2 = time.perf_counter()
            hosted.append(runtime.run_hosted(net, policy, x, dtype))
            t3 = time.perf_counter()
            ref_s.append(t2 - t1)
            hosted_s.append(t3 - t2)
        wall = time.perf_counter() - t0

    tracer.op = "check"
    with tracer.span("bench.check"):
        res.problems += checks.outputs_equal(hosted, refs, "run_hosted vs reference")
        nbytes, frames = frame_bytes(net, policy, warm, dtype)
        res.problems += checks.frames_match_cost_model(
            frames, wire.HEADER.size, perf.comm_volume(spec, policy, dtype))
    res.metrics.update({
        "images_per_s": (len(refs) / wall, "1/s"),
        "peak_rss_mb": (vmhwm_mb(), "MB"),
    })
    res.measured["wire_bytes_per_image"] = nbytes
    res.measured["reference_ms_p50"] = median_ms(ref_s)
    res.measured["hosted_ms_p50"] = median_ms(hosted_s)
    res.notes.append(f"median ms over {len(refs)} images: single_process_reference "
                     f"{res.measured['reference_ms_p50']:.2f}, run_hosted "
                     f"{res.measured['hosted_ms_p50']:.2f}")
    return res


# -- search-desk ----------------------------------------------------------------


def _search_images(scfg, ds) -> int:
    """Images passed through the network by one run_search (forward, with or
    without backward): stage-1 batches, stage-2/3 reward batches, fine-tuning
    and the test pass."""
    reward = min(scfg.reward_batch, len(ds.val_y))
    per_iteration = (scfg.shared_steps * scfg.batch_size * scfg.monte_carlo_m
                     + (scfg.controller_steps + scfg.candidates) * reward)
    finetune = scfg.finetune_epochs * max(1, len(ds.train_y) // scfg.batch_size) * scfg.batch_size
    return scfg.meta_iterations * per_iteration + finetune + len(ds.test_y)


def search_desk(seed: int, seconds: float, tracer, scratch: str, start: float) -> Result:
    """One search of fixed size; it does not read --seconds."""
    res = Result()
    with tracer.span("bench.setup"):
        tracer.op = "setup"
        cfg = config.resolve(DESK_CONFIG, [
            f"seed={seed}", f"search.meta_iterations={DESK_META_ITERATIONS}",
            f"search.finetune_epochs={DESK_FINETUNE_EPOCHS}"])
        spec, scfg = config.model_spec(cfg), config.search_config(cfg)
        ds = data.make_dataset(config.data_spec(cfg))
    res.metrics["setup_s"] = (time.perf_counter() - start, "s")

    out_dir = os.path.join(scratch, "search")
    res.attempted = scfg.meta_iterations
    with tracer.span("bench.timed"):
        t0 = time.perf_counter()
        found = search.run_search(scfg, spec, ds, out_dir=out_dir)
        search_s = time.perf_counter() - t0

    tracer.op = "check"
    with tracer.span("bench.check"):
        res.problems += checks.loss_decreases(found.log)
        # the test set one image at a time, through both inference paths
        hosted, refs, hosted_s, ref_s = [], [], [], []
        for i in range(len(ds.test_y)):
            x = ds.test_x[i][None]
            t0 = time.perf_counter()
            hosted.append(runtime.run_hosted(found.net, found.best_policy, x))
            t1 = time.perf_counter()
            refs.append(runtime.single_process_reference(found.net, found.best_policy, x))
            ref_s.append(time.perf_counter() - t1)
            hosted_s.append(t1 - t0)
        hits = sum(int(np.argmax(h) == y) for h, y in zip(hosted, ds.test_y))
        res.problems += checks.hits_match_accuracy(hits, len(ds.test_y), found.test_accuracy)
        res.problems += checks.outputs_equal(hosted, refs, "run_hosted vs reference")
        loaded, _, _ = checkpoint.load_model(os.path.join(out_dir, "best.snnc"))
        xv = ds.val_x[: scfg.reward_batch]
        res.problems += checks.outputs_equal(
            [loaded.forward(xv, found.best_policy)],
            [found.net.forward(xv, found.best_policy)], "best.snnc vs live network")
        nbytes, frames = frame_bytes(found.net, found.best_policy, ds.test_x[:1], "f32")
        res.problems += checks.frames_match_cost_model(
            frames, wire.HEADER.size, perf.comm_volume(spec, found.best_policy, "f32"))
    res.notes.append(f"run_search {search_s:.2f} s, test accuracy {found.test_accuracy:.4f}, "
                     f"best policy {found.best_policy.ids()}")

    res.metrics.update({
        "images_per_s": (_search_images(scfg, ds) / search_s, "1/s"),
        "peak_rss_mb": (vmhwm_mb(), "MB"),
    })
    res.measured["wire_bytes_per_image"] = nbytes
    res.measured["reference_ms_p50"] = median_ms(ref_s)
    res.measured["hosted_ms_p50"] = median_ms(hosted_s)
    res.measured["train_steps"] = scfg.meta_iterations * scfg.shared_steps
    res.measured["finetune_epochs"] = scfg.finetune_epochs
    return res


WORKLOADS = {
    "loopback-d56": loopback_d56,
    "inproc-d56": inproc_d56,
    "search-desk": search_desk,
}
