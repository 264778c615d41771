"""Spans recorded around calls into sepnet's layers, from the benchmark's side.

A ``Tracer`` wraps public functions and methods of the program in place
(``install``) and restores them afterwards (``uninstall``). Each wrapped
call records a span: name, start, end, parent span and the operation (image
or meta-iteration) it belongs to. Spans stay in memory until ``dump``
writes them out. The program itself is not changed and worker processes
are not traced.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import os
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op")

    def __init__(self, ident, name, start, parent, op):
        self.id, self.name, self.start, self.parent, self.op = ident, name, start, parent, op
        self.end = None


def conv_kind(conv) -> str:
    """Name the four conv shapes of a separable ResNeXt."""
    if conv.ksize > 1:
        # the middle conv maps its width onto itself; only the stem changes width
        return "stem" if conv.in_ch != conv.out_ch else "conv3x3_grouped"
    return "downsample_s2" if conv.stride > 1 else "conv1x1"


CONV_KINDS = ("stem", "conv1x1", "conv3x3_grouped", "downsample_s2")


class Tracer:
    """In-memory span recorder; disabled tracers record nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = None
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.op)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        s = self.begin(name)
        try:
            yield
        finally:
            self.end(s)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, after=None, op=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``name`` is a span name or a function of the call's arguments that
        returns one; ``after(result, *args, **kwargs)`` may add counts and
        ``op(*args, **kwargs)`` names the operation the call starts.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if op is not None:
                tracer.op = op(*args, **kwargs)
            s = tracer.begin(name(*args, **kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(s)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer boundaries of sepnet named in the README."""
        if not self.enabled:
            return
        from sepnet import checkpoint, controller, data, models, nn, runtime, search, wire

        def conv_macs(y, conv, x, *a, **k):
            b, _, h, w = x.shape
            ho, wo = conv.out_hw(h, w)
            macs = b * models.conv_macs(conv.out_ch, ho, wo, conv.in_ch, conv.groups, conv.ksize)
            self.count(f"nn.conv.{conv_kind(conv)}.fwd_macs", macs)

        def conv_bwd_macs(dx, conv, dy, *a, **k):
            b, _, ho, wo = dy.shape
            # weight gradient and input gradient: two matmuls of the forward's size
            macs = 2 * b * models.conv_macs(conv.out_ch, ho, wo, conv.in_ch, conv.groups, conv.ksize)
            self.count(f"nn.conv.{conv_kind(conv)}.bwd_macs", macs)

        def encoded(raw, *a, **k):
            self.count("wire.encode_calls")
            self.count("wire.encode_bytes", len(raw))

        def saved(result, path, *a, **k):
            self.count("checkpoint.save_bytes", os.path.getsize(path))

        def forward_name(net, x, policy=None, train=False, *a, **k):
            return "models.forward_train" if train else "models.forward_eval"

        def iteration(net, sampler, data, steps, cfg, iteration=0):
            return f"meta-iteration {iteration}"

        self.wrap(nn.Conv2d, "forward", lambda conv, *a, **k: f"nn.conv.{conv_kind(conv)}.fwd",
                  after=conv_macs)
        self.wrap(nn.Conv2d, "backward", lambda conv, *a, **k: f"nn.conv.{conv_kind(conv)}.bwd",
                  after=conv_bwd_macs)
        self.wrap(nn.BatchNorm2d, "forward", "nn.bn.fwd")
        self.wrap(nn.BatchNorm2d, "backward", "nn.bn.bwd")
        self.wrap(nn, "_im2col", "nn.im2col")
        self.wrap(nn, "_col2im_add", "nn.col2im_add")
        self.wrap(models.PartitionExecutor, "__init__", "models.executor_build")
        self.wrap(models.Network, "forward", forward_name)
        self.wrap(models.Network, "backward", "models.backward")
        self.wrap(wire, "encode_msg", "wire.encode", after=encoded)
        self.wrap(wire, "decode_msg", "wire.decode")
        self.wrap(runtime.PartitionSession, "compute_to", "runtime.session.compute")
        self.wrap(runtime.PartitionSession, "aggregate", "runtime.session.aggregate")
        self.wrap(runtime.PartitionSession, "capture", "runtime.session.capture")
        self.wrap(runtime, "run_hosted", "runtime.run_hosted")
        self.wrap(runtime, "single_process_reference", "runtime.single_process_reference")
        self.wrap(runtime.Coordinator, "infer", "runtime.coordinator.infer")
        self.wrap(controller.Controller, "sample_policy", "controller.sample")
        self.wrap(controller.Controller, "reinforce_update", "controller.update")
        self.wrap(search, "train_shared_weights", "search.stage1", op=iteration)
        self.wrap(search, "train_controller", "search.stage2")
        self.wrap(search, "sample_best", "search.stage3")
        self.wrap(search, "finetune", "search.finetune", op=lambda *a, **k: "finetune")
        self.wrap(search, "run_search", "search.run_search")
        self.wrap(checkpoint, "save_checkpoint", "checkpoint.save", after=saved)
        self.wrap(checkpoint, "load_model", "checkpoint.load")
        self.wrap(data, "make_dataset", "data.make_dataset")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it that its child spans cover.

        Spans open and close as a stack (``end`` enforces it), so a span's
        children lie inside it and one after another."""
        out = {s.id: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += selfs[s.id]
        return out

    def dump(self, path: str) -> None:
        """Write every span, gzip-compressed JSON, one row per span."""
        selfs = self.self_times()
        names = sorted({s.name for s in self.spans})
        ops = sorted({str(s.op) for s in self.spans})
        name_ix = {n: i for i, n in enumerate(names)}
        op_ix = {o: i for i, o in enumerate(ops)}
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "op", "self"],
            "names": names,
            "ops": ops,
            "spans": [[s.id, name_ix[s.name], s.start, s.end, s.parent, op_ix[str(s.op)],
                       selfs[s.id]] for s in self.spans],
            "counts": dict(self.counts),
            "summary": self.summary(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


NODE0_FIELDS = ("stem", "compute", "wait", "aggregate", "serialize", "head", "other")


def layer_metrics(tracer: Tracer, measured: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, with units, from the spans and from
    ``measured`` values the workload took itself (node-0 reports, frame
    bytes). A layer the workload never calls reads 0."""
    summ = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return summ.get(name, {}).get("calls", 0)

    def total(name):
        return summ.get(name, {}).get("total_s", 0.0)

    def mean(name, scale=1e3):
        return scale * total(name) / calls(name) if calls(name) else 0.0

    hosted = calls("runtime.run_hosted")

    def per_hosted(name):
        return 1e3 * total(name) / hosted if hosted else 0.0

    m: dict[str, tuple[float, str]] = {}
    for f in NODE0_FIELDS:
        m[f"runtime.node0_{f}_ms"] = (measured.get(f"node0_{f}_ms", 0.0), "ms")
    for name in ("round_trip_ms_p50", "hosted_ms_p50", "reference_ms_p50", "broadcast_ms",
                 "outside_node0_ms"):
        m[f"runtime.{name}"] = (measured.get(name, 0.0), "ms")
    for f in ("compute", "aggregate", "capture"):
        m[f"runtime.session_{f}_ms"] = (per_hosted(f"runtime.session.{f}"), "ms")
    m["models.executor_build_ms"] = (per_hosted("models.executor_build"), "ms")
    m["models.executor_builds_per_call"] = (
        calls("models.executor_build") / hosted if hosted else 0.0, "count")
    m["models.forward_eval_ms"] = (mean("models.forward_eval"), "ms")
    m["models.forward_train_ms"] = (mean("models.forward_train"), "ms")
    m["models.backward_ms"] = (mean("models.backward"), "ms")
    for kind in CONV_KINDS:
        fwd, bwd = f"nn.conv.{kind}.fwd", f"nn.conv.{kind}.bwd"
        busy = total(fwd) + total(bwd)
        macs = counts.get(f"{fwd}_macs", 0.0) + counts.get(f"{bwd}_macs", 0.0)
        m[f"{fwd}_ms"] = (mean(fwd), "ms")
        m[f"{bwd}_ms"] = (mean(bwd), "ms")
        m[f"nn.conv.{kind}.calls"] = (calls(fwd), "count")
        m[f"nn.conv.{kind}.gmacs_per_s"] = (macs / busy / 1e9 if busy else 0.0, "GMAC/s")
    m["nn.bn.fwd_ms"] = (mean("nn.bn.fwd"), "ms")
    m["nn.bn.bwd_ms"] = (mean("nn.bn.bwd"), "ms")
    m["nn.im2col_ms"] = (mean("nn.im2col"), "ms")
    m["nn.col2im_add_ms"] = (mean("nn.col2im_add"), "ms")
    m["wire.encode_calls"] = (counts.get("wire.encode_calls", 0), "count")
    m["wire.encode_bytes"] = (counts.get("wire.encode_bytes", 0), "B")
    m["wire.encode_ms"] = (mean("wire.encode"), "ms")
    m["wire.decode_ms"] = (mean("wire.decode"), "ms")
    m["wire.bytes_per_image"] = (measured.get("wire_bytes_per_image", 0), "B")
    m["controller.sample_ms"] = (mean("controller.sample"), "ms")
    m["controller.update_ms"] = (mean("controller.update"), "ms")
    for k in (1, 2, 3):
        m[f"search.stage{k}_s"] = (mean(f"search.stage{k}", 1.0), "s")
    steps = measured.get("train_steps", 0)
    m["search.train_step_ms"] = (1e3 * total("search.stage1") / steps if steps else 0.0, "ms")
    epochs = measured.get("finetune_epochs", 0)
    m["search.finetune_epoch_s"] = (total("search.finetune") / epochs if epochs else 0.0, "s")
    m["search.run_search_s"] = (mean("search.run_search", 1.0), "s")
    m["checkpoint.save_ms"] = (mean("checkpoint.save"), "ms")
    m["checkpoint.save_bytes"] = (
        counts.get("checkpoint.save_bytes", 0) / calls("checkpoint.save")
        if calls("checkpoint.save") else 0, "B")
    m["checkpoint.load_ms"] = (mean("checkpoint.load"), "ms")
    m["data.make_dataset_s"] = (mean("data.make_dataset", 1.0), "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m
