"""ResNeXt-style networks and their separable, partitioned variants.

The plain network is a stem 3x3 conv (16 channels), ``stages`` stages of
bottleneck blocks (1x1 -> grouped 3x3 -> 1x1 plus residual), spatial
downsampling x2 entering each stage after the first, global average pool
and a fully connected classifier. With cardinality C and bottleneck width
d, the middle grouped conv of stage k has C*d*2^k channels in C groups
and the block output width is half that.

The separable variant for G partitions duplicates the stem output G times
along channels, turns every 1x1 conv (and downsample projection) into a
grouped conv with G groups, and keeps the middle conv's C groups. Each
partition therefore owns a disjoint channel slice end to end; only the
stem and the classifier head are shared, and the head reads the first
1/G of the final channels.

Transmissions: after every ``alpha``-th block, each partition's slice may
be captured (first n_send channels, optionally cast to half precision)
and routed to another partition per the policy. Captured data is added
into the receiver's slice at the *next* boundary; the final boundary's
data is added just before the head. When a stage transition occurs
between capture and aggregation, the chunk is average-pooled to the new
spatial size and missing channels are zero-filled, mirroring the
receiver-side zero-fill rule for sparsified messages.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ConfigError, ShapeError
from .policy import PolicySequence, n_send, transmission_schedule
from .rng import make_rng

STEM_WIDTH = 16


@dataclass(frozen=True)
class ModelSpec:
    stages: int = 3
    blocks_per_stage: int = 6
    cardinality: int = 8
    bottleneck_width: int = 16
    filter_size: int = 3
    partitions: int = 1
    num_classes: int = 100
    alpha: int = 2
    in_channels: int = 3
    in_hw: tuple[int, int] = (32, 32)

    def validate(self) -> None:
        if self.stages < 1 or self.blocks_per_stage < 1:
            raise ConfigError("stages and blocks_per_stage must be >= 1")
        if self.cardinality < 1 or self.bottleneck_width < 1:
            raise ConfigError("cardinality and bottleneck_width must be >= 1")
        if self.filter_size < 1 or self.filter_size % 2 == 0:
            raise ConfigError(f"filter_size must be odd, got {self.filter_size}")
        if self.partitions < 1 or self.cardinality % self.partitions:
            raise ConfigError(
                f"partitions={self.partitions} must divide cardinality={self.cardinality}")
        if self.alpha < 1:
            raise ConfigError(f"alpha must be >= 1, got {self.alpha}")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.in_channels < 1 or min(self.in_hw) < 1:
            raise ConfigError("input dims must be positive")
        scale = 2 ** (self.stages - 1)
        if self.in_hw[0] % scale or self.in_hw[1] % scale:
            raise ConfigError(
                f"input {self.in_hw} not divisible by the downsampling factor {scale}")
        if self.stage_width(0) < self.partitions:
            raise ConfigError("block width too small for the partition count")

    @property
    def num_blocks(self) -> int:
        return self.stages * self.blocks_per_stage

    @property
    def depth(self) -> int:
        return 3 * self.num_blocks + 2

    def mid_width(self, stage: int) -> int:
        return self.cardinality * self.bottleneck_width * (2**stage)

    def stage_width(self, stage: int) -> int:
        """Per-partition block output width for a stage."""
        return max(1, self.mid_width(stage) // 2)

    def stage_of_block(self, block: int) -> int:
        """Stage index for a 1-based block index."""
        return (block - 1) // self.blocks_per_stage

    def hw_of_stage(self, stage: int) -> tuple[int, int]:
        return self.in_hw[0] >> stage, self.in_hw[1] >> stage

    def boundaries(self) -> list[int]:
        return transmission_schedule(self.num_blocks, self.alpha)

    def num_steps(self) -> int:
        return len(self.boundaries())

    def boundary_shapes(self) -> list[tuple[int, int, int]]:
        """Per transmission step: (per-partition channels, height, width)."""
        out = []
        for b in self.boundaries():
            s = self.stage_of_block(b)
            h, w = self.hw_of_stage(s)
            out.append((self.stage_width(s), h, w))
        return out

    def plain_block_shapes(self) -> list[tuple[int, int, int]]:
        """Output feature shape of every block in the unpartitioned model."""
        out = []
        for b in range(1, self.num_blocks + 1):
            s = self.stage_of_block(b)
            h, w = self.hw_of_stage(s)
            out.append((self.stage_width(s), h, w))
        return out


class Bottleneck:
    """1x1 -> KxK grouped -> 1x1 with residual; all convs partition-aligned."""

    def __init__(self, in_ch: int, mid_ch: int, out_ch: int, cardinality: int,
                 partitions: int, kf: int, stride: int, rng):
        g = partitions
        self.in_ch, self.out_ch, self.stride = in_ch, out_ch, stride
        self.conv1 = nn.Conv2d(in_ch, mid_ch, 1, 1, groups=g, partitions=g, rng=rng)
        self.bn1 = nn.BatchNorm2d(mid_ch, g)
        self.conv2 = nn.Conv2d(mid_ch, mid_ch, kf, stride, groups=cardinality, partitions=g, rng=rng)
        self.bn2 = nn.BatchNorm2d(mid_ch, g)
        self.conv3 = nn.Conv2d(mid_ch, out_ch, 1, 1, groups=g, partitions=g, rng=rng)
        self.bn3 = nn.BatchNorm2d(out_ch, g)
        self.relu1, self.relu2, self.relu_out = nn.ReLU(), nn.ReLU(), nn.ReLU()
        if stride != 1 or in_ch != out_ch:
            self.ds_conv = nn.Conv2d(in_ch, out_ch, 1, stride, groups=g, partitions=g, rng=rng)
            self.ds_bn = nn.BatchNorm2d(out_ch, g)
        else:
            self.ds_conv = self.ds_bn = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        h = self.relu1.forward(self.bn1.forward(self.conv1.forward(x, train), train), train)
        h = self.relu2.forward(self.bn2.forward(self.conv2.forward(h, train), train), train)
        h = self.bn3.forward(self.conv3.forward(h, train), train)
        sc = x if self.ds_conv is None else self.ds_bn.forward(self.ds_conv.forward(x, train), train)
        return self.relu_out.forward(h + sc, train)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        d = self.relu_out.backward(dy)
        dh = self.conv3.backward(self.bn3.backward(d))
        dh = self.conv2.backward(self.bn2.backward(self.relu2.backward(dh)))
        dx = self.conv1.backward(self.bn1.backward(self.relu1.backward(dh)))
        if self.ds_conv is None:
            return dx + d
        return dx + self.ds_conv.backward(self.ds_bn.backward(d))

    def slice(self, p: int) -> "Bottleneck":
        """Partition ``p`` as a one-partition block that shares its arrays."""
        part = copy.copy(self)
        g = self.conv1.partitions
        part.in_ch, part.out_ch = self.in_ch // g, self.out_ch // g
        for name, layer in self.sublayers():
            setattr(part, name, layer.slice(p))
        part.relu1, part.relu2, part.relu_out = nn.ReLU(), nn.ReLU(), nn.ReLU()
        return part

    def sublayers(self):
        out = [("conv1", self.conv1), ("bn1", self.bn1), ("conv2", self.conv2),
               ("bn2", self.bn2), ("conv3", self.conv3), ("bn3", self.bn3)]
        if self.ds_conv is not None:
            out += [("ds_conv", self.ds_conv), ("ds_bn", self.ds_bn)]
        return out


def cast_f16_roundtrip(x: np.ndarray) -> np.ndarray:
    """Round-to-nearest-even narrowing to half precision and back."""
    return x.astype(np.float16).astype(nn.F32)


def adapt_chunk(chunk: np.ndarray, tgt_ch: int, tgt_hw: tuple[int, int]) -> np.ndarray:
    """Fit a captured chunk to the feature shape at its aggregation boundary.

    Spatial shrink uses 2x2 average pooling per halving; channels beyond the
    chunk are zero-filled (the same rule a receiver applies to channels a
    sparsified message left out).
    """
    b, c, h, w = chunk.shape
    while (h, w) != tuple(tgt_hw):
        if h % 2 or w % 2 or h // 2 < tgt_hw[0] or w // 2 < tgt_hw[1]:
            raise ShapeError(f"cannot pool chunk {h}x{w} to {tgt_hw}")
        chunk = chunk.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5)).astype(nn.F32)
        h, w = h // 2, w // 2
    if c > tgt_ch:
        raise ShapeError(f"chunk has {c} channels but the boundary slice has {tgt_ch}")
    if c < tgt_ch:
        out = np.zeros((b, tgt_ch, h, w), dtype=nn.F32)
        out[:, :c] = chunk
        return out
    return chunk


def adapt_chunk_backward(dout: np.ndarray, src_ch: int, src_hw: tuple[int, int]) -> np.ndarray:
    """Gradient of :func:`adapt_chunk` wrt the captured chunk."""
    d = dout[:, :src_ch]
    b, c, h, w = d.shape
    while (h, w) != tuple(src_hw):
        d = np.repeat(np.repeat(d, 2, axis=2), 2, axis=3) / 4.0
        h, w = h * 2, w * 2
    return d.astype(nn.F32)


class Network:
    """Executable (separable) network; ``partitions == 1`` is the plain model."""

    def __init__(self, spec: ModelSpec, seed: int = 0):
        spec.validate()
        self.spec = spec
        self.G = spec.partitions
        rng = make_rng(seed, "model-init")
        self.stem_conv = nn.Conv2d(spec.in_channels, STEM_WIDTH, 3, 1, rng=rng)
        self.stem_bn = nn.BatchNorm2d(STEM_WIDTH)
        self.stem_relu = nn.ReLU()
        self.blocks: list[Bottleneck] = []
        in_ch = STEM_WIDTH * self.G
        for s in range(spec.stages):
            mid = spec.mid_width(s)
            out = spec.stage_width(s) * self.G
            for b in range(spec.blocks_per_stage):
                stride = 2 if (s > 0 and b == 0) else 1
                self.blocks.append(Bottleneck(in_ch, mid, out, spec.cardinality,
                                              self.G, spec.filter_size, stride, rng))
                in_ch = out
        self.final_ch = in_ch
        self.keep_ch = in_ch // self.G
        self.gap = nn.GlobalAvgPool()
        self.fc = nn.Linear(self.keep_ch, spec.num_classes, rng=rng)
        self._boundary_steps = {b: i for i, b in enumerate(spec.boundaries())}
        self._tape = None

    # -- naming ----------------------------------------------------------

    def _named_layers(self):
        yield "stem.conv", self.stem_conv
        yield "stem.bn", self.stem_bn
        for i, blk in enumerate(self.blocks):
            for sub, layer in blk.sublayers():
                yield f"block{i:02d}.{sub}", layer
        yield "head.fc", self.fc

    def named_params(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for prefix, layer in self._named_layers():
            for name, arr in layer.params():
                out.append((f"{prefix}.{name}", arr))
        return out

    def named_grads(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for prefix, layer in self._named_layers():
            for name, arr in layer.grads():
                out.append((f"{prefix}.{name}", arr))
        return out

    def named_state(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for prefix, layer in self._named_layers():
            if isinstance(layer, nn.BatchNorm2d):
                for name, arr in layer.state():
                    out.append((f"{prefix}.{name}", arr))
        return out

    def zero_grads(self) -> None:
        for _, layer in self._named_layers():
            if hasattr(layer, "zero_grad"):
                layer.zero_grad()

    def bn_initialized(self) -> bool:
        return all(l.initialized for _, l in self._named_layers() if isinstance(l, nn.BatchNorm2d))

    def mark_bn_initialized(self) -> None:
        for _, layer in self._named_layers():
            if isinstance(layer, nn.BatchNorm2d):
                layer.initialized = True

    def param_owner(self, name: str) -> str | int:
        """'shared' for stem/head parameters, else the owning partition."""
        if name.startswith(("stem.", "head.")):
            return "shared"
        leaf = name.rsplit(".", 1)[1]
        digits = "".join(ch for ch in leaf if ch.isdigit())
        return int(digits) if digits else 0

    # -- forward / backward ----------------------------------------------

    def _slice_width(self, total_ch: int) -> int:
        return total_ch // self.G

    def _capture(self, h, step, policy: PolicySequence, wire_f16: bool):
        comm, level = policy.steps[step]
        sw = self._slice_width(h.shape[1])
        nsend = n_send(sw, level)
        chunks = []
        for src, dst in comm.senders():
            chunk = h[:, src * sw : src * sw + nsend].copy()
            if wire_f16:
                chunk = cast_f16_roundtrip(chunk)
            chunks.append((src, dst, chunk))
        if not chunks:
            return None
        return {"step": step, "chunks": chunks, "src_ch": sw,
                "src_hw": (h.shape[2], h.shape[3]), "nsend": nsend}

    def _aggregate(self, h, pending, tape):
        tsw = self._slice_width(h.shape[1])
        thw = (h.shape[2], h.shape[3])
        for src, dst, chunk in pending["chunks"]:
            h[:, dst * tsw : (dst + 1) * tsw] += adapt_chunk(chunk, tsw, thw)
        if tape is not None:
            tape.append(("agg", pending["step"], [(s, d) for s, d, _ in pending["chunks"]],
                         pending["nsend"], pending["src_hw"], tsw, thw))
        return h

    def forward(self, x: np.ndarray, policy: PolicySequence | None = None,
                train: bool = False, wire_f16: bool = False) -> np.ndarray:
        nn.check_tensor4(x)
        if x.shape[1] != self.spec.in_channels:
            raise ShapeError(f"expected {self.spec.in_channels} input channels, got {x.shape[1]}")
        if policy is not None:
            policy.validate_for(self.spec.num_blocks)
            if policy.num_nodes != self.G:
                raise ConfigError(f"policy is for G={policy.num_nodes}, graph has G={self.G}")
        tape = [] if train else None
        h = self.stem_relu.forward(self.stem_bn.forward(self.stem_conv.forward(x, train), train), train)
        if self.G > 1:
            h = np.concatenate([h] * self.G, axis=1)
        pending = None
        for bi, blk in enumerate(self.blocks, 1):
            h = blk.forward(h, train)
            if tape is not None:
                tape.append(("block", blk))
            step = self._boundary_steps.get(bi)
            if step is not None:
                if pending is not None:
                    h = self._aggregate(h, pending, tape)
                pending = None if policy is None else self._capture(h, step, policy, wire_f16)
                if pending is not None and tape is not None:
                    tape.append(("capture", pending["step"], [(s, d) for s, d, _ in pending["chunks"]],
                                 pending["nsend"], self._slice_width(h.shape[1])))
        if pending is not None:
            h = self._aggregate(h, pending, tape)
        hk = np.ascontiguousarray(h[:, : self.keep_ch])
        if tape is not None:
            tape.append(("keep", h.shape[1]))
        p = self.gap.forward(hk, train)
        logits = self.fc.forward(p.reshape(p.shape[0], self.keep_ch), train)
        self._tape = tape
        return logits

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        if self._tape is None:
            raise nn.SepnetError("backward called without a train-mode forward")
        tape = self._tape
        self._tape = None
        dflat = self.fc.backward(dlogits)
        dh = self.gap.backward(dflat.reshape(dflat.shape[0], self.keep_ch, 1, 1))
        dchunks: dict[int, dict[tuple[int, int], np.ndarray]] = {}
        for rec in reversed(tape):
            kind = rec[0]
            if kind == "keep":
                total = rec[1]
                full = np.zeros((dh.shape[0], total, dh.shape[2], dh.shape[3]), dtype=nn.F32)
                full[:, : self.keep_ch] = dh
                dh = full
            elif kind == "agg":
                _, step, pairs, nsend, src_hw, tsw, _ = rec
                per_step = dchunks.setdefault(step, {})
                for src, dst in pairs:
                    dout = dh[:, dst * tsw : (dst + 1) * tsw]
                    per_step[(src, dst)] = adapt_chunk_backward(dout, nsend, src_hw)
            elif kind == "capture":
                _, step, pairs, nsend, sw = rec
                per_step = dchunks.pop(step)
                for src, dst in pairs:
                    dh[:, src * sw : src * sw + nsend] += per_step[(src, dst)]
            elif kind == "block":
                dh = rec[1].backward(dh)
        if self.G > 1:
            dh = sum(dh[:, g * STEM_WIDTH : (g + 1) * STEM_WIDTH] for g in range(self.G))
        dh = self.stem_conv.backward(self.stem_bn.backward(self.stem_relu.backward(dh)))
        return dh


# -- accounting ------------------------------------------------------------


def count_params_enumerated(net: Network, which: str = "all") -> int:
    """Exact trainable-scalar count.

    ``all``: conv weights, batchnorm affine, classifier.  ``conv``: conv
    weights only.  ``conv_no_ds``: conv weights excluding downsample
    projections (the closed forms below cover exactly this set).
    """
    if which not in ("all", "conv", "conv_no_ds"):
        raise ConfigError(f"unknown count selector {which!r}")
    if which == "all":
        return sum(arr.size for _, arr in net.named_params())
    total = 0
    for name, arr in net.named_params():
        prefix, kind = name.rsplit(".", 1)[0].split(".", 1)
        if which == "conv" and kind in ("conv", "conv1", "conv2", "conv3", "ds_conv"):
            total += arr.size
        elif which == "conv_no_ds" and prefix.startswith("block") and kind in ("conv1", "conv2", "conv3"):
            total += arr.size
    return total


def resnet_bottleneck_params(m: int, n: int, kf: int = 3) -> int:
    """Plain bottleneck closed form: M*N + Kf^2*N^2 + N*M."""
    return m * n + kf * kf * n * n + n * m


def count_params_formula(m_in: int, m_out: int, d: int, cardinality: int, kf: int = 3) -> int:
    """Grouped bottleneck closed form, conv weights, downsample excluded.

    Equals C*(M*d + Kf^2*d^2 + d*M) when m_in == m_out == M; partitioning
    into G groups leaves the count unchanged (G * (C/G) * (...) == C * (...)).
    """
    cd = cardinality * d
    return m_in * cd + cardinality * kf * kf * d * d + cd * m_out


def block_formula_params(spec: ModelSpec, block: int) -> int:
    """Closed-form conv-weight count for the 1-based ``block`` of ``spec``."""
    s = spec.stage_of_block(block)
    first = (block - 1) % spec.blocks_per_stage == 0
    m_out = spec.stage_width(s)
    if not first:
        m_in = m_out
    elif s == 0:
        m_in = STEM_WIDTH
    else:
        m_in = spec.stage_width(s - 1)
    return count_params_formula(m_in, m_out, spec.bottleneck_width * (2**s),
                                spec.cardinality, spec.filter_size)


def conv_macs(out_ch: int, ho: int, wo: int, in_ch: int, groups: int, ksize: int) -> int:
    """Multiply-accumulates of one conv: out_elems * (in_channels/groups) * K^2."""
    return out_ch * ho * wo * (in_ch // groups) * ksize * ksize


@dataclass
class FlopReport:
    """Multiply-accumulate counts for one inference (batch of one)."""

    stem_macs: int
    block_macs: list[int]
    head_macs: int

    @property
    def total_macs(self) -> int:
        return self.stem_macs + sum(self.block_macs) + self.head_macs

    @property
    def total_flops(self) -> int:
        return 2 * self.total_macs

    def per_partition_macs(self, g: int) -> list[int]:
        """Per-node MACs: the stem is computed by every node, the head by node 0."""
        shared = [self.stem_macs + sum(self.block_macs) // g for _ in range(g)]
        shared[0] += self.head_macs
        return shared

    def window_macs(self, boundaries: list[int], g: int) -> list[int]:
        """Per-partition MACs of each inter-boundary window (stem folded into the first)."""
        out = []
        prev = 0
        for b in boundaries:
            macs = sum(self.block_macs[prev:b]) // g
            if prev == 0:
                macs += self.stem_macs
            out.append(macs)
            prev = b
        if prev < len(self.block_macs):
            out.append(sum(self.block_macs[prev:]) // g)
        return out


def count_flops(spec: ModelSpec) -> FlopReport:
    """Static MAC counts; conv MACs = out_elems * (in_channels/groups) * K^2."""
    spec.validate()
    g = spec.partitions
    h, w = spec.in_hw
    stem = conv_macs(STEM_WIDTH, h, w, spec.in_channels, 1, 3)
    blocks = []
    in_ch = STEM_WIDTH * g
    for s in range(spec.stages):
        mid = spec.mid_width(s)
        out = spec.stage_width(s) * g
        hs, ws = spec.hw_of_stage(s)
        hin, win = spec.hw_of_stage(max(s - 1, 0))
        for b in range(spec.blocks_per_stage):
            first = b == 0
            h1, w1 = (hin, win) if (first and s > 0) else (hs, ws)
            macs = conv_macs(mid, h1, w1, in_ch, g, 1)
            macs += conv_macs(mid, hs, ws, mid, spec.cardinality, spec.filter_size)
            macs += conv_macs(out, hs, ws, mid, g, 1)
            if first and (s > 0 or in_ch != out):
                macs += conv_macs(out, hs, ws, in_ch, g, 1)
            blocks.append(macs)
            in_ch = out
    head = spec.num_classes * (in_ch // g)
    return FlopReport(stem, blocks, head)


# -- partition extraction ---------------------------------------------------


class PartitionExecutor:
    """Eval-mode execution of one partition's channel slice.

    Weight arrays are shared with the parent network (no copies), and the
    convolution kernel visits the same per-group buffers in the same order
    as the full-width forward pass, so results are bit-identical to the
    corresponding slice of :meth:`Network.forward`.
    """

    def __init__(self, net: Network, node: int):
        if not 0 <= node < net.G:
            raise ConfigError(f"node {node} out of range for G={net.G}")
        self.spec = net.spec
        self.node = node
        self.g = net.G
        self.stem_conv, self.stem_bn = net.stem_conv, net.stem_bn
        self.blocks = [blk.slice(node) for blk in net.blocks]
        self.fc = net.fc if node == 0 else None
        self.gap = nn.GlobalAvgPool() if node == 0 else None
        self.keep_ch = net.keep_ch

    def stem(self, x: np.ndarray) -> np.ndarray:
        h = self.stem_conv.forward(x, train=False)
        h = self.stem_bn.forward(h, train=False)
        return np.maximum(h, 0.0)

    def block(self, index: int, h: np.ndarray) -> np.ndarray:
        return self.blocks[index].forward(h, train=False)

    def head(self, h: np.ndarray) -> np.ndarray:
        if self.fc is None:
            raise ConfigError(f"node {self.node} does not own the classifier head")
        p = self.gap.forward(h, train=False)
        return self.fc.forward(p.reshape(p.shape[0], self.keep_ch), train=False)
