"""Analytical communication cost, deployment feasibility, and latency simulation.

All byte counts are payload bytes of feature-map chunks. The baseline for
cost ratios is the unpartitioned model synchronized with a ring all-reduce
of the full feature map after every block (per-node traffic 2(G-1)/G times
the map size, full precision). The initial input broadcast and the final
logits reply are tracked as separately flagged line items and excluded
from the headline inter-node totals; both conventions are listed in the
report's assumptions.

The latency simulation is deterministic: each node computes its blocks
sequentially, a transmission occupies its point-to-point link for
bits/bandwidth (+ fixed per-message overhead) and overlaps downstream
compute, and aggregation at a boundary blocks until the expected message
has arrived. Routing is a permutation per step, so the (node, step)
dependency graph is acyclic and deadlock is impossible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ConfigError
from .models import ModelSpec, count_flops
from .policy import CommDecision, PolicySequence, SparsityLevel, n_send

_DTYPE_BYTES = {"f32": 4, "f16": 2}


@dataclass(frozen=True)
class ClusterSpec:
    num_nodes: int = 4
    flops_per_sec: float = 1.7e8
    bandwidth_bps: float = 300e6
    overhead_s: float = 0.0

    def validate(self) -> None:
        if self.num_nodes < 1:
            raise ConfigError("cluster needs at least one node")
        # written so that NaN fails each check
        if not (self.flops_per_sec > 0 and self.bandwidth_bps > 0):
            raise ConfigError("compute rate and bandwidth must be positive")
        if not self.overhead_s >= 0:
            raise ConfigError("per-message overhead must be >= 0")


def full_exchange_policy(spec: ModelSpec) -> PolicySequence:
    """Worst-case reference policy: every node sends its full slice each step."""
    g = spec.partitions
    rotate = CommDecision(tuple((i + 1) % g for i in range(g))) if g > 1 else CommDecision((0,))
    steps = [(rotate, SparsityLevel(8, 9, 50)) for _ in range(spec.num_steps())]
    return PolicySequence(steps, num_nodes=g, alpha=spec.alpha)


@dataclass
class StepCost:
    step: int
    block: int
    slice_channels: int
    height: int
    width: int
    channels_sent: int
    messages: list[tuple[int, int, int]]  # (source, dest, bytes)

    @property
    def bytes_total(self) -> int:
        return sum(b for _, _, b in self.messages)


@dataclass
class CostReport:
    dtype: str
    alpha: int
    num_nodes: int
    steps: list[StepCost]
    input_broadcast_bytes: int  # flagged: initial synchronization line item
    head_reply_bytes: int       # flagged: final aggregation line item
    baseline_bytes: int | None = None
    assumptions: list[str] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes_total for s in self.steps)

    @property
    def message_count(self) -> int:
        return sum(len(s.messages) for s in self.steps)

    def per_node_bytes(self) -> list[int]:
        out = [0] * self.num_nodes
        for s in self.steps:
            for src, _, b in s.messages:
                out[src] += b
        return out

    @property
    def ratio(self) -> float | None:
        if not self.baseline_bytes:
            return None
        return self.total_bytes / self.baseline_bytes

    def to_json(self) -> str:
        doc = {
            "dtype": self.dtype,
            "alpha": self.alpha,
            "num_nodes": self.num_nodes,
            "total_bytes": self.total_bytes,
            "message_count": self.message_count,
            "per_node_bytes": self.per_node_bytes(),
            "input_broadcast_bytes": self.input_broadcast_bytes,
            "head_reply_bytes": self.head_reply_bytes,
            "baseline_bytes": self.baseline_bytes,
            "ratio": self.ratio,
            "assumptions": self.assumptions,
            "steps": [
                {
                    "step": s.step, "block": s.block,
                    "slice_channels": s.slice_channels,
                    "height": s.height, "width": s.width,
                    "channels_sent": s.channels_sent,
                    "messages": [{"source": a, "dest": b, "bytes": c} for a, b, c in s.messages],
                }
                for s in self.steps
            ],
        }
        return json.dumps(doc, indent=2)

    def to_csv(self) -> str:
        lines = ["step,block,slice_channels,height,width,channels_sent,source,dest,bytes"]
        for s in self.steps:
            for src, dst, b in s.messages:
                lines.append(f"{s.step},{s.block},{s.slice_channels},{s.height},"
                             f"{s.width},{s.channels_sent},{src},{dst},{b}")
        return "\n".join(lines) + "\n"


_BASE_ASSUMPTIONS = [
    "baseline: unpartitioned model, ring all-reduce of the full feature map after every block",
    "baseline precision: f32 regardless of the separable wire dtype",
    "input broadcast and logits reply are flagged line items, excluded from totals",
    "payload bytes only; framing headers excluded",
]


def comm_volume(spec: ModelSpec, policy: PolicySequence | None = None,
                dtype: str = "f32", include_baseline: bool = True) -> CostReport:
    """Per-inference transmission volume of a separable deployment."""
    if dtype not in _DTYPE_BYTES:
        raise ConfigError(f"unknown dtype {dtype!r}")
    spec.validate()
    if policy is None:
        policy = full_exchange_policy(spec)
    policy.validate_for(spec.num_blocks)
    if policy.num_nodes != spec.partitions:
        raise ConfigError(f"policy is for G={policy.num_nodes}, spec has G={spec.partitions}")
    dbytes = _DTYPE_BYTES[dtype]
    steps = []
    for s, ((sw, h, w), block) in enumerate(zip(spec.boundary_shapes(), spec.boundaries())):
        comm, level = policy.steps[s]
        sent = n_send(sw, level)
        msg_bytes = sent * h * w * dbytes
        messages = [(src, dst, msg_bytes) for src, dst in comm.senders()]
        steps.append(StepCost(s, block, sw, h, w, sent, messages))
    in_bytes = spec.in_channels * spec.in_hw[0] * spec.in_hw[1] * 4 * spec.partitions
    head_bytes = spec.num_classes * 4
    baseline = baseline_allreduce_volume(spec) if include_baseline else None
    return CostReport(dtype, spec.alpha, spec.partitions, steps,
                      in_bytes, head_bytes, baseline, list(_BASE_ASSUMPTIONS))


def baseline_allreduce_volume(spec: ModelSpec, num_nodes: int | None = None) -> int:
    """Total bytes moved per inference by the all-reduce baseline (all nodes)."""
    g = num_nodes if num_nodes is not None else spec.partitions
    if g < 2:
        raise ConfigError("all-reduce baseline needs at least two nodes")
    total = 0
    for ch, h, w in spec.plain_block_shapes():
        map_bytes = ch * h * w * 4
        total += 2 * (g - 1) * map_bytes  # per-node 2(G-1)/G, G nodes
    return total


def ring_per_node_bytes(map_bytes: int, g: int) -> float:
    """Per-node ring all-reduce traffic for one tensor of ``map_bytes``."""
    return 2 * (g - 1) / g * map_bytes


# -- feasibility --------------------------------------------------------------


@dataclass
class WindowCheck:
    step: int
    compute_s: float
    transmit_s: float

    @property
    def margin(self) -> float:
        if self.compute_s <= 0:
            return float("-inf") if self.transmit_s > 0 else 1.0
        return (self.compute_s - self.transmit_s) / self.compute_s


@dataclass
class FeasibilityReport:
    feasible: bool
    margin: float
    windows: list[WindowCheck]
    final_exposed_s: float  # last boundary's transmission with no compute window left

    def to_json(self) -> str:
        return json.dumps({
            "feasible": self.feasible,
            "margin": self.margin,
            "final_exposed_s": self.final_exposed_s,
            "windows": [{"step": w.step, "compute_s": w.compute_s,
                         "transmit_s": w.transmit_s, "margin": w.margin}
                        for w in self.windows],
        }, indent=2)


def _step_transmit_times(spec: ModelSpec, policy: PolicySequence,
                         cluster: ClusterSpec, dtype: str) -> list[float]:
    dbytes = _DTYPE_BYTES[dtype]
    out = []
    for s, (sw, h, w) in enumerate(spec.boundary_shapes()):
        comm, level = policy.steps[s]
        if not comm.senders():
            out.append(0.0)
            continue
        bits = n_send(sw, level) * h * w * dbytes * 8
        out.append(bits / cluster.bandwidth_bps + cluster.overhead_s)
    return out


def feasibility(cluster: ClusterSpec, spec: ModelSpec,
                policy: PolicySequence | None = None, dtype: str = "f32") -> FeasibilityReport:
    """Can every transmission hide behind the next window's computation?

    The data sent at boundary s is needed at boundary s+1, so it must fit
    within the compute time of the blocks in between. The final boundary's
    message has no following window; its cost is reported separately.
    """
    cluster.validate()
    spec.validate()
    if policy is None:
        policy = full_exchange_policy(spec)
    policy.validate_for(spec.num_blocks)
    g = spec.partitions
    fl = count_flops(spec)
    windows = fl.window_macs(spec.boundaries(), g)
    transmit = _step_transmit_times(spec, policy, cluster, dtype)
    checks = []
    final_exposed = 0.0
    for s, t in enumerate(transmit):
        if s + 1 < len(windows):
            compute = 2 * windows[s + 1] / cluster.flops_per_sec
            checks.append(WindowCheck(s, compute, t))
        else:
            final_exposed = t
    margin = min((w.margin for w in checks), default=1.0)
    return FeasibilityReport(margin >= 0, margin, checks, final_exposed)


# -- latency simulation --------------------------------------------------------


@dataclass
class Segment:
    node: int
    kind: str  # first_transmission | compute | wait | aggregation | head | transmit
    start: float
    end: float
    label: str = ""


@dataclass
class Timeline:
    segments: list[Segment]
    makespan: float
    totals: dict[str, float]  # head-node category totals

    def to_json(self) -> str:
        return json.dumps({
            "makespan_s": self.makespan,
            "totals": self.totals,
            "segments": [{"node": s.node, "kind": s.kind, "start": s.start,
                          "end": s.end, "label": s.label} for s in self.segments],
        }, indent=2)

    def to_csv(self) -> str:
        lines = ["node,kind,start,end,label"]
        for s in self.segments:
            lines.append(f"{s.node},{s.kind},{s.start:.9f},{s.end:.9f},{s.label}")
        return "\n".join(lines) + "\n"


def simulate_latency(cluster: ClusterSpec, spec: ModelSpec,
                     policy: PolicySequence | None = None, dtype: str = "f32",
                     single_node: bool = False) -> Timeline:
    """Deterministic per-node timeline of one inference."""
    cluster.validate()
    spec.validate()
    if policy is None:
        policy = full_exchange_policy(spec)
    policy.validate_for(spec.num_blocks)
    g = 1 if single_node else spec.partitions
    fl = count_flops(spec)
    rate = cluster.flops_per_sec
    in_bits = spec.in_channels * spec.in_hw[0] * spec.in_hw[1] * 4 * 8
    bcast = in_bits / cluster.bandwidth_bps + cluster.overhead_s
    segments: list[Segment] = []
    if single_node:
        t = bcast
        segments.append(Segment(0, "first_transmission", 0.0, t, "input"))
        compute = 2 * (fl.stem_macs + sum(fl.block_macs) + fl.head_macs) / rate
        segments.append(Segment(0, "compute", t, t + compute, "all blocks"))
        t += compute
        makespan = t
        totals = {"first_transmission": bcast, "compute": compute, "exposed_wait": 0.0,
                  "aggregation": 0.0, "head": 0.0, "transmit_hidden": 0.0}
        return Timeline(segments, makespan, totals)

    boundaries = spec.boundaries()
    n_steps = len(boundaries)
    transmit = _step_transmit_times(spec, policy, cluster, dtype)
    # sender of the message arriving at node j for step s (None for self-send)
    incoming = [{j: policy.steps[s][0].receiver_of(j) for j in range(g)} for s in range(n_steps)]
    arrivals: list[dict[int, float]] = [{} for _ in range(n_steps)]
    block_time = [2 * (m // g) / rate for m in fl.block_macs]
    stem_time = 2 * fl.stem_macs / rate
    head_time = 2 * fl.head_macs / rate
    totals = {"first_transmission": 0.0, "compute": 0.0, "exposed_wait": 0.0,
              "aggregation": 0.0, "head": 0.0, "transmit_hidden": 0.0}

    def record(node, kind, start, end, label=""):
        if end > start:
            segments.append(Segment(node, kind, start, end, label))
            if node == 0 and kind in totals:
                totals[kind] += end - start

    # the (node, step) dependency graph is acyclic: a node's send at step s
    # depends only on messages of step s-1, so one pass per step suffices
    node_time = [bcast] * g
    for node in range(g):
        record(node, "first_transmission", 0.0, bcast, "input")
        t = node_time[node]
        record(node, "compute", t, t + stem_time, "stem")
        node_time[node] = t + stem_time
    done_upto = [0] * g
    for s, b in enumerate(boundaries):
        for node in range(g):
            t = node_time[node]
            for bi in range(done_upto[node], b):
                record(node, "compute", t, t + block_time[bi], f"block{bi}")
                t += block_time[bi]
            done_upto[node] = b
            if s >= 1:
                src = incoming[s - 1][node]
                if src is not None:
                    arr = arrivals[s - 1][node]
                    if arr > t:
                        record(node, "wait", t, arr, f"step{s - 1} from {src}")
                        totals_key = "exposed_wait"
                        if node == 0:
                            totals[totals_key] += arr - t
                        t = arr
            node_time[node] = t
        for node in range(g):
            comm = policy.steps[s][0]
            dst = comm.dest[node]
            if dst != node:
                depart = node_time[node]
                arrivals[s][dst] = depart + transmit[s]
                record(node, "transmit", depart, depart + transmit[s], f"step{s} to {dst}")
                if node == 0:
                    totals["transmit_hidden"] += transmit[s]
    # trailing blocks after the last boundary, then the final aggregation
    for node in range(g):
        t = node_time[node]
        for bi in range(done_upto[node], len(fl.block_macs)):
            record(node, "compute", t, t + block_time[bi], f"block{bi}")
            t += block_time[bi]
        if n_steps:
            src = incoming[n_steps - 1][node]
            if src is not None:
                arr = arrivals[n_steps - 1][node]
                if arr > t:
                    record(node, "aggregation", t, arr, f"final step{n_steps - 1} from {src}")
                    t = arr
        node_time[node] = t
    t = node_time[0]
    record(0, "head", t, t + head_time, "classifier")
    node_time[0] = t + head_time
    ends = node_time
    return Timeline(segments, max(ends), totals)
