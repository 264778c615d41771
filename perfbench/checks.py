"""Correctness checks of the benchmark, run outside the timed phase.

Each check compares an output with a computation made apart from the path
that produced it, or with a property the method must have, and returns a
list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import numpy as np


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float32).reshape(-1).tobytes()


def replies_match(replies, expected) -> list[str]:
    """Every reply's logits equal the expected logits bit for bit, and its
    ``class_id`` is their argmax. A reply that belongs to another image
    differs from its own image's expectation."""
    if len(replies) != len(expected):
        return [f"{len(replies)} replies for {len(expected)} images"]
    problems = []
    for i, (reply, want) in enumerate(zip(replies, expected)):
        if _bits(reply.logits) != _bits(want):
            problems.append(f"image {i}: logits differ from the hosted run")
        if reply.class_id != int(np.argmax(reply.logits)):
            problems.append(f"image {i}: class_id {reply.class_id} is not the argmax")
    return problems


def outputs_equal(got, want, what: str) -> list[str]:
    """Pairwise bitwise equality of two output lists."""
    if len(got) != len(want):
        return [f"{what}: {len(got)} outputs against {len(want)}"]
    return [f"{what}: output {i} differs" for i, (a, b) in enumerate(zip(got, want))
            if _bits(a) != _bits(b)]


def node0_within_round_trip(timings) -> list[str]:
    """Node 0's own total is shorter than the coordinator's round trip."""
    return [f"image {i}: node-0 total {t['total']:.6f} s >= round trip {t['round_trip']:.6f} s"
            for i, t in enumerate(timings) if not t["total"] < t["round_trip"]]


def frames_match_cost_model(frames, header_size: int, report) -> list[str]:
    """Encoded feature frames carry exactly the payload the cost model predicts."""
    problems = []
    payload = sum(len(f) - header_size for f in frames)
    if payload != report.total_bytes:
        problems.append(f"frame payloads {payload} B != cost model {report.total_bytes} B")
    if len(frames) != report.message_count:
        problems.append(f"{len(frames)} frames != cost model {report.message_count} messages")
    return problems


def loss_decreases(log) -> list[str]:
    """The last meta-iteration's mean stage-1 loss is below the first's."""
    losses = [e["loss"] for e in log if e["stage"] == "shared"]
    if len(losses) < 2:
        return [f"need two meta-iterations to compare losses, got {len(losses)}"]
    if not losses[-1] < losses[0]:
        return [f"stage-1 loss went from {losses[0]:.4f} to {losses[-1]:.4f}"]
    return []


def hits_match_accuracy(hits: int, n: int, accuracy) -> list[str]:
    """Correct predictions counted image by image give the reported accuracy."""
    if hits / n != accuracy:
        return [f"{hits}/{n} correct one image at a time != reported accuracy {accuracy}"]
    return []
