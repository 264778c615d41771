"""Each correctness check of the benchmark fires on a wrong answer."""

import numpy as np
import pytest

import checks
import workloads
from sepnet import models, perf, runtime, wire
from sepnet import policy as pol
from sepnet.runtime import InferResult

DESK = models.ModelSpec(stages=2, blocks_per_stage=2, cardinality=8, bottleneck_width=4,
                        partitions=4, num_classes=12, alpha=2, in_hw=(16, 16))
POLICY = pol.policy_from_ids([(9, 4), (22, 8)], 4, 2)


@pytest.fixture(scope="module")
def desk():
    net = models.Network(DESK, seed=0)
    x = next(workloads.image_stream(0, (4, 3, 16, 16)))
    net.forward(x, None, train=True)
    images = workloads.image_stream(7, (1, 3, 16, 16))
    xs = [next(images) for _ in range(3)]
    hosted = [runtime.run_hosted(net, POLICY, x, "f16") for x in xs]
    return net, xs, hosted


def replies_for(logits):
    return [InferResult(int(np.argmax(l)), l.reshape(-1).copy(), {}) for l in logits]


def test_replies_equal_to_hosted_pass(desk):
    _, _, hosted = desk
    assert checks.replies_match(replies_for(hosted), hosted) == []


def test_perturbed_logit_fires(desk):
    _, _, hosted = desk
    replies = replies_for(hosted)
    replies[1].logits[3] = np.nextafter(replies[1].logits[3], np.float32(np.inf))
    assert checks.replies_match(replies, hosted) == ["image 1: logits differ from the hosted run"]


def test_reply_shifted_by_one_image_fires(desk):
    _, _, hosted = desk
    replies = replies_for(hosted[1:] + hosted[:1])
    assert len(checks.replies_match(replies, hosted)) == 3


def test_wrong_class_id_fires(desk):
    _, _, hosted = desk
    replies = replies_for(hosted)
    replies[0].class_id = (replies[0].class_id + 1) % DESK.num_classes
    assert checks.replies_match(replies, hosted) == ["image 0: class_id "
                                                     f"{replies[0].class_id} is not the argmax"]


def test_missing_reply_fires(desk):
    _, _, hosted = desk
    assert checks.replies_match(replies_for(hosted[:2]), hosted) != []


def test_hosted_equals_reference_and_a_changed_bit_fires(desk):
    net, xs, _ = desk
    refs = [runtime.single_process_reference(net, POLICY, x, "f32") for x in xs]
    hosted = [runtime.run_hosted(net, POLICY, x, "f32") for x in xs]
    assert checks.outputs_equal(hosted, refs, "hosted") == []
    hosted[2] = hosted[2].copy()
    hosted[2].view(np.uint32)[0, 0] ^= 1
    assert checks.outputs_equal(hosted, refs, "hosted") == ["hosted: output 2 differs"]


def test_node0_total_beyond_round_trip_fires():
    ok = {"total": 0.4, "round_trip": 0.5}
    late = {"total": 0.5, "round_trip": 0.5}
    assert checks.node0_within_round_trip([ok]) == []
    assert len(checks.node0_within_round_trip([ok, late])) == 1


@pytest.mark.parametrize("dtype", ["f16", "f32"])
def test_frames_match_cost_model_and_a_dropped_frame_fires(desk, dtype):
    net, xs, _ = desk
    nbytes, frames = workloads.frame_bytes(net, POLICY, xs[0], dtype)
    report = perf.comm_volume(DESK, POLICY, dtype)
    assert nbytes == report.total_bytes + wire.HEADER.size * report.message_count
    assert checks.frames_match_cost_model(frames, wire.HEADER.size, report) == []
    dropped = checks.frames_match_cost_model(frames[1:], wire.HEADER.size, report)
    assert len(dropped) == 2  # bytes and count


def test_loss_that_does_not_fall_fires():
    log = [{"stage": "shared", "loss": 2.5}, {"stage": "select"}, {"stage": "shared", "loss": 2.4}]
    assert checks.loss_decreases(log) == []
    log[2]["loss"] = 2.5
    assert checks.loss_decreases(log) != []
    assert checks.loss_decreases(log[:1]) != []


def test_hit_count_off_by_one_fires():
    assert checks.hits_match_accuracy(48, 256, 48 / 256) == []
    assert checks.hits_match_accuracy(47, 256, 48 / 256) != []
