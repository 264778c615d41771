"""A traced run records well-formed spans and every per-layer metric."""

import gzip
import json
import os
import subprocess
import sys

import pytest

import spans
import workloads
from sepnet import data, models, nn, runtime, search

from test_bench_checks import DESK, POLICY

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One meta-iteration of a tiny desk search plus two hosted images, traced."""
    tracer = spans.Tracer()
    originals = (nn.Conv2d.forward, runtime.run_hosted, search.run_search)
    tracer.install()
    try:
        ds = data.make_dataset(data.DataSpec(num_classes=12, train_pool=64, test_n=8, seed=0))
        cfg = search.SearchConfig(meta_iterations=1, shared_steps=2, controller_steps=2,
                                  candidates=2, finetune_epochs=1, reward_batch=8, seed=0)
        found = search.run_search(cfg, DESK, ds, out_dir=str(tmp_path_factory.mktemp("s")))
        images = workloads.image_stream(3, (1, 3, 16, 16))
        for i in range(2):
            tracer.op = f"image {i}"
            x = next(images)
            runtime.single_process_reference(found.net, POLICY, x)
            runtime.run_hosted(found.net, POLICY, x)
    finally:
        tracer.uninstall()
    assert (nn.Conv2d.forward, runtime.run_hosted, search.run_search) == originals
    return tracer


def test_parents_exist_and_enclose_their_children(traced):
    by_id = {s.id: s for s in traced.spans}
    assert len(by_id) == len(traced.spans) > 0
    for s in traced.spans:
        assert s.end >= s.start
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end


def test_self_times_are_not_negative(traced):
    selfs = traced.self_times()
    assert min(selfs.values()) >= 0.0
    run = next(s for s in traced.spans if s.name == "search.run_search")
    assert selfs[run.id] < run.end - run.start  # its stages are children


def test_written_spans_have_parents_and_self_times(traced, tmp_path):
    path = tmp_path / "spans.json.gz"
    traced.dump(str(path))
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        doc = json.load(fh)
    rows = [dict(zip(doc["fields"], row)) for row in doc["spans"]]
    assert len(rows) == len(traced.spans)
    ids = {r["id"] for r in rows}
    assert all(r["parent"] is None or r["parent"] in ids for r in rows)
    assert all(r["self"] >= 0.0 for r in rows)
    assert {doc["names"][r["name"]] for r in rows} == set(doc["summary"])


def test_spans_belong_to_operations(traced):
    ops = {s.op for s in traced.spans}
    assert {"meta-iteration 1", "finetune", "image 0", "image 1"} <= ops


def test_every_layer_named_in_the_benchmark_is_measured(traced):
    metrics = spans.layer_metrics(traced, {"train_steps": 2, "finetune_epochs": 1})
    declared = [m["name"] for m in benchmark_json()["per_layer"]]
    e2e = [m["name"] for m in benchmark_json()["end_to_end"]]
    assert sorted(declared) == sorted(list(metrics) + [f"traced.{n}" for n in e2e])
    units = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in metrics.items())
    for name in ("nn.conv.conv3x3_grouped.bwd_ms", "search.stage1_s", "controller.update_ms",
                 "wire.encode_ms", "runtime.session_compute_ms", "checkpoint.save_ms"):
        assert metrics[name][0] > 0, name
    assert metrics["models.executor_builds_per_call"][0] == DESK.partitions


def test_conv_kinds_cover_the_model():
    net = models.Network(models.ModelSpec(stages=3, blocks_per_stage=2, cardinality=4,
                                          partitions=4, bottleneck_width=4))
    kinds = {spans.conv_kind(net.stem_conv)}
    for blk in net.blocks:
        kinds |= {spans.conv_kind(c) for c in (blk.conv1, blk.conv2, blk.conv3, blk.ds_conv)
                  if c is not None}
    assert kinds == set(spans.CONV_KINDS)
    assert spans.conv_kind(models.PartitionExecutor(net, 1).blocks[0].conv2) == "conv3x3_grouped"


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_result_line_names_every_end_to_end_metric():
    out = run_bench(ROOT, "--workload", "inproc-d56", "--seed", "5", "--seconds", "0.2",
                    "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (tmp_path / "perfbench" / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    out = run_bench(str(tmp_path), "--workload", "inproc-d56", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
