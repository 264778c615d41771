"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 runtime failure, 3 equivalence or
acceptance check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import config as cfgmod
from . import models, perf, report, runtime, search
from .data import make_dataset
from .errors import SepnetError
from .policy import load_policy
from .rng import make_rng


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_resolved(cfg: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved_config.txt"), "w", encoding="utf-8") as fh:
        fh.write(cfgmod.format_resolved(cfg))


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="configuration file (key = value lines)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a configuration key")


def _add_cost_args(p: argparse.ArgumentParser, cluster: bool) -> None:
    """The flags that ``_cost_inputs`` and ``_cluster_from_args`` read."""
    _add_config_args(p)
    p.add_argument("--alpha", type=int)
    p.add_argument("--dtype", choices=("f32", "f16"), default="f32")
    p.add_argument("--policy")
    if cluster:
        p.add_argument("--flops", type=float, help="per-node compute rate, FLOP/s")
        p.add_argument("--bandwidth", type=float, help="link bandwidth, bit/s")
        p.add_argument("--overhead", type=float, help="per-message overhead, s")


def _load_policy_for(spec: models.ModelSpec, path: str | None):
    if path is None:
        return None
    policy = load_policy(path)
    policy.validate_for(spec.num_blocks)
    return policy


def _override(spec, **changes):
    """``spec`` with every change that is not None applied, validated."""
    spec = dataclasses.replace(spec, **{k: v for k, v in changes.items() if v is not None})
    spec.validate()
    return spec


def _cost_inputs(args):
    """The resolved config, the model spec under ``--alpha`` and the optional policy."""
    cfg = cfgmod.resolve(args.config, args.set)
    spec = _override(cfgmod.model_spec(cfg), alpha=args.alpha)
    return cfg, spec, _load_policy_for(spec, args.policy)


def cmd_build(args) -> int:
    cfg = cfgmod.resolve(args.config, args.set)
    spec = cfgmod.model_spec(cfg)
    net = models.Network(spec, seed=cfg["seed"])
    enumerated = models.count_params_enumerated(net)
    conv_only = models.count_params_enumerated(net, "conv_no_ds")
    formula = sum(models.block_formula_params(spec, b) for b in range(1, spec.num_blocks + 1))
    fl = models.count_flops(spec)
    doc = {
        "depth": spec.depth,
        "blocks": spec.num_blocks,
        "transmission_steps": spec.num_steps(),
        "params_total": enumerated,
        "params_block_convs_enumerated": conv_only,
        "params_block_convs_formula": formula,
        "formula_matches": conv_only == formula,
        "macs_total": fl.total_macs,
        "flops_total": fl.total_flops,
        "per_partition_macs": fl.per_partition_macs(spec.partitions),
    }
    if spec.partitions == 1:
        try:
            sep = _override(spec, partitions=min(4, spec.cardinality))
            sep_net = models.Network(sep, seed=cfg["seed"])
            sep_params = models.count_params_enumerated(sep_net)
            doc["separable_partitions"] = sep.partitions
            doc["separable_params_total"] = sep_params
            doc["separable_overhead"] = sep_params / enumerated - 1
        except SepnetError:
            pass
    print(json.dumps(doc, indent=2))
    return 0


def cmd_search(args, use_controller: bool) -> int:
    cfg = cfgmod.resolve(args.config, args.set)
    spec = cfgmod.model_spec(cfg)
    sc = cfgmod.search_config(cfg)
    data = make_dataset(cfgmod.data_spec(cfg))
    out_dir = args.out or cfg["out_dir"]
    _write_resolved(cfg, out_dir)
    result = search.run_search(sc, spec, data, out_dir=out_dir, use_controller=use_controller,
                               warm_start=args.warm_start, resume=args.resume)
    print(json.dumps({
        "best_val_accuracy": result.best_accuracy,
        "best_iteration": result.best_iteration,
        "test_accuracy": result.test_accuracy,
        "best_policy_ids": result.best_policy.ids(),
        "out_dir": out_dir,
    }, indent=2))
    return 0


def cmd_finetune(args) -> int:
    cfg = cfgmod.resolve(args.config, args.set)
    sc = cfgmod.search_config(cfg)
    data = make_dataset(cfgmod.data_spec(cfg))
    net, ctl, _ = ckpt.load_model(args.checkpoint)
    policy = _load_policy_for(net.spec, args.policy)
    losses = search.finetune(net, policy, data, sc, epochs=args.epochs)
    acc = search.test_accuracy(net, policy, data)
    out = args.out or args.checkpoint + ".finetuned"
    ckpt.save_model(out, net, ctl, {"finetuned": True, "test_accuracy": acc})
    print(json.dumps({"final_loss": losses[-1] if losses else None,
                      "test_accuracy": acc, "checkpoint": out}, indent=2))
    return 0


def _table6_rows(spec: models.ModelSpec, policy, dtype: str) -> list[dict]:
    full = perf.comm_volume(spec, None, "f32")
    rows = [{
        "method": "unpartitioned w/ ring all-reduce",
        "bytes": full.baseline_bytes, "ratio": 1.0,
    }]
    rows.append({"method": f"separable (alpha={spec.alpha}, G={spec.partitions}), full exchange",
                 "bytes": full.total_bytes, "ratio": full.ratio})
    if policy is not None:
        pol_f32 = perf.comm_volume(spec, policy, "f32")
        rows.append({"method": "separable + searched policy (+ sparsification)",
                     "bytes": pol_f32.total_bytes, "ratio": pol_f32.ratio})
        pol_cast = perf.comm_volume(spec, policy, dtype if dtype != "f32" else "f16")
        rows.append({"method": "separable + searched policy + half precision",
                     "bytes": pol_cast.total_bytes, "ratio": pol_cast.ratio})
    return rows


def cmd_commcost(args) -> int:
    _, spec, policy = _cost_inputs(args)
    rep = perf.comm_volume(spec, policy, args.dtype)
    if args.table6:
        rows = _table6_rows(spec, policy, args.dtype)
        width = max(len(r["method"]) for r in rows)
        print(f"{'method':<{width}}  {'bytes':>12}  ratio")
        for r in rows:
            print(f"{r['method']:<{width}}  {r['bytes']:>12}  {r['ratio']:.4f}")
    else:
        print(rep.to_json())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "commcost.json"), "w", encoding="utf-8") as fh:
            fh.write(rep.to_json())
    return 0


def cmd_feasibility(args) -> int:
    cfg, spec, policy = _cost_inputs(args)
    cluster = _cluster_from_args(cfg, args)
    rep = perf.feasibility(cluster, spec, policy, args.dtype)
    print(rep.to_json())
    print(f"verdict: {'feasible' if rep.feasible else 'infeasible'} (margin {rep.margin:.4f})")
    return 0


def _cluster_from_args(cfg, args) -> perf.ClusterSpec:
    return _override(cfgmod.cluster_spec(cfg), flops_per_sec=args.flops,
                     bandwidth_bps=args.bandwidth, overhead_s=args.overhead)


def cmd_simulate(args) -> int:
    cfg, spec, policy = _cost_inputs(args)
    cluster = _cluster_from_args(cfg, args)
    multi = perf.simulate_latency(cluster, spec, policy, args.dtype)
    single = perf.simulate_latency(cluster, spec, policy, args.dtype, single_node=True)
    feas = perf.feasibility(cluster, spec, policy, args.dtype)
    doc = {
        "makespan_s": multi.makespan,
        "single_node_s": single.makespan,
        "speedup": single.makespan / multi.makespan,
        "totals": multi.totals,
        "feasible": feas.feasible,
        "margin": feas.margin,
    }
    print(json.dumps(doc, indent=2))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "timeline.json"), "w", encoding="utf-8") as fh:
            fh.write(multi.to_json())
        with open(os.path.join(args.out, "timeline.csv"), "w", encoding="utf-8") as fh:
            fh.write(multi.to_csv())
    return 0


def _parse_peers(text: str) -> dict[int, tuple[str, int]]:
    peers = {}
    for item in text.split(","):
        try:
            node, addr = item.split("=", 1)
            host, port = addr.rsplit(":", 1)
            peers[int(node)] = (host, int(port))
        except ValueError:
            raise UsageError(f"bad address {item!r}; expected node=host:port") from None
    return peers


def cmd_worker(args) -> int:
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    peers = _parse_peers(args.peers) if args.peers else {}
    listen = peers.pop(args.node_id, None) or ("127.0.0.1", args.port)
    wc = runtime.WorkerConfig(
        node_id=args.node_id, num_nodes=args.num_nodes, listen=listen, peers=peers,
        checkpoint=args.checkpoint, policy_path=args.policy, dtype=args.dtype,
        recv_timeout=args.timeout,
    )
    runtime.run_worker(wc)
    return 0


def cmd_infer(args) -> int:
    policy = load_policy(args.policy)
    coord = runtime.Coordinator(_parse_peers(args.workers), policy.digest(),
                                args.num_nodes, timeout=args.timeout)
    coord.connect()
    try:
        image = np.load(args.input).astype(np.float32)
        result = coord.infer(image)
        print(json.dumps({
            "class_id": result.class_id,
            "logits": [float(v) for v in result.logits],
            "timing_s": result.timing,
        }, indent=2))
    finally:
        coord.close()
    return 0


def cmd_verify_equivalence(args) -> int:
    cfg = cfgmod.resolve(args.config, args.set)
    if args.checkpoint:
        net, _, _ = ckpt.load_model(args.checkpoint)
    else:
        spec = cfgmod.model_spec(cfg)
        net = models.Network(spec, seed=cfg["seed"])
        net.mark_bn_initialized()
    spec = net.spec
    policy = _load_policy_for(spec, args.policy)
    if policy is None:
        policy = perf.full_exchange_policy(spec)
    rng = make_rng(cfg["seed"], "verify")
    worst = 0.0
    for i in range(args.inputs):
        x = rng.standard_normal((1, spec.in_channels, *spec.in_hw)).astype(np.float32)
        want = runtime.single_process_reference(net, policy, x, args.dtype)
        got = runtime.run_hosted(net, policy, x, args.dtype)
        worst = max(worst, float(np.abs(want - got).max()))
    print(json.dumps({"inputs": args.inputs, "max_abs_diff": worst,
                      "tolerance": args.tolerance}, indent=2))
    if worst > args.tolerance:
        print("equivalence check FAILED", file=sys.stderr)
        return 3
    print("equivalence check passed")
    return 0


def cmd_report(args) -> int:
    doc = report.emit_report(args.logs, args.out, args.labels)
    print(json.dumps({"series": [s["label"] for s in doc["series"]],
                      "out_dir": args.out}, indent=2))
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="sepnet", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a model and print parameter/FLOP accounting")
    b.set_defaults(func=cmd_build)
    _add_config_args(b)

    for name in ("search", "random-search"):
        s = sub.add_parser(name, help=f"run the {'controller' if name == 'search' else 'random-sampler'} search loop")
        s.set_defaults(func=functools.partial(cmd_search, use_controller=name == "search"))
        _add_config_args(s)
        s.add_argument("--out", help="output directory (default from config)")
        s.add_argument("--warm-start", help="checkpoint with initial shared weights")
        s.add_argument("--resume", action="store_true", help="continue from the latest iteration checkpoint")

    f = sub.add_parser("finetune", help="fine-tune a checkpoint under a frozen policy")
    f.set_defaults(func=cmd_finetune)
    _add_config_args(f)
    f.add_argument("--checkpoint", required=True)
    f.add_argument("--policy", required=True)
    f.add_argument("--epochs", type=int, default=None)
    f.add_argument("--out")

    c = sub.add_parser("commcost", help="per-inference transmission volume report")
    c.set_defaults(func=cmd_commcost)
    _add_cost_args(c, cluster=False)
    c.add_argument("--table6", action="store_true", help="print the four-row comparison table")
    c.add_argument("--out")

    fe = sub.add_parser("feasibility", help="can transmissions hide behind computation?")
    fe.set_defaults(func=cmd_feasibility)
    _add_cost_args(fe, cluster=True)

    si = sub.add_parser("simulate", help="event-driven latency timeline and speedup")
    si.set_defaults(func=cmd_simulate)
    _add_cost_args(si, cluster=True)
    si.add_argument("--out")

    w = sub.add_parser("worker", help="serve one partition over TCP")
    w.set_defaults(func=cmd_worker)
    w.add_argument("--node-id", type=int, required=True)
    w.add_argument("--num-nodes", type=int, required=True)
    w.add_argument("--port", type=int, default=0)
    w.add_argument("--peers", required=True,
                   help="address table: 0=host:port,1=host:port,... (includes this node)")
    w.add_argument("--checkpoint", required=True)
    w.add_argument("--policy", required=True)
    w.add_argument("--dtype", choices=("f32", "f16"), default="f32")
    w.add_argument("--timeout", type=float, default=30.0)

    i = sub.add_parser("infer", help="broadcast an image to a running cluster")
    i.set_defaults(func=cmd_infer)
    i.add_argument("--workers", required=True, help="0=host:port,1=host:port,...")
    i.add_argument("--num-nodes", type=int, required=True)
    i.add_argument("--policy", required=True)
    i.add_argument("--input", required=True, help=".npy image, shape (C,H,W)")
    i.add_argument("--timeout", type=float, default=30.0)

    v = sub.add_parser("verify-equivalence",
                       help="hosted partition run vs the single-process reference")
    v.set_defaults(func=cmd_verify_equivalence)
    _add_config_args(v)
    v.add_argument("--checkpoint")
    v.add_argument("--policy")
    v.add_argument("--dtype", choices=("f32", "f16"), default="f32")
    v.add_argument("--inputs", type=int, default=10)
    v.add_argument("--tolerance", type=float, default=0.0)

    r = sub.add_parser("report", help="merge run logs into comparable curves")
    r.set_defaults(func=cmd_report)
    r.add_argument("--logs", nargs="+", required=True)
    r.add_argument("--labels", nargs="+")
    r.add_argument("--out", required=True)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SepnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 2


if __name__ == "__main__":
    sys.exit(main())
