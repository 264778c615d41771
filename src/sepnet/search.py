"""Three-stage alternating training loop plus the random-sampler ablation.

Each meta-iteration: (1) train the shared separable-network weights under
policies sampled from the controller, averaging gradients over M sampled
policies per batch; (2) train the controller by REINFORCE with validation
accuracy as the reward; (3) sample candidate policies, score each on one
validation mini-batch, and keep the best (policy, weights) seen so far.
Afterwards the best model is fine-tuned with its policy frozen.

Every random stream is derived from (seed, purpose, iteration), so a run
resumed from an iteration checkpoint continues bit-for-bit identically to
an uninterrupted run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import checkpoint as ckpt
from . import nn, perf
from .controller import Controller, baseline_update
from .data import Dataset
from .errors import ConfigError
from .models import ModelSpec, Network
from .policy import PolicySequence, policy_from_ids, save_policy
from .rng import make_rng

@dataclass(frozen=True)
class SearchConfig:
    meta_iterations: int = 10
    shared_steps: int = 50
    controller_steps: int = 50
    candidates: int = 20
    monte_carlo_m: int = 1
    shared_lr: float = 0.05
    controller_lr: float = 0.3
    controller_hidden: int = 100
    baseline_decay: float = 0.95
    entropy_coef: float = 0.0
    finetune_lr: float = 1e-4
    finetune_epochs: int = 5
    batch_size: int = 32
    reward_batch: int = 64
    levels: int = 9
    p_min: int = 50
    seed: int = 0

    def validate(self) -> None:
        counts = (self.meta_iterations, self.shared_steps, self.controller_steps,
                  self.candidates, self.monte_carlo_m, self.batch_size, self.reward_batch)
        if any(c < 1 for c in counts):
            raise ConfigError("all search counts must be >= 1")
        if min(self.shared_lr, self.controller_lr, self.finetune_lr) <= 0:
            raise ConfigError("learning rates must be positive")


@dataclass
class SearchResult:
    best_policy: PolicySequence
    best_accuracy: float
    best_iteration: int
    net: Network
    controller: Controller | None
    test_accuracy: float | None
    log: list[dict] = field(default_factory=list)


def evaluate_policy(net: Network, policy: PolicySequence, x, y) -> float:
    logits = net.forward(x, policy, train=False)
    return float((logits.argmax(axis=1) == y).mean())


class _UniformSampler:
    """Drop-in replacement for the controller in the random-search ablation."""

    def __init__(self, g: int, levels: int, p_min: int):
        self.g, self.levels, self.p_min = g, levels, p_min
        self.n_comm = math.factorial(g)

    def sample_policy(self, seq_len: int, alpha: int, rng: np.random.Generator):
        pairs = [(int(rng.integers(self.n_comm)), int(rng.integers(self.levels)))
                 for _ in range(seq_len)]
        return policy_from_ids(pairs, self.g, alpha, self.levels, self.p_min), None


def train_shared_weights(net: Network, sampler, data: Dataset, steps: int,
                         cfg: SearchConfig, iteration: int = 0) -> list[float]:
    """Stage 1: SGD on the shared weights under sampled policies."""
    if steps == 0:
        return []
    pol_rng = make_rng(cfg.seed, "shared-policy", iteration)
    batch_rng = make_rng(cfg.seed, "shared-batch", iteration)
    seq_len = net.spec.num_steps()
    losses = []
    for _ in range(steps):
        x, y = data.sample_train_batch(cfg.batch_size, batch_rng)
        net.zero_grads()
        loss_acc = 0.0
        for _ in range(cfg.monte_carlo_m):
            policy, _ = sampler.sample_policy(seq_len, net.spec.alpha, pol_rng)
            logits = net.forward(x, policy, train=True)
            loss, probs = nn.softmax_cross_entropy(logits, y)
            net.backward(nn.cross_entropy_grad(probs, y))
            loss_acc += loss
        nn.sgd_step(net.named_params(), net.named_grads(), cfg.shared_lr / cfg.monte_carlo_m)
        losses.append(loss_acc / cfg.monte_carlo_m)
    return losses


def train_controller(ctl: Controller, net: Network, data: Dataset, steps: int,
                     cfg: SearchConfig, iteration: int = 0, baseline: float = 0.0,
                     val_cursor: int = 0) -> tuple[float, float, int]:
    """Stage 2: REINFORCE on validation-accuracy reward; weights stay fixed.

    Returns (new baseline, mean reward, new validation cursor).
    """
    if len(data.val_y) == 0:
        raise ConfigError("validation set is empty")
    rng = make_rng(cfg.seed, "controller", iteration)
    seq_len = net.spec.num_steps()
    rewards = []
    for _ in range(steps):
        policy, trace = ctl.sample_policy(seq_len, net.spec.alpha, rng)
        x, y = data.val_batch(val_cursor, cfg.reward_batch)
        val_cursor += 1
        trace.reward = evaluate_policy(net, policy, x, y)
        rewards.append(trace.reward)
        ctl.reinforce_update([trace], baseline, cfg.controller_lr)
        baseline = baseline_update(baseline, [trace.reward], cfg.baseline_decay)
    return baseline, float(np.mean(rewards)) if rewards else 0.0, val_cursor


def sample_best(sampler, net: Network, data: Dataset, n_candidates: int,
                cfg: SearchConfig, iteration: int = 0, val_cursor: int = 0
                ) -> tuple[PolicySequence, float, float, int]:
    """Stage 3: pick the best of n sampled candidates on held-out mini-batches.

    Ties break toward lower transmission volume, then lower candidate index.
    """
    rng = make_rng(cfg.seed, "candidates", iteration)
    seq_len = net.spec.num_steps()
    best = None
    accs = []
    for idx in range(n_candidates):
        policy, _ = sampler.sample_policy(seq_len, net.spec.alpha, rng)
        x, y = data.val_batch(val_cursor, cfg.reward_batch)
        val_cursor += 1
        acc = evaluate_policy(net, policy, x, y)
        accs.append(acc)
        bytes_ = perf.comm_volume(net.spec, policy, include_baseline=False).total_bytes
        key = (-acc, bytes_, idx)
        if best is None or key < best[0]:
            best = (key, policy, acc)
    return best[1], best[2], float(np.mean(accs)), val_cursor


def finetune(net: Network, policy: PolicySequence, data: Dataset,
             cfg: SearchConfig, epochs: int | None = None) -> list[float]:
    """Train the chosen model with its policy frozen, at a small rate."""
    epochs = cfg.finetune_epochs if epochs is None else epochs
    losses = []
    steps_per_epoch = max(1, len(data.train_y) // cfg.batch_size)
    for ep in range(epochs):
        rng = make_rng(cfg.seed, "finetune", ep)
        for _ in range(steps_per_epoch):
            x, y = data.sample_train_batch(cfg.batch_size, rng)
            net.zero_grads()
            logits = net.forward(x, policy, train=True)
            loss, probs = nn.softmax_cross_entropy(logits, y)
            net.backward(nn.cross_entropy_grad(probs, y))
            nn.sgd_step(net.named_params(), net.named_grads(), cfg.finetune_lr)
            losses.append(loss)
    return losses


def test_accuracy(net: Network, policy: PolicySequence, data: Dataset,
                  batch: int = 128) -> float:
    hits = 0
    for x, y in data.test_batches(batch):
        logits = net.forward(x, policy, train=False)
        hits += int((logits.argmax(axis=1) == y).sum())
    return hits / len(data.test_y)


def _checkpoint_path(out_dir: str, iteration: int) -> str:
    return os.path.join(out_dir, f"iter{iteration:03d}.snnc")


def run_search(cfg: SearchConfig, model_spec: ModelSpec, data: Dataset,
               out_dir: str | None = None, use_controller: bool = True,
               warm_start: str | None = None, resume: bool = False,
               run_finetune: bool = True) -> SearchResult:
    """Full pipeline; ``use_controller=False`` runs the random-sampler ablation."""
    cfg.validate()
    model_spec.validate()
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    g = model_spec.partitions
    net = Network(model_spec, seed=cfg.seed)
    ctl = Controller(g, cfg.levels, cfg.p_min, cfg.controller_hidden,
                     seed=cfg.seed, entropy_coef=cfg.entropy_coef) if use_controller else None
    sampler = ctl if use_controller else _UniformSampler(g, cfg.levels, cfg.p_min)
    if warm_start:
        loaded, _, _ = ckpt.load_model(warm_start)
        for (name, dst), (_, src) in zip(net.named_params(), loaded.named_params()):
            dst[...] = src
        for (_, dst), (_, src) in zip(net.named_state(), loaded.named_state()):
            dst[...] = src
        if loaded.bn_initialized():
            net.mark_bn_initialized()
    baseline = 0.0
    val_cursor = 0
    best: dict | None = None
    log: list[dict] = []
    start_iteration = 1
    if resume:
        if not out_dir:
            raise ConfigError("resume requires an output directory")
        latest = None
        for it in range(cfg.meta_iterations, 0, -1):
            if os.path.exists(_checkpoint_path(out_dir, it)):
                latest = it
                break
        if latest is not None:
            meta, blobs = ckpt.load_checkpoint(_checkpoint_path(out_dir, latest))
            roles = meta["roles"]
            net = ckpt.restore_graph(roles["graph"], blobs)
            if use_controller:
                ctl = ckpt.restore_controller(roles["controller"], blobs)
                sampler = ctl
            extra = meta["extra"]
            baseline = extra["baseline"]
            val_cursor = extra["val_cursor"]
            log = extra["log"]
            best = extra["best"]
            best["params"] = {n[len("best/param/"):]: a for n, a in blobs.items()
                              if n.startswith("best/param/")}
            best["state"] = {n[len("best/state/"):]: a for n, a in blobs.items()
                             if n.startswith("best/state/")}
            start_iteration = latest + 1

    for iteration in range(start_iteration, cfg.meta_iterations + 1):
        ctl_hash = ctl.param_digest() if ctl else None
        losses = train_shared_weights(net, sampler, data, cfg.shared_steps, cfg, iteration)
        if ctl and ctl.param_digest() != ctl_hash:
            raise ConfigError("stage 1 mutated controller parameters")
        log.append({"iteration": iteration, "stage": "shared",
                    "loss": float(np.mean(losses)) if losses else None})
        if use_controller:
            net_hash = ckpt.params_digest(net.named_params())
            baseline, mean_reward, val_cursor = train_controller(
                ctl, net, data, cfg.controller_steps, cfg, iteration, baseline, val_cursor)
            if ckpt.params_digest(net.named_params()) != net_hash:
                raise ConfigError("stage 2 mutated shared weights")
            log.append({"iteration": iteration, "stage": "controller",
                        "mean_reward": mean_reward, "baseline": baseline})
        policy, acc, mean_acc, val_cursor = sample_best(
            sampler, net, data, cfg.candidates, cfg, iteration, val_cursor)
        if not 0.0 <= acc <= 1.0:
            raise ConfigError(f"reward {acc} outside [0, 1]")
        if best is None or acc >= best["accuracy"]:
            best = {"accuracy": acc, "policy_ids": policy.ids(), "iteration": iteration,
                    "params": {n: a.copy() for n, a in net.named_params()},
                    "state": {n: a.copy() for n, a in net.named_state()}}
        log.append({"iteration": iteration, "stage": "select", "best_accuracy": best["accuracy"],
                    "candidate_accuracy": acc, "mean_candidate_accuracy": mean_acc,
                    "best_policy": best["policy_ids"]})
        if out_dir:
            blobs = ckpt.graph_blobs(net)
            meta = {"roles": {"graph": ckpt.graph_metadata(net)}}
            if ctl is not None:
                blobs.update(ckpt.controller_blobs(ctl))
                meta["roles"]["controller"] = ckpt.controller_metadata(ctl)
            for name, arr in best["params"].items():
                blobs[f"best/param/{name}"] = arr
            for name, arr in best["state"].items():
                blobs[f"best/state/{name}"] = arr
            meta["extra"] = {"baseline": baseline, "val_cursor": val_cursor, "log": log,
                             "best": {k: v for k, v in best.items()
                                      if k in ("accuracy", "policy_ids", "iteration")}}
            ckpt.save_checkpoint(_checkpoint_path(out_dir, iteration), blobs, meta)

    if best is None:
        raise ConfigError("search produced no candidates")
    # restore the weights the best policy was scored with before fine-tuning
    for name, arr in net.named_params():
        arr[...] = best["params"][name]
    for name, arr in net.named_state():
        arr[...] = best["state"][name]
    best_policy = policy_from_ids(best["policy_ids"], g, model_spec.alpha,
                                  cfg.levels, cfg.p_min)
    if run_finetune:
        finetune(net, best_policy, data, cfg)
    final_acc = test_accuracy(net, best_policy, data) if len(data.test_y) else None
    if out_dir:
        ckpt.save_model(os.path.join(out_dir, "best.snnc"), net, ctl,
                        {"policy_ids": best["policy_ids"], "val_accuracy": best["accuracy"],
                         "test_accuracy": final_acc})
        save_policy(os.path.join(out_dir, "best.policy"), best_policy)
        with open(os.path.join(out_dir, "run_log.jsonl"), "w", encoding="utf-8") as fh:
            for entry in log:
                fh.write(json.dumps(entry) + "\n")
    return SearchResult(best_policy, best["accuracy"], best["iteration"], net, ctl,
                        final_acc, log)


def random_search_baseline(cfg: SearchConfig, model_spec: ModelSpec, data: Dataset,
                           out_dir: str | None = None, warm_start: str | None = None,
                           run_finetune: bool = True) -> SearchResult:
    """Identical pipeline with uniform random policy sampling throughout."""
    return run_search(cfg, model_spec, data, out_dir, use_controller=False,
                      warm_start=warm_start, run_finetune=run_finetune)
