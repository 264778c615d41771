"""LSTM policy network over (routing, sparsity) decision sequences.

One LSTM alternates between two softmax heads: at every transmission step
it first samples a routing decision (G! choices) and then a sparsity
level, each sampled ID being embedded and fed back as the next input.
Training is plain REINFORCE on a scalar reward with an exponential moving
average baseline; gradients are computed by backpropagation through time
over the teacher-forced sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import params_digest
from .errors import ConfigError, NumericsError
from .policy import PolicySequence, SparsityLevel, decision_from_id
from .rng import make_rng

F32 = np.float32


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _log_softmax(logits):
    z = logits - logits.max()
    return z - np.log(np.exp(z).sum())


@dataclass
class SubStep:
    """One sampled sub-decision with its log-probability and entropy."""

    decision_id: int
    log_prob: float
    entropy: float


@dataclass
class SampleTrace:
    substeps: list[SubStep]
    reward: float | None = None

    @property
    def total_log_prob(self) -> float:
        return sum(s.log_prob for s in self.substeps)

    def ids(self) -> list[tuple[int, int]]:
        flat = [s.decision_id for s in self.substeps]
        return list(zip(flat[0::2], flat[1::2]))


class Controller:
    """Autoregressive sampler over policy sequences.

    Heads start at zero so a fresh controller samples uniformly; the
    embedding table and LSTM weights start uniform in (-0.1, 0.1).
    """

    def __init__(self, g: int, levels: int = 9, p_min: int = 50,
                 hidden: int = 100, seed: int = 0, entropy_coef: float = 0.0):
        if g < 1 or g > 8:
            raise ConfigError(f"controller supports 1 <= G <= 8, got {g}")
        self.g = g
        self.levels = levels
        self.p_min = p_min
        self.hidden = hidden
        self.entropy_coef = entropy_coef
        self.n_comm = math.factorial(g)
        self.n_spars = levels
        vocab = 1 + self.n_comm + self.n_spars  # start token + both ID ranges
        rng = make_rng(seed, "controller-init")
        h = hidden

        def uni(*shape):
            return rng.uniform(-0.1, 0.1, size=shape).astype(F32)

        self.emb = uni(vocab, h)
        self.wx = uni(4 * h, h)
        self.wh = uni(4 * h, h)
        self.b = np.zeros(4 * h, dtype=F32)
        self.w_comm = np.zeros((self.n_comm, h), dtype=F32)
        self.b_comm = np.zeros(self.n_comm, dtype=F32)
        self.w_spars = np.zeros((self.n_spars, h), dtype=F32)
        self.b_spars = np.zeros(self.n_spars, dtype=F32)
        self._grads = {name: np.zeros_like(arr) for name, arr in self.params()}

    # -- parameters --------------------------------------------------------

    def params(self):
        return [("emb", self.emb), ("wx", self.wx), ("wh", self.wh), ("b", self.b),
                ("w_comm", self.w_comm), ("b_comm", self.b_comm),
                ("w_spars", self.w_spars), ("b_spars", self.b_spars)]

    def grads(self):
        return list(self._grads.items())

    def zero_grad(self):
        for arr in self._grads.values():
            arr[...] = 0.0

    def _embed_row(self, parity: int, decision_id: int) -> int:
        return 1 + decision_id if parity == 0 else 1 + self.n_comm + decision_id

    def _head(self, parity: int):
        return (self.w_comm, self.b_comm) if parity == 0 else (self.w_spars, self.b_spars)

    def _cell(self, x, h, c):
        gates = self.wx @ x + self.wh @ h + self.b
        hh = self.hidden
        i = _sigmoid(gates[:hh])
        f = _sigmoid(gates[hh : 2 * hh])
        g = np.tanh(gates[2 * hh : 3 * hh])
        o = _sigmoid(gates[3 * hh :])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        return h_new, c_new, (i, f, g, o)

    # -- sampling / scoring --------------------------------------------------

    def _run(self, seq_len: int, pick, want_cache: bool = False):
        """Drive the LSTM for 2*seq_len sub-steps; ``pick(parity, probs)`` chooses IDs."""
        h = np.zeros(self.hidden, dtype=F32)
        c = np.zeros(self.hidden, dtype=F32)
        x = self.emb[0].copy()
        substeps = []
        cache = [] if want_cache else None
        for t in range(seq_len):
            for parity in (0, 1):
                h_prev, c_prev, x_in = h, c, x
                h, c, gates = self._cell(x, h, c)
                w, b = self._head(parity)
                logp_vec = _log_softmax(w @ h + b)
                probs = np.exp(logp_vec)
                chosen = pick(parity, probs)
                if not 0 <= chosen < len(probs):
                    raise ConfigError(f"decision id {chosen} out of range for sub-step parity {parity}")
                entropy = float(-(probs * logp_vec).sum())
                substeps.append(SubStep(chosen, float(logp_vec[chosen]), entropy))
                if want_cache:
                    cache.append((parity, x_in, h_prev, c_prev, h.copy(), c.copy(), gates, probs, chosen))
                x = self.emb[self._embed_row(parity, chosen)].copy()
        return substeps, cache

    def sample_policy(self, seq_len: int, alpha: int, rng: np.random.Generator
                      ) -> tuple[PolicySequence, SampleTrace]:
        if seq_len < 1:
            raise ConfigError(f"sequence length must be >= 1, got {seq_len}")

        def pick(parity, probs):
            return int(rng.choice(len(probs), p=probs / probs.sum()))

        substeps, _ = self._run(seq_len, pick)
        trace = SampleTrace(substeps)
        return self._to_policy(trace, alpha), trace

    def greedy_policy(self, seq_len: int, alpha: int) -> tuple[PolicySequence, SampleTrace]:
        substeps, _ = self._run(seq_len, lambda parity, probs: int(np.argmax(probs)))
        trace = SampleTrace(substeps)
        return self._to_policy(trace, alpha), trace

    def _to_policy(self, trace: SampleTrace, alpha: int) -> PolicySequence:
        steps = [
            (decision_from_id(cid, self.g), SparsityLevel(sid, self.levels, self.p_min))
            for cid, sid in trace.ids()
        ]
        return PolicySequence(steps, num_nodes=self.g, alpha=alpha,
                              levels=self.levels, p_min=self.p_min)

    def log_prob(self, pairs: list[tuple[int, int]]) -> float:
        """Total log-probability of an ID sequence under teacher forcing."""
        flat = [i for pair in pairs for i in pair]
        for k, ident in enumerate(flat):
            bound = self.n_comm if k % 2 == 0 else self.n_spars
            if not 0 <= ident < bound:
                raise ConfigError(f"decision id {ident} out of range [0, {bound})")
        substeps, _ = self._run(len(pairs), lambda parity, probs, it=iter(flat): next(it))
        return sum(s.log_prob for s in substeps)

    # -- learning ------------------------------------------------------------

    def accumulate_ascent_grad(self, pairs: list[tuple[int, int]], coef: float) -> None:
        """Add ``coef * grad(log pi(sequence))`` (plus any entropy bonus) to the buffers."""
        flat = [i for pair in pairs for i in pair]
        _, cache = self._run(len(pairs), lambda parity, probs, it=iter(flat): next(it), want_cache=True)
        g = self._grads
        hh = self.hidden
        dh_next = np.zeros(hh, dtype=F32)
        dc_next = np.zeros(hh, dtype=F32)
        dx_next = np.zeros(hh, dtype=F32)
        for k in range(len(cache) - 1, -1, -1):
            parity, x_in, h_prev, c_prev, h, c, gates, probs, chosen = cache[k]
            w, b = self._head(parity)
            head_w = "w_comm" if parity == 0 else "w_spars"
            head_b = "b_comm" if parity == 0 else "b_spars"
            dlogits = -coef * probs
            dlogits[chosen] += coef
            if self.entropy_coef:
                logp = np.log(probs)
                ent = float(-(probs * logp).sum())
                dlogits += self.entropy_coef * (-probs * (logp + ent))
            g[head_w] += np.outer(dlogits, h)
            g[head_b] += dlogits
            dh = w.T @ dlogits + dh_next
            # the embedding fed to the next sub-step is this sub-step's output row
            if k + 1 < len(cache):
                g["emb"][self._embed_row(parity, chosen)] += dx_next
            i, f, gg, o = gates
            tc = np.tanh(c)
            do = dh * tc
            dct = dc_next + dh * o * (1 - tc * tc)
            di = dct * gg
            dg = dct * i
            df = dct * c_prev
            dc_next = dct * f
            dgates = np.concatenate([
                di * i * (1 - i), df * f * (1 - f), dg * (1 - gg * gg), do * o * (1 - o)
            ]).astype(F32)
            g["wx"] += np.outer(dgates, x_in)
            g["wh"] += np.outer(dgates, h_prev)
            g["b"] += dgates
            dx_next = self.wx.T @ dgates
            dh_next = self.wh.T @ dgates
        g["emb"][0] += dx_next  # start token

    def reinforce_update(self, traces: list[SampleTrace], baseline: float, lr: float) -> None:
        """Gradient ascent on sum over traces of (R - baseline) * log pi(sequence)."""
        if not traces:
            raise ConfigError("reinforce_update needs at least one trace")
        self.zero_grad()
        for trace in traces:
            if trace.reward is None or not np.isfinite(trace.reward):
                raise NumericsError(f"trace reward must be finite, got {trace.reward}")
            adv = float(trace.reward) - baseline
            if adv != 0.0 or self.entropy_coef:
                self.accumulate_ascent_grad(trace.ids(), adv)
        for name, arr in self.params():
            arr += (lr * self._grads[name]).astype(F32)

    def param_digest(self) -> str:
        return params_digest(self.params())


def baseline_update(baseline: float, rewards, decay: float) -> float:
    """Exponential moving average of the batch-mean reward."""
    if not 0 <= decay < 1:
        raise ConfigError(f"decay must be in [0, 1), got {decay}")
    rewards = list(rewards)
    if not rewards:
        raise ConfigError("baseline_update needs at least one reward")
    return decay * baseline + (1 - decay) * float(np.mean(rewards))
