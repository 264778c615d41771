"""Communication-decision space, sparsity levels, and the staleness schedule.

A communication decision for G nodes is a permutation ``dest`` of
{0..G-1}: node i sends its feature chunk to ``dest[i]``, and ``dest[i] == i``
means node i sends nothing that step. Decisions are identified by their
index in the lexicographic enumeration of all G! permutations.

A sparsity level picks the percentage of leading feature channels actually
transmitted; the receiver zero-fills the rest.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .errors import ConfigError

MAX_NODES = 12  # G! overflow guard for enumeration/ID codecs


def _check_g(g: int) -> None:
    if g < 1:
        raise ConfigError(f"node count must be >= 1, got {g}")
    if g > MAX_NODES:
        raise ConfigError(f"node count {g} exceeds enumeration limit {MAX_NODES}")


@dataclass(frozen=True)
class CommDecision:
    """dest[i] = node that node i sends its chunk to (a permutation)."""

    dest: tuple[int, ...]

    def __post_init__(self):
        g = len(self.dest)
        if sorted(self.dest) != list(range(g)):
            raise ConfigError(f"dest {self.dest} is not a permutation of 0..{g - 1}")

    @property
    def num_nodes(self) -> int:
        return len(self.dest)

    def senders(self) -> list[tuple[int, int]]:
        """(source, dest) pairs for the nodes that actually transmit."""
        return [(i, d) for i, d in enumerate(self.dest) if d != i]

    def receiver_of(self, node: int) -> int | None:
        """The node whose chunk arrives at ``node``, or None for a self-send."""
        src = self.dest.index(node)
        return None if src == node else src


def decision_id(decision: CommDecision) -> int:
    """Lexicographic rank of the permutation (Lehmer code)."""
    dest = list(decision.dest)
    g = len(dest)
    _check_g(g)
    rank = 0
    for i, d in enumerate(dest):
        smaller = sum(1 for later in dest[i + 1 :] if later < d)
        rank += smaller * math.factorial(g - 1 - i)
    return rank


def decision_from_id(ident: int, g: int) -> CommDecision:
    """Inverse of :func:`decision_id`."""
    _check_g(g)
    total = math.factorial(g)
    if not 0 <= ident < total:
        raise ConfigError(f"decision id {ident} out of range [0, {total}) for G={g}")
    pool = list(range(g))
    dest = []
    rem = ident
    for i in range(g):
        f = math.factorial(g - 1 - i)
        idx, rem = divmod(rem, f)
        dest.append(pool.pop(idx))
    return CommDecision(tuple(dest))


def enumerate_decisions(g: int) -> list[CommDecision]:
    """All G! decisions in lexicographic order; list index == decision ID."""
    _check_g(g)
    if g > 8:
        raise ConfigError(f"refusing to materialize {math.factorial(g)} decisions for G={g}")
    return [decision_from_id(i, g) for i in range(math.factorial(g))]


def is_comm_intensive(decision: CommDecision) -> bool:
    """True iff every node sends to a different node (a derangement)."""
    return all(d != i for i, d in enumerate(decision.dest))


@dataclass(frozen=True)
class SparsityLevel:
    """Discrete fraction of leading channels transmitted.

    With ``levels`` choices the percentages run from ``p_min`` to 100 in
    equal steps; the top level is always exactly 100%.
    """

    level_id: int
    levels: int = 9
    p_min: int = 50

    def __post_init__(self):
        if self.levels < 1:
            raise ConfigError(f"sparsity level count must be >= 1, got {self.levels}")
        if not 0 <= self.level_id < self.levels:
            raise ConfigError(f"sparsity id {self.level_id} out of range [0, {self.levels})")
        if not 0 <= self.p_min <= 100:
            raise ConfigError(f"p_min must be in [0, 100], got {self.p_min}")

    def percentage(self) -> float:
        if self.levels == 1:
            return 100.0
        return self.p_min + self.level_id * (100.0 - self.p_min) / (self.levels - 1)


def n_send(n_total: int, level: SparsityLevel) -> int:
    """floor(n_total * percentage / 100), computed in exact integer math."""
    if n_total < 1:
        raise ConfigError(f"channel count must be >= 1, got {n_total}")
    if level.levels == 1:
        return n_total
    num = n_total * (level.p_min * (level.levels - 1) + level.level_id * (100 - level.p_min))
    return num // (100 * (level.levels - 1))


def transmission_schedule(num_blocks: int, alpha: int) -> list[int]:
    """1-based block indices after which a transmission is initiated.

    Data sent at one boundary is aggregated at the next; the final
    boundary's data is aggregated just before the classifier head. When
    alpha does not divide the block count, the trailing short window simply
    has no transmission point.
    """
    if num_blocks < 1:
        raise ConfigError(f"num_blocks must be >= 1, got {num_blocks}")
    if alpha < 1:
        raise ConfigError(f"alpha must be >= 1, got {alpha}")
    return [alpha * s for s in range(1, num_blocks // alpha + 1)]


def search_space_size(g: int, seq_len: int, with_sparsity: bool = False, levels: int = 9) -> int:
    """(G!)^seq_len, times levels^seq_len when sparsity decisions are searched."""
    if seq_len < 0:
        raise ConfigError(f"sequence length must be >= 0, got {seq_len}")
    _check_g(g)
    size = math.factorial(g) ** seq_len
    if with_sparsity:
        size *= levels**seq_len
    return size


@dataclass
class PolicySequence:
    """One (routing, sparsity) pair per transmission step."""

    steps: list[tuple[CommDecision, SparsityLevel]]
    num_nodes: int
    alpha: int
    levels: int = 9
    p_min: int = 50

    def __len__(self) -> int:
        return len(self.steps)

    def validate_for(self, num_blocks: int) -> None:
        want = len(transmission_schedule(num_blocks, self.alpha))
        if len(self.steps) != want:
            raise ConfigError(
                f"policy has {len(self.steps)} steps but the graph has {want} transmission points")
        for comm, lvl in self.steps:
            if comm.num_nodes != self.num_nodes:
                raise ConfigError(f"decision arity {comm.num_nodes} != G={self.num_nodes}")
            if lvl.levels != self.levels or lvl.p_min != self.p_min:
                raise ConfigError("sparsity level parameters differ between steps")

    def ids(self) -> list[tuple[int, int]]:
        return [(decision_id(c), s.level_id) for c, s in self.steps]

    def digest(self) -> str:
        return hashlib.sha256(policy_to_text(self).encode("utf-8")).hexdigest()


def policy_from_ids(pairs: list[tuple[int, int]], g: int, alpha: int,
                    levels: int = 9, p_min: int = 50) -> PolicySequence:
    steps = [
        (decision_from_id(cid, g), SparsityLevel(sid, levels, p_min)) for cid, sid in pairs
    ]
    return PolicySequence(steps, num_nodes=g, alpha=alpha, levels=levels, p_min=p_min)


def all_self_send_policy(g: int, num_blocks: int, alpha: int,
                         levels: int = 9, p_min: int = 50) -> PolicySequence:
    n_steps = len(transmission_schedule(num_blocks, alpha))
    full = levels - 1
    return policy_from_ids([(0, full)] * n_steps, g, alpha, levels, p_min)


def policy_to_text(policy: PolicySequence) -> str:
    lines = [f"G={policy.num_nodes} alpha={policy.alpha} levels={policy.levels} p_min={policy.p_min}"]
    for idx, (cid, sid) in enumerate(policy.ids()):
        lines.append(f"{idx} {cid} {sid}")
    return "\n".join(lines) + "\n"


def policy_from_text(text: str) -> PolicySequence:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise ConfigError("empty policy file")
    try:
        header = dict(kv.split("=", 1) for kv in lines[0].split())
        g = int(header["G"])
        alpha = int(header["alpha"])
        levels = int(header["levels"])
        p_min = int(header["p_min"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad policy header {lines[0]!r}: {exc}") from exc
    pairs = []
    for idx, ln in enumerate(lines[1:]):
        try:
            pos, cid, sid = map(int, ln.split())
        except ValueError:
            pos = None
        if pos != idx:
            raise ConfigError(f"bad policy line {ln!r} (expected '{idx} <comm_id> <sparsity_id>')")
        pairs.append((cid, sid))
    return policy_from_ids(pairs, g, alpha, levels, p_min)


def save_policy(path, policy: PolicySequence) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(policy_to_text(policy))


def load_policy(path) -> PolicySequence:
    with open(path, encoding="utf-8") as fh:
        return policy_from_text(fh.read())
