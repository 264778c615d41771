"""Seed-generated synthetic image classification data.

Each class gets a fixed low-resolution random prototype upsampled to the
target size; samples are the prototype plus white noise. Ten percent of
the generated training pool is split off as validation, chosen by the
same seed, so splits are deterministic and disjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rng import make_rng

F32 = np.float32


@dataclass(frozen=True)
class DataSpec:
    num_classes: int = 8
    channels: int = 3
    hw: tuple[int, int] = (16, 16)
    train_pool: int = 2000
    test_n: int = 512
    val_fraction: float = 0.1
    noise: float = 0.8
    seed: int = 0

    def validate(self) -> None:
        if self.num_classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.hw[0] % 4 or self.hw[1] % 4:
            raise ConfigError(f"image size {self.hw} must be divisible by 4")
        if not 0 < self.val_fraction < 1:
            raise ConfigError("val_fraction must be in (0, 1)")
        if not math.isfinite(self.noise):
            raise ConfigError("noise must be finite")
        if self.train_pool < 20 or self.test_n < 1:
            raise ConfigError("dataset too small")


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    def sample_train_batch(self, batch: int, rng: np.random.Generator):
        idx = rng.integers(0, len(self.train_y), size=batch)
        return self.train_x[idx], self.train_y[idx]

    def val_batch(self, index: int, batch: int):
        """Round-robin validation mini-batches covering the whole split."""
        if len(self.val_y) == 0:
            raise ConfigError("validation set is empty")
        n = len(self.val_y)
        start = (index * batch) % n
        sel = [(start + k) % n for k in range(min(batch, n))]
        return self.val_x[sel], self.val_y[sel]

    def test_batches(self, batch: int):
        for start in range(0, len(self.test_y), batch):
            yield self.test_x[start : start + batch], self.test_y[start : start + batch]


def _prototypes(spec: DataSpec) -> np.ndarray:
    rng = make_rng(spec.seed, "data-proto")
    coarse = rng.standard_normal((spec.num_classes, spec.channels, 4, 4))
    up = np.kron(coarse, np.ones((1, 1, spec.hw[0] // 4, spec.hw[1] // 4)))
    return up.astype(F32)


def _draw(spec: DataSpec, protos: np.ndarray, count: int, stream: str):
    rng = make_rng(spec.seed, "data-draw", stream)
    labels = rng.integers(0, spec.num_classes, size=count)
    noise = rng.standard_normal((count, spec.channels, *spec.hw)).astype(F32)
    images = protos[labels] + spec.noise * noise
    return images.astype(F32), labels.astype(np.int64)


def make_dataset(spec: DataSpec) -> Dataset:
    spec.validate()
    protos = _prototypes(spec)
    pool_x, pool_y = _draw(spec, protos, spec.train_pool, "train")
    test_x, test_y = _draw(spec, protos, spec.test_n, "test")
    order = make_rng(spec.seed, "data-split").permutation(spec.train_pool)
    n_val = max(1, int(round(spec.train_pool * spec.val_fraction)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    return Dataset(pool_x[train_idx], pool_y[train_idx],
                   pool_x[val_idx], pool_y[val_idx], test_x, test_y)
