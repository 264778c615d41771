"""Minimal convolutional network engine.

Tensors are numpy ``float32`` arrays of shape (batch, channels, height,
width), row-major with batch outermost. Layers are stateful objects with
explicit ``forward``/``backward`` methods; ``forward`` caches what the
matching ``backward`` needs, gradients accumulate into per-layer buffers.

A layer holds one array per weight, gradient and statistic; partition p
of G owns rows ``p*n ... (p+1)*n`` of each (n = rows / G), and ``slice(p)``
returns a layer of views of them, which sees live running statistics. The
convolution kernel iterates channel groups in a fixed global order and
feeds each group a freshly copied contiguous buffer, so running a single
partition's slice of the network reproduces the full-width forward pass
bit for bit.
"""

from __future__ import annotations

import copy

import numpy as np

from .errors import ConfigError, NumericsError, SepnetError, ShapeError, UninitializedStatsError

F32 = np.float32


def check_tensor4(x: np.ndarray, name: str = "input") -> None:
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        raise ShapeError(f"{name} must be a 4-d array, got {getattr(x, 'shape', None)}")
    if x.dtype != F32:
        raise ShapeError(f"{name} must be float32, got {x.dtype}")


def _rows(arr: np.ndarray, p: int, parts: int) -> np.ndarray:
    """Partition ``p``'s rows of ``arr``, as a view."""
    n = len(arr) // parts
    return arr[p * n : (p + 1) * n]


def _partition_views(pairs, parts: int) -> list[tuple[str, np.ndarray]]:
    """Per-partition row views of (name, array) pairs, partition-major, named
    ``name0``, ``name1``, ...; unchanged for one partition."""
    if parts == 1:
        return list(pairs)
    return [(f"{name}{p}", _rows(arr, p, parts)) for p in range(parts) for name, arr in pairs]


def _im2col(xp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Unfold (B, C, Hp, Wp) into contiguous (B, C*k*k, ho*wo) patches."""
    b, c, _, _ = xp.shape
    cols = np.empty((b, c, k * k, ho * wo), dtype=F32)
    t = 0
    for ki in range(k):
        for kj in range(k):
            patch = xp[:, :, ki : ki + stride * ho : stride, kj : kj + stride * wo : stride]
            cols[:, :, t, :] = patch.reshape(b, c, ho * wo)
            t += 1
    return cols.reshape(b, c * k * k, ho * wo)


def _col2im_add(dcols: np.ndarray, dxp: np.ndarray, k: int, stride: int, ho: int, wo: int) -> None:
    """Scatter-add (B, C*k*k, ho*wo) gradients back onto the padded input."""
    b = dxp.shape[0]
    c = dxp.shape[1]
    dc = dcols.reshape(b, c, k * k, ho, wo)
    t = 0
    for ki in range(k):
        for kj in range(k):
            dxp[:, :, ki : ki + stride * ho : stride, kj : kj + stride * wo : stride] += dc[:, :, t]
            t += 1


class Conv2d:
    """Grouped 2-d convolution, no bias.

    3x3 kernels use zero padding 1 ("same"); 1x1 kernels use none. Group g
    is weight rows ``g*og ... (g+1)*og``; ``partitions`` must divide ``groups``.
    """

    def __init__(self, in_ch: int, out_ch: int, ksize: int, stride: int = 1,
                 groups: int = 1, partitions: int = 1, rng: np.random.Generator | None = None):
        if groups < 1 or in_ch % groups or out_ch % groups:
            raise ConfigError(
                f"groups={groups} must divide in_ch={in_ch} and out_ch={out_ch}")
        if partitions < 1 or groups % partitions:
            raise ConfigError(f"partitions={partitions} must divide groups={groups}")
        self.in_ch, self.out_ch, self.ksize, self.stride = in_ch, out_ch, ksize, stride
        self.groups, self.partitions = groups, partitions
        self.pad = (ksize - 1) // 2
        cg = in_ch // groups
        shape = (out_ch, cg, ksize, ksize)
        std = float(np.sqrt(2.0 / (cg * ksize * ksize)))
        if rng is None:
            self.w = np.zeros(shape, dtype=F32)
        else:
            self.w = (rng.standard_normal(shape) * std).astype(F32)
        self.gw = np.zeros_like(self.w)
        self._cache = None

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        ho = (h + 2 * self.pad - self.ksize) // self.stride + 1
        wo = (w + 2 * self.pad - self.ksize) // self.stride + 1
        return ho, wo

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        check_tensor4(x)
        if x.shape[1] != self.in_ch:
            raise ShapeError(f"conv expects {self.in_ch} input channels, got {x.shape[1]}")
        b, _, h, w = x.shape
        ho, wo = self.out_hw(h, w)
        if ho < 1 or wo < 1:
            raise ShapeError(f"conv output would be empty for input {h}x{w}")
        xp = np.pad(x, ((0, 0), (0, 0), (self.pad, self.pad), (self.pad, self.pad))) if self.pad else x
        y = np.empty((b, self.out_ch, ho, wo), dtype=F32)
        cg = self.in_ch // self.groups
        og = self.out_ch // self.groups
        k2 = self.ksize * self.ksize
        cols = []
        for g in range(self.groups):
            xg = xp[:, g * cg : (g + 1) * cg]
            cg_cols = _im2col(xg, self.ksize, self.stride, ho, wo)
            wg = self.w[g * og : (g + 1) * og].reshape(og, cg * k2)
            y[:, g * og : (g + 1) * og] = np.matmul(wg, cg_cols).reshape(b, og, ho, wo)
            cols.append(cg_cols if train else None)
        self._cache = (x.shape, cols, ho, wo) if train else None
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise SepnetError("conv backward called without a recorded forward")
        xshape, cols, ho, wo = self._cache
        b = xshape[0]
        hp = xshape[2] + 2 * self.pad
        wp = xshape[3] + 2 * self.pad
        cg = self.in_ch // self.groups
        og = self.out_ch // self.groups
        k2 = self.ksize * self.ksize
        dxp = np.zeros((b, self.in_ch, hp, wp), dtype=F32)
        for g in range(self.groups):
            dyg = dy[:, g * og : (g + 1) * og].reshape(b, og, ho * wo)
            wg = self.w[g * og : (g + 1) * og].reshape(og, cg * k2)
            dwg = np.matmul(dyg, cols[g].transpose(0, 2, 1)).sum(axis=0)
            self.gw[g * og : (g + 1) * og] += dwg.reshape(og, cg, self.ksize, self.ksize)
            dcols = np.matmul(wg.T, dyg)
            _col2im_add(dcols, dxp[:, g * cg : (g + 1) * cg], self.ksize, self.stride, ho, wo)
        self._cache = None
        if self.pad:
            return np.ascontiguousarray(dxp[:, :, self.pad : hp - self.pad, self.pad : wp - self.pad])
        return dxp

    def slice(self, p: int) -> "Conv2d":
        """Partition ``p`` as a one-partition conv of views of its rows."""
        part = copy.copy(self)
        g = self.partitions
        part.in_ch, part.out_ch, part.groups = self.in_ch // g, self.out_ch // g, self.groups // g
        part.partitions = 1
        part.w, part.gw = _rows(self.w, p, g), _rows(self.gw, p, g)
        part._cache = None
        return part

    def params(self):
        return _partition_views([("w", self.w)], self.partitions)

    def grads(self):
        return _partition_views([("w", self.gw)], self.partitions)

    def zero_grad(self):
        self.gw[...] = 0.0


def channel_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Biased per-channel mean/variance over (batch, height, width).

    Reduces each channel over a contiguous copy of its own values, so the
    result for a channel never depends on which other channels are present.
    """
    rows = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).reshape(x.shape[1], -1)
    mean = rows.mean(axis=1)
    var = ((rows - mean[:, None]) ** 2).mean(axis=1)
    return mean.astype(F32), var.astype(F32)


class BatchNorm2d:
    """Channelwise batch normalization with affine scale/shift.

    Train mode normalizes by batch statistics and updates running stats
    (keep-rate ``momentum``); eval mode uses running stats and raises
    ``UninitializedStatsError`` if none were ever recorded.
    """

    EPS = 1e-5
    MOMENTUM = 0.9

    def __init__(self, channels: int, partitions: int = 1):
        if partitions < 1 or channels % partitions:
            raise ConfigError(f"partitions={partitions} must divide channels={channels}")
        self.channels, self.partitions = channels, partitions
        self.gamma = np.ones(channels, dtype=F32)
        self.beta = np.zeros(channels, dtype=F32)
        self.rmean = np.zeros(channels, dtype=F32)
        self.rvar = np.ones(channels, dtype=F32)
        self.ggamma = np.zeros(channels, dtype=F32)
        self.gbeta = np.zeros(channels, dtype=F32)
        self.initialized = False
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        check_tensor4(x)
        if x.shape[1] != self.channels:
            raise ShapeError(f"batchnorm expects {self.channels} channels, got {x.shape[1]}")
        if train:
            mean, var = channel_stats(x)
            inv = (1.0 / np.sqrt(var + self.EPS)).astype(F32)
            norm = (x - mean[None, :, None, None]) * inv[None, :, None, None]
            y = self.gamma[None, :, None, None] * norm + self.beta[None, :, None, None]
            self.rmean[...] = self.MOMENTUM * self.rmean + (1 - self.MOMENTUM) * mean
            self.rvar[...] = self.MOMENTUM * self.rvar + (1 - self.MOMENTUM) * var
            self.initialized = True
            self._cache = (norm, inv)
        else:
            if not self.initialized:
                raise UninitializedStatsError(
                    "batchnorm eval requested before any statistics were recorded")
            inv = (1.0 / np.sqrt(self.rvar + self.EPS)).astype(F32)
            scale = self.gamma * inv
            shift = self.beta - self.rmean * scale
            y = x * scale[None, :, None, None] + shift[None, :, None, None]
            self._cache = None
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise SepnetError("batchnorm backward called without a train-mode forward")
        norm, inv = self._cache
        n = dy.shape[0] * dy.shape[2] * dy.shape[3]
        dg = (dy * norm).sum(axis=(0, 2, 3))
        db = dy.sum(axis=(0, 2, 3))
        self.ggamma += dg.astype(F32)
        self.gbeta += db.astype(F32)
        coef = (self.gamma * inv / n)[None, :, None, None]
        dx = coef * (n * dy - db[None, :, None, None] - norm * dg[None, :, None, None])
        self._cache = None
        return dx

    def slice(self, p: int) -> "BatchNorm2d":
        """Partition ``p`` as a one-partition batchnorm of views of its rows.

        Train mode updates the running statistics in place, so a slice reads
        the live statistics, not those current when it was taken."""
        part = copy.copy(self)
        part.channels, part.partitions = self.channels // self.partitions, 1
        for name in ("gamma", "beta", "rmean", "rvar", "ggamma", "gbeta"):
            setattr(part, name, _rows(getattr(self, name), p, self.partitions))
        part._cache = None
        return part

    def params(self):
        return _partition_views([("gamma", self.gamma), ("beta", self.beta)], self.partitions)

    def grads(self):
        return _partition_views([("gamma", self.ggamma), ("beta", self.gbeta)], self.partitions)

    def state(self):
        return _partition_views([("rmean", self.rmean), ("rvar", self.rvar)], self.partitions)

    def zero_grad(self):
        self.ggamma[...] = 0.0
        self.gbeta[...] = 0.0


class ReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        y = np.maximum(x, 0.0)
        self._mask = x > 0 if train else None
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise SepnetError("relu backward called without a recorded forward")
        dx = dy * self._mask
        self._mask = None
        return dx


class GlobalAvgPool:
    """Average over the spatial dims; output has H = W = 1."""

    def __init__(self):
        self._shape = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        check_tensor4(x)
        b, c, h, w = x.shape
        y = x.reshape(b, c, h * w).mean(axis=2).astype(F32).reshape(b, c, 1, 1)
        self._shape = x.shape if train else None
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise SepnetError("pool backward called without a recorded forward")
        b, c, h, w = self._shape
        dx = np.broadcast_to(dy / (h * w), (b, c, h, w)).astype(F32)
        self._shape = None
        return dx


class Linear:
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator | None = None):
        self.in_features, self.out_features = in_features, out_features
        std = float(np.sqrt(1.0 / in_features))
        if rng is None:
            self.w = np.zeros((out_features, in_features), dtype=F32)
        else:
            self.w = (rng.standard_normal((out_features, in_features)) * std).astype(F32)
        self.b = np.zeros(out_features, dtype=F32)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self._x = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"linear expects (batch, {self.in_features}), got {x.shape}")
        self._x = x if train else None
        return (x @ self.w.T + self.b).astype(F32)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise SepnetError("linear backward called without a recorded forward")
        self.gw += (dy.T @ self._x).astype(F32)
        self.gb += dy.sum(axis=0).astype(F32)
        dx = (dy @ self.w).astype(F32)
        self._x = None
        return dx

    def params(self):
        return [("w", self.w), ("b", self.b)]

    def grads(self):
        return [("w", self.gw), ("b", self.gb)]

    def zero_grad(self):
        self.gw[...] = 0.0
        self.gb[...] = 0.0


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch plus the softmax probabilities."""
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (batch, classes), got {logits.shape}")
    k = logits.shape[1]
    labels = np.asarray(labels)
    if labels.shape != (logits.shape[0],):
        raise ShapeError(f"labels must be ({logits.shape[0]},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ShapeError(f"label out of range [0, {k})")
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    nll = lse - z[np.arange(len(labels)), labels]
    probs = softmax(logits).astype(F32)
    return float(nll.mean()), probs


def cross_entropy_grad(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross-entropy wrt the logits: (p - onehot)/B."""
    d = probs.copy()
    d[np.arange(len(labels)), labels] -= 1.0
    return (d / len(labels)).astype(F32)


def sgd_step(params, grads, lr: float) -> None:
    """In-place p <- p - lr * g over aligned (name, array) sequences."""
    gmap = dict(grads)
    for name, p in params:
        g = gmap[name]
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
        if not np.all(np.isfinite(g)):
            raise NumericsError(f"non-finite gradient for {name}")
        p -= (lr * g).astype(p.dtype)
