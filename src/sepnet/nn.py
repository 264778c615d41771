"""Minimal convolutional network engine.

Tensors are numpy ``float32`` arrays of shape (batch, channels, height,
width), row-major with batch outermost. Layers are stateful objects with
explicit ``forward``/``backward`` methods; ``forward`` caches what the
matching ``backward`` needs, gradients accumulate into per-layer buffers.

Layers that sit on the partition boundary of a separable network store
their weights as one array per partition. The convolution kernel iterates
channel groups in a fixed global order and feeds each group a freshly
copied contiguous buffer, so running a single partition's slice of the
network reproduces the full-width forward pass bit for bit.
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

    3x3 kernels use zero padding 1 ("same"); 1x1 kernels use none. Weights
    are stored per partition; ``groups`` must be divisible by ``partitions``.
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
        op = out_ch // partitions
        std = float(np.sqrt(2.0 / (cg * ksize * ksize)))
        self.w = []
        for _ in range(partitions):
            if rng is None:
                arr = np.zeros((op, cg, ksize, ksize), dtype=F32)
            else:
                arr = (rng.standard_normal((op, cg, ksize, ksize)) * std).astype(F32)
            self.w.append(arr)
        self.gw = [np.zeros_like(a) for a in self.w]
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
        gpp = self.groups // self.partitions
        cols = []
        for g in range(self.groups):
            xg = xp[:, g * cg : (g + 1) * cg]
            cg_cols = _im2col(xg, self.ksize, self.stride, ho, wo)
            wg = self.w[g // gpp][(g % gpp) * og : (g % gpp + 1) * og].reshape(og, cg * k2)
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
        gpp = self.groups // self.partitions
        dxp = np.zeros((b, self.in_ch, hp, wp), dtype=F32)
        for g in range(self.groups):
            dyg = dy[:, g * og : (g + 1) * og].reshape(b, og, ho * wo)
            wg = self.w[g // gpp][(g % gpp) * og : (g % gpp + 1) * og].reshape(og, cg * k2)
            dwg = np.matmul(dyg, cols[g].transpose(0, 2, 1)).sum(axis=0)
            self.gw[g // gpp][(g % gpp) * og : (g % gpp + 1) * og] += dwg.reshape(og, cg, self.ksize, self.ksize)
            dcols = np.matmul(wg.T, dyg)
            _col2im_add(dcols, dxp[:, g * cg : (g + 1) * cg], self.ksize, self.stride, ho, wo)
        self._cache = None
        if self.pad:
            return np.ascontiguousarray(dxp[:, :, self.pad : hp - self.pad, self.pad : wp - self.pad])
        return dxp

    def slice(self, p: int) -> "Conv2d":
        """Partition ``p`` as a one-partition conv that shares its arrays."""
        part = copy.copy(self)
        g = self.partitions
        part.in_ch, part.out_ch, part.groups = self.in_ch // g, self.out_ch // g, self.groups // g
        part.partitions = 1
        part.w, part.gw = [self.w[p]], [self.gw[p]]
        part._cache = None
        return part

    def params(self):
        if self.partitions == 1:
            return [("w", self.w[0])]
        return [(f"w{p}", self.w[p]) for p in range(self.partitions)]

    def grads(self):
        if self.partitions == 1:
            return [("w", self.gw[0])]
        return [(f"w{p}", self.gw[p]) for p in range(self.partitions)]

    def zero_grad(self):
        for g in self.gw:
            g[...] = 0.0


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
        cp = channels // partitions
        self.gamma = [np.ones(cp, dtype=F32) for _ in range(partitions)]
        self.beta = [np.zeros(cp, dtype=F32) for _ in range(partitions)]
        self.rmean = [np.zeros(cp, dtype=F32) for _ in range(partitions)]
        self.rvar = [np.ones(cp, dtype=F32) for _ in range(partitions)]
        self.ggamma = [np.zeros(cp, dtype=F32) for _ in range(partitions)]
        self.gbeta = [np.zeros(cp, dtype=F32) for _ in range(partitions)]
        self.initialized = False
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        check_tensor4(x)
        if x.shape[1] != self.channels:
            raise ShapeError(f"batchnorm expects {self.channels} channels, got {x.shape[1]}")
        cp = self.channels // self.partitions
        y = np.empty_like(x)
        if train:
            caches = []
            for p in range(self.partitions):
                xs = x[:, p * cp : (p + 1) * cp]
                mean, var = channel_stats(xs)
                inv = (1.0 / np.sqrt(var + self.EPS)).astype(F32)
                norm = (xs - mean[None, :, None, None]) * inv[None, :, None, None]
                y[:, p * cp : (p + 1) * cp] = self.gamma[p][None, :, None, None] * norm + self.beta[p][None, :, None, None]
                self.rmean[p] = (self.MOMENTUM * self.rmean[p] + (1 - self.MOMENTUM) * mean).astype(F32)
                self.rvar[p] = (self.MOMENTUM * self.rvar[p] + (1 - self.MOMENTUM) * var).astype(F32)
                caches.append((norm, inv))
            self.initialized = True
            self._cache = caches
        else:
            if not self.initialized:
                raise UninitializedStatsError(
                    "batchnorm eval requested before any statistics were recorded")
            for p in range(self.partitions):
                xs = x[:, p * cp : (p + 1) * cp]
                inv = (1.0 / np.sqrt(self.rvar[p] + self.EPS)).astype(F32)
                scale = self.gamma[p] * inv
                shift = self.beta[p] - self.rmean[p] * scale
                y[:, p * cp : (p + 1) * cp] = xs * scale[None, :, None, None] + shift[None, :, None, None]
            self._cache = None
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise SepnetError("batchnorm backward called without a train-mode forward")
        cp = self.channels // self.partitions
        dx = np.empty_like(dy)
        for p in range(self.partitions):
            norm, inv = self._cache[p]
            dyp = dy[:, p * cp : (p + 1) * cp]
            n = dyp.shape[0] * dyp.shape[2] * dyp.shape[3]
            dg = (dyp * norm).sum(axis=(0, 2, 3))
            db = dyp.sum(axis=(0, 2, 3))
            self.ggamma[p] += dg.astype(F32)
            self.gbeta[p] += db.astype(F32)
            coef = (self.gamma[p] * inv / n)[None, :, None, None]
            dx[:, p * cp : (p + 1) * cp] = coef * (
                n * dyp - db[None, :, None, None] - norm * dg[None, :, None, None])
        self._cache = None
        return dx

    def slice(self, p: int) -> "BatchNorm2d":
        """Partition ``p`` as a one-partition batchnorm that shares its arrays.

        Train mode rebinds the running statistics to new arrays, so a slice
        reads the statistics current when it was taken."""
        part = copy.copy(self)
        part.channels, part.partitions = self.channels // self.partitions, 1
        for name in ("gamma", "beta", "rmean", "rvar", "ggamma", "gbeta"):
            setattr(part, name, [getattr(self, name)[p]])
        part._cache = None
        return part

    def _suffix(self, base: str, p: int) -> str:
        return base if self.partitions == 1 else f"{base}{p}"

    def params(self):
        out = []
        for p in range(self.partitions):
            out.append((self._suffix("gamma", p), self.gamma[p]))
            out.append((self._suffix("beta", p), self.beta[p]))
        return out

    def grads(self):
        out = []
        for p in range(self.partitions):
            out.append((self._suffix("gamma", p), self.ggamma[p]))
            out.append((self._suffix("beta", p), self.gbeta[p]))
        return out

    def state(self):
        out = []
        for p in range(self.partitions):
            out.append((self._suffix("rmean", p), self.rmean[p]))
            out.append((self._suffix("rvar", p), self.rvar[p]))
        return out

    def zero_grad(self):
        for g in self.ggamma:
            g[...] = 0.0
        for g in self.gbeta:
            g[...] = 0.0


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
