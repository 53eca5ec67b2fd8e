"""Adaptive moment estimation over lists of parameter arrays, and the flat
vector layout that lets one call step a whole network."""

from __future__ import annotations

import numpy as np


class Adam:
    """First/second-moment gradient steps, applied to arrays in place.

    Moment buffers and the step counter are plain attributes so training
    state can be checkpointed and restored exactly.
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        if lr <= 0:
            raise ValueError("learning rate must be > 0")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: list[np.ndarray] | None = None
        self.v: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        if len(params) != len(self.m):
            raise ValueError("parameter list changed size between steps")
        self.t += 1
        corr1 = 1.0 - self.beta1**self.t
        corr2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / corr1) / (np.sqrt(v / corr2) + self.eps)


def flatten(arrays: list[np.ndarray]) -> np.ndarray:
    """One float vector holding ``arrays`` one after another."""
    return np.concatenate([a.ravel() for a in arrays], dtype=float)


def flat_views(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Views of consecutive parts of ``flat``, shaped like ``like``'s arrays."""
    views, start = [], 0
    for a in like:
        views.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    return views
