"""Adaptive moment estimation over one parameter array, and the flat
vector layout that lets one call step a whole network."""

from __future__ import annotations

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """First/second-moment gradient steps, applied to one array in place.

    Moment buffers and the step counter are plain attributes so training
    state can be checkpointed and restored exactly.
    """

    def __init__(self, lr: float):
        if lr <= 0:
            raise ValueError("learning rate must be > 0")
        self.lr = lr
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(self, param: np.ndarray, grad: np.ndarray) -> None:
        if self.m is None:
            self.m = np.zeros_like(param)
            self.v = np.zeros_like(param)
        self.t += 1
        corr1 = 1.0 - BETA1**self.t
        corr2 = 1.0 - BETA2**self.t
        self.m *= BETA1
        self.m += (1.0 - BETA1) * grad
        self.v *= BETA2
        self.v += (1.0 - BETA2) * grad * grad
        param -= self.lr * (self.m / corr1) / (np.sqrt(self.v / corr2) + EPS)


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
