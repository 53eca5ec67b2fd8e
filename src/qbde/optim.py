"""Adaptive moment estimation over one parameter array: each trained
network keeps its parameters in one vector, so one call steps it whole."""

from __future__ import annotations

import math

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """First/second-moment gradient steps, applied to one array in place.

    The moments start at zero, shaped like ``param``, the array this
    optimiser steps, unless a step count ``t`` and moments ``m`` and ``v``
    of that shape are given, as a checkpoint restores them.  Moments and
    the step counter are plain attributes so training state can be
    checkpointed and restored exactly.  A step writes its intermediates
    into two scratch arrays of the same shape.
    """

    def __init__(self, lr: float, param: np.ndarray, t: int = 0,
                 m: np.ndarray | None = None, v: np.ndarray | None = None):
        if not 0 < lr < math.inf:
            raise ValueError(f"learning rate must be finite and > 0, got {lr}")
        self.lr = lr
        self.t = t
        self.m = np.zeros(np.shape(param)) if m is None else m
        self.v = np.zeros(np.shape(param)) if v is None else v
        self._a = np.empty(np.shape(param))
        self._b = np.empty(np.shape(param))

    def step(self, param: np.ndarray, grad: np.ndarray) -> None:
        """``m`` and ``v`` move towards ``grad`` and ``grad**2``, then
        ``param -= lr * (m / c1) / (sqrt(v / c2) + EPS)`` with the bias
        corrections c1, c2, each product and quotient in that order."""
        self.t += 1
        corr1 = 1.0 - BETA1**self.t
        corr2 = 1.0 - BETA2**self.t
        a, b = self._a, self._b
        np.multiply(grad, 1.0 - BETA1, out=a)
        self.m *= BETA1
        self.m += a
        np.multiply(grad, 1.0 - BETA2, out=a)
        a *= grad
        self.v *= BETA2
        self.v += a
        np.divide(self.m, corr1, out=a)
        a *= self.lr
        np.divide(self.v, corr2, out=b)
        np.sqrt(b, out=b)
        b += EPS
        a /= b
        param -= a
