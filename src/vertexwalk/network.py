"""Feed-forward ReLU network shapes, layers and training data.

A network with hidden depth L and widths (n_0, ..., n_{L+1}) maps
x -> W_{L+1} h^{(L)} + b_{L+1} where h^{(l)} = max(0, W_l h^{(l-1)} + b_l)
and h^{(0)} = x. This module holds the validated pieces of such a network
(its widths, one layer's parameters, the training set); the oracle runs
the forward pass, keeping every pre-activation because those values define
the kink surfaces of the parameter-space loss landscape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


@dataclass(frozen=True)
class Architecture:
    """Layer widths (n_0, ..., n_{L+1}) with L >= 1 hidden layers."""

    widths: tuple[int, ...]

    def __post_init__(self):
        if len(self.widths) < 3:
            raise ShapeMismatch("need at least one hidden layer: widths (n0, n1, n2)")
        if any(int(w) < 1 for w in self.widths):
            raise ShapeMismatch("all layer widths must be >= 1")
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))

    @property
    def hidden_depth(self) -> int:
        return len(self.widths) - 2

    @property
    def output_dim(self) -> int:
        return self.widths[-1]

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return self.widths[1:-1]


@dataclass(frozen=True)
class LayerParams:
    """Weight matrix (n_l, n_{l-1}) and bias vector (n_l,) of one layer."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        b = np.asarray(self.bias, dtype=float)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise ShapeMismatch(f"weight {w.shape} and bias {b.shape} do not align")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ShapeMismatch("layer parameters must be finite")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @property
    def fan_out(self) -> int:
        return self.weight.shape[0]

    @property
    def fan_in(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True)
class TrainingSet:
    """N input/target pairs, rows of `inputs` (N, n_0) and `targets` (N, n_out)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        y = np.atleast_2d(np.asarray(self.targets, dtype=float))
        if x.shape[0] != y.shape[0] or x.shape[0] < 1:
            raise ShapeMismatch(f"got {x.shape[0]} inputs but {y.shape[0]} targets")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ShapeMismatch("training data must be finite")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", y)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]
