"""Feed-forward ReLU networks and their L1 training loss.

A network with hidden depth L and widths (n_0, ..., n_{L+1}) maps
x -> W_{L+1} h^{(L)} + b_{L+1} where h^{(l)} = max(0, W_l h^{(l-1)} + b_l)
and h^{(0)} = x. The forward pass keeps every pre-activation because those
values define the kink surfaces of the parameter-space loss landscape.
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
class NetworkParams:
    """Full parameter vector theta = (layer_1, ..., layer_{L+1})."""

    layers: tuple[LayerParams, ...]

    def __post_init__(self):
        if len(self.layers) < 2:
            raise ShapeMismatch("need at least two layers (one hidden + output)")
        for lo, hi in zip(self.layers, self.layers[1:]):
            if hi.fan_in != lo.fan_out:
                raise ShapeMismatch(
                    f"layer fan-in {hi.fan_in} does not match previous fan-out {lo.fan_out}"
                )
        object.__setattr__(self, "layers", tuple(self.layers))


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


def forward_batch(params: NetworkParams, inputs: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Batched forward pass: per-layer pre-activations (N, n_l) and outputs (N, n_out)."""
    h = np.asarray(inputs, dtype=float)
    if h.ndim != 2 or h.shape[1] != params.layers[0].fan_in:
        raise ShapeMismatch("batch shape does not match first layer fan-in")
    pres = []
    for layer in params.layers[:-1]:
        z = h @ layer.weight.T + layer.bias
        pres.append(z)
        h = relu(z)
    out_layer = params.layers[-1]
    return pres, h @ out_layer.weight.T + out_layer.bias


def l1_loss(params: NetworkParams, data: TrainingSet) -> float:
    """Sum of absolute errors over all samples and output coordinates."""
    if data.inputs.shape[1] != params.layers[0].fan_in:
        raise ShapeMismatch("data input dim does not match network")
    if data.targets.shape[1] != params.layers[-1].fan_out:
        raise ShapeMismatch("data target dim does not match network")
    _, outputs = forward_batch(params, data.inputs)
    return float(np.sum(np.abs(data.targets - outputs)))
