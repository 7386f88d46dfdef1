"""Reference implementations that only the tests use.

The package keeps what a walk, its analytics and `vertexwalk verify` run.
The checks below compute the same quantities another way, to test them:

* an independent network forward pass and L1 loss (`NetworkParams`,
  `forward_batch`, `l1_loss`), built from a point by `network_params`;
* the loss and constraint data of one region from scratch (`affine_piece`,
  `constraint_eval`, `region_signature`), a signature's single states read
  and replaced by flat index (`state_of`, `with_state`), and a one-call
  ratio test (`ratio_test`) over the oracle's screened test;
* value-only brute-force checks that treat the loss as a black box
  evaluated pointwise: kink location by line scan (`line_scan`),
  central-difference gradients (`fd_gradient`) and direction-sampled
  minimality (`local_min_check`);
* the vertex polish on two full forward passes (`two_pass_polish`), which
  the solver's polish, deciding on passes over the active rows alone,
  must match bit for bit.

Tests import this module like `conftest`, by name from the tests directory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from conftest import slots
from vertexwalk.errors import DegenerateVertex, InvalidTag, ShapeMismatch
from vertexwalk.linalg import solve
from vertexwalk.network import LayerParams, TrainingSet, relu
from vertexwalk.oracle import (
    OracleInstance,
    Signature,
    _check_point,
    _ratio_from_arrays,
    constraint_jvp_flat,
    constraint_normal,
    constraint_values_flat,
    forward_values,
    region_gradient,
    ratio_screen,
    region_masks,
    signature_from_values,
    value,
)
from vertexwalk.prng import SplitMix64


# --- errors --------------------------------------------------------------------


class AmbiguousSignature(ValueError):
    """An activation signature with zero states cannot define an affine piece."""


class NoCrossing(Exception):
    """No inactive constraint decreases toward zero along the direction."""


class RegionBoundaryTooClose(ValueError):
    """Point is too close to a constraint surface for finite differences."""


# --- network -------------------------------------------------------------------


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


# --- oracle --------------------------------------------------------------------


@dataclass(frozen=True)
class AffinePiece:
    """Loss restricted to one region: value(p) = gradient . p + intercept."""

    gradient: np.ndarray
    intercept: float
    signature: Signature


def decode_point(o: OracleInstance, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split p into (W_1, b_1)."""
    p = _check_point(o, p)
    mat = p.reshape(o.arch.widths[1], o.arch.widths[0] + 1)
    return mat[:, :-1].copy(), mat[:, -1].copy()


def network_params(o: OracleInstance, p: np.ndarray) -> NetworkParams:
    """Assemble full NetworkParams with the first layer decoded from p."""
    w1, b1 = decode_point(o, p)
    return NetworkParams((LayerParams(w1, b1),) + o.fixed)


def region_signature(o: OracleInstance, p: np.ndarray) -> Signature:
    return signature_from_values(o, forward_values(o, p))


def state_of(sig: Signature, idx: int) -> int:
    """The state sig gives the surface with flat index idx."""
    array, i, k = sig.layout.locate(idx)
    return int(sig.states[array][i, k])


def with_state(sig: Signature, idx: int, state: int) -> Signature:
    """sig with the state of flat index idx replaced; the arrays it does
    not change are shared."""
    array, i, k = sig.layout.locate(idx)
    states = list(sig.states)
    states[array] = states[array].copy()
    states[array][i, k] = state
    return Signature(tuple(states), sig.layout)


def _masked_outputs(o: OracleInstance, masks: list[np.ndarray], p: np.ndarray) -> np.ndarray:
    """Outputs of the affine surrogate with frozen unit states."""
    pmat = p.reshape(o.arch.widths[1], o.arch.widths[0] + 1)
    h = (o.x_aug @ pmat.T) * masks[0]
    for l, layer in enumerate(o.fixed[:-1], start=2):
        h = (h @ layer.weight.T + layer.bias) * masks[l - 1]
    out = o.fixed[-1]
    return h @ out.weight.T + out.bias


def affine_piece(o: OracleInstance, sig: Signature) -> AffinePiece:
    """Gradient and intercept of the loss on a full-dimensional region."""
    if sig.has_zeros:
        raise AmbiguousSignature("signature has zero states; resolve sides first")
    masks = region_masks(sig)
    g = region_gradient(o, masks)
    f0 = _masked_outputs(o, masks, np.zeros(o.dim))
    intercept = float(np.sum(masks[-1] * (o.data.targets - f0)))
    return AffinePiece(gradient=g, intercept=intercept, signature=sig)


def _check_index(o: OracleInstance, idx: int) -> int:
    if not 0 <= idx < o.n_constraints:
        raise InvalidTag(f"flat index {idx} out of range [0, {o.n_constraints})")
    return idx


def constraint_eval(
    o: OracleInstance, p: np.ndarray, sig: Signature, idx: int
) -> tuple[float, np.ndarray]:
    """Value and region-local gradient of the constraint with flat index idx."""
    _check_index(o, idx)
    v = float(constraint_values_flat(o, forward_values(o, p))[slots(o.layout, idx)])
    return v, constraint_normal(o, region_masks(sig), idx)


def ratio_test(
    o: OracleInstance,
    p: np.ndarray,
    d: np.ndarray,
    sig: Signature,
    active: list[int] | tuple[int, ...],
) -> tuple[float, int]:
    """First positive step along d at which an inactive constraint hits zero,
    and its flat index; `active` holds the flat indices to skip.

    Candidates are constraints moving strictly toward zero; ties resolve to
    the smallest index. Raises NoCrossing when nothing is hit.
    """
    p = _check_point(o, p)
    active = [_check_index(o, idx) for idx in active]
    vals = forward_values(o, p)
    flat = constraint_values_flat(o, vals)
    dvals = constraint_jvp_flat(o, region_masks(sig), np.asarray(d, dtype=float))
    excluded = np.zeros(flat.size, dtype=bool)
    excluded[slots(o.layout, active)] = True
    screen = ratio_screen(flat, np.abs(flat), excluded, o.layout)
    crossing, _ = _ratio_from_arrays(flat, dvals, screen)
    if crossing is None:
        raise NoCrossing("no inactive constraint decreases toward zero")
    return crossing


# --- brute force ---------------------------------------------------------------


@dataclass(frozen=True)
class LineScanResult:
    """Kink locations along a scanned segment and the slope on each interval."""

    kinks: np.ndarray
    slopes: np.ndarray
    t_max: float


def line_scan(
    o: OracleInstance,
    p: np.ndarray,
    d: np.ndarray,
    t_max: float,
    resolution: int = 2000,
) -> LineScanResult:
    """Locate the kinks of t -> value(p + t d) on [0, t_max] by grid + bisection.

    Slope changes are detected between consecutive grid intervals and each
    one is localized by bisection to within 1e-9 * t_max. Interval slopes
    are measured from interior samples between consecutive kinks.
    """
    if resolution < 1000:
        raise ValueError("resolution must be at least 1000")
    d = np.asarray(d, dtype=float)
    if not np.any(d):
        raise ValueError("direction must be nonzero")

    def f(t: float) -> float:
        return value(o, p + t * d)

    ts = np.linspace(0.0, t_max, resolution + 1)
    vs = np.array([f(t) for t in ts])
    seg = np.diff(vs) / np.diff(ts)
    sscale = 1.0 + float(np.max(np.abs(seg)))
    change = np.abs(np.diff(seg)) > 1e-6 * sscale

    kinks = []
    for k in np.flatnonzero(change):
        # Slope changes somewhere in (ts[k], ts[k+2]); the left-interval
        # slope seg[k] is the reference for the bisection predicate.
        kinks.append(_bisect_kink(f, ts[k], ts[k + 1], ts[k + 2], seg[k], t_max))
    kinks = np.array(sorted(kinks))
    # Merge kinks closer than the localization tolerance.
    if kinks.size:
        keep = [0]
        for i in range(1, kinks.size):
            if kinks[i] - kinks[keep[-1]] > 4e-9 * t_max:
                keep.append(i)
        kinks = kinks[keep]

    bounds = np.concatenate([[0.0], kinks, [t_max]])
    slopes = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        a = lo + 0.25 * (hi - lo)
        b = lo + 0.75 * (hi - lo)
        slopes.append((f(b) - f(a)) / (b - a))
    return LineScanResult(kinks=kinks, slopes=np.array(slopes), t_max=t_max)


def _bisect_kink(f, left, mid, right, left_slope, t_max) -> float:
    """Bisect for the kink inside (left, right), given the slope left of it."""
    f_left = f(left)
    lo, hi = left, right
    # The predicate "segment [left, m] is still affine with slope left_slope"
    # places the kink right of m; otherwise it is left of m.
    while hi - lo > 1e-9 * t_max:
        m = 0.5 * (lo + hi)
        secant = (f(m) - f_left) / (m - left)
        if abs(secant - left_slope) <= 1e-9 * (1.0 + abs(left_slope)):
            lo = m
        else:
            hi = m
    return 0.5 * (lo + hi)


def fd_gradient(o: OracleInstance, p: np.ndarray, h: float) -> np.ndarray:
    """Central-difference loss gradient, valid strictly inside a region.

    Raises RegionBoundaryTooClose when any constraint value sits within
    10 * act_tol of zero at p.
    """
    p = np.asarray(p, dtype=float)
    vals = forward_values(o, p)
    flat = constraint_values_flat(o, vals)
    if float(np.min(np.abs(flat))) <= 10.0 * o.tol.act:
        raise RegionBoundaryTooClose(
            "a constraint surface passes too close to the probe point"
        )
    g = np.empty(o.dim)
    for j in range(o.dim):
        e = np.zeros(o.dim)
        e[j] = h
        g[j] = (value(o, p + e) - value(o, p - e)) / (2.0 * h)
    return g


def local_min_check(
    o: OracleInstance,
    p: np.ndarray,
    radius: float,
    directions: int = 200,
    seed: int = 0x10CA1,
) -> tuple[bool, float]:
    """Sample uniform unit directions; check value(p + radius u) >= value(p) - 1e-8.

    Returns (all directions pass, worst increment) where the worst increment
    is min_u value(p + radius u) - value(p); a negative number close to
    -radius * slope indicates a descent direction.
    """
    if directions < 100:
        raise ValueError("need at least 100 directions")
    rng = SplitMix64(seed)
    v0 = value(o, p)
    worst = np.inf
    ok = True
    for _ in range(directions):
        u = rng.unit_vector(o.dim)
        dv = value(o, p + radius * u) - v0
        worst = min(worst, dv)
        if dv < -1e-8:
            ok = False
    return ok, float(worst)


def two_pass_polish(o: OracleInstance, p: np.ndarray, located: np.ndarray, fact):
    """One Newton correction onto the active surfaces, decided on full
    forward passes at p and at the corrected point q: q is kept iff its
    largest active |value| is smaller. `located` holds the active surfaces'
    (state array, sample, unit) rows. Returns the kept point, its values'
    buffer and its loss."""

    def active_values(vals):
        blocks = o.layout.blocks(vals.flat)
        return np.array([blocks[a][i, k] for a, i, k in located.tolist()])

    vals = forward_values(o, p)
    act_vals = active_values(vals)
    worst = float(np.max(np.abs(act_vals)))
    q = p + solve(fact, -act_vals, transpose=True)
    vals_q = forward_values(o, q)
    worst_q = float(np.max(np.abs(active_values(vals_q))))
    if worst_q < worst:
        p, vals, worst = q, vals_q, worst_q
    if worst > o.tol.act:
        raise DegenerateVertex(
            f"active constraint values did not settle below tolerance ({worst:.3e})"
        )
    return p, vals.flat, vals.loss
