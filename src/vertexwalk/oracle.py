"""Piecewise-affine view of the first-layer L1 loss.

With every layer above the first frozen, the L1 training loss as a function
of the first layer's parameters p = vec(W_1 | b_1) in R^D, D = n_1(n_0+1),
is piecewise affine. The kink surfaces come from two families, one per
training sample i:

  * neuron surfaces   z^{(l)}_{i,k}(p) = 0   (hidden pre-activation zero)
  * residual surfaces r_{i,j}(p) = 0         (target minus output zero)

Inside a region where no surface is crossed, every hidden unit has a fixed
on/off state and every residual a fixed sign, so the loss is affine. This
module evaluates the loss, identifies regions by their tri-state signature,
and produces the region-local affine data (loss gradient, constraint
normals, directional crossing times) that the vertex-walking solver needs.

The loss could equivalently be rewritten as one large ReLU network over p;
we keep it implicit instead so that each kink surface retains its identity
as a (sample, unit) or (sample, output) pair.

Point layout: p.reshape(n_1, n_0+1) puts row k of W_1 in columns 0..n_0-1
and b_1[k] in the last column.

Per-sample gradient rows (sample_gradient_rows) depend on their own
sample's masks alone, so a row computed in any batch equals, bit for bit,
the same row computed over all samples. The solver relies on it to keep
what a pivot leaves unchanged: a Region derived by with_state recomputes
only its changed samples' rows, and the price of a release splits into a
row delta (the sample's row with the surface's state flipped, minus its
row in the region), which holds while the sample's masks do, and its
application along a direction (release_corrections). Region.rerooted is
the one builder of row deltas: it computes a region's changed rows and the
deltas of the surfaces it is given in one sample_gradient_rows call.

The O(N H) passes (forward_values, constraint_jvp_flat and the flattening
into flat constraint order) avoid numpy operations on narrow (N, n_l)
operands that are broadcast or strided: numpy runs those as one short
inner loop per sample. So each fixed layer's bias is tiled once per
instance (OracleInstance.bias_rows) and added in place, and
ConstraintLayout.flatten copies each hidden array into its columns of the
flat buffer as one array of per-sample row records. Both give the bits of
the plain forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidTag, ShapeMismatch
from .network import Architecture, LayerParams, TrainingSet, relu

@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances: a constraint within `act` of zero is active."""

    act: float = 1e-8


@dataclass(frozen=True)
class ConstraintLayout:
    """Decodes a flat constraint index into (state array, sample, unit).

    The flat order: each sample's hidden units by (layer, unit), sample
    after sample, then the residuals by (sample, output). State array l-1
    is hidden layer l and array L holds the residuals; tag_index encodes,
    and flatten lays one per-sample array per state array out in it.
    """

    n_samples: int
    output_dim: int
    depth: int
    neuron_pos: tuple[tuple[int, int], ...]  # (array, unit) of each hidden unit

    def flatten(self, arrays: tuple[np.ndarray, ...] | list[np.ndarray]) -> np.ndarray:
        """One per-sample array per state array, all of one dtype, in the
        state arrays' order, laid out in flat constraint order (the hidden
        arrays side by side, then the residual block) and copied once into
        one buffer.

        Each hidden array goes into its columns of the (N, H) block in one
        copy of per-sample row records: a row of the block is one record of
        _row_dtype, and field l of it takes the raw bytes of row i of
        hidden array l. np.concatenate(axis=1) into the block instead runs
        one inner loop per sample over a few entries. An exact copy, so
        the bits are the same.
        """
        *hidden, last = arrays
        n = last.shape[0]
        h = len(self.neuron_pos)
        out = np.empty(n * h + last.size, dtype=last.dtype)
        row = self._row_dtype(last.dtype.itemsize)
        block = out[: n * h].view(row)
        for name, a in zip(row.names, hidden):
            block[name] = np.ascontiguousarray(a).view(row[name])[:, 0]
        out[n * h :] = last.ravel()
        return out

    def _row_dtype(self, itemsize: int) -> np.dtype:
        """A row of the (N, H) block, entries `itemsize` bytes wide, as a
        record with one raw-bytes field per hidden layer. Built once per
        item size: building it on every call costs more than the copy at
        N = 500."""
        row = self._row_dtypes.get(itemsize)
        if row is None:
            widths = np.bincount(self._neuron_rows[:, 0]).tolist()
            row = np.dtype([(f"l{l}", f"V{itemsize * w}") for l, w in enumerate(widths)])
            self._row_dtypes[itemsize] = row
        return row

    @cached_property
    def _row_dtypes(self) -> dict[int, np.dtype]:
        return {}

    def locate(self, idx: int) -> tuple[int, int, int]:
        h = len(self.neuron_pos)
        if idx < self.n_samples * h:
            sample, rest = divmod(idx, h)
            array, unit = self.neuron_pos[rest]
            return array, sample, unit
        sample, unit = divmod(idx - self.n_samples * h, self.output_dim)
        return self.depth, sample, unit

    def locate_many(self, idx) -> np.ndarray:
        """locate of every flat index in idx, as an int array (len(idx), 3)."""
        idx = np.asarray(idx, dtype=np.intp)
        cut = self.n_samples * len(self.neuron_pos)
        sample, rest = np.divmod(idx, len(self.neuron_pos))
        out = np.empty((idx.size, 3), dtype=np.intp)
        out[:, ::2] = self._neuron_rows[rest]
        out[:, 1] = sample
        res = idx >= cut
        if res.any():
            out[res, 0] = self.depth
            out[res, 1], out[res, 2] = np.divmod(idx[res] - cut, self.output_dim)
        return out

    @cached_property
    def _neuron_rows(self) -> np.ndarray:
        return np.array(self.neuron_pos, dtype=np.intp)


@dataclass(frozen=True)
class Signature:
    """Tri-state activation pattern: -1/0/+1 per hidden unit and residual.

    `states` holds one int8 array per state array of the layout, in
    `layout.locate`'s order: states[l-1] the (N, n_l) states of hidden
    layer l, states[L] the (N, n_out) residual signs. A signature with no
    zero entries identifies a full-dimensional region. Single states are
    read and replaced by flat constraint index.
    """

    states: tuple[np.ndarray, ...]
    layout: ConstraintLayout = field(repr=False, compare=False)

    @property
    def has_zeros(self) -> bool:
        return any(np.any(a == 0) for a in self.states)

    def state_of(self, idx: int) -> int:
        array, i, k = self.layout.locate(idx)
        return int(self.states[array][i, k])

    def with_state(self, idx: int, state: int) -> "Signature":
        """Copy with one entry replaced; unmodified arrays are shared."""
        array, i, k = self.layout.locate(idx)
        states = list(self.states)
        states[array] = states[array].copy()
        states[array][i, k] = state
        return Signature(tuple(states), self.layout)

    def equals(self, other: "Signature") -> bool:
        return len(self.states) == len(other.states) and all(
            map(np.array_equal, self.states, other.states)
        )


@dataclass(frozen=True)
class ConstraintValues:
    """All constraint values at one point, one array per state array in
    `ConstraintLayout.locate`'s order: the pre-activations of each hidden
    layer, then the residuals (targets minus outputs); and the loss."""

    arrays: tuple[np.ndarray, ...]
    loss: float


@dataclass(frozen=True)
class OracleInstance:
    """Immutable problem instance: architecture, frozen upper layers, data.

    Nothing point-dependent is cached; every query recomputes from p.
    x_aug is the inputs with a column of ones appended, and bias_rows[m]
    the bias of fixed layer m + 2 tiled to a C-contiguous (N, n_{m+2})
    array, so that forward_values adds it in place (see there).
    """

    arch: Architecture
    fixed: tuple[LayerParams, ...]
    data: TrainingSet
    tol: Tolerances = field(default_factory=Tolerances)
    x_aug: np.ndarray = field(init=False, repr=False)
    bias_rows: tuple[np.ndarray, ...] = field(init=False, repr=False)
    layout: ConstraintLayout = field(init=False, repr=False)

    def __post_init__(self):
        widths = self.arch.widths
        depth = self.arch.hidden_depth
        if len(self.fixed) != depth:
            raise ShapeMismatch(
                f"expected {depth} fixed layers (2..L+1), got {len(self.fixed)}"
            )
        prev = widths[1]
        for l, layer in enumerate(self.fixed, start=2):
            if layer.fan_in != prev or layer.fan_out != widths[l]:
                raise ShapeMismatch(f"fixed layer {l} has shape {layer.weight.shape}")
            prev = layer.fan_out
        if self.data.inputs.shape[1] != widths[0]:
            raise ShapeMismatch("data input dim does not match architecture")
        if self.data.targets.shape[1] != widths[-1]:
            raise ShapeMismatch("data target dim does not match architecture")
        n = self.data.size
        x_aug = np.empty((n, widths[0] + 1))
        x_aug[:, :-1] = self.data.inputs
        x_aug[:, -1] = 1.0
        object.__setattr__(self, "x_aug", x_aug)
        rows = tuple(np.tile(layer.bias, (n, 1)) for layer in self.fixed)
        object.__setattr__(self, "bias_rows", rows)
        pos = tuple((l, k) for l, w in enumerate(self.arch.hidden_widths) for k in range(w))
        layout = ConstraintLayout(n, self.arch.output_dim, depth, pos)
        object.__setattr__(self, "layout", layout)

    @property
    def dim(self) -> int:
        return self.arch.widths[1] * (self.arch.widths[0] + 1)

    @property
    def n_samples(self) -> int:
        return self.data.size

    @property
    def hidden_total(self) -> int:
        return sum(self.arch.hidden_widths)

    @property
    def n_constraints(self) -> int:
        return self.n_samples * (self.hidden_total + self.arch.output_dim)

    def layer_offset(self, layer: int) -> int:
        return sum(self.arch.hidden_widths[: layer - 1])


def make_oracle(
    arch: Architecture,
    fixed: tuple[LayerParams, ...] | list[LayerParams],
    data: TrainingSet,
    tol: Tolerances | None = None,
) -> OracleInstance:
    return OracleInstance(
        arch=arch, fixed=tuple(fixed), data=data, tol=tol or Tolerances()
    )


def _check_point(o: OracleInstance, p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (o.dim,):
        raise ShapeMismatch(f"point has shape {p.shape}, expected ({o.dim},)")
    return p


def forward_values(o: OracleInstance, p: np.ndarray) -> ConstraintValues:
    """Every constraint value at p from one batched forward pass.

    Each fixed layer's bias is added in place to the product, from the
    pre-tiled o.bias_rows: a bias broadcast across an (N, n_l) operand with
    n_l of 2 to 5 runs one inner loop per sample, several times slower than
    the contiguous add. Every entry gets the same two IEEE operations as
    (h @ W.T + b), and the targets minus that, so the bits are the same.
    The products keep their operands as they are: a contiguous copy of
    W.T is faster but can change the BLAS kernel, and with it the bits.
    """
    p = _check_point(o, p)
    pmat = p.reshape(o.arch.widths[1], o.arch.widths[0] + 1)
    z = o.x_aug @ pmat.T
    arrays = [z]
    h = relu(z)
    for layer, rows in zip(o.fixed[:-1], o.bias_rows):
        z = h @ layer.weight.T
        z += rows
        arrays.append(z)
        h = relu(z)
    r = h @ o.fixed[-1].weight.T
    r += o.bias_rows[-1]
    np.subtract(o.data.targets, r, out=r)
    arrays.append(r)
    return ConstraintValues(arrays=tuple(arrays), loss=float(np.sum(np.abs(r))))


def value(o: OracleInstance, p: np.ndarray) -> float:
    """Layer-wise L1 loss at p."""
    return forward_values(o, p).loss


def _states(arr: np.ndarray, act_tol: float) -> np.ndarray:
    s = np.sign(arr).astype(np.int8)
    s[np.abs(arr) <= act_tol] = 0
    return s


def signature_from_values(o: OracleInstance, vals: ConstraintValues) -> Signature:
    return Signature(tuple(_states(a, o.tol.act) for a in vals.arrays), o.layout)


def resolve_signature(
    o: OracleInstance, vals: ConstraintValues, fallback: Signature
) -> Signature:
    """Signature at a point with zero states taken from a fallback region.

    Used on points sitting on active surfaces: the fallback supplies a side
    for each surface the point lies on, yielding a full-dimensional region
    whose closure contains the point.
    """
    sig = signature_from_values(o, vals)
    states = tuple(np.where(s == 0, f, s) for s, f in zip(sig.states, fallback.states))
    return Signature(states, sig.layout)


# --- region-local affine data ------------------------------------------------

# Low-level helpers work on plain float masks so the solver can reuse them
# across many nearby queries. The masks come in the state arrays' order:
# masks[l-1] is (N, n_l) with 1.0 where a unit of hidden layer l is on, and
# masks[L] is (N, n_out) holding the residual signs.


def region_masks(sig: Signature) -> list[np.ndarray]:
    depth = sig.layout.depth
    return [
        a.astype(float) if array == depth else (a > 0).astype(float)
        for array, a in enumerate(sig.states)
    ]


def _backcumulate(o: OracleInstance, masks: list[np.ndarray]) -> np.ndarray:
    """Per-sample sensitivity of outputs to first-layer pre-activations.

    Returns B of shape (n, n_out, n_1), one entry per row of the masks, with
    B[i, j] = W*_{L+1}[j] D^L_i W*_L ... D^2_i W*_2, the row vector u_{i,j}.
    """
    n = masks[0].shape[0]
    b = np.broadcast_to(o.fixed[-1].weight, (n,) + o.fixed[-1].weight.shape)
    for l in range(len(o.fixed) - 1, 0, -1):
        b = (b * masks[l][:, None, :]) @ o.fixed[l - 1].weight
    return b


def sample_gradient_rows(o: OracleInstance, masks: list[np.ndarray]) -> np.ndarray:
    """Per-sample rows R of the region gradient, one per row of the masks.

    With sigma = masks[L], the residual signs, row r is the first-layer
    sensitivity sum_j (-sigma_rj) u_{r,j}, gated by the sample's
    first-layer mask, so that the gradient over all samples is
    gradient_from_rows(o, R). A row depends on its own sample's masks and
    signs only: rows computed for any subset of samples equal, bit for bit,
    the same rows computed over all of them.
    """
    b = _backcumulate(o, masks)
    w = -np.einsum("ij,ijk->ik", masks[-1], b)
    return w * masks[0]


def gradient_from_rows(o: OracleInstance, rows: np.ndarray) -> np.ndarray:
    """Region gradient from the (N, n_1) per-sample rows of every sample."""
    return (rows.T @ o.x_aug).ravel()


def region_gradient(o: OracleInstance, masks: list[np.ndarray]) -> np.ndarray:
    """Loss gradient on the region: sum_{i,j} (-sigma_ij) d f_ij / dp."""
    return gradient_from_rows(o, sample_gradient_rows(o, masks))


@dataclass(frozen=True, eq=False)
class Region:
    """A full-dimensional region: its signature, its masks (region_masks)
    and its per-sample gradient rows (sample_gradient_rows).

    A region derived by with_state from another keeps that region's mask
    arrays, except the ones it changes, and its rows as `base_rows`;
    `changed` lists, ascending, the samples whose states may differ from
    the ones base_rows were computed for. The rows are built on first use
    by rerooted, recomputing only those samples' rows, which equal the same
    rows computed over all samples bit for bit. Masks are never written in
    place.
    """

    o: OracleInstance = field(repr=False)
    signature: Signature
    masks: tuple[np.ndarray, ...] = field(repr=False)
    base_rows: np.ndarray = field(repr=False)
    changed: tuple[int, ...] = ()

    def with_state(self, idx: int, state: int) -> "Region":
        """The region with surface idx set to `state`; only the state array
        and mask that hold it are copied."""
        array, i, k = self.signature.layout.locate(idx)
        masks = list(self.masks)
        masks[array] = masks[array].copy()
        masks[array][i, k] = state if array == self.signature.layout.depth else state > 0
        changed = self.changed if i in self.changed else tuple(sorted((*self.changed, i)))
        sig = self.signature.with_state(idx, state)
        return Region(self.o, sig, tuple(masks), self.base_rows, changed)

    def rerooted(self, released) -> tuple["Region", np.ndarray]:
        """This region with its rows as base rows and no changed sample,
        and the row delta of each surface of `released` ((state array,
        sample, unit) rows) in it: row q is that sample's gradient row with
        the surface's state flipped, minus its row in the region. A delta
        depends only on its own sample's masks and row, so it stays valid
        while they do.

        One sample_gradient_rows call computes both the changed samples'
        rows and the released samples' flipped rows; a row does not depend
        on the others in the call, so both equal their separate builds bit
        for bit, the rows of make_region of the same signature among them.
        """
        released = np.asarray(released, dtype=np.intp).reshape(-1, 3)
        changed = list(self.changed)
        batch = [m[changed + released[:, 1].tolist()] for m in self.masks]
        _flip_rows(self.o, batch, released, len(changed))
        computed = sample_gradient_rows(self.o, batch)
        rows = self.base_rows
        if changed:
            rows = rows.copy()
            rows[changed] = computed[: len(changed)]
        region = Region(self.o, self.signature, self.masks, rows)
        return region, computed[len(changed) :] - rows[released[:, 1]]

    @cached_property
    def rows(self) -> np.ndarray:
        """base_rows with the changed samples' rows recomputed (rerooted)."""
        return self.rerooted(())[0].base_rows if self.changed else self.base_rows

    @cached_property
    def gradient(self) -> np.ndarray:
        return gradient_from_rows(self.o, self.rows)


def make_region(o: OracleInstance, sig: Signature) -> Region:
    """The region with signature sig, built from scratch."""
    masks = tuple(region_masks(sig))
    return Region(o, sig, masks, sample_gradient_rows(o, masks))


def _flip_rows(o: OracleInstance, rows: list[np.ndarray], released: np.ndarray, start: int):
    """Flip, in row start + q of the mask rows `rows` (one array per mask),
    the state of released[q], a (state array, sample, unit) row: a hidden
    unit's on/off, a residual's sign. A loop: a pivot flips about one."""
    depth = o.arch.hidden_depth
    for q, (array, _, unit) in enumerate(released.tolist(), start):
        a = rows[array]
        a[q, unit] = -a[q, unit] if array == depth else 1.0 - a[q, unit]


def release_corrections(
    o: OracleInstance, deltas: np.ndarray, samples: np.ndarray, dirs: np.ndarray
) -> np.ndarray:
    """Slope change of each released sample's own loss term when its state flips.

    deltas[q] is the row delta (Region.rerooted) of a surface of sample
    samples[q] and dirs[:, q] a direction. Entry q is that sample's loss
    derivative along dirs[:, q] with the state flipped, minus the same in
    the region: the delta applied to the direction's first-layer
    pre-activation change.
    """
    dmats = dirs.T.reshape(len(samples), o.arch.widths[1], o.arch.widths[0] + 1)
    dz = np.einsum("qkc,qc->qk", dmats, o.x_aug[samples])
    return np.sum(deltas * dz, axis=1)


def constraint_normal(
    o: OracleInstance, masks: list[np.ndarray], idx: int
) -> np.ndarray:
    """Region-local gradient of the constraint with flat index idx."""
    array, i, k = o.layout.locate(idx)
    return sample_normal(o, [m[i] for m in masks], array, i, k)


def sample_normal(
    o: OracleInstance, mask_rows: list[np.ndarray], array: int, sample: int, unit: int
) -> np.ndarray:
    """constraint_normal of the surface at (state array, sample, unit), from
    that sample's rows of the masks alone: mask_rows[l] = masks[l][sample]."""
    xrow = o.x_aug[sample]
    if array == 0:
        grad = np.zeros((o.arch.widths[1], xrow.shape[0]))
        grad[unit] = xrow
        return grad.ravel()
    # Hidden unit `unit` of layer array+1, or an output for a residual
    # (whose value is target minus output, hence the sign flip).
    v = o.fixed[array - 1].weight[unit]
    for m in range(array - 1, 0, -1):
        v = (v * mask_rows[m]) @ o.fixed[m - 1].weight
    grad = ((v * mask_rows[0])[:, None] * xrow[None, :]).ravel()
    return -grad if array == o.arch.hidden_depth else grad


def tag_index(o: OracleInstance, layer: int, sample: int, unit: int) -> int:
    """Flat index of hidden unit `unit` of layer 1..L, or of output `unit`'s
    residual with layer = L+1, for one sample. o.layout.locate inverts it,
    returning state array layer - 1."""
    depth = o.arch.hidden_depth
    in_range = 1 <= layer <= depth + 1 and 0 <= sample < o.n_samples
    if not (in_range and 0 <= unit < o.arch.widths[layer]):
        raise InvalidTag(f"no surface at layer {layer}, sample {sample}, unit {unit}")
    if layer <= depth:
        return sample * o.hidden_total + o.layer_offset(layer) + unit
    return o.n_samples * o.hidden_total + sample * o.arch.output_dim + unit


def constraint_values_flat(o: OracleInstance, vals: ConstraintValues) -> np.ndarray:
    """All constraint values in flat index order."""
    return o.layout.flatten(vals.arrays)


def states_flat(sig: Signature) -> np.ndarray:
    """Every state of sig in flat index order, as int8."""
    return sig.layout.flatten(sig.states)


def constraint_jvp_flat(
    o: OracleInstance, masks: list[np.ndarray], d: np.ndarray
) -> np.ndarray:
    """Directional derivatives of every constraint along d, region-locally."""
    dmat = d.reshape(o.arch.widths[1], o.arch.widths[0] + 1)
    dz = o.x_aug @ dmat.T
    pieces = [dz]
    dh = dz * masks[0]
    for l, layer in enumerate(o.fixed[:-1], start=2):
        dz = dh @ layer.weight.T
        pieces.append(dz)
        dh = dz * masks[l - 1]
    pieces.append(-(dh @ o.fixed[-1].weight.T))
    return o.layout.flatten(pieces)


@dataclass(frozen=True)
class RatioScreen:
    """What the ratio test needs of the constraint values at one point,
    computed once for every direction tested from it.

    side: the signs that decide whether a surface lies ahead (it does when
    side * dvals < 0): the values themselves, or the states of a region,
    which also put a surface at zero, or past it by round-off, ahead.
    magnitude: |flat| where side * flat > 0, else 0.
    excluded: the mask of the surfaces the test skips.
    """

    side: np.ndarray
    magnitude: np.ndarray
    excluded: np.ndarray

    @cached_property
    def top(self) -> float:
        """The largest magnitude."""
        return float(np.max(self.magnitude, initial=0.0))


# A directional derivative up to this fraction of the largest |dvals| is
# round-off from orthogonality-by-construction, not real movement.
ROUNDOFF_FLOOR = 1e-12


def crossing_candidates(dvals: np.ndarray, screen: RatioScreen) -> tuple[np.ndarray, float]:
    """Mask of constraints moving strictly toward zero along a direction,
    judged by screen.side and skipping screen.excluded, and the floor below
    which a directional derivative counts as zero: ROUNDOFF_FLOOR of the
    largest |dvals|.
    """
    mag = np.abs(dvals)
    floor = ROUNDOFF_FLOOR * float(np.max(mag))
    return (screen.side * dvals < 0.0) & (mag > floor) & ~screen.excluded, floor


# The screen first looks at the surfaces with magnitude up to this fraction
# of the largest, and widens by _SCREEN_GROWTH while they hold no candidate.
_SCREEN_START = 3e-3
_SCREEN_GROWTH = 8.0
# Relative margin of the screen's bound, far above its rounding error.
_SCREEN_MARGIN = 1e-9


def _ratio_from_arrays(
    flat: np.ndarray, dvals: np.ndarray, screen: RatioScreen
) -> tuple[tuple[float, int] | None, float]:
    """The first crossing (step, flat index it hits), or None when no
    surface lies ahead, and crossing_candidates' floor. Steps are clipped
    at 0, so a surface at or past zero by its side is hit at step 0; ties
    resolve to the smallest index.

    The test first looks only at the surfaces near zero; the answer is the
    full scan's, bit for bit. Every candidate with side * flat > 0 has
    magnitude |flat_j| and step t_j = |flat_j| / |dvals_j| >= |flat_j| / M,
    with M the largest |dvals|; every other candidate has magnitude 0 and
    step 0. Screened to the surfaces with magnitude <= c, the test finds
    the best step t_S among them. Once t_S M (1 + margin) <= c, every
    surface outside the screen has, rounded division being monotone, a step
    at least the rounded c / M, which the margin keeps strictly above t_S:
    none beats or ties with it. Otherwise c becomes that bound (one more
    round then settles it) or, when the screen holds no candidate, grows;
    once c reaches the largest magnitude, the full scan runs. The floor
    stays ROUNDOFF_FLOOR of M, over all entries.
    """
    slope = float(np.max(np.abs(dvals)))
    floor = ROUNDOFF_FLOOR * slope
    c = _SCREEN_START * screen.top
    while c < screen.top:
        near = np.flatnonzero(screen.magnitude <= c)
        dv = dvals[near]
        toward = np.flatnonzero(
            (screen.side[near] * dv < 0.0) & (np.abs(dv) > floor) & ~screen.excluded[near]
        )
        if not toward.size:
            c *= _SCREEN_GROWTH
            continue
        t = np.maximum(-flat[near[toward]] / dv[toward], 0.0)
        j = int(np.argmin(t))
        bound = float(t[j]) * slope * (1.0 + _SCREEN_MARGIN)
        if bound <= c:
            return (float(t[j]), int(near[toward[j]])), floor
        c = bound
    return _full_scan(flat, dvals, screen)


def _full_scan(
    flat: np.ndarray, dvals: np.ndarray, screen: RatioScreen
) -> tuple[tuple[float, int] | None, float]:
    """_ratio_from_arrays over every surface."""
    mask, floor = crossing_candidates(dvals, screen)
    toward = np.flatnonzero(mask)
    if not toward.size:
        return None, floor
    t = np.maximum(-flat[toward] / dvals[toward], 0.0)
    j = int(np.argmin(t))
    return (float(t[j]), int(toward[j])), floor
