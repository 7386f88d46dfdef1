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
what a pivot leaves unchanged: a Region derived by with_states recomputes
only its changed samples' rows, and the price of a release splits into a
row delta (the sample's row with the surface's state flipped, minus its
row in the region), which holds while the sample's masks do, and its
application along a direction (release_corrections; Region.rerooted).

Every constraint has three names (ConstraintLayout): its row (state
array, sample, unit) inside the walk; its buffer position, computed from
the row, in the one float64 buffer each O(N H) pass (forward_values,
constraint_jvp_flat) writes, each layer's product straight into its
block; and its flat index, the public label and the tie-break key.

The O(N H) passes avoid numpy operations on narrow (N, n_l) operands that
are broadcast or strided: numpy runs those as one short inner loop per
sample. So each fixed layer's bias is tiled once per instance
(OracleInstance.bias_rows) and added in place, and each product's right
operand is a C-ordered copy of W.T (OracleInstance.weights_t; the first
layer's gathered per pass through OracleInstance.first_t) wherever a probe
of the product's shape at the instance's N finds that the copy gives the
transposed view's bits (_product_plan), and the view elsewhere. Both
passes give the bits of the plain per-layer forms, which multiply by the
views.

A forward pass over a few samples' rows alone (row_values, inputs gathered
once by sample_rows) runs the same layer loop as forward_values (_forward)
on those rows and gives each entry the bits of the full pass; the
solver's polish decides on it. A layer whose rows the same probe finds
can move, and every layer of a pass over more rows than N, runs there
over all N row positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from typing import NamedTuple

import numpy as np

from .errors import InvalidTag, ShapeMismatch, check_positive, is_int
from .network import Architecture, LayerParams, TrainingSet

@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances: a constraint within `act` (finite, > 0) of zero is active."""

    act: float = 1e-8

    def __post_init__(self):
        check_positive("act tolerance", self.act)


@dataclass(frozen=True)
class ConstraintLayout:
    """A constraint's three names: row, flat index and buffer position.

    State array l-1 holds hidden layer l, (N, n_l), and array L the
    residuals, (N, n_out); a row is (state array, sample, unit). The flat
    index orders each sample's hidden units by (layer, unit), sample after
    sample, then the residuals by (sample, output); encode turns rows into
    it and locate decodes it. The buffer position orders the state arrays
    one after another, each (N, n_l) block sample-major: blocks views a
    buffer as those arrays, and positions computes a row's. The residuals
    have the same number in both orders; indices maps positions to flat
    indices. A pass over m rows lays out its buffer alike (row_slots).
    """

    n_samples: int
    output_dim: int
    depth: int
    neuron_pos: tuple[tuple[int, int], ...]  # (array, unit) of each hidden unit

    def blocks(self, buffer: np.ndarray) -> tuple[np.ndarray, ...]:
        """The state arrays of a buffer in layout order, as views: m rows
        each, m = buffer.size / (H + n_out), N for a full pass's buffer."""
        m = buffer.size // self._spans[-1][1]
        return tuple([buffer[m * a : m * b].reshape(m, b - a) for a, b in self._spans])

    def positions(self, located: np.ndarray) -> np.ndarray:
        """The buffer position in a full pass of each surface of located, an
        int array of (state array, sample, unit) rows: block start + sample
        x width + unit, row_slots' formula with N rows per block."""
        array, sample = located[:, 0], located[:, 1]
        start, width = self._span_arrays
        return self.n_samples * start.take(array) + sample * width.take(array) + located[:, 2]

    def row_slots(self, located: np.ndarray) -> np.ndarray:
        """The buffer position of each surface of located in a pass over the
        rows located[:, 1] (row_values): row q of its state array's block
        for located[q]."""
        array, m = located[:, 0], len(located)
        start, width = self._span_arrays
        return m * start.take(array) + np.arange(m) * width.take(array) + located[:, 2]

    def encode(self, located) -> np.ndarray:
        """The flat index of each (state array, sample, unit) row of located
        (n, 3); locate_many inverts it."""
        array, sample, unit = np.asarray(located, dtype=np.intp).T
        h, start = len(self.neuron_pos), self._span_arrays[0]
        residual = self.n_samples * h + sample * self.output_dim
        return np.where(array < self.depth, sample * h + start.take(array), residual) + unit

    def pass_arrays(self) -> tuple[list[np.ndarray], np.ndarray, tuple[np.ndarray, ...]]:
        """Fresh arrays for one O(N H) pass: views of one scratch array in
        each hidden state array's shape, all at its front, then a buffer of
        every constraint in layout order and its state arrays (blocks).

        A pass holds each layer's rectified (or masked) array in the scratch
        in turn, so it makes two allocations whatever the depth. Against a
        fresh array per layer, a capped N = 8000 walk ran about 8% faster
        per pivot.
        """
        n = self.n_samples
        scratch = np.empty(self._widest)
        fronts = [scratch[: n * (b - a)].reshape(n, b - a) for a, b in self._spans[:-1]]
        buffer = np.empty(n * self._spans[-1][1])
        return fronts, buffer, self.blocks(buffer)

    def indices(self, slots) -> np.ndarray:
        """The flat index of each buffer position in slots."""
        return self._indices[slots]

    @cached_property
    def _spans(self) -> list[tuple[int, int]]:
        """(start, stop) of each state array's columns among one sample's
        constraints in flat order: its hidden units by (layer, unit), then
        its residuals. Block l of a buffer of m rows spans m times these."""
        widths = [sum(a == l for a, _ in self.neuron_pos) for l in range(self.depth)]
        stops = np.cumsum([*widths, self.output_dim]).tolist()
        return list(zip([0, *stops[:-1]], stops))

    @cached_property
    def _span_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The starts and the widths of _spans, as arrays."""
        start, stop = np.array(self._spans).T
        return start, stop - start

    @cached_property
    def _widest(self) -> int:
        """The size of the largest hidden state array."""
        return self.n_samples * max(b - a for a, b in self._spans[:-1])

    @cached_property
    def _indices(self) -> np.ndarray:
        """The flat index at each buffer position: block by block, entry
        (sample, unit) of hidden array l sits at sample * H plus the
        layer's start among the sample's units (_spans) plus unit, and the
        residual block is the flat order's own tail. int32, half the memory
        of intp."""
        h = len(self.neuron_pos)
        sample = np.arange(self.n_samples)[:, None]
        blocks = [sample * h + np.arange(a, b) for a, b in self._spans[:-1]]
        blocks.append(self.n_samples * h + np.arange(self.n_samples * self.output_dim))
        return np.concatenate([b.ravel() for b in blocks]).astype(np.int32)

    def locate(self, idx: int) -> tuple[int, int, int]:
        """The (state array, sample, unit) row of flat index idx; InvalidTag,
        by comparisons alone (the pivot's path), when idx names no surface."""
        h = len(self.neuron_pos)
        cut = self.n_samples * h
        if 0 <= idx < cut:
            sample, rest = divmod(idx, h)
            array, unit = self.neuron_pos[rest]
            return array, sample, unit
        if not cut <= idx < cut + self.n_samples * self.output_dim:
            raise InvalidTag(f"no surface has flat index {idx}")
        sample, unit = divmod(idx - cut, self.output_dim)
        return self.depth, sample, unit

    def locate_many(self, idx) -> np.ndarray:
        """locate of every flat index in idx, as an int array (len(idx), 3);
        InvalidTag when one names no surface."""
        idx = np.asarray(idx, dtype=np.intp)
        cut = self.n_samples * len(self.neuron_pos)
        bad = idx[(idx < 0) | (idx >= cut + self.n_samples * self.output_dim)]
        if bad.size:
            raise InvalidTag(f"no surface has flat index {bad[0]}")
        sample, rest = np.divmod(idx, len(self.neuron_pos))
        out = np.empty((idx.size, 3), dtype=np.intp)
        out[:, ::2] = self._neuron_rows[rest]
        out[:, 1] = sample
        res = idx >= cut
        if np.logical_or.reduce(res):
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
    zero entries identifies a full-dimensional region.
    """

    states: tuple[np.ndarray, ...]
    layout: ConstraintLayout = field(repr=False, compare=False)

    @property
    def has_zeros(self) -> bool:
        return any(np.any(a == 0) for a in self.states)

    def equals(self, other: "Signature") -> bool:
        return len(self.states) == len(other.states) and all(
            map(np.array_equal, self.states, other.states)
        )


@dataclass(frozen=True)
class ConstraintValues:
    """All constraint values at one point and the loss. `flat` holds them
    by buffer position; `arrays` views it as one array per state array in
    `ConstraintLayout.locate`'s order: the pre-activations of each hidden
    layer, then the residuals (targets minus outputs)."""

    flat: np.ndarray
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

    @cached_property
    def plans(self) -> tuple[tuple[int, int, bool, bool], ...]:
        """(fan-in, width, contiguous, spread) of each layer's product, as
        _product_plan finds them at this instance's N: whether the passes
        multiply by a C-ordered copy of W.T, and whether a pass over some
        rows runs the product over all N row positions (sample_rows). The
        first layer's fan-in is n_0 + 1."""
        widths = self.arch.widths
        fan_in = (widths[0] + 1, *widths[1:-1])
        n = self.n_samples
        return tuple((k, w, *_product_plan(n, k, w)) for k, w in zip(fan_in, widths[1:]))

    @cached_property
    def weights_t(self) -> tuple[np.ndarray, ...]:
        """The right operand of each fixed layer's product in the passes:
        W.T as a C-ordered copy, built once, where plans takes it, else the
        transposed view."""
        return tuple(
            np.ascontiguousarray(layer.weight.T) if contiguous else layer.weight.T
            for layer, (_, _, contiguous, _) in zip(self.fixed, self.plans[1:])
        )

    @cached_property
    def first_t(self) -> np.ndarray | None:
        """The (n_0 + 1, n_1) int array of positions of p that gathers the
        first layer's right operand p.reshape(n_1, n_0 + 1).T as a
        C-ordered array, p[first_t], where plans takes the copy; None
        where the passes keep the transposed view."""
        if not self.plans[0][2]:
            return None
        n_1, k = self.arch.widths[1], self.arch.widths[0] + 1
        return np.arange(self.dim).reshape(n_1, k).T.copy()

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


# The probe of a product's operands compares the copy's bits with the
# view's over at least this many entries, in 4 to 64 draws of the weight: at
# one or two rows, a copy that runs another kernel can give the view's bits
# on most draws.
_PROBE_ENTRIES = 4096


@cache
def _product_plan(n: int, k: int, w: int) -> tuple[bool, bool]:
    """How the passes run the product of a layer of fan-in k and width w
    over n rows, (contiguous, spread), measured once per (n, k, w) on seeded
    data: whether they multiply by a C-ordered copy of W.T (W a C-ordered
    (w, k) array) or by the view W.T, and whether a pass over some rows
    must run it over all n row positions because a row can get other bits,
    by the operand taken, over some rows than over all n (row_values).

    The copy is taken where its product over n rows gives the view's bits
    (_copy_keeps_bits); rows are then judged with the operand taken
    (_rows_move). The copy is the faster operand: at n = 8000 and the
    reference widths, a forward pass took 141 us against 235 us with the
    views. But it can make BLAS take another kernel, whose bits differ. On
    OpenBLAS 0.3.31 (x86-64, one thread) the copy gives the view's bits at
    every fan-in up to 15 from n = 2 on. From fan-in 16 on it differs at
    some widths at every n tried (about half of the widths up to 40 at n =
    30 and 500, two or three of them at n = 8000): the second layer of
    (4,20,4,3,2,1) and a first layer of n_0 + 1 >= 16 keep the view. At
    n = 1 it differs at most shapes.

    With the view, OpenBLAS moves rows from k = 8 on at w = 1, where numpy
    runs a matrix-vector product that computes rows in groups and the rows
    left over another way, and from k = 32 on at w >= 2 (at n >= 500; at n
    = 12 and 30, for some w only), where the matrix-matrix product runs
    another way over some row counts: at n = 500, k = 40 and w = 4, each
    of 60 random row lists of 2 to 200 rows differed. Over the shapes it
    passes (k up to 64, w up to 40, n from 12 to 2000), 45,080 random row
    lists gave the full product's bits at one and at two threads. With the
    copy, rows moved at none of the fan-ins up to 15 tried (widths 2 to
    40, n from 30 to 8000); at n = 8000 they move from fan-in 16 on at
    widths 9-12, 17-20, 25-28 and 33-36, where up to fan-in 31 the view's
    rows stay.
    """
    rng = np.random.default_rng((n, k, w))
    a = rng.uniform(-1.0, 1.0, (n, k))
    weight_t = rng.uniform(-1.0, 1.0, (w, k)).T
    contiguous = _copy_keeps_bits(rng, a, weight_t)
    if contiguous:
        weight_t = np.ascontiguousarray(weight_t)
    return contiguous, _rows_move(rng, a, weight_t)


def _copy_keeps_bits(rng, a: np.ndarray, weight_t: np.ndarray) -> bool:
    """Whether a @ C-ordered copy of weight_t gives a @ weight_t's bits for
    weight_t and fresh draws of it, _PROBE_ENTRIES entries at least."""
    (n, k), w = a.shape, weight_t.shape[1]
    for _ in range(min(64, max(4, -(-_PROBE_ENTRIES // (n * w))))):
        view = np.matmul(a, weight_t, out=np.empty((n, w)))
        copy = np.matmul(a, np.ascontiguousarray(weight_t), out=np.empty((n, w)))
        if not np.array_equal(view.view(np.uint64), copy.view(np.uint64)):
            return False
        weight_t = rng.uniform(-1.0, 1.0, (w, k)).T
    return True


def _rows_move(rng, a: np.ndarray, weight_t: np.ndarray) -> bool:
    """Whether a product over some rows of a by weight_t gives a row other
    bits than the product over all n rows: tried on three row lists
    (repeats allowed) of each count from 2 to 12, then of 16 and its
    doublings up to the first at or above n."""
    n, w = len(a), weight_t.shape[1]
    whole = np.matmul(a, weight_t, out=np.empty((n, w))).view(np.uint64)
    counts = [*range(2, 13), 16]
    while counts[-1] < n:
        counts.append(2 * counts[-1])
    for m in counts:
        for _ in range(3):
            rows = rng.integers(0, n, m)
            part = np.matmul(a.take(rows, axis=0), weight_t, out=np.empty((m, w)))
            if not np.array_equal(part.view(np.uint64), whole.take(rows, axis=0)):
                return True
    return False


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
    """Every constraint value at p from one batched forward pass, written
    layer by layer into one buffer in layout order (_forward).

    Each fixed layer's bias is added in place to the product from the
    pre-tiled o.bias_rows: a bias broadcast across an (N, n_l) operand with
    n_l of 2 to 5 runs one inner loop per sample, several times slower than
    the contiguous add. Every entry gets the same two IEEE operations as
    (h @ W.T + b), and the targets minus that.
    """
    p = _check_point(o, p)
    rectified, flat, arrays = o.layout.pass_arrays()
    products = (np.matmul,) * len(arrays)
    _forward(o, p, o.x_aug, o.data.targets, o.bias_rows, products, arrays, rectified)
    return ConstraintValues(flat, arrays, float(np.add.reduce(np.abs(arrays[-1]), axis=None)))


class SampleRows(NamedTuple):
    """What forward passes over some samples' rows alone (row_values) need,
    gathered once: their rows of x_aug and of the targets, one row per
    entry of the sample list (repeats allowed), each fixed layer's bias,
    the product of each layer (see row_values), and the buffer the
    passes write, in layout order with m rows per block, with its state
    arrays (ConstraintLayout.blocks)."""

    x_aug: np.ndarray
    targets: np.ndarray
    biases: list[np.ndarray]
    products: list
    flat: np.ndarray
    arrays: tuple[np.ndarray, ...]


def sample_rows(o: OracleInstance, samples: np.ndarray) -> SampleRows:
    """SampleRows of the samples listed; an instance of at least two
    samples and a list of at least two are needed (see row_values). Layer
    l's product runs over all N row positions (_spread_product) where
    o.plans[l] spreads it or the list is longer than N."""
    m, n = len(samples), o.n_samples
    if m < 2 or n < 2:
        raise ShapeMismatch(
            f"a row pass needs at least 2 rows of at least 2 samples, got {m} of {n}"
        )
    products = [np.matmul] * (len(o.fixed) + 1)
    for l, (k, w, _, spread) in enumerate(o.plans):
        if spread or m > n:
            products[l] = partial(_spread_product, samples, np.zeros((n, k)), np.empty((n, w)))
    flat = np.empty(m * (o.hidden_total + o.arch.output_dim))
    return SampleRows(
        o.x_aug.take(samples, axis=0), o.data.targets.take(samples, axis=0),
        [layer.bias for layer in o.fixed], products, flat, o.layout.blocks(flat),
    )


def row_values(o: OracleInstance, rows: SampleRows, p: np.ndarray) -> np.ndarray:
    """Every constraint value of the rows at p, a float array of
    m (H + n_out) entries: forward_values over those rows alone, written
    into rows.flat (so the next pass over the same rows overwrites it),
    whose state arrays hold m rows each, row q for sample q of the list
    (ConstraintLayout.row_slots).

    Each entry has the full pass's bits. numpy runs a product of a single
    row or column as a matrix-vector product, which can give a row other
    bits than a product over more rows, so sample_rows takes at least two
    rows of at least two samples. A product of more rows and columns runs
    as a matrix-matrix product (BLAS gemm), which computes a row the same
    way whatever the row count only up to some fan-in. So every layer
    whose product, by the right operand the passes take, can move a row's
    bits (o.plans; _product_plan says where) runs over the full pass's N
    row positions (_spread_product). A pass over more rows than N runs
    every layer so, at no more cost: from fan-in 32 on, a product over more
    rows than N can give rows other bits even where one over fewer does not
    (at N = 30, fan-in 32 and width 24, 60 rows did). Each bias is added by
    broadcast, the same IEEE add as the full pass's tiled rows; each
    rectified array is a fresh one, at a few rows cheaper than views of a
    scratch. With validate=True the solver checks the active values of
    every vertex.
    """
    rectified = [None] * len(o.fixed)
    _forward(o, p, rows.x_aug, rows.targets, rows.biases, rows.products, rows.arrays, rectified)
    return rows.flat


def _spread_product(samples, spread, full, h, weight_t, out):
    """out = h @ weight_t for the rows of `samples`: the (N, w) product
    `full` over spread, an (N, k) array of zeros that gets row q of h at
    row samples[q], taken at rows `samples`. Every row sits where the full
    pass has it, in a product of the full pass's shape. Every pass over the
    same samples writes the same rows of spread."""
    spread[samples] = h
    np.matmul(spread, weight_t, out=full).take(samples, axis=0, out=out)


def _forward(o, p, x_aug, targets, biases, products, arrays, rectified) -> None:
    """The layer loop of a forward pass over the rows of x_aug with their
    targets, into the state arrays `arrays`: products[l] computes layer
    l + 1's product, biases[m] is added to fixed layer m + 2's, and each
    rectified array goes into its entry of `rectified`, or a fresh array
    where that is None.

    Each product goes straight into its array (np.matmul with out=), the
    same BLAS call as h @ W.T, so the bits are the same. Its right operand
    is the instance's: a C-ordered copy of W.T where that gives the bits of
    the transposed view, else the view (OracleInstance.plans); the first
    layer's copy is gathered from p by index (first_t).
    """
    if o.first_t is None:
        first = p.reshape(o.arch.widths[1], o.arch.widths[0] + 1).T
    else:
        first = p[o.first_t]
    products[0](x_aug, first, out=arrays[0])
    h = np.maximum(arrays[0], 0.0, out=rectified[0])
    layers = zip(o.weights_t[:-1], biases, products[1:], arrays[1:], rectified[1:])
    for weight_t, bias, product, z, out in layers:
        product(h, weight_t, out=z)
        z += bias
        h = np.maximum(z, 0.0, out=out)
    r = arrays[-1]
    products[-1](h, o.weights_t[-1], out=r)
    r += biases[-1]
    np.subtract(targets, r, out=r)


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
    B[i, j] = W*_{L+1}[j] D^L_i W*_L ... D^2_i W*_2, the row vector u_{i,j};
    with one hidden layer, B is W*_2 as a (1, n_out, n_1) array, which
    broadcasts over the rows. The first masked product broadcasts
    W*_{L+1} over the rows itself, into the array a pre-broadcast operand
    gives, value for value and stride for stride.
    """
    b = o.fixed[-1].weight[None]
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

    A region derived by with_states from another keeps that region's mask
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

    def with_states(self, located, states) -> "Region":
        """The region with the surfaces at the (state array, sample, unit)
        rows `located` (distinct) set to `states`: each state array and
        mask that holds one of them is copied once, and their samples are
        merged into changed once. A plain loop, as a pivot sets about one
        state, and a vertex where whole first-layer rows meet a few hundred."""
        depth = self.signature.layout.depth
        sig, masks = list(self.signature.states), list(self.masks)
        copied = set()
        for (array, i, k), state in zip(located, states):
            if array not in copied:
                copied.add(array)
                sig[array] = sig[array].copy()
                masks[array] = masks[array].copy()
            sig[array][i, k] = state
            masks[array][i, k] = state if array == depth else state > 0
        changed = tuple(sorted({*self.changed, *(i for _, i, _ in located)}))
        signature = Signature(tuple(sig), self.signature.layout)
        return Region(self.o, signature, tuple(masks), self.base_rows, changed)

    def rerooted(self, released) -> tuple["Region", np.ndarray, list[np.ndarray]]:
        """This region with its rows as base rows and no changed sample,
        the row delta of each surface of `released` ((state array, sample,
        unit) rows) in it, and the flipped mask rows: row q of the deltas is
        that sample's gradient row with the surface's state flipped, minus
        its row in the region, and row q of flipped[l] its row of masks[l]
        with the state flipped. A delta depends only on its own sample's
        masks and row, so it stays valid while they do.

        One sample_gradient_rows call computes both the changed samples'
        rows and the released samples' flipped rows; a row does not depend
        on the others in the call, so both equal their separate builds bit
        for bit, the rows of make_region of the same signature among them.
        """
        released = np.asarray(released, dtype=np.intp).reshape(-1, 3)
        changed = list(self.changed)
        n = len(changed)
        samples = np.array(changed + released[:, 1].tolist(), dtype=np.intp)
        batch = [m.take(samples, axis=0) for m in self.masks]
        _flip_rows(self.o, batch, released, n)
        computed = sample_gradient_rows(self.o, batch)
        rows = self.base_rows
        if changed:
            rows = rows.copy()
            rows[changed] = computed[:n]
        region = Region(self.o, self.signature, self.masks, rows)
        flipped = [m[n:] for m in batch]
        return region, computed[n:] - rows.take(released[:, 1], axis=0), flipped

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
    dz = np.einsum("qkc,qc->qk", dmats, o.x_aug.take(samples, axis=0))
    return np.add.reduce(deltas * dz, axis=1)


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
    residual with layer = L+1, for one sample: the encode of the row
    (layer - 1, sample, unit), for integers that name a surface."""
    ints = all(map(is_int, (layer, sample, unit)))
    in_range = ints and 1 <= layer <= o.arch.hidden_depth + 1 and 0 <= sample < o.n_samples
    if not (in_range and 0 <= unit < o.arch.widths[layer]):
        raise InvalidTag(f"no surface at layer {layer!r}, sample {sample!r}, unit {unit!r}")
    return int(o.layout.encode([(layer - 1, sample, unit)])[0])


def constraint_values_flat(o: OracleInstance, vals: ConstraintValues) -> np.ndarray:
    """All constraint values by buffer position: the pass's own buffer."""
    return vals.flat


def states_flat(sig: Signature) -> np.ndarray:
    """Every state of sig by buffer position, as int8."""
    return np.concatenate([s.ravel() for s in sig.states])


def constraint_jvp_flat(
    o: OracleInstance, masks: list[np.ndarray], d: np.ndarray
) -> np.ndarray:
    """Directional derivatives of every constraint along d, region-locally,
    by buffer position; each layer's product is written straight into its
    block, by the right operand forward_values takes (_forward), and each
    masked array into the scratch."""
    if o.first_t is None:
        first = d.reshape(o.arch.widths[1], o.arch.widths[0] + 1).T
    else:
        first = d[o.first_t]
    masked, flat, blocks = o.layout.pass_arrays()
    np.matmul(o.x_aug, first, out=blocks[0])
    for weight_t, mask, dz, dh, out in zip(o.weights_t, masks, blocks, masked, blocks[1:]):
        np.matmul(np.multiply(dz, mask, out=dh), weight_t, out=out)
    np.negative(blocks[-1], out=blocks[-1])
    return flat


@dataclass(frozen=True)
class RatioScreen:
    """What the ratio test needs of the constraint values at one point,
    computed once for every direction tested from it; every array is by
    buffer position. A surface's magnitude is |flat| where side * flat > 0,
    else 0 (see _ratio_from_arrays).

    side: the signs that decide whether a surface lies ahead (it does when
    side * dvals < 0): the values themselves, or the states of a region,
    which also put a surface at zero, or past it by round-off, ahead.
    excluded: the mask of the surfaces the test skips.
    layout: names the positions by flat index.
    top: the largest magnitude, which every test reads (NaN when a value
    is NaN).
    start, near: the bound c of every test's first round, at least
    screen_start(top, size), and the positions whose magnitude is at most
    c, ascending.
    """

    side: np.ndarray
    excluded: np.ndarray
    layout: ConstraintLayout = field(repr=False)
    top: float
    start: float
    near: np.ndarray


def ratio_screen(
    side: np.ndarray, magnitude: np.ndarray, excluded: np.ndarray, layout: ConstraintLayout
) -> RatioScreen:
    """The RatioScreen of the given magnitudes (|flat| where side * flat >
    0, else 0), its first round at screen_start."""
    top = float(np.maximum.reduce(magnitude, initial=0.0))
    start = screen_start(top, magnitude.size)
    return RatioScreen(side, excluded, layout, top, start, (magnitude <= start).nonzero()[0])


# A directional derivative up to this fraction of the largest |dvals| is
# round-off from orthogonality-by-construction, not real movement.
ROUNDOFF_FLOOR = 1e-12


def largest_magnitude(a: np.ndarray) -> float:
    """np.max(np.abs(a)), NaN and -0.0 included, without an |a| array."""
    return float(np.maximum(np.maximum.reduce(a), -np.minimum.reduce(a)))


def crossing_candidates(dvals: np.ndarray, screen: RatioScreen) -> tuple[np.ndarray, float]:
    """Mask of constraints moving strictly toward zero along a direction,
    judged by screen.side and skipping screen.excluded, and the floor below
    which a directional derivative counts as zero: ROUNDOFF_FLOOR of the
    largest |dvals|.
    """
    floor = ROUNDOFF_FLOOR * largest_magnitude(dvals)
    return (screen.side * dvals < 0.0) & (np.abs(dvals) > floor) & ~screen.excluded, floor


# The screen first looks at about this many surfaces: those with magnitude
# up to _SCREEN_COUNT / size of the largest (screen_start). It widens by
# _SCREEN_GROWTH while they hold no candidate.
_SCREEN_COUNT = 64
_SCREEN_GROWTH = 8.0
# Relative margin of the screen's bound, far above its rounding error.
_SCREEN_MARGIN = 1e-9


def _within(flat: np.ndarray, c: float) -> np.ndarray:
    """The positions with |flat| <= c, ascending: a round past the first of
    _ratio_from_arrays holds them."""
    return (np.abs(flat) <= c).nonzero()[0]


def screen_start(top: float, size: int) -> float:
    """The first bound c of a screen over `size` surfaces whose largest
    magnitude is top: _SCREEN_COUNT / size of top, so that a first round
    holds about _SCREEN_COUNT surfaces where the magnitudes spread evenly.
    At or above top when size <= _SCREEN_COUNT, so the test scans fully."""
    return _SCREEN_COUNT / size * top


def _ratio_from_arrays(
    flat: np.ndarray, dvals: np.ndarray, screen: RatioScreen
) -> tuple[tuple[float, int] | None, float]:
    """The first crossing (step, flat index it hits), or None when no
    surface lies ahead, and crossing_candidates' floor; flat and dvals are
    by buffer position. Steps are clipped at 0, so a surface at or past
    zero by its side is hit at step 0; ties resolve to the smallest flat
    index (_earliest), whatever the buffer order.

    The test first looks only at the surfaces near zero; the answer is the
    full scan's, bit for bit. Every candidate with side * flat > 0 has
    magnitude |flat_j| and step t_j = |flat_j| / |dvals_j| >= |flat_j| / M,
    with M the largest |dvals|; every other candidate has magnitude 0 and
    step 0. Screened to surfaces that include every one with magnitude
    <= c, the test finds the best step t_S among them. Once
    t_S M (1 + margin) <= c, every surface outside the screen has, rounded
    division being monotone, a step at least the rounded c / M, which the
    margin keeps strictly above t_S: none beats or ties with it. That holds
    for any c > 0, so the first round takes the screen's own: c =
    screen.start, at least _SCREEN_COUNT / size · top (screen_start), and
    its positions screen.near, which hold every surface of magnitude 0.
    Otherwise c becomes that bound (one more round then settles it) or,
    when the screen holds no candidate, grows. A later round holds the
    surfaces with |flat| <= c (_within), which include every one of
    magnitude in (0, c]; a surface of magnitude 0 it may leave out was in
    the first round, where, had it been a candidate, its step 0 would have
    settled the test. Once c reaches the largest magnitude, or when it
    underflowed to 0 (every magnitude subnormal), the full scan runs. The
    floor stays ROUNDOFF_FLOOR of M, over all entries.
    """
    slope = largest_magnitude(dvals)
    floor = ROUNDOFF_FLOOR * slope
    c, near = screen.start, screen.near
    while 0.0 < c < screen.top:
        if near is None:
            near = _within(flat, c)
        dv = dvals[near]
        toward = (
            (screen.side[near] * dv < 0.0) & (np.abs(dv) > floor) & ~screen.excluded[near]
        ).nonzero()[0]
        if not toward.size:
            c, near = c * _SCREEN_GROWTH, None
            continue
        near = near[toward]
        crossing = _earliest(np.maximum(-flat[near] / dv[toward], 0.0), near, screen.layout)
        bound = crossing[0] * slope * (1.0 + _SCREEN_MARGIN)
        if bound <= c:
            return crossing, floor
        c, near = bound, None
    return _full_scan(flat, dvals, screen)


def _full_scan(
    flat: np.ndarray, dvals: np.ndarray, screen: RatioScreen
) -> tuple[tuple[float, int] | None, float]:
    """_ratio_from_arrays over every surface."""
    mask, floor = crossing_candidates(dvals, screen)
    toward = mask.nonzero()[0]
    if not toward.size:
        return None, floor
    return _earliest(np.maximum(-flat[toward] / dvals[toward], 0.0), toward, screen.layout), floor


def _earliest(t: np.ndarray, slots: np.ndarray, layout: ConstraintLayout) -> tuple[float, int]:
    """The least step of t, steps of the buffer positions slots, and the
    smallest flat index among the positions that take it: np.argmin's
    answer, a NaN step first, as if the steps were in flat order."""
    step = float(t[t.argmin()])
    tied = np.isnan(t) if step != step else t == step
    return step, int(np.minimum.reduce(layout.indices(slots[tied])))
