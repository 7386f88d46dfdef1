"""Vertex-walking minimizer for the piecewise-affine first-layer L1 loss.

The walk has two phases. Phase 1 starts inside a full-dimensional region
and accumulates active constraint surfaces one ratio test at a time,
descending without ever leaving the starting region, until D independent
surfaces pin down a vertex. Phase 2 pivots between adjacent vertices:
every active surface can be released to either side, each release defines
an edge direction, and the steepest strictly-descending edge is followed
to the first newly-hit surface. The walk terminates when every edge
direction has a non-negative one-sided loss derivative, i.e. at a vertex
that is an edge-local minimum.

Every release side of every vertex is first priced in one batch from the
inverse N^-T of its normal matrix, into one (D, 2) derivative table whose
columns hold the signs +1 and -1; no per-side object is built. The edge
direction of (pos, +-1) is +- column pos, normalized. On the side the
reference signature already has, the derivative is g . d. Across the
released surface only the released sample's own loss term changes, so one
batched kernel (oracle.release_corrections) adds that change for every
position: each position's row delta (its sample's gradient row with the
state flipped, minus its row in the region) applied along the new
direction. A release that bends k deeper active surfaces of the same
sample changes k normals on its flipped side; that side's direction is
column pos with a rank-k (Woodbury) correction from the same inverse and
those k bent normals; every such side has an edge (_bent_direction).

The pivot ranks the descending sides of the table once, in one order:
least derivative, then least leaving index, then sign +1 before -1
(np.lexsort), and takes the first side its probe confirms (candidate(),
the only place an EdgeCandidate is built). Surfaces above the first layer
are themselves only piecewise affine in p, and surfaces coincident at the
vertex are crossed at step zero, so the batch's entered region is
provisional: at a vertex with coincident surfaces a linearized guess sets
their states, and every side is settled into the same table before the
ranking. Only when a guess changes the entered region is the direction
solved again, against that region's normals (a few rounds at most, or the
side is reported degenerate); each side is settled once per vertex, so a
probed side's derivative is its table entry. The probe, at a point just
inside the edge, confirms the settled region, and its ratio test is the
pivot's. It reads the point's region from the edge's JVP, which its ratio
test needs anyway: when every active and coincident surface lies on the
entered region's side there, or within a margin far below the activity
tolerance of zero, a forward pass would resolve to that region, so none
runs; otherwise one does, and a probe that resolves to another region
rejects the side. Every ratio test, phase 1's and the probe's, is one
screened test (oracle._ratio_from_arrays with a RatioScreen: phase 1
builds one per step that judges surfaces by the starting region's states,
the pivot one per vertex that judges them by value): it looks for the
first crossing among the surfaces near zero first, widening the screen
until no surface outside it can beat or tie with the best step, so the
answer is the full scan's, bit for bit. A vertex scans its values once
(_VertexWork.__init__) for the largest |value|, the first round's
positions (oracle.screen_start) and, among them, the coincident surfaces,
so a pivot's test reads all N (H + n_out) values again only when its
first round cannot settle it.

A pivot carries what it leaves unchanged. VertexState holds its active
set once, as rows, the vertex's constraint values (from the polish), its
region (oracle.Region: the signature, masks and per-sample gradient rows)
and its Pricing: per position the row delta, the reference state, the
affected positions and the bent normals, which the Woodbury solve and
release_corrections apply to each new inverse. An entered region is the
vertex's with a few states set (Region.with_states, in one call per
side): it copies only the masks it changes, once each, records the
samples it touches, and builds its rows on first use, recomputing only
theirs; so does a re-solve's normal matrix (_VertexWork.normals) with its
columns. A pivot has one redo set: the positions of the samples the
entered region changed and of the leaving and entering surfaces' samples,
the only entries that can change. It recomputes the next vertex's normal
columns and, in one builder (_carried_pricing, on the entered region the
probe confirmed), its Pricing's deltas, ref, affected lists and bent
normals, the last from the mask rows Region.rerooted flips for the
deltas. Phase 1's vertex and each exchanged active set get a Pricing with
every position redone (_pricing). Both phases build a vertex one way, in
_new_vertex, whose inputs are all required, the Pricing included; its
polish (_polish) runs the pivot's only full forward pass. Phase 1 runs
D + 1: at the start, after each of its first D - 1 hits, and the polish's.

Inside the walk a surface is named by its (state array, sample, unit)
row, and its buffer position is computed from the row (o.layout.positions).
Its flat index, the public label and tie-break key, is read at positions
(o.layout.indices); a pivot decodes one, the entering surface's (locate).

The normal matrix is still refactorized from scratch at every pivot; at
the problem sizes this package targets, robustness is worth far more than
the saved cubic term.

At the reference sizes (widths (4,5,4,3,2,1), N = 500) a pivot's cost is
set by call dispatch more than by arithmetic: about 250 Python-level calls
per iteration of a capped seed-6 walk, which tests/test_call_budget.py
holds to a ceiling, and about 0.66 ms per pivot in the ref-walk benchmark
(artifacts and analysis included; one BLAS thread, 2-CPU x86-64 VM). So
the pivot calls LAPACK directly (linalg.factorize, linalg.solve_dense for
the Woodbury systems), takes 1-D norms as sqrt(x . x) (linalg.norm),
reduces with numpy's ufuncs (np.maximum.reduce for ndarray.max,
np.logical_or.reduce for ndarray.any, np.add.reduce for ndarray.sum),
which skip the Python wrappers around the same loops, and patches what
the vertex already knows (the Pricing's affected lists, the probe's
states from pricing.ref) instead of rebuilding it, every result bit for
bit the same. With validate=True every carried array, the Pricing
included (phase 1's too), is checked against a recomputation from
scratch, bit for bit, and every surface off the vertex against the side
its state gives it; so are the active values of the row pass against the
full pass's, and every side a pivot settled (_validate_sides).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import islice

import numpy as np

from . import oracle as orc
from .errors import (
    Degenerate,
    DegenerateStart,
    DegenerateVertex,
    DependentNormals,
    InvalidConfig,
    MonotonicityViolation,
    NumericalStall,
    ShapeMismatch,
    SingularMatrix,
    UnboundedEdge,
    ValidationFailure,
    check_int,
    check_positive,
)
from .linalg import (
    Factorization,
    factorize,
    near_singular,
    norm,
    nullspace_basis,
    project_nullspace,
    rank_extends,
    solve,
    solve_dense,
)
from .oracle import OracleInstance, Region, Signature
from .prng import SplitMix64

_RESTART_SEED = 0x7E57ED5EED
# Perturbed restarts after a Degenerate error before the error propagates.
_RESTARTS = 2
# Guess/solve rounds before an entered-region signature counts as unstable.
_STABILIZE_ROUNDS = 5
# A probe point sits this far inside an edge, times (1 + |p|), capped by
# half the edge's first crossing.
_PROBE = 1e-7
# An excluded surface within this many act of zero on the wrong side of the
# entered region still counts as on its side in the probe's JVP check.
_PROBE_MARGIN = 1e-3
# A pivot may raise the loss by round-off: MONOTONE_SLACK (1 + |loss|).
MONOTONE_SLACK = 1e-10


@dataclass(frozen=True)
class SolverLimits:
    """Iteration cap (at least 1), thresholds (finite, > 0) and validate (a bool) for one run."""

    max_iterations: int = 20_000
    desc_tol: float = 1e-9
    validate: bool = False

    def __post_init__(self):
        check_int("max_iterations", self.max_iterations, 1)
        check_positive("desc_tol", self.desc_tol)
        if not isinstance(self.validate, bool):
            raise InvalidConfig(f"validate must be a bool, got {self.validate!r}")

    def descent_threshold(self, loss: float) -> float:
        """A loss derivative below minus this, at this loss, descends."""
        return self.desc_tol * (1.0 + abs(loss))


@dataclass
class VertexState:
    """A vertex: point, the (state array, sample, unit) rows of its D
    active constraints (`located`, an int array (D, 3), the one record of
    the active set; `active` gives their flat indices), their normals
    (columns) in `region`, the reference region (a full-dimensional region
    adjacent to the vertex, with its signature, masks and gradient rows),
    every constraint value at the point (`flat`, by buffer position, so the
    active values are flat[o.layout.positions(located)]), the loss there and
    its Pricing."""

    point: np.ndarray
    located: np.ndarray
    normals: np.ndarray
    region: Region
    factorization: Factorization
    flat: np.ndarray
    loss: float
    pricing: Pricing = field(repr=False)

    @property
    def active(self) -> list[int]:
        """The flat indices of the active constraints (encode of located)."""
        return self.region.o.layout.encode(self.located).tolist()


@dataclass(frozen=True)
class Pricing:
    """What a vertex's derivative table needs of each active position
    besides the inverse N^-T; all of it depends only on the vertex's region
    and the rows `located` of its active surfaces.

    deltas[pos]: the row delta of active[pos]: its sample's gradient row
    with active[pos]'s state flipped, minus the sample's row in the region
    (the deltas of Region.rerooted).
    ref[pos]: the state the region gives active[pos].
    affected[pos]: the positions of the deeper active surfaces of the same
    sample (whose normals a release of active[pos] bends), for each
    position that has any, ascending.
    bent[pos]: those surfaces' normals (columns) with active[pos]'s state
    flipped, for each position in affected.
    """

    deltas: np.ndarray
    ref: np.ndarray
    affected: dict[int, list[int]]
    bent: dict[int, np.ndarray]


@dataclass
class EdgeCandidate:
    """One settled release side: release `leaving` (a flat constraint
    index) to side `sign` and move along `direction` into the region
    `entered` (which gives `leaving` the state `sign`), whose loss
    derivative along it is `derivative`. Sides are ranked in the
    derivative table of _VertexWork; this object is built only for a side
    that is probed. `crossing` holds the (step, flat index) of the first
    surface the edge hits, or None when it hits none.
    """

    leaving: int
    sign: int
    direction: np.ndarray
    entered: Region = field(repr=False)
    derivative: float
    crossing: tuple[float, int] | None = None


@dataclass(frozen=True)
class StepRecord:
    """One pivot; `leaving` and `entering` are flat constraint indices."""

    leaving: int
    entering: int
    step: float
    derivative: float
    loss: float


@dataclass(frozen=True)
class Trajectory:
    """Ordered iterates of one run; index 0 is the starting point."""

    points: np.ndarray
    losses: np.ndarray
    active_counts: np.ndarray
    step_lengths: np.ndarray
    phase1_len: int
    reason: str

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def final(self) -> np.ndarray:
        return self.points[-1]

    @property
    def phase2_losses(self) -> np.ndarray:
        return self.losses[self.phase1_len :]


def _build_trajectory(points, losses, counts, phase1_len, reason) -> Trajectory:
    pts = np.array(points)
    steps = np.zeros(len(points))
    if len(points) > 1:
        steps[1:] = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return Trajectory(
        points=pts,
        losses=np.array(losses),
        active_counts=np.array(counts, dtype=int),
        step_lengths=steps,
        phase1_len=phase1_len,
        reason=reason,
    )


# --- phase 1 -------------------------------------------------------------------


def descend_to_vertex(
    o: OracleInstance,
    p0: np.ndarray,
    limits: SolverLimits | None = None,
) -> tuple[VertexState, list[tuple[np.ndarray, float, int]]]:
    """Accumulate D active constraints from a generic start without leaving
    the starting region; returns the vertex and the (point, loss, active
    count) records of the prefix, starting with p0. A p0 with a NaN or
    infinite entry raises ShapeMismatch before any forward pass, and one on
    a surface DegenerateStart: minimize perturbs starts, this does not."""
    limits = limits or SolverLimits()
    p0 = np.asarray(p0, dtype=float)
    if not np.isfinite(p0).all():
        raise ShapeMismatch("the starting point has a non-finite entry")

    p = p0.copy()
    vals = orc.forward_values(o, p)
    sig = orc.signature_from_values(o, vals)
    if sig.has_zeros:
        raise DegenerateStart("the starting point lies on a surface")

    region = orc.make_region(o, sig)
    g = region.gradient
    # Crossings are judged against the starting region's states, so a
    # surface left at zero by a tied hit is hit at step 0 the moment a
    # direction would take it across, instead of being crossed unseen.
    states = orc.states_flat(sig)

    records = [(p.copy(), vals.loss, 0)]
    located = np.empty((o.dim, 3), dtype=np.intp)
    excluded = np.zeros(states.size, dtype=bool)
    normal_cols: list[np.ndarray] = []

    while True:
        flat = orc.constraint_values_flat(o, vals)
        # One screen per step, shared by the fallback directions. States are
        # +-1: the magnitude is |flat| on a surface's own side, else 0.
        screen = orc.ratio_screen(states, np.maximum(states * flat, 0.0), excluded, o.layout)
        tau = limits.descent_threshold(vals.loss)

        d = None
        crossing = None
        try:
            proj = project_nullspace(normal_cols, -g)
        except DependentNormals:
            # Hit normals are rank-extending by construction, so dependence
            # means the landscape itself is rank-deficient (e.g. a folded
            # predictor coordinate that vanishes on every sample leaves
            # some parameters entirely unconstrained).
            raise NumericalStall(
                "active normals collapsed; the instance looks rank-deficient or badly scaled"
            ) from None
        pnorm = norm(proj)
        if pnorm > tau:
            d = proj / pnorm
            dvals = orc.constraint_jvp_flat(o, region.masks, d)
            crossing, _ = orc._ratio_from_arrays(flat, dvals, screen)
            if crossing is None:
                raise UnboundedEdge("strictly descending ray crossed no surface in phase 1")
        else:
            # The loss is flat on the remaining null space; take any basis
            # direction that does not ascend and still hits a surface.
            basis = nullspace_basis(normal_cols, o.dim)
            options = sorted(
                (float(g @ (s * basis[:, j])), s, j)
                for j in range(basis.shape[1])
                for s in (1.0, -1.0)
            )
            for deriv, s, j in options:
                if deriv > tau:
                    break
                cand = s * basis[:, j]
                dvals = orc.constraint_jvp_flat(o, region.masks, cand)
                crossing, _ = orc._ratio_from_arrays(flat, dvals, screen)
                if crossing is not None:
                    d = cand
                    break
            if crossing is None:
                raise NumericalStall(
                    f"no progress direction with {len(normal_cols)} of {o.dim} constraints"
                )

        t, hit = crossing
        p = p + t * d
        nhit = orc.constraint_normal(o, region.masks, hit)
        if limits.validate and not rank_extends(normal_cols, nhit):
            raise DegenerateVertex("hit constraint normal did not extend the basis")
        hits = len(normal_cols)
        located[hits] = o.layout.locate(hit)
        excluded[o.layout.positions(located[hits : hits + 1])] = True
        normal_cols.append(nhit)
        if len(normal_cols) == o.dim:
            break
        vals = orc.forward_values(o, p)
        records.append((p.copy(), vals.loss, len(normal_cols)))

    normals = np.column_stack(normal_cols)
    pricing = _pricing(o, region, located)
    vertex = _new_vertex(o, p, located, normals, region, pricing, limits)
    records.append((vertex.point.copy(), vertex.loss, o.dim))
    return vertex, records


def _new_vertex(o, p, located, normals, region, pricing, limits):
    """The vertex of the surfaces at rows `located` (their normal matrix
    `normals`) near p, in `region`, with its Pricing: the matrix is
    factorized, p polished and, with limits.validate, the vertex checked.
    Both phases build every vertex here."""
    try:
        fact = factorize(normals)
    except SingularMatrix as e:
        raise DegenerateVertex(f"vertex normal matrix is singular: {e}") from None
    p, flat, loss = _polish(o, p, located, fact)
    vertex = VertexState(
        point=p,
        located=located,
        normals=normals,
        region=region,
        factorization=fact,
        flat=flat,
        loss=loss,
        pricing=pricing,
    )
    if limits.validate:
        _validate_vertex(o, vertex)
    return vertex


def _polish(o, p, located, fact):
    """One Newton correction pulling the point back onto the active surfaces.

    `located` holds the active surfaces' (state array, sample, unit) rows.
    The decision reads the active values alone, at p and at the corrected
    point q, from passes over the rows located[:, 1] (oracle.row_values),
    which give the full pass's bits: one row per active surface, so at
    least two, as a vertex needs the normals of n_0 + 1 >= 2 samples. q is
    kept when it is closer. Then one full forward pass runs, at the kept
    point. Returns the point with its constraint values (by buffer
    position) and its loss.
    """
    rows = orc.sample_rows(o, located[:, 1])
    at = o.layout.row_slots(located)
    act_vals = orc.row_values(o, rows, p).take(at)
    worst = float(np.maximum.reduce(np.abs(act_vals)))
    q = p + solve(fact, -act_vals, transpose=True)
    worst_q = float(np.maximum.reduce(np.abs(orc.row_values(o, rows, q).take(at))))
    if worst_q < worst:
        p, worst = q, worst_q
    if worst > o.tol.act:
        raise DegenerateVertex(
            f"active constraint values did not settle below tolerance ({worst:.3e})"
        )
    vals = orc.forward_values(o, p)
    return p, vals.flat, vals.loss


# --- phase 2 -------------------------------------------------------------------


# The release sign of each column of a derivative table.
_SIGNS = (1, -1)


def _of_samples(located: np.ndarray, samples) -> np.ndarray:
    """Mask of the rows of `located` whose sample is in `samples`."""
    return np.logical_or.reduce(located[:, 1, None] == np.array(samples, dtype=np.intp), axis=1)


def _affected(located: np.ndarray, among: list[int]) -> dict[int, list[int]]:
    """The Pricing.affected entries of the positions `among` (ascending) of
    the active surfaces at rows `located`, where `among` holds every
    position of each of its samples: releasing a hidden unit bends the
    normals of the active surfaces deeper in the same sample's network."""
    rows = list(zip(among, located[among].tolist()))
    return {
        pos: deeper
        for pos, (array, sample, _) in rows
        if (deeper := [q for q, (a, i, _) in rows if i == sample and a > array])
    }


def _pricing(o: OracleInstance, region: Region, located: np.ndarray) -> Pricing:
    """The Pricing of the active surfaces at rows `located` in `region`,
    built from scratch: _carried_pricing with every position redone."""
    d = len(located)
    blank = Pricing(np.empty((d, o.arch.widths[1])), np.empty(d, dtype=np.int8), {}, {})
    return _carried_pricing(o, blank, region, located, np.ones(d, dtype=bool))[1]


def _carried_pricing(
    o: OracleInstance, carried: Pricing, region: Region, located: np.ndarray, redo: np.ndarray
) -> tuple[Region, Pricing]:
    """region re-rooted and the Pricing in it of the active surfaces at rows
    `located`: the entries of the positions `redo` (a mask that holds every
    position of each of its samples) recomputed, the others `carried`'s.
    An entry depends only on its own sample's masks and active surfaces, so
    a kept one equals its recomputation bit for bit while they are
    unchanged. One Region.rerooted call gives the redo set's deltas and the
    flipped mask rows its bent normals are built from.
    """
    rows = located[redo]
    region, fresh, flipped = region.rerooted(rows)
    deltas = carried.deltas.copy()
    deltas[redo] = fresh
    ref = carried.ref.copy()
    ref[redo] = [region.signature.states[a][i, k] for a, i, k in rows.tolist()]
    redone = redo.nonzero()[0].tolist()
    affected = {q: qs for q, qs in carried.affected.items() if not redo[q]}
    bent = {q: carried.bent[q] for q in affected}
    mask_rows = dict(zip(redone, zip(*flipped)))
    for q, qs in _affected(located, redone).items():
        affected[q] = qs
        bent[q] = np.column_stack(
            [orc.sample_normal(o, mask_rows[q], *located[r].tolist()) for r in qs]
        )
    return region, Pricing(deltas, ref, affected, bent)


class _VertexWork:
    """Caches shared by all release sides at one vertex."""

    def __init__(self, o: OracleInstance, v: VertexState):
        self.o = o
        self.v = v
        self.pnorm = norm(v.point)
        # The vertex's one scan of its N (H + n_out) values: their largest
        # magnitude, and the positions within c of zero, c the screen's
        # start (oracle.screen_start) or act, the larger (act too when a
        # value is NaN): every side's first round. Inactive surfaces among
        # them within act of zero pass through the vertex (degeneracy):
        # they belong to the vertex fan, not to the ratio test, and the
        # crossing direction sets their entered-side states. They are kept
        # in ascending flat index (coincident_idx) with their buffer
        # positions (coincident_slots) and, if any, their rows
        # (coincident_at). The screen skips them and the active surfaces
        # (excluded), whose flat indices (leaving) break the ranking's ties.
        flat, act = v.flat, o.tol.act
        top = orc.largest_magnitude(flat)
        c = orc.screen_start(top, flat.size)
        if not c > act:
            c = act
        near = ((flat <= c) & (flat >= -c)).nonzero()[0]
        close = near[np.abs(flat.take(near)) <= act]
        excluded = np.zeros(flat.size, dtype=bool)
        excluded[close] = True
        active_slots = o.layout.positions(v.located)
        excluded[active_slots] = False
        coincident = close[excluded[close]]
        excluded[active_slots] = True
        idx = o.layout.indices(coincident)
        order = idx.argsort()
        self.leaving = o.layout.indices(active_slots)
        self.coincident_idx = idx[order].tolist()
        self.coincident_slots = coincident[order]
        self.screen = orc.RatioScreen(flat, excluded, o.layout, top, c, near)
        self.excluded_slots = np.concatenate([active_slots, self.coincident_slots])
        self.coincident_at = (
            o.layout.locate_many(self.coincident_idx) if self.coincident_idx else None
        )
        self.excluded_flat = flat[self.excluded_slots]
        # (direction, entered region, derivative) of each side _settle settled.
        self._settled: dict[tuple[int, int], tuple] = {}

    def normals(self, region: Region, located: np.ndarray, redo: np.ndarray) -> np.ndarray:
        """Normal matrix of the surfaces at rows `located` in `region`, one
        derived from the vertex's by with_states: the vertex's, with the
        columns `redo` recomputed (oracle.sample_normal), a mask that holds
        at least the positions of region.changed's samples and of any new
        surface. A normal depends on its own sample's states alone, so a
        kept column equals its recomputation bit for bit."""
        cols = self.v.normals.copy()
        for q, (array, i, k) in zip(redo.nonzero()[0].tolist(), located[redo].tolist()):
            cols[:, q] = orc.sample_normal(self.o, [m[i] for m in region.masks], array, i, k)
        return cols

    def _bent_direction(self, inv_t: np.ndarray, pos: int) -> np.ndarray:
        """Unnormalized direction that releases active[pos] to the side its
        reference state does not have, when that bends affected surfaces.

        Only the k affected normals change, so the new inverse is a rank-k
        update of N^-T: with B = inv_t[:, affected] and the new normals M
        (pricing.bent[pos]), d = c - B y where (M^T B) y = M^T c and
        c = inv_t[:, pos]. The flip moves each affected normal by a
        multiple of the released surface's own normal, column pos of N, and
        N^T B is the identity's columns `affected`, whose row pos is zero;
        so M^T B is the identity up to rounding, the entered normals are
        independent (det N' = det N det M^T B) and the side has an edge.
        Were M^T B ever singular, LinAlgError would end the walk.
        """
        pricing = self.v.pricing
        new = pricing.bent[pos]
        c = inv_t[:, pos]
        basis = inv_t[:, pricing.affected[pos]]
        y = solve_dense(new.T @ basis, new.T @ c)
        return c - basis @ y

    @cached_property
    def _batch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both release sides of every position, priced from one inverse:
        (table, units, flip_units).

        The direction of (pos, sign) is sign times column pos of units, the
        normalized N^-T, when sign is pricing.ref[pos] (the state the
        reference region gives active[pos]), and of flip_units on the other
        side, where a release that bends affected surfaces is rank-k
        corrected (_bent_direction). table[pos, 0] and table[pos, 1] are
        the entered-region loss derivatives of signs +1 and -1: g . d on
        the reference side; across the released surface only its own
        sample's loss term changes, which release_corrections supplies for
        all positions at once from the pricing's row deltas."""
        o, v = self.o, self.v
        region, pricing = v.region, v.pricing
        inv_t = solve(v.factorization, None, transpose=True)
        # np.linalg.norm(inv_t, axis=0), which computes just this.
        units = inv_t / np.sqrt(np.add.reduce(inv_t * inv_t, axis=0))
        flip_units = units.copy()
        for pos in pricing.affected:
            d = self._bent_direction(inv_t, pos)
            flip_units[:, pos] = d / norm(d)
        slopes = region.gradient @ units
        flipped = region.gradient @ flip_units + orc.release_corrections(
            o, pricing.deltas, v.located[:, 1], flip_units
        )
        on_ref = pricing.ref > 0
        table = np.empty((len(on_ref), 2))
        table[:, 0] = np.where(on_ref, slopes, flipped)
        table[:, 1] = -np.where(on_ref, flipped, slopes)
        return table, units, flip_units

    @cached_property
    def table(self) -> np.ndarray:
        """The (D, 2) derivative table of the release sides that
        vertex_step ranks: column 0 holds sign +1 and column 1 sign -1. It
        is the batch's table, with all 2D sides settled into it (_settle) at
        a vertex with coincident surfaces; a side that fails to settle there
        is NaN, and no other side is."""
        table = self._batch[0]
        if self.coincident_idx:
            table = table.copy()
            for pos, col in np.ndindex(table.shape):
                try:
                    table[pos, col] = self._settle(pos, _SIGNS[col])[2]
                except DegenerateVertex:
                    table[pos, col] = np.nan
        return table

    def _settled_direction(self, pos: int, sign: int, region: Region) -> np.ndarray:
        """Unit direction releasing active[pos] to `sign` against the normals
        of `region`."""
        located = self.v.located
        cols = self.normals(region, located, _of_samples(located, region.changed))
        rhs = np.zeros(self.o.dim)
        rhs[pos] = float(sign)
        try:
            d = np.linalg.solve(cols.T, rhs)
        except np.linalg.LinAlgError:
            raise DegenerateVertex("edge solve hit dependent normals") from None
        nd = norm(d)
        if not np.isfinite(nd) or nd == 0.0:
            raise DegenerateVertex("edge solve produced a degenerate direction")
        return d / nd

    def _coincident_guess(self, region: Region, d: np.ndarray) -> Region:
        """region with every coincident surface set to the side d moves into.

        Surfaces through the vertex are crossed at step zero, so the entered
        region lies on the side the direction moves into. This linearized
        guess only sets the settled region: a coincident surface can itself
        bend at the vertex, so the probe confirms the region or rejects the
        side.
        """
        dvals = orc.constraint_jvp_flat(self.o, region.masks, d)
        floor = orc.ROUNDOFF_FLOOR * orc.largest_magnitude(dvals)
        dv = dvals[self.coincident_slots]
        guess = np.where(dv > 0, 1, -1)
        now = orc.states_flat(region.signature)[self.coincident_slots]
        change = (np.abs(dv) > floor) & (guess != now)
        if not np.logical_or.reduce(change):
            return region
        return region.with_states(self.coincident_at[change].tolist(), guess[change].tolist())

    def _settle(self, pos: int, sign: int) -> tuple:
        """The batch side that releases active[pos] to `sign`, with the
        coincident surfaces' states set by the linearized guess until it
        holds: (direction, entered region, derivative). Only a guess
        that changes the entered region solves the direction again
        (_settled_direction); otherwise the side keeps the batch's
        direction and derivative. Each side is settled once per vertex."""
        key = (pos, sign)
        if key not in self._settled:
            self._settled[key] = self._settle_once(pos, sign)
        return self._settled[key]

    def _settle_once(self, pos: int, sign: int) -> tuple:
        table, units, flip_units = self._batch
        deriv = float(table[pos, _SIGNS.index(sign)])
        region = self.v.region
        if sign == self.v.pricing.ref[pos]:
            d = sign * units[:, pos]
        else:
            d = sign * flip_units[:, pos]
            region = region.with_states([self.v.located[pos].tolist()], [sign])
        for round_ in range(_STABILIZE_ROUNDS):
            if round_:
                d, deriv = self._settled_direction(pos, sign, region), None
            if self.coincident_idx:
                guessed = self._coincident_guess(region, d)
                if guessed is not region:
                    region = guessed
                    continue
            if deriv is None:
                deriv = float(region.gradient @ d)
            return d, region, deriv
        raise DegenerateVertex("entered-region signature failed to stabilize")

    def candidate(self, pos: int, sign: int) -> EdgeCandidate:
        """Settle and probe the batch side that releases active[pos] to `sign`.

        The side is settled once per vertex (_settle). Its entered
        region is then confirmed at a point just inside the edge, and
        the probe's ratio test gives the edge's first crossing. The probe
        point's region is read from the edge's JVP (_probe_agrees); only
        when that check fails does a forward pass resolve it. A probe that
        finds another region rejects the side with DegenerateVertex.
        """
        d, region, deriv = self._settle(pos, sign)
        o, v, sig = self.o, self.v, region.signature
        dvals = orc.constraint_jvp_flat(o, region.masks, d)
        crossing, floor = orc._ratio_from_arrays(v.flat, dvals, self.screen)
        eps = _PROBE * (1.0 + self.pnorm)
        if crossing is not None:
            t_first = crossing[0]
            if t_first <= 1e-12 * (1.0 + self.pnorm):
                raise DegenerateVertex("a surface crosses pathologically close to the vertex")
            eps = min(eps, 0.5 * t_first)
        if not self._probe_agrees(pos, sign, sig, dvals, eps, floor):
            vals = orc.forward_values(o, v.point + eps * d)
            if not orc.resolve_signature(o, vals, fallback=sig).equals(sig):
                raise DegenerateVertex("the probe found another entered region")
        return EdgeCandidate(int(self.leaving[pos]), sign, d, region, deriv, crossing)

    def _probe_agrees(
        self, pos: int, sign: int, sig: Signature, dvals: np.ndarray, eps: float, floor: float
    ) -> bool:
        """Whether a forward pass at the probe point, eps along the edge
        that releases active[pos] to `sign` and whose constraint JVP in
        region sig is dvals, would resolve to sig; floor is the ratio
        test's: orc.ROUNDOFF_FLOOR of the largest |dvals|.

        Along the edge every constraint value is affine, with slope dvals,
        for as long as no surface changes side. Every surface outside the
        excluded set (the active and the coincident ones) has, at the
        vertex, the sign of its state in sig: sig differs from the vertex's
        region only on excluded surfaces, and validate=True checks the
        vertex. Of those surfaces, the ones the ratio test sees moving
        toward zero first cross at t_first >= 2 eps, so at eps each keeps at
        least half its value; the ones up to its floor move by less than
        act/4 within eps, which is checked here. So none changes side
        before the probe point. Each excluded surface is required to lie on
        sig's side, or within _PROBE_MARGIN * act of zero, both at the
        vertex and at the probe point (flat + eps * dvals); layer by layer,
        being affine in between, it keeps that side along the whole
        segment. Then every hidden unit follows sig's masks there, the
        network is the masked one up to the margin, and a forward pass at
        the probe point reads flat + eps * dvals up to round-off. So
        resolve_signature returns sig: a value within the margin, far below
        act, reads as zero, and zero states fall back to sig. A failing
        check says only that the JVP cannot decide.

        sig's states of the excluded surfaces are the vertex region's
        (pricing.ref) on the active ones, but `sign` on the released one, and
        the settled guess on the coincident ones, read from sig: a side's
        region differs from the vertex's only there.
        """
        act = self.o.tol.act
        if eps * floor >= 0.25 * act:
            return False
        states = self.v.pricing.ref.copy()
        states[pos] = sign
        if self.coincident_idx:
            states = np.concatenate([states, orc.states_flat(sig)[self.coincident_slots]])
        at_vertex = self.excluded_flat
        at_probe = at_vertex + eps * dvals[self.excluded_slots]
        low = np.minimum(states * at_vertex, states * at_probe)
        return bool(np.logical_and.reduce(low >= -_PROBE_MARGIN * act))


def _descending(table: np.ndarray, leaving: np.ndarray, tau: float) -> list[tuple[int, int]]:
    """(pos, column) of every side of the derivative table whose derivative
    is below -tau (NaN sides never are), in the order the pivot tries them:
    least derivative first, ties broken by the smaller leaving index
    (leaving[pos], a flat index), then by sign +1 before -1."""
    pos, col = (table < -tau).nonzero()
    order = np.lexsort((col, leaving[pos], table[pos, col]))
    return list(zip(pos[order].tolist(), col[order].tolist()))


def vertex_step(
    o: OracleInstance,
    v: VertexState,
    limits: SolverLimits | None = None,
    work: _VertexWork | None = None,
) -> tuple[VertexState, StepRecord] | None:
    """One pivot: follow the steepest descending edge to the next vertex.

    Returns None when no edge's derivative lies below minus
    limits.descent_threshold, i.e. the vertex is an edge-local minimum, and
    raises DegenerateVertex when some edge descends but the probe rejects
    every descending side. A caller that keeps the vertex's _VertexWork
    passes it as `work`, so its derivative table can be reused.
    """
    limits = limits or SolverLimits()
    work = work or _VertexWork(o, v)
    tau = limits.descent_threshold(v.loss)

    # The descending sides are tried in the table's order, and the pivot
    # takes the first one its probe confirms.
    sides = _descending(work.table, work.leaving, tau)
    chosen = None
    for chosen_pos, col in sides:
        try:
            chosen = work.candidate(chosen_pos, _SIGNS[col])
        except DegenerateVertex:
            continue
        break
    if limits.validate:
        _validate_sides(o, work)
    if not sides:
        return None
    if chosen is None:
        raise DegenerateVertex("the probe rejected every descending side")

    if chosen.crossing is None:
        raise UnboundedEdge(
            "descending edge crossed no surface; the loss is bounded below, "
            "so this is a numerical fault"
        )
    t, hit = chosen.crossing
    entered = chosen.entered

    p_new = v.point + t * chosen.direction
    located_new = v.located.copy()
    row = o.layout.locate(hit)
    located_new[chosen_pos] = row
    # The redo set: the positions of the samples the entered region changed
    # and of the leaving and entering surfaces' samples, the only ones
    # whose normals and Pricing entries can change; all are recomputed.
    redo = _of_samples(located_new, (*entered.changed, v.located[chosen_pos, 1], row[1]))
    normals = work.normals(entered, located_new, redo)
    # The new vertex's region is the entered one, re-rooted: its rows are
    # its base and no sample counts as changed, so the rows of the vertex
    # it leaves are not kept alive.
    region, pricing = _carried_pricing(o, v.pricing, entered, located_new, redo)
    v_new = _new_vertex(o, p_new, located_new, normals, region, pricing, limits)
    if v_new.loss > v.loss + MONOTONE_SLACK * (1.0 + abs(v.loss)):
        raise MonotonicityViolation(
            f"loss rose from {v.loss!r} to {v_new.loss!r} in one pivot"
        )
    record = StepRecord(
        leaving=chosen.leaving,
        entering=hit,
        step=float(t),
        derivative=chosen.derivative,
        loss=v_new.loss,
    )
    return v_new, record


def _validate_vertex(o, v):
    """Check a vertex's active set and every array it carries against a
    recomputation from scratch; carried arrays must match bit for bit. A
    failed check raises ValidationFailure."""
    if len(v.located) != o.dim:
        raise ValidationFailure(f"active set has {len(v.located)} constraints, expected {o.dim}")
    if len(set(map(tuple, v.located.tolist()))) != o.dim:
        raise ValidationFailure("active set contains duplicate constraints")
    vals = orc.forward_values(o, v.point)
    flat = orc.constraint_values_flat(o, vals)
    at = o.layout.positions(v.located)
    worst = float(np.max(np.abs(flat[at])))
    if worst > o.tol.act:
        raise ValidationFailure(f"active values drifted to {worst:.3e}")
    # The polish decides on row passes, which must give the full pass's bits.
    rows = orc.sample_rows(o, v.located[:, 1])
    at_rows = orc.row_values(o, rows, v.point).take(o.layout.row_slots(v.located))
    if not np.array_equal(at_rows, v.flat[at]):
        raise ValidationFailure("the row pass's active values differ from the full pass's")
    if near_singular(v.factorization, v.normals):
        raise ValidationFailure("vertex normal matrix is near singular")
    # Every surface off the vertex has the sign of its state, which the
    # probe's JVP check (_VertexWork._probe_agrees) relies on.
    now = orc.signature_from_values(o, vals)
    for side, state in zip(now.states, v.region.signature.states):
        if np.any((side != 0) & (side != state)):
            raise ValidationFailure("a surface off the vertex lies outside its region")
    region = _rebuilt_region(o, v.region, "carried")
    fresh = {
        "constraint values": (flat, v.flat),
        "loss": (vals.loss, v.loss),
        "normal matrix": (
            np.column_stack([orc.constraint_normal(o, region.masks, idx) for idx in v.active]),
            v.normals,
        ),
    }
    carried, rebuilt = v.pricing, _pricing(o, region, v.located)
    if carried.affected != rebuilt.affected or carried.bent.keys() != rebuilt.bent.keys():
        raise ValidationFailure("carried affected positions differ from a recomputation")
    fresh["pricing deltas"] = (rebuilt.deltas, carried.deltas)
    fresh["pricing ref"] = (rebuilt.ref, carried.ref)
    for pos, bent in rebuilt.bent.items():
        fresh[f"bent normals of position {pos}"] = (bent, carried.bent[pos])
    for name, (want, got) in fresh.items():
        if not np.array_equal(want, got):
            raise ValidationFailure(f"carried {name} differ from a recomputation")


def _validate_sides(o, work):
    """Check every side settled at work's vertex (all the table ranks, at a
    vertex with coincident surfaces): its entered region against
    make_region of its signature (_rebuilt_region, once per region), and
    its derivative against that region's g . d, within 1e-9 (1 + |g|_1)."""
    rebuilt = {}
    for (pos, sign), (d, region, deriv) in work._settled.items():
        side = f"side ({pos}, {sign:+d})"
        if region not in rebuilt:
            g = _rebuilt_region(o, region, f"{side}'s entered").gradient
            rebuilt[region] = g, 1e-9 * (1.0 + float(np.abs(g).sum()))
        g, tol = rebuilt[region]
        want = float(g @ d)
        if not abs(deriv - want) <= tol:
            raise ValidationFailure(
                f"the derivative of {side}, {deriv!r}, differs from its rebuilt region's {want!r}"
            )


def _rebuilt_region(o, region, name):
    """make_region of region's signature, once its masks and rows are found
    equal to region's bit for bit (else ValidationFailure, after `name`)."""
    fresh = orc.make_region(o, region.signature)
    masks = fresh.masks
    if len(masks) != len(region.masks) or not all(map(np.array_equal, masks, region.masks)):
        raise ValidationFailure(f"{name} region masks differ from a recomputation")
    if not np.array_equal(fresh.rows, region.rows):
        raise ValidationFailure(f"{name} gradient rows differ from a recomputation")
    return fresh


# --- degenerate vertices ---------------------------------------------------

# A vertex is degenerate when surfaces beyond the D active ones pass through
# it (the structural example: all first-layer surfaces of unit k meet on the
# subspace where row k of the parameters vanishes). Edge checks over the
# active set alone are then incomplete: the true edge fan belongs to every
# D-subset of the coincident surfaces. When the walk stalls at such a
# vertex, minimality is verified by direction sampling, and on failure the
# walk tries, in one pass, the active sets that swap one coincident surface
# in for one active surface, and takes the first one with a descending edge.
# A coincident surface is never active, so no two of these sets are equal.
# An exchange does not move the point; the escape step along that edge is an
# ordinary probed pivot, whose step the probe keeps above 1e-12 (1 + |p|).
# An exchanged set whose pivot raises DegenerateVertex (say, the probe
# rejects every descending side) is passed over like one without a
# descending edge.


def _sampled_descent(o, p, radius, directions, rng) -> bool:
    v0 = orc.value(o, p)
    for _ in range(directions):
        u = rng.unit_vector(o.dim)
        if orc.value(o, p + radius * u) < v0 - 1e-8:
            return True
    return False


def _swapped_states(o, v, coincident):
    """v with each row of `coincident` in turn at each position, where the normals factorize."""
    for row in coincident.tolist():
        col = orc.sample_normal(o, [m[row[1]] for m in v.region.masks], *row)
        for pos in range(len(v.located)):
            located = v.located.copy()
            located[pos] = row
            cols = v.normals.copy()
            cols[:, pos] = col
            try:
                fact = factorize(cols)
            except SingularMatrix:
                continue
            yield replace(
                v,
                located=located,
                normals=cols,
                factorization=fact,
                pricing=_pricing(o, v.region, located),
            )


def _escape_if_degenerate(work, limits, rng):
    """Called when no active edge of work's vertex descends. Returns a step
    escaping the vertex through one of the first 64 exchanged active sets,
    or None when the vertex has no coincident surface (its table holds
    every side) or passes the sampled local-minimality check."""
    o, v = work.o, work.v
    if not work.coincident_idx:
        return None
    radius = 1e-4 * (1.0 + norm(v.point))
    if not _sampled_descent(o, v.point, radius, 200, rng):
        return None
    for state in islice(_swapped_states(o, v, work.coincident_at), 64):
        try:
            outcome = vertex_step(o, state, limits)
        except DegenerateVertex:
            continue
        if outcome is not None:
            return outcome
    raise DegenerateVertex(
        "sampled descent exists at a degenerate vertex but no exchanged "
        "active set produced a descending edge"
    )


# --- full run ------------------------------------------------------------------


def minimize(
    o: OracleInstance,
    p0: np.ndarray,
    limits: SolverLimits | None = None,
    rng: SplitMix64 | None = None,
) -> tuple[np.ndarray, Trajectory]:
    """Run phase 1 then pivot until convergence or the iteration cap.

    The one place a start is perturbed: on a Degenerate error, a start on
    a surface (DegenerateStart) included, the run restarts from
    _perturbed_start(o, p0, rng), up to _RESTARTS times; the last
    attempt's error propagates.
    """
    limits = limits or SolverLimits()
    rng = rng or SplitMix64(_RESTART_SEED)
    start = p0 = np.asarray(p0, dtype=float)
    for _ in range(_RESTARTS):
        try:
            return _minimize_once(o, start, limits, rng)
        except Degenerate:
            start = _perturbed_start(o, p0, rng)
    return _minimize_once(o, start, limits, rng)


def _perturbed_start(o: OracleInstance, p0: np.ndarray, rng: SplitMix64) -> np.ndarray:
    """p0 plus one uniform draw from rng on [-1, 1]^D, scaled by
    1e-6 (1 + |p0|)."""
    scale = 1e-6 * (1.0 + float(np.linalg.norm(p0)))
    return p0 + rng.uniform_block(o.dim, -1.0, 1.0) * scale


def _minimize_once(o, p0, limits, rng):
    vertex, records = descend_to_vertex(o, p0, limits)
    phase1_len = len(records) - 1
    points = [r[0] for r in records]
    losses = [r[1] for r in records]
    counts = [r[2] for r in records]

    reason = "converged"
    while True:
        if len(points) - 1 >= limits.max_iterations:
            reason = "max_iterations"
            break
        work = _VertexWork(o, vertex)
        outcome = vertex_step(o, vertex, limits, work)
        if outcome is None:
            outcome = _escape_if_degenerate(work, limits, rng)
            if outcome is None:
                break
        vertex, rec = outcome
        points.append(vertex.point.copy())
        losses.append(rec.loss)
        counts.append(len(vertex.located))

    traj = _build_trajectory(points, losses, counts, phase1_len, reason)
    return traj.final.copy(), traj
