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
inverse N^-T of its normal matrix: the edge direction of (pos, +-1) is +-
column pos, normalized. On the side the reference signature already has,
the derivative is g . d. Across the released surface only the released
sample's own loss term changes, so one batched kernel
(oracle.release_corrections) adds that change for every position. A
release that bends k deeper active surfaces of the same sample changes k
normals on its flipped side; that side's direction is column pos with a
rank-k (Woodbury) correction from the same inverse.

candidate() only settles a batch side. Surfaces above the first layer are
themselves only piecewise affine in p, and surfaces coincident at the
vertex are crossed at step zero, so the batch's entered region is
provisional: at a vertex with coincident surfaces a linearized guess sets
their states, and the chosen edge is confirmed by probing a point just
inside it, whose ratio test is the pivot's. Only when a guess or the probe
changes the entered region is the direction solved again, against normals
recomputed for that region (a few rounds at most, or the side is reported
degenerate).

A pivot carries what it leaves unchanged. VertexState holds the vertex's
constraint values (from the polish) and the per-sample gradient rows of
its region; entered regions and the next vertex recompute only the rows of
samples whose states differ, and the next normal matrix recomputes only
the entering column and the columns of samples whose states differ. The
normal matrix is still refactorized from scratch at every pivot; at the
problem sizes this package targets, robustness is worth far more than the
saved cubic term. With validate=True every carried array is checked
against a recomputation from scratch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import oracle as orc
from .errors import (
    Degenerate,
    DegenerateStart,
    DegenerateVertex,
    DependentNormals,
    MonotonicityViolation,
    NoCrossing,
    NumericalStall,
    SingularMatrix,
    UnboundedEdge,
)
from .linalg import Factorization, factorize, nullspace_basis, project_nullspace, rank_extends, solve
from .oracle import OracleInstance, Signature
from .prng import SplitMix64

_RESTART_SEED = 0x7E57ED5EED
# Perturbed restarts after a Degenerate error before the error propagates.
_RESTARTS = 2
# Solve/probe rounds before an entered-region signature counts as unstable.
_STABILIZE_ROUNDS = 5


@dataclass(frozen=True)
class SolverLimits:
    """Iteration cap and numerical thresholds for one solver run."""

    max_iterations: int = 20_000
    desc_tol: float = 1e-9
    validate: bool = False


@dataclass
class VertexState:
    """A vertex: point, the flat indices of its D active constraints, their
    normals (columns), the reference signature of a full-dimensional region
    adjacent to it, every constraint value at the point (flat order), the
    loss there, and the per-sample gradient rows of the reference region
    (oracle.sample_gradient_rows)."""

    point: np.ndarray
    active: list[int]
    normals: np.ndarray
    signature: Signature
    factorization: Factorization
    flat: np.ndarray
    loss: float
    rows: np.ndarray


@dataclass
class EdgeCandidate:
    """One pivot option: release `leaving` (a flat constraint index) to side
    `sign` and move along `direction`, whose entered-region loss derivative
    is `derivative`.

    The entered region is `region` with the state of `leaving` set to
    `sign`; it is built when first read, since most sides are only ranked.
    A probed side carries in `crossing` the (step, flat index) of the first
    surface its edge hits, or None when it hits none.
    """

    leaving: int
    sign: int
    direction: np.ndarray
    region: Signature = field(repr=False)
    derivative: float
    crossing: tuple[float, int] | None = None

    @cached_property
    def entered(self) -> Signature:
        if self.region.state_of(self.leaving) == self.sign:
            return self.region
        return self.region.with_state(self.leaving, self.sign)


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
    rng: SplitMix64 | None = None,
) -> tuple[VertexState, list[tuple[np.ndarray, float, int]]]:
    """Accumulate D active constraints from a generic start without leaving
    the starting region; returns the vertex and the (point, loss, active
    count) records of the prefix, starting with the (possibly perturbed)
    initial point."""
    limits = limits or SolverLimits()
    rng = rng or SplitMix64(_RESTART_SEED)
    p0 = np.asarray(p0, dtype=float)

    p = p0.copy()
    vals = orc.forward_values(o, p)
    sig = orc.signature_from_values(o, vals)
    tries = 0
    while sig.has_zeros:
        if tries >= 8:
            raise DegenerateStart("could not perturb onto a full-dimensional region")
        scale = 1e-6 * (1.0 + float(np.linalg.norm(p0)))
        p = p0 + rng.uniform_block(o.dim, -1.0, 1.0) * scale
        vals = orc.forward_values(o, p)
        sig = orc.signature_from_values(o, vals)
        tries += 1

    masks = orc.region_masks(sig)
    rows = orc.sample_gradient_rows(o, masks, orc.region_sigma(sig))
    g = orc.gradient_from_rows(o, rows)

    records = [(p.copy(), vals.loss, 0)]
    active: list[int] = []
    normal_cols: list[np.ndarray] = []

    while len(active) < o.dim:
        flat = orc.constraint_values_flat(o, vals)
        tau = limits.desc_tol * (1.0 + abs(vals.loss))

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
                "active normals collapsed; the instance looks rank-deficient"
            ) from None
        pnorm = float(np.linalg.norm(proj))
        if pnorm > tau:
            d = proj / pnorm
            dvals = orc.constraint_jvp_flat(o, masks, d)
            try:
                crossing = orc._ratio_from_arrays(flat, dvals, active)
            except NoCrossing:
                raise UnboundedEdge(
                    "strictly descending ray crossed no surface in phase 1"
                ) from None
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
                dvals = orc.constraint_jvp_flat(o, masks, cand)
                try:
                    crossing = orc._ratio_from_arrays(flat, dvals, active)
                    d = cand
                    break
                except NoCrossing:
                    continue
            if crossing is None:
                raise NumericalStall(
                    f"no progress direction with {len(active)} of {o.dim} constraints"
                )

        t, hit = crossing
        p = p + t * d
        nhit = orc.constraint_normal(o, masks, hit)
        if limits.validate and not rank_extends(normal_cols, nhit):
            raise DegenerateVertex("hit constraint normal did not extend the basis")
        active.append(hit)
        normal_cols.append(nhit)
        vals = orc.forward_values(o, p)
        records.append((p.copy(), vals.loss, len(active)))

    nmat = np.column_stack(normal_cols)
    try:
        fact = factorize(nmat)
    except SingularMatrix as e:
        raise DegenerateVertex(f"vertex normal matrix is singular: {e}") from None
    p, flat, loss = _polish(o, p, active, fact)
    records[-1] = (p.copy(), loss, len(active))
    vertex = VertexState(
        point=p,
        active=active,
        normals=nmat,
        signature=sig,
        factorization=fact,
        flat=flat,
        loss=loss,
        rows=rows,
    )
    return vertex, records


def _polish(o, p, active, fact):
    """One Newton correction pulling the point back onto the active surfaces.

    Returns the point with its flat constraint values and its loss.
    """
    vals = orc.forward_values(o, p)
    flat = orc.constraint_values_flat(o, vals)
    act_vals = flat[active]
    worst = float(np.max(np.abs(act_vals)))
    delta = solve(fact, -act_vals, transpose=True)
    q = p + delta
    vals_q = orc.forward_values(o, q)
    flat_q = orc.constraint_values_flat(o, vals_q)
    worst_q = float(np.max(np.abs(flat_q[active])))
    if worst_q < worst:
        p, vals, flat, worst = q, vals_q, flat_q, worst_q
    if worst > o.tol.act:
        raise DegenerateVertex(
            f"active constraint values did not settle below tolerance ({worst:.3e})"
        )
    return p, flat, vals.loss


# --- phase 2 -------------------------------------------------------------------


class _VertexWork:
    """Caches shared by all edge candidates at one vertex."""

    def __init__(self, o: OracleInstance, v: VertexState):
        self.o = o
        self.v = v
        self.flat = v.flat
        self.loss = v.loss
        self.masks = orc.region_masks(v.signature)
        self.sigma = orc.region_sigma(v.signature)
        self.g = orc.gradient_from_rows(o, v.rows)
        self.pnorm = float(np.linalg.norm(v.point))
        # (state array, sample, unit) of each active constraint.
        self.located = [o.layout.locate(a) for a in v.active]
        # Releasing a hidden unit bends the normals of the active surfaces
        # deeper in the same sample's network; affected[pos] lists them.
        by_sample: dict[int, list[tuple[int, int]]] = {}
        for q, (array, i, _) in enumerate(self.located):
            by_sample.setdefault(i, []).append((q, array))
        self.affected = [
            [q for q, array_q in by_sample[i] if array_q > array]
            for array, i, _ in self.located
        ]
        # Inactive surfaces passing through the vertex itself (degeneracy):
        # they belong to the vertex fan, not to the ratio test, and their
        # entered-side states are set by the crossing direction.
        near = np.flatnonzero(np.abs(self.flat) <= o.tol.act)
        active_set = set(v.active)
        self.coincident_idx = [int(i) for i in near if int(i) not in active_set]
        self.excluded_idx = v.active + self.coincident_idx
        self._edges: dict[tuple[int, int], EdgeCandidate] | None = None
        self._last_rows: tuple[Signature, np.ndarray] | None = None

    def entered_rows(self, sig: Signature) -> np.ndarray:
        """Per-sample gradient rows of the region with signature sig: the
        vertex's rows with those of the samples whose states differ
        recomputed. The last result is kept for the pivot that follows."""
        if self._last_rows is not None and self._last_rows[0] is sig:
            return self._last_rows[1]
        rows = self.v.rows
        changed = sig.differing_samples(self.v.signature)
        if changed.size:
            rows = rows.copy()
            rows[changed] = orc.sample_gradient_rows(
                self.o,
                [(a[changed] > 0).astype(float) for a in sig.neurons],
                sig.residuals[changed].astype(float),
            )
        self._last_rows = (sig, rows)
        return rows

    def _bent_direction(self, inv_t: np.ndarray, pos: int) -> np.ndarray | None:
        """Unnormalized direction that releases active[pos] to the side its
        reference state does not have, when that bends affected surfaces.

        Only the k affected normals change, so the new inverse is a rank-k
        update of N^-T: with B = inv_t[:, affected] and the new normals M,
        d = c - B y where (M^T B) y = M^T c and c = inv_t[:, pos]. The flip
        moves each affected normal by a multiple of the released surface's
        own normal, so M^T B is the identity up to rounding at a vertex with
        nonsingular normals. None when M^T B is exactly singular: then the
        entered normals are dependent (det N' = det N det M^T B), there is
        no edge, and candidate() rejects the side for the same reason.
        """
        array, i, k = self.located[pos]
        affected = self.affected[pos]
        masks = list(self.masks)
        masks[array] = masks[array].copy()
        masks[array][i, k] = 1.0 - masks[array][i, k]
        new = np.column_stack(
            [orc.constraint_normal(self.o, masks, self.v.active[q]) for q in affected]
        )
        c = inv_t[:, pos]
        basis = inv_t[:, affected]
        try:
            y = np.linalg.solve(new.T @ basis, new.T @ c)
        except np.linalg.LinAlgError:
            return None
        return c - basis @ y

    @cached_property
    def _batch(self) -> dict[tuple[int, int], EdgeCandidate]:
        """Both release sides of every position, priced from one inverse:
        the direction of (pos, sign) is sign times column pos of N^-T,
        rank-k corrected on a flipped side that bends affected surfaces, and
        normalized. On the reference side the derivative is g . d; across
        the released surface only its own sample's loss term changes, which
        release_corrections supplies for all positions at once. A flipped
        side whose entered normals collapse has no edge and is left out."""
        o, v = self.o, self.v
        inv_t = solve(v.factorization, None, transpose=True)
        units = inv_t / np.linalg.norm(inv_t, axis=0)
        flip_units = units.copy()
        collapsed = set()
        for pos, affected in enumerate(self.affected):
            if affected:
                d = self._bent_direction(inv_t, pos)
                if d is None:
                    collapsed.add(pos)
                else:
                    flip_units[:, pos] = d / np.linalg.norm(d)
        slopes = (self.g @ units).tolist()
        flipped = (
            self.g @ flip_units
            + orc.release_corrections(o, self.masks, self.sigma, self.located, flip_units)
        ).tolist()
        # Directions are views of these, one array per side of the release.
        dirs = {1: (units, flip_units), -1: (-units, -flip_units)}
        states = v.signature.neurons + (v.signature.residuals,)
        out = {}
        for pos, (a, (array, i, k)) in enumerate(zip(v.active, self.located)):
            ref = int(states[array][i, k])
            for sign in (1, -1):
                if sign == ref:
                    c = EdgeCandidate(
                        a, sign, dirs[sign][0][:, pos], v.signature, sign * slopes[pos]
                    )
                elif pos in collapsed:
                    continue
                else:
                    c = EdgeCandidate(
                        a, sign, dirs[sign][1][:, pos], v.signature, sign * flipped[pos]
                    )
                out[(pos, sign)] = c
        return out

    def edges(self) -> dict[tuple[int, int], EdgeCandidate]:
        """Every release side priced without probing, keyed by (pos, sign):
        the batch, each side settled by candidate() at a vertex with
        coincident surfaces. A side whose entered-region normals collapse
        has no transversal edge and is left out. The result is computed once
        per vertex; callers copy it before changing it.
        """
        if self._edges is None and not self.coincident_idx:
            self._edges = self._batch
        elif self._edges is None:
            self._edges = {}
            for key in self._batch:
                try:
                    self._edges[key] = self.candidate(*key, probe=False)
                except DegenerateVertex:
                    continue
        return self._edges

    def _settled_direction(self, pos: int, sign: int, sig: Signature) -> np.ndarray:
        """Unit direction releasing active[pos] to `sign` against the normals
        of the region with signature sig, all recomputed."""
        masks = orc.region_masks(sig)
        cols = np.column_stack([orc.constraint_normal(self.o, masks, a) for a in self.v.active])
        rhs = np.zeros(self.o.dim)
        rhs[pos] = float(sign)
        try:
            d = np.linalg.solve(cols.T, rhs)
        except np.linalg.LinAlgError:
            raise DegenerateVertex("edge solve hit dependent normals") from None
        nd = float(np.linalg.norm(d))
        if not np.isfinite(nd) or nd == 0.0:
            raise DegenerateVertex("edge solve produced a degenerate direction")
        return d / nd

    def _coincident_guess(self, sig: Signature, d: np.ndarray) -> Signature:
        """sig with every coincident surface set to the side d moves into.

        Surfaces through the vertex are crossed at step zero, so the entered
        region lies on the side the direction moves into. This linearized
        guess only seeds the settling: a coincident surface can itself bend
        at the vertex, so once a probe has measured the actual sides it
        stays authoritative.
        """
        dvals = orc.constraint_jvp_flat(self.o, orc.region_masks(sig), d)
        floor = 1e-12 * float(np.max(np.abs(dvals)))
        for idx in self.coincident_idx:
            dv = float(dvals[idx])
            if abs(dv) > floor:
                state = 1 if dv > 0 else -1
                if sig.state_of(idx) != state:
                    sig = sig.with_state(idx, state)
        return sig

    def candidate(self, pos: int, sign: int, probe: bool) -> EdgeCandidate:
        """Settle the batch side that releases active[pos] to `sign`.

        At a vertex with coincident surfaces their states are first set by
        the linearized guess; with probe=True the entered signature is then
        verified at a point just inside the edge, and the probe's ratio test
        gives the edge's first crossing. Only a guess or probe that changes
        the entered region solves the direction again (_settled_direction),
        until the region is self-consistent; otherwise the side keeps the
        batch's direction and derivative.
        """
        o, v = self.o, self.v
        try:
            side = self._batch[(pos, sign)]
        except KeyError:
            raise DegenerateVertex("edge solve hit dependent normals") from None
        d, sig, deriv = side.direction, side.entered, side.derivative
        guess = bool(self.coincident_idx)
        for round_ in range(_STABILIZE_ROUNDS):
            if round_:
                d, deriv = self._settled_direction(pos, sign, sig), None
            if guess:
                guessed = self._coincident_guess(sig, d)
                if guessed is not sig:
                    sig = guessed
                    continue
            if deriv is None:
                rows = self.entered_rows(sig)
                g = self.g if rows is v.rows else orc.gradient_from_rows(o, rows)
                deriv = float(g @ d)
            if not probe:
                return EdgeCandidate(side.leaving, sign, d, sig, deriv)

            dvals = orc.constraint_jvp_flat(o, orc.region_masks(sig), d)
            try:
                crossing = orc._ratio_from_arrays(self.flat, dvals, self.excluded_idx)
            except NoCrossing:
                crossing = None
            eps = o.tol.probe * (1.0 + self.pnorm)
            if crossing is not None:
                t_first = crossing[0]
                if t_first <= 1e-12 * (1.0 + self.pnorm):
                    raise DegenerateVertex(
                        "a surface crosses pathologically close to the vertex"
                    )
                eps = min(eps, 0.5 * t_first)
            q = v.point + eps * d
            sig_q = orc.resolve_signature(o, orc.forward_values(o, q), fallback=sig)
            if sig_q.equals(sig):
                return EdgeCandidate(side.leaving, sign, d, sig, deriv, crossing)
            sig, guess = sig_q, False
        raise DegenerateVertex("entered-region signature failed to stabilize")


def edge_directions(o: OracleInstance, v: VertexState) -> list[EdgeCandidate]:
    """All pivot options at a vertex, each with a verified entered region."""
    work = _VertexWork(o, v)
    return [
        work.candidate(pos, sign, probe=True)
        for pos in range(len(v.active))
        for sign in (1, -1)
    ]


def _selection_key(c: EdgeCandidate):
    return (c.derivative, c.leaving, 0 if c.sign > 0 else 1)


def vertex_step(
    o: OracleInstance,
    v: VertexState,
    limits: SolverLimits | None = None,
    work: _VertexWork | None = None,
) -> tuple[VertexState, StepRecord] | None:
    """One pivot: follow the steepest descending edge to the next vertex.

    Returns None when every edge has derivative >= -desc_tol (scaled), i.e.
    the vertex is an edge-local minimum. A caller that keeps the vertex's
    _VertexWork passes it as `work`, so its priced edges can be reused.
    """
    limits = limits or SolverLimits()
    work = work or _VertexWork(o, v)
    tau = limits.desc_tol * (1.0 + abs(work.loss))

    # A release side whose entered-region normals collapse has no
    # transversal edge (e.g. the entered side kills every path through a
    # same-sample deeper active surface); edges() skips such sides, and a
    # stall with skipped sides is re-verified by sampling before the run
    # accepts convergence.
    entries = dict(work.edges())
    confirmed: set[tuple[int, int]] = set()
    for _ in range(4 * len(entries) + 4):
        descending = [(key, c) for key, c in entries.items() if c.derivative < -tau]
        if not descending:
            return None
        key, best = min(descending, key=lambda kc: _selection_key(kc[1]))
        if key in confirmed:
            chosen, chosen_pos = best, key[0]
            break
        try:
            entries[key] = work.candidate(key[0], key[1], probe=True)
        except DegenerateVertex:
            del entries[key]
            continue
        confirmed.add(key)
    else:
        raise DegenerateVertex("edge selection did not settle")

    if chosen.crossing is None:
        raise UnboundedEdge(
            "descending edge crossed no surface; the loss is bounded below, "
            "so this is a numerical fault"
        )
    t, hit = chosen.crossing
    entered = chosen.entered

    p_new = v.point + t * chosen.direction
    active_new = list(v.active)
    active_new[chosen_pos] = hit
    # Only the entering column and the columns of samples whose states
    # changed can differ from the vertex's normals.
    masks_e = orc.region_masks(entered)
    changed = set(entered.differing_samples(v.signature).tolist())
    cols = v.normals.copy()
    for q, idx in enumerate(active_new):
        if q == chosen_pos or work.located[q][1] in changed:
            cols[:, q] = orc.constraint_normal(o, masks_e, idx)
    try:
        fact = factorize(cols)
    except SingularMatrix as e:
        raise DegenerateVertex(f"new vertex normal matrix is singular: {e}") from None
    p_new, flat_new, loss_new = _polish(o, p_new, active_new, fact)
    if loss_new > work.loss + 1e-10 * (1.0 + abs(work.loss)):
        raise MonotonicityViolation(
            f"loss rose from {work.loss!r} to {loss_new!r} in one pivot"
        )
    v_new = VertexState(
        point=p_new,
        active=active_new,
        normals=cols,
        signature=entered,
        factorization=fact,
        flat=flat_new,
        loss=loss_new,
        rows=work.entered_rows(entered),
    )
    if limits.validate:
        _validate_vertex(o, v_new)
    record = StepRecord(
        leaving=chosen.leaving,
        entering=hit,
        step=float(t),
        derivative=chosen.derivative,
        loss=loss_new,
    )
    return v_new, record


def _validate_vertex(o, v):
    """Check a vertex's active set and every array it carries against a
    recomputation from scratch; carried arrays must match bit for bit."""
    if len(v.active) != o.dim:
        raise DegenerateVertex(f"active set has {len(v.active)} constraints, expected {o.dim}")
    if len(set(v.active)) != len(v.active):
        raise DegenerateVertex("active set contains duplicate constraints")
    vals = orc.forward_values(o, v.point)
    flat = orc.constraint_values_flat(o, vals)
    worst = float(np.max(np.abs(flat[v.active])))
    if worst > o.tol.act:
        raise DegenerateVertex(f"active values drifted to {worst:.3e}")
    if v.factorization.near_singular:
        raise DegenerateVertex("vertex normal matrix is near singular")
    masks = orc.region_masks(v.signature)
    fresh = {
        "constraint values": (flat, v.flat),
        "loss": (vals.loss, v.loss),
        "normal matrix": (
            np.column_stack([orc.constraint_normal(o, masks, idx) for idx in v.active]),
            v.normals,
        ),
        "gradient rows": (
            orc.sample_gradient_rows(o, masks, orc.region_sigma(v.signature)),
            v.rows,
        ),
    }
    for name, (want, got) in fresh.items():
        if not np.array_equal(want, got):
            raise DegenerateVertex(f"carried {name} differ from a recomputation")


# --- degenerate vertices ---------------------------------------------------

# A vertex is degenerate when surfaces beyond the D active ones pass through
# it (the structural example: all first-layer surfaces of unit k meet on the
# subspace where row k of the parameters vanishes). Edge checks over the
# active set alone are then incomplete: the true edge fan belongs to every
# D-subset of the coincident surfaces. When the walk stalls at such a
# vertex, minimality is verified by direction sampling, and on failure the
# walk swaps coincident surfaces into the active set until an exchanged set
# has a descending edge. An exchange does not move the point; the escape
# step along that edge is an ordinary probed pivot, whose step the probe
# keeps above 1e-12 (1 + |p|).


def _sampled_descent(o, p, radius, directions, rng) -> bool:
    v0 = orc.value(o, p)
    for _ in range(directions):
        u = rng.unit_vector(o.dim)
        if orc.value(o, p + radius * u) < v0 - 1e-8:
            return True
    return False


def _swapped_states(o, v, coincident, seen):
    masks = orc.region_masks(v.signature)
    for idx in coincident:
        col = orc.constraint_normal(o, masks, idx)
        for pos in range(len(v.active)):
            new_active = list(v.active)
            new_active[pos] = idx
            key = frozenset(new_active)
            if key in seen:
                continue
            cols = v.normals.copy()
            cols[:, pos] = col
            try:
                fact = factorize(cols)
            except SingularMatrix:
                continue
            seen.add(key)
            yield replace(v, active=new_active, normals=cols, factorization=fact)


def _escape_if_degenerate(work, limits, rng):
    """Called when no active edge of work's vertex descends. Returns a step
    escaping the vertex through an exchanged active set, or None when the
    vertex passes the sampled local-minimality check (or shows no
    degeneracy at all: no coincident surface and no side left out of the
    edges that vertex_step has just priced)."""
    o, v = work.o, work.v
    coincident = work.coincident_idx
    if not coincident and len(work.edges()) == 2 * len(v.active):
        return None
    radius = 1e-4 * (1.0 + float(np.linalg.norm(v.point)))
    if not _sampled_descent(o, v.point, radius, 200, rng):
        return None
    seen = {frozenset(v.active)}
    queue = deque(_swapped_states(o, v, coincident, seen))
    budget = 64
    while queue and budget > 0:
        state = queue.popleft()
        budget -= 1
        outcome = vertex_step(o, state, limits)
        if outcome is not None:
            return outcome
        if len(seen) < 512:
            queue.extend(_swapped_states(o, state, coincident, seen))
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

    On a Degenerate error the run restarts from a slightly perturbed start,
    up to _RESTARTS times; the error propagates if they are spent.
    """
    limits = limits or SolverLimits()
    rng = rng or SplitMix64(_RESTART_SEED)
    p0 = np.asarray(p0, dtype=float)
    start = p0
    last: Degenerate | None = None
    for _ in range(_RESTARTS + 1):
        try:
            return _minimize_once(o, start, limits, rng)
        except Degenerate as e:
            last = e
            scale = 1e-6 * (1.0 + float(np.linalg.norm(p0)))
            start = p0 + rng.uniform_block(o.dim, -1.0, 1.0) * scale
    assert last is not None
    raise last


def _minimize_once(o, p0, limits, rng):
    vertex, records = descend_to_vertex(o, p0, limits, rng)
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
        counts.append(len(vertex.active))

    traj = _build_trajectory(points, losses, counts, phase1_len, reason)
    return traj.final.copy(), traj
