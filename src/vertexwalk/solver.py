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

Constraint surfaces above the first layer are themselves only piecewise
affine in p, so their normals depend on which side of the released surface
the edge enters. Edge directions are therefore solved against normals from
a provisional signature and confirmed by probing a point just inside the
edge; on disagreement the solve repeats with the probed signature (a few
rounds at most, or the vertex is reported degenerate).

All 2D release sides of a vertex are priced at once from one inverse
N^-T of its normal matrix: the edge direction of (pos, +-1) is +- column
pos, normalized. On the side the reference signature already has, the
derivative is g . d. Across the released surface only the released
sample's own loss term changes, so one batched kernel
(oracle.release_corrections) adds that change for every position. Both
sides of a release that bends a deeper active surface of the same sample,
and every side at a vertex with coincident surfaces, fall back to the
solve/probe loop; so does the probe of the chosen edge, which solves its
direction again with one right-hand side.

Linear algebra is refactorized from scratch at every pivot; at the problem
sizes this package targets, robustness is worth far more than the saved
cubic term.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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
from .oracle import ConstraintValues, OracleInstance, Signature
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
    adjacent to it, and every constraint value at the point."""

    point: np.ndarray
    active: list[int]
    normals: np.ndarray
    signature: Signature
    factorization: Factorization
    values: ConstraintValues


@dataclass(frozen=True)
class EdgeCandidate:
    """One pivot option: release `leaving` to side `sign` and move along
    `direction`, whose entered-region loss derivative is `derivative`.
    `leaving` is a flat constraint index."""

    leaving: int
    sign: int
    direction: np.ndarray
    entered: Signature
    derivative: float


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
    sigma = orc.region_sigma(sig)
    g = orc.region_gradient(o, masks, sigma)

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
    p, vals = _polish(o, p, active, fact)
    records[-1] = (p.copy(), vals.loss, len(active))
    vertex = VertexState(
        point=p,
        active=active,
        normals=nmat,
        signature=sig,
        factorization=fact,
        values=vals,
    )
    return vertex, records


def _polish(o, p, active, fact):
    """One Newton correction pulling the point back onto the active surfaces."""
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
        p, vals, worst = q, vals_q, worst_q
    if worst > o.tol.act:
        raise DegenerateVertex(
            f"active constraint values did not settle below tolerance ({worst:.3e})"
        )
    return p, vals


# --- phase 2 -------------------------------------------------------------------


class _VertexWork:
    """Caches shared by all edge candidates at one vertex."""

    def __init__(self, o: OracleInstance, v: VertexState):
        self.o = o
        self.v = v
        self.flat = orc.constraint_values_flat(o, v.values)
        self.loss = v.values.loss
        self.masks = orc.region_masks(v.signature)
        self.sigma = orc.region_sigma(v.signature)
        self.g = orc.region_gradient(o, self.masks, self.sigma)
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

    def _batch(self) -> dict[tuple[int, int], EdgeCandidate]:
        """Both release sides of every position without affected surfaces,
        priced from one inverse: the direction of (pos, sign) is sign times
        column pos of N^-T, normalized. On the reference side the derivative
        is g . d; across the released surface only its own sample's loss
        term changes, which release_corrections supplies for all positions
        at once."""
        o, v = self.o, self.v
        inv_t = solve(v.factorization, None, transpose=True)
        norms = np.linalg.norm(inv_t, axis=0)
        units = inv_t / norms
        slopes = self.g @ units
        flipped = slopes + orc.release_corrections(
            o, self.masks, self.sigma, self.located, units
        )
        out = {}
        for pos, a in enumerate(v.active):
            if self.affected[pos]:
                continue
            ref = v.signature.state_of(a)
            for sign in (1, -1):
                if sign == ref:
                    entered, deriv = v.signature, slopes[pos]
                else:
                    entered, deriv = v.signature.with_state(a, sign), flipped[pos]
                out[(pos, sign)] = EdgeCandidate(
                    a, sign, sign * units[:, pos], entered, sign * float(deriv)
                )
        return out

    def edges(self) -> dict[tuple[int, int], EdgeCandidate]:
        """Every release side priced without probing, keyed by (pos, sign).

        Sides are taken from the batch; both sides of a position with
        affected surfaces, and every side at a vertex with coincident
        surfaces, go through the solve/probe loop of candidate(). A side
        whose entered-region normals collapse has no transversal edge and
        is left out.
        """
        batch = {} if self.coincident_idx else self._batch()
        out = {}
        for pos in range(len(self.v.active)):
            for sign in (1, -1):
                c = batch.get((pos, sign))
                if c is None:
                    try:
                        c = self.candidate(pos, sign, probe=False)
                    except DegenerateVertex:
                        continue
                out[(pos, sign)] = c
        return out

    def _entered_derivative(self, sig: Signature, d: np.ndarray) -> float:
        if sig.equals(self.v.signature):
            return float(self.g @ d)
        masks = orc.region_masks(sig)
        sigma = orc.region_sigma(sig)
        return float(orc.region_gradient(self.o, masks, sigma) @ d)

    def candidate(self, pos: int, sign: int, probe: bool) -> EdgeCandidate:
        """Edge direction for releasing active[pos] to the given side.

        With probe=True the entered signature is verified at a point just
        inside the edge and the solve repeats until it is self-consistent.
        """
        o, v = self.o, self.v
        a = v.active[pos]
        sig = v.signature.with_state(a, sign)
        affected = self.affected[pos]
        rhs = np.zeros(o.dim)
        rhs[pos] = float(sign)
        degenerate = bool(self.coincident_idx)
        probed_once = False
        for round_ in range(_STABILIZE_ROUNDS):
            if round_ == 0 and not (affected or degenerate):
                d_raw = solve(v.factorization, rhs, transpose=True)
            else:
                masks_sig = orc.region_masks(sig)
                cols = v.normals.copy()
                redo = affected if (round_ == 0 and not degenerate) else range(len(v.active))
                for q in redo:
                    cols[:, q] = orc.constraint_normal(o, masks_sig, v.active[q])
                try:
                    d_raw = np.linalg.solve(cols.T, rhs)
                except np.linalg.LinAlgError:
                    raise DegenerateVertex("edge solve hit dependent normals") from None
            nd = float(np.linalg.norm(d_raw))
            if not np.isfinite(nd) or nd == 0.0:
                raise DegenerateVertex("edge solve produced a degenerate direction")
            d = d_raw / nd

            if degenerate and not probed_once:
                # Surfaces through the vertex are crossed at step zero; the
                # entered region lies on the side the direction moves into.
                # This linearized guess only seeds the loop: a coincident
                # surface can itself bend at the vertex, so once a probe
                # has measured the actual sides it stays authoritative.
                masks_sig = orc.region_masks(sig)
                dvals = orc.constraint_jvp_flat(o, masks_sig, d)
                floor = 1e-12 * float(np.max(np.abs(dvals)))
                changed = False
                for idx in self.coincident_idx:
                    dv = float(dvals[idx])
                    if abs(dv) > floor:
                        state = 1 if dv > 0 else -1
                        if sig.state_of(idx) != state:
                            sig = sig.with_state(idx, state)
                            changed = True
                if changed:
                    continue

            deriv = self._entered_derivative(sig, d)
            if not probe:
                return EdgeCandidate(a, sign, d, sig, deriv)

            masks_sig = orc.region_masks(sig)
            dvals = orc.constraint_jvp_flat(o, masks_sig, d)
            toward = orc.crossing_candidates(self.flat, dvals, self.excluded_idx)
            eps = o.tol.probe * (1.0 + self.pnorm)
            if np.any(toward):
                t_first = float(np.min(-self.flat[toward] / dvals[toward]))
                if t_first <= 1e-12 * (1.0 + self.pnorm):
                    raise DegenerateVertex(
                        "a surface crosses pathologically close to the vertex"
                    )
                eps = min(eps, 0.5 * t_first)
            q = v.point + eps * d
            sig_q = orc.resolve_signature(o, orc.forward_values(o, q), fallback=sig)
            if sig_q.equals(sig):
                return EdgeCandidate(a, sign, d, sig, deriv)
            sig = sig_q
            probed_once = True
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
    o: OracleInstance, v: VertexState, limits: SolverLimits | None = None
) -> tuple[VertexState, StepRecord] | None:
    """One pivot: follow the steepest descending edge to the next vertex.

    Returns None when every edge has derivative >= -desc_tol (scaled), i.e.
    the vertex is an edge-local minimum.
    """
    limits = limits or SolverLimits()
    work = _VertexWork(o, v)
    tau = limits.desc_tol * (1.0 + abs(work.loss))

    # A release side whose entered-region normals collapse has no
    # transversal edge (e.g. the entered side kills every path through a
    # same-sample deeper active surface); edges() skips such sides, and a
    # stall with skipped sides is re-verified by sampling before the run
    # accepts convergence.
    entries = work.edges()
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

    masks_e = orc.region_masks(chosen.entered)
    dvals = orc.constraint_jvp_flat(o, masks_e, chosen.direction)
    try:
        t, hit = orc._ratio_from_arrays(work.flat, dvals, work.excluded_idx)
    except NoCrossing:
        raise UnboundedEdge(
            "descending edge crossed no surface; the loss is bounded below, "
            "so this is a numerical fault"
        ) from None

    p_new = v.point + t * chosen.direction
    active_new = list(v.active)
    active_new[chosen_pos] = hit
    cols = np.column_stack(
        [orc.constraint_normal(o, masks_e, idx) for idx in active_new]
    )
    try:
        fact = factorize(cols)
    except SingularMatrix as e:
        raise DegenerateVertex(f"new vertex normal matrix is singular: {e}") from None
    p_new, vals_new = _polish(o, p_new, active_new, fact)
    if vals_new.loss > work.loss + 1e-10 * (1.0 + abs(work.loss)):
        raise MonotonicityViolation(
            f"loss rose from {work.loss!r} to {vals_new.loss!r} in one pivot"
        )
    v_new = VertexState(
        point=p_new,
        active=active_new,
        normals=cols,
        signature=chosen.entered,
        factorization=fact,
        values=vals_new,
    )
    if limits.validate:
        _validate_vertex(o, v_new)
    record = StepRecord(
        leaving=chosen.leaving,
        entering=hit,
        step=float(t),
        derivative=chosen.derivative,
        loss=vals_new.loss,
    )
    return v_new, record


def _validate_vertex(o, v):
    if len(v.active) != o.dim:
        raise DegenerateVertex(f"active set has {len(v.active)} constraints, expected {o.dim}")
    if len(set(v.active)) != len(v.active):
        raise DegenerateVertex("active set contains duplicate constraints")
    flat = orc.constraint_values_flat(o, orc.forward_values(o, v.point))
    worst = float(np.max(np.abs(flat[v.active])))
    if worst > o.tol.act:
        raise DegenerateVertex(f"active values drifted to {worst:.3e}")
    if v.factorization.near_singular:
        raise DegenerateVertex("vertex normal matrix is near singular")


# --- degenerate vertices ---------------------------------------------------

# A vertex is degenerate when surfaces beyond the D active ones pass through
# it (the structural example: all first-layer surfaces of unit k meet on the
# subspace where row k of the parameters vanishes). Edge checks over the
# active set alone are then incomplete: the true edge fan belongs to every
# D-subset of the coincident surfaces. When the walk stalls at such a
# vertex, minimality is verified by direction sampling, and on failure the
# walk swaps coincident surfaces into the active set (zero-length pivots)
# until a descending edge appears.


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
            yield VertexState(
                point=v.point,
                active=new_active,
                normals=cols,
                signature=v.signature,
                factorization=fact,
                values=v.values,
            )


def _escape_if_degenerate(o, v, limits, rng):
    """Called when no active edge descends. Returns a step escaping the
    vertex through an exchanged active set, or None when the vertex passes
    the sampled local-minimality check (or shows no degeneracy at all)."""
    work = _VertexWork(o, v)
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
    stationary = {frozenset(vertex.active)}
    zero_steps = 0
    while True:
        if len(points) - 1 >= limits.max_iterations:
            reason = "max_iterations"
            break
        outcome = vertex_step(o, vertex, limits)
        if outcome is None:
            outcome = _escape_if_degenerate(o, vertex, limits, rng)
            if outcome is None:
                break
        vertex, rec = outcome
        points.append(vertex.point.copy())
        losses.append(rec.loss)
        counts.append(len(vertex.active))
        if rec.step <= 1e-12 * (1.0 + float(np.linalg.norm(vertex.point))):
            zero_steps += 1
            key = frozenset(vertex.active)
            if key in stationary or zero_steps > 100:
                raise DegenerateVertex("cycling among coincident surfaces")
            stationary.add(key)
        else:
            stationary = {frozenset(vertex.active)}
            zero_steps = 0

    traj = _build_trajectory(points, losses, counts, phase1_len, reason)
    return traj.final.copy(), traj
