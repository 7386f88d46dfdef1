from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import build_instance, in_flat_order, quantized_instance, slots
from reference import affine_piece, region_signature, state_of, two_pass_polish, with_state
from vertexwalk import oracle as orc
from vertexwalk import solver
from vertexwalk.errors import (
    DegenerateStart,
    DegenerateVertex,
    MonotonicityViolation,
    ShapeMismatch,
    SingularMatrix,
    ValidationFailure,
)
from vertexwalk.experiment import ExperimentConfig, generate_instance
from vertexwalk.linalg import factorize, solve
from vertexwalk.network import Architecture, LayerParams, TrainingSet
from vertexwalk.oracle import make_oracle
from vertexwalk.prng import SplitMix64
from vertexwalk.solver import (
    SolverLimits,
    _VertexWork,
    descend_to_vertex,
    minimize,
    vertex_step,
)

LIMITS = SolverLimits(validate=True)


def convex_regression_toy():
    """Three collinear-x samples through a positive output layer: on the
    all-active region the loss is the classic L1 line fit. The optimal
    vertex interpolates samples 0 and 2 at (w, b) = (1.25, 1) with loss
    1/4 (checked by enumerating all interpolation pairs by hand)."""
    arch = Architecture((1, 1, 1))
    fixed = [LayerParams(np.array([[1.0]]), np.array([0.0]))]
    data = TrainingSet(
        np.array([[0.0], [1.0], [2.0]]), np.array([[1.0], [2.0], [3.5]])
    )
    return make_oracle(arch, fixed, data)


def reference_scale_vertex():
    """The vertex two pivots past phase 1 of a paper-sized instance."""
    o, p0 = build_instance(84, (4, 5, 4, 3, 2, 1), 500)
    vertex, _ = descend_to_vertex(o, p0, SolverLimits())
    for _ in range(2):
        outcome = vertex_step(o, vertex, SolverLimits())
        assert outcome is not None
        vertex, _ = outcome
    return o, vertex


def entered_signature(o, vertex, pos, sign, d):
    """Signature of the region entered along d, resolved at a point just
    inside the edge: the step is shrunk until no surface off the vertex has
    changed sign, and surfaces still within tolerance there (the ones the
    edge stays on) keep the vertex's states, the released one `sign`."""
    flat = orc.constraint_values_flat(o, orc.forward_values(o, vertex.point))
    off = np.abs(flat) > o.tol.act
    step = 1e-4 * (1.0 + float(np.linalg.norm(vertex.point)))
    for _ in range(60):
        vals = orc.forward_values(o, vertex.point + step * d)
        if np.array_equal(np.sign(orc.constraint_values_flat(o, vals)[off]), np.sign(flat[off])):
            break
        step /= 2
    else:
        raise AssertionError("every step crosses a surface")
    fallback = with_state(vertex.region.signature, vertex.active[pos], sign)
    return orc.resolve_signature(o, vals, fallback)


def priced_sides(work):
    """Every release side of the derivative table that has an edge, settled
    (not probed) into an EdgeCandidate and keyed by (pos, sign)."""
    pos, col = np.nonzero(~np.isnan(work.table))
    return {
        (p, s): solver.EdgeCandidate(work.v.active[p], s, *work._settle(p, s))
        for p, s in zip(pos.tolist(), [(1, -1)[c] for c in col.tolist()])
    }


def selection_key(c):
    """The order in which vertex_step takes edges: least derivative, then
    least leaving index, then sign +1 before -1."""
    return (c.derivative, c.leaving, 0 if c.sign > 0 else 1)


def brute_force_order(sides, tau):
    """(pos, sign) of every descending side, in selection_key's order."""
    descending = [(key, c) for key, c in sides.items() if c.derivative < -tau]
    return [key for key, _ in sorted(descending, key=lambda kc: selection_key(kc[1]))]


def brute_force_pick(sides, tau):
    """(pos, sign) of the descending side that selection_key puts first."""
    return next(iter(brute_force_order(sides, tau)), None)


def table_order(table, leaving, tau):
    """(pos, sign) of the sides vertex_step tries, in its order."""
    return [(pos, (1, -1)[col]) for pos, col in solver._descending(table, np.asarray(leaving), tau)]


def table_pick(table, leaving, tau):
    """(pos, sign) that vertex_step's table selection tries first."""
    return next(iter(table_order(table, leaving, tau)), None)


def table_sides(table, leaving):
    """The sides of a derivative table that have an edge, as stand-ins
    carrying what selection_key reads."""
    return {
        (pos, sign): SimpleNamespace(derivative=table[pos, col], leaving=leaving[pos], sign=sign)
        for pos in range(len(leaving))
        for col, sign in enumerate((1, -1))
        if not np.isnan(table[pos, col])
    }


def edge_solve(o, vertex, masks, pos, sign):
    """Unit edge direction against the active normals under masks."""
    cols = np.column_stack([orc.constraint_normal(o, masks, a) for a in vertex.active])
    rhs = np.zeros(o.dim)
    rhs[pos] = sign
    d = np.linalg.solve(cols.T, rhs)
    return d / np.linalg.norm(d)


class TestDescendToVertex:
    def test_toy_adds_exactly_two_constraints(self):
        o, p0 = build_instance(31, (1, 1, 1), 3)
        vertex, records = descend_to_vertex(o, p0, LIMITS)
        assert len(records) - 1 == o.dim == 2
        assert [r[2] for r in records] == [0, 1, 2]
        flat = orc.constraint_values_flat(o, orc.forward_values(o, vertex.point))
        assert np.all(np.abs(flat[o.layout.positions(vertex.located)]) <= o.tol.act)

    def test_loss_non_increasing_along_prefix(self):
        o, p0 = build_instance(32, (2, 3, 2, 1), 12)
        _, records = descend_to_vertex(o, p0, LIMITS)
        losses = [r[1] for r in records]
        assert all(b <= a + 1e-10 * (1 + a) for a, b in zip(losses, losses[1:]))

    def test_reference_scale_prefix_length(self):
        o, p0 = build_instance(33, (4, 5, 4, 3, 2, 1), 500)
        vertex, records = descend_to_vertex(o, p0, SolverLimits())
        assert len(records) - 1 == 25
        assert len(vertex.active) == 25

    def test_start_on_surface_hits_it_first(self):
        o, p0 = build_instance(34, (2, 3, 1), 8)
        sig = region_signature(o, p0)
        piece = affine_piece(o, sig)
        d0 = -piece.gradient / np.linalg.norm(piece.gradient)

        # Locate the first surface along the descent ray by a dense scan
        # of raw constraint values, independent of the ratio test.
        ts = np.linspace(0.0, 50.0, 20001)
        flats = np.array(
            [in_flat_order(o, orc.forward_values(o, p0 + t * d0).flat) for t in ts]
        )
        signs = flats < 0
        changed = signs[1:] != signs[:1]
        first_row = np.argmax(np.any(changed, axis=1))
        first_tag_idx = int(np.argmax(changed[first_row]))
        lo, hi = ts[first_row], ts[first_row + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            v = in_flat_order(o, orc.forward_values(o, p0 + mid * d0).flat)
            if (v[first_tag_idx] < 0) == signs[0, first_tag_idx]:
                lo = mid
            else:
                hi = mid
        near = p0 + (lo - 1e-7 * (1 + lo)) * d0

        vertex, records = descend_to_vertex(o, near, LIMITS)
        assert vertex.active[0] == first_tag_idx

    def test_start_on_a_surface_raises_without_drawing(self, monkeypatch):
        # At p = 0 every first-layer pre-activation is 0. Phase 1 does not
        # perturb: it raises, and no rng is drawn from.
        o, _ = build_instance(35, (1, 1, 1), 3)
        draws = []
        uniform_block = SplitMix64.uniform_block

        def recording(rng, *args):
            draws.append(rng.state)
            return uniform_block(rng, *args)

        monkeypatch.setattr(SplitMix64, "uniform_block", recording)
        with pytest.raises(DegenerateStart, match="lies on a surface"):
            descend_to_vertex(o, np.zeros(2), LIMITS)
        assert draws == []

    def test_perturbs_degenerate_start(self):
        # minimize perturbs the start instead, by one draw of its default
        # stream, and walks on from there.
        o, _ = build_instance(35, (1, 1, 1), 3)
        _, traj = minimize(o, np.zeros(2), LIMITS)
        draw = solver._perturbed_start(o, np.zeros(2), SplitMix64(solver._RESTART_SEED))
        assert np.array_equal(traj.points[0], draw)
        assert traj.phase1_len == 2
        assert traj.reason == "converged"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_rejected_before_any_forward_pass(self, monkeypatch, bad):
        # No perturbation can make such a start finite, so the run must not
        # try: it fails with the cause before the first forward pass.
        o, p0 = build_instance(35, (1, 1, 1), 3)
        p0 = p0.copy()
        p0[1] = bad

        def no_forward_pass(*args):
            raise AssertionError("a forward pass ran")

        monkeypatch.setattr(orc, "forward_values", no_forward_pass)
        with pytest.raises(ShapeMismatch, match="non-finite"):
            minimize(o, p0, LIMITS)

    @pytest.mark.parametrize("widths, seed", [((2, 2, 1), 1), ((3, 3, 2, 1), 0)])
    def test_stays_in_its_starting_region(self, widths, seed):
        # On these quantized instances a step ends on a second surface as
        # well (on (2, 2, 1), surfaces 3 and 19 at the same t), which stays
        # inactive at zero. Judged by the starting region's states, the next
        # direction that would take it across hits it at step 0.
        o, p0, _ = quantized_instance(widths, seed, 30)
        vertex, records = descend_to_vertex(o, p0, LIMITS)
        points = [r[0] for r in records]
        assert any(np.array_equal(a, b) for a, b in zip(points, points[1:]))
        flat = orc.constraint_values_flat(o, orc.forward_values(o, vertex.point))
        off = np.abs(flat) > o.tol.act
        assert np.array_equal(np.sign(flat[off]), orc.states_flat(vertex.region.signature)[off])

    def test_validate_rejects_stale_carried_masks(self):
        o, vertex = reference_scale_vertex()
        solver._validate_vertex(o, vertex)
        # A stale hidden state and a stale residual sign: the masks carry both.
        off = np.abs(in_flat_order(o, vertex.flat)) > o.tol.act
        cut = o.n_samples * o.hidden_total
        region = vertex.region
        for idx in (int(np.flatnonzero(off[:cut])[0]), cut + int(np.flatnonzero(off[cut:])[0])):
            flipped = with_state(region.signature, idx, -state_of(region.signature, idx))
            stale = replace(region, masks=tuple(orc.region_masks(flipped)))
            with pytest.raises(ValidationFailure, match="region masks"):
                solver._validate_vertex(o, replace(vertex, region=stale))
        short = replace(region, masks=region.masks[:-1])
        with pytest.raises(ValidationFailure, match="region masks"):
            solver._validate_vertex(o, replace(vertex, region=short))

    def test_a_failed_check_ends_the_run(self, monkeypatch):
        # A fault in the carried masks: a release (with_states of one row)
        # rebuilds the residual mask it copies like a hidden mask, so every
        # residual sign of -1 reads 0. The check catches it at some pivot
        # of this walk; a restart from a perturbed start would walk on and
        # converge.
        with_states = orc.Region.with_states

        def hidden_like(region, located, states):
            new = with_states(region, located, states)
            depth = region.signature.layout.depth
            if len(located) > 1 or located[0][0] < depth:
                return new
            masks = list(new.masks)
            masks[depth] = (new.signature.states[depth] > 0).astype(float)
            return replace(new, masks=tuple(masks))

        monkeypatch.setattr(orc.Region, "with_states", hidden_like)
        o, p0, rng = quantized_instance((3, 4, 3, 1), 0, 12)
        with pytest.raises(ValidationFailure, match="region masks"):
            minimize(o, p0, SolverLimits(max_iterations=400, validate=True), rng)

    def test_a_fault_in_a_ranked_side_ends_the_run(self, monkeypatch):
        # with_states writes each residual state of -1 it sets as 0 in the
        # mask. On this walk no vertex's own region ever holds such a write,
        # so only the check of the sides the table ranks sees it; without
        # that check the walk converges after 39 iterations.
        with_states = orc.Region.with_states

        def residual_as_zero(region, located, states):
            new = with_states(region, located, states)
            depth = region.signature.layout.depth
            for (array, i, k), state in zip(located, states):
                if array == depth and state < 0:
                    new.masks[array][i, k] = 0.0
            return new

        monkeypatch.setattr(orc.Region, "with_states", residual_as_zero)
        o, p0, rng = quantized_instance((3, 4, 3, 1), 0, 12)
        with pytest.raises(ValidationFailure, match="entered region masks"):
            minimize(o, p0, SolverLimits(max_iterations=400, validate=True), rng)

    @pytest.mark.parametrize("instance", ["quantized", "default"])
    def test_a_wrong_release_correction_ends_the_run(self, monkeypatch, instance):
        # release_corrections scaled by 1.001 gives every flipped side a
        # wrong derivative while every vertex's arrays stay right; without
        # the check of the settled sides the quantized walk ends in
        # UnboundedEdge and the default one converges.
        release_corrections = orc.release_corrections
        monkeypatch.setattr(
            orc, "release_corrections", lambda *args: 1.001 * release_corrections(*args)
        )
        if instance == "quantized":
            o, p0, rng = quantized_instance((3, 4, 3, 1), 0, 12)
            limits = SolverLimits(max_iterations=400, validate=True)
        else:
            config = ExperimentConfig(seed=0, widths=(2, 3, 2, 1), samples=30)
            o, p0, rng = generate_instance(config)
            limits = replace(config.solver_limits(), validate=True)
        with pytest.raises(ValidationFailure, match="derivative"):
            minimize(o, p0, limits, rng)

    def test_validate_rejects_stale_carried_active_rows(self):
        # The rows are the one record of the active set: a row repeated, or
        # a row of a surface off the vertex, fails its checks.
        o, vertex = reference_scale_vertex()
        assert np.array_equal(vertex.located, o.layout.locate_many(vertex.active))
        stale = vertex.located.copy()
        stale[0] = vertex.located[1]
        with pytest.raises(ValidationFailure, match="duplicate"):
            solver._validate_vertex(o, replace(vertex, located=stale))
        off = int(np.flatnonzero(np.abs(in_flat_order(o, vertex.flat)) > o.tol.act)[0])
        stale[0] = o.layout.locate(off)
        with pytest.raises(ValidationFailure, match="active values drifted"):
            solver._validate_vertex(o, replace(vertex, located=stale))

    def test_validate_rejects_stale_carried_pricing(self):
        # At D = 100 and N = 100 a vertex has positions with bent normals.
        o, p0 = build_instance(2, (4, 20, 4, 3, 2, 1), 100)
        vertex, _ = descend_to_vertex(o, p0, SolverLimits())
        vertex, _ = vertex_step(o, vertex, SolverLimits())
        pricing = vertex.pricing
        assert pricing is not None and pricing.bent
        solver._validate_vertex(o, vertex)
        pos = next(iter(pricing.bent))
        deltas = pricing.deltas.copy()
        deltas[0, 0] = np.nextafter(deltas[0, 0], np.inf)
        ref = pricing.ref.copy()
        ref[0] = -ref[0]
        bent = dict(pricing.bent)
        bent[pos] = 2.0 * bent[pos]
        affected = {q: qs for q, qs in pricing.affected.items() if q != pos}
        for stale, match in (
            (replace(pricing, deltas=deltas), "pricing deltas"),
            (replace(pricing, ref=ref), "pricing ref"),
            (replace(pricing, bent=bent), "bent normals"),
            (replace(pricing, affected=affected), "affected"),
        ):
            vertex.pricing = stale
            with pytest.raises(ValidationFailure, match=match):
                solver._validate_vertex(o, vertex)

    def test_one_full_forward_pass_per_hit(self, monkeypatch):
        # One full pass at the start, one after each of the first D - 1
        # hits, and the polish's one at the vertex: the polish decides on
        # row passes, so the D-th hit needs no full pass of its own.
        forward_values = orc.forward_values
        calls = []

        def counted(*args):
            calls.append(args)
            return forward_values(*args)

        monkeypatch.setattr(orc, "forward_values", counted)
        for seed in range(6):
            o, p0, _ = generate_instance(ExperimentConfig(seed=seed))
            calls.clear()
            descend_to_vertex(o, p0, SolverLimits())
            assert len(calls) == o.dim + 1, seed

    def test_validate_checks_the_phase1_pricing(self):
        # Phase 1's vertex is priced from scratch (_pricing); validate
        # checks that pricing too.
        o, p0 = build_instance(81, (2, 3, 2, 1), 10)
        vertex, _ = descend_to_vertex(o, p0, LIMITS)
        deltas = vertex.pricing.deltas.copy()
        deltas[0, 0] = np.nextafter(deltas[0, 0], np.inf)
        stale = replace(vertex, pricing=replace(vertex.pricing, deltas=deltas))
        with pytest.raises(ValidationFailure, match="pricing deltas"):
            solver._validate_vertex(o, stale)

    def test_validate_rejects_a_surface_off_its_side(self):
        o, vertex = reference_scale_vertex()
        off = np.flatnonzero(np.abs(in_flat_order(o, vertex.flat)) > o.tol.act)
        idx = int(off[0])
        region = vertex.region
        sig = with_state(region.signature, idx, -state_of(region.signature, idx))
        with pytest.raises(ValidationFailure, match="outside its region"):
            solver._validate_vertex(o, replace(vertex, region=replace(region, signature=sig)))


    def test_validate_rejects_a_row_pass_one_ulp_off(self, monkeypatch):
        # A BLAS whose row bits changed with the row count would show here:
        # the polish would decide on other values than the full pass's.
        o, vertex = reference_scale_vertex()
        solver._validate_vertex(o, vertex)
        row_values = orc.row_values

        def one_ulp_off(o, rows, p):
            values = row_values(o, rows, p).ravel()
            first = o.layout.row_slots(vertex.located)[0]
            values[first] = np.nextafter(values[first], np.inf)
            return values

        monkeypatch.setattr(orc, "row_values", one_ulp_off)
        with pytest.raises(ValidationFailure, match="row pass"):
            solver._validate_vertex(o, vertex)


class TestEdgeDirections:
    def test_identity_normals_give_unit_directions(self):
        f = factorize(np.eye(4))
        for a in range(4):
            for s in (1.0, -1.0):
                rhs = np.zeros(4)
                rhs[a] = s
                d = solve(f, rhs, transpose=True)
                expect = np.zeros(4)
                expect[a] = s
                assert_allclose(d, expect)

    def test_candidate_invariants(self):
        o, p0 = build_instance(36, (2, 3, 2, 1), 10)
        vertex, _ = descend_to_vertex(o, p0, LIMITS)
        cands = list(priced_sides(_VertexWork(o, vertex)).values())
        assert len(cands) <= 2 * o.dim
        for c in cands:
            assert np.linalg.norm(c.direction) == pytest.approx(1.0, abs=1e-12)
            masks = orc.region_masks(c.entered.signature)
            pos = vertex.active.index(c.leaving)
            for q, idx in enumerate(vertex.active):
                normal = orc.constraint_normal(o, masks, idx)
                inner = float(normal @ c.direction)
                if q == pos:
                    assert np.sign(inner) == c.sign
                else:
                    assert abs(inner) <= 1e-9 * (1 + np.linalg.norm(normal))

    def test_derivative_matches_one_sided_difference(self):
        o, p0 = build_instance(37, (2, 2, 2, 1), 8)
        vertex, _ = descend_to_vertex(o, p0, LIMITS)
        delta = 1e-6
        v0 = orc.value(o, vertex.point)
        for c in priced_sides(_VertexWork(o, vertex)).values():
            fd = (orc.value(o, vertex.point + delta * c.direction) - v0) / delta
            assert fd == pytest.approx(c.derivative, rel=1e-4, abs=1e-7)

    def test_unprobed_candidates_match_probed(self):
        # vertex_step ranks unprobed candidates, so every priced side must
        # already be the edge a probe would confirm. The reference for each
        # side is computed here from scratch: the entered signature by
        # resolving a point just inside the edge, the direction by a dense
        # solve against the normals recomputed in that region, and the
        # derivative as that region's full gradient dotted with it. Batched
        # sums run in a different order, so the derivative tolerance is
        # fixed up front; sides at the vertex with coincident surfaces and
        # the rank-k corrected sides of positions with affected surfaces
        # are among those checked.
        cases = []
        for seed in (81, 82, 83):
            o, p0 = build_instance(seed, (2, 3, 2, 1), 10)
            cases.append((o, descend_to_vertex(o, p0, LIMITS)[0]))
        cases.append(reference_scale_vertex())
        o, p0, rng = quantized_instance((2, 3, 2, 1), 0)
        cases.append((o, descend_to_vertex(o, solver._perturbed_start(o, p0, rng), LIMITS)[0]))
        assert _VertexWork(*cases[-1]).coincident_idx

        affected_sides = 0
        for o, vertex in cases:
            work = _VertexWork(o, vertex)
            edges = priced_sides(work)
            assert len(edges) == 2 * o.dim
            affected_sides += 2 * len(work.v.pricing.affected)
            tol = 1e-9 * (1.0 + float(np.sum(np.abs(vertex.region.gradient))))
            for (pos, sign), c in edges.items():
                assert c.leaving == vertex.active[pos] and c.sign == sign
                entered = entered_signature(o, vertex, pos, sign, c.direction)
                assert c.entered.signature.equals(entered)
                masks = orc.region_masks(entered)
                assert_allclose(
                    c.direction, edge_solve(o, vertex, masks, pos, sign), rtol=0, atol=1e-12
                )
                g_entered = orc.region_gradient(o, masks)
                assert abs(c.derivative - float(g_entered @ c.direction)) <= tol
        assert affected_sides > 0

    def test_batch_skips_exactly_the_sides_candidate_rejects(self):
        # Every release side of a vertex with a nonsingular normal matrix
        # has an edge (test_bent_normals_keep_the_woodbury_matrix_the_identity),
        # so the batch prices all 2D sides, each settles, and a dense solve
        # against each side's entered normals succeeds.
        o, p0 = build_instance(81, (2, 3, 2, 1), 10)
        vertex, _ = descend_to_vertex(o, p0, LIMITS)
        work = _VertexWork(o, vertex)
        assert not work.coincident_idx and work.v.pricing.affected
        sides = [(pos, sign) for pos in range(o.dim) for sign in (1, -1)]
        assert set(priced_sides(work)) == set(sides)
        rejected, dependent = set(), set()
        for pos, sign in sides:
            try:
                work._settle(pos, sign)
            except DegenerateVertex:
                rejected.add((pos, sign))
            entered = with_state(vertex.region.signature, vertex.active[pos], sign)
            try:
                edge_solve(o, vertex, orc.region_masks(entered), pos, sign)
            except np.linalg.LinAlgError:
                dependent.add((pos, sign))
        assert rejected == dependent == set()

    # Walks for the Woodbury identity: (instance, pivot cap, whether the walk
    # prices a side at a vertex with coincident surfaces).
    IDENTITY_WALKS = {
        "acceptance-seed6": (lambda: generate_instance(ExperimentConfig(seed=6)), 150, False),
        "wide-d-seed0": (
            lambda: generate_instance(
                ExperimentConfig(seed=0, widths=(4, 20, 4, 3, 2, 1), samples=500)
            ),
            60,
            False,
        ),
        "quantized-121-seed14": (lambda: quantized_instance((1, 2, 1), 14, 12), 400, True),
    }

    @pytest.mark.parametrize("name", IDENTITY_WALKS)
    def test_bent_normals_keep_the_woodbury_matrix_the_identity(self, monkeypatch, name):
        # Releasing hidden unit u moves each affected normal by a multiple
        # of u's own normal, column pos of N, to which N^-T's affected
        # columns B are orthogonal; so M^T B = I for the bent normals M, and
        # the rank-k solve of every flipped side has an edge. Checked at
        # every affected position of every vertex of three walks, the
        # exchanged sets of the quantized walk's escapes included.
        instance, pivots, degenerate = self.IDENTITY_WALKS[name]
        at_coincident = []
        bent_direction = _VertexWork._bent_direction

        def checking(work, inv_t, pos):
            basis = inv_t[:, work.v.pricing.affected[pos]]
            gap = work.v.pricing.bent[pos].T @ basis - np.eye(basis.shape[1])
            assert np.linalg.norm(gap, np.inf) <= 1e-9, (work.v.active, pos)
            at_coincident.append(bool(work.coincident_idx))
            return bent_direction(work, inv_t, pos)

        monkeypatch.setattr(_VertexWork, "_bent_direction", checking)
        o, p0, rng = instance()
        minimize(o, p0, SolverLimits(max_iterations=o.dim + pivots), rng)
        assert at_coincident
        assert any(at_coincident) == degenerate

    @pytest.mark.blas_bits
    def test_gesv_gives_numpy_bits_on_the_woodbury_systems(self, monkeypatch):
        # The rank-k solves of _bent_direction call LAPACK gesv directly
        # (linalg.solve_dense). Every M^T B system of a walk with k = 1 and
        # k = 2 solves must give np.linalg.solve's bits, which the walk's
        # recorded bits were made with.
        sizes = []
        solve_dense = solver.solve_dense

        def checking(a, b):
            x = solve_dense(a, b)
            assert np.array_equal(x.view(np.uint64), np.linalg.solve(a, b).view(np.uint64))
            sizes.append(len(b))
            return x

        monkeypatch.setattr(solver, "solve_dense", checking)
        o, p0, rng = self.IDENTITY_WALKS["wide-d-seed0"][0]()
        minimize(o, p0, SolverLimits(max_iterations=o.dim + 200), rng)
        assert set(sizes) == {1, 2}

    def test_derivatives_at_reference_scale(self):
        o, vertex = reference_scale_vertex()
        delta = 1e-6
        v0 = orc.value(o, vertex.point)
        cands = list(priced_sides(_VertexWork(o, vertex)).values())
        assert len(cands) == 2 * o.dim
        for c in cands[::5]:
            fd = (orc.value(o, vertex.point + delta * c.direction) - v0) / delta
            assert fd == pytest.approx(c.derivative, rel=1e-4, abs=1e-6)


class TestVertexStep:
    def test_convex_toy_converges_at_known_vertex(self):
        o = convex_regression_toy()
        theta, traj = minimize(o, np.array([0.9, 1.4]), LIMITS)
        assert_allclose(theta, [1.25, 1.0], atol=1e-9)
        assert traj.losses[-1] == pytest.approx(0.25, abs=1e-12)
        assert traj.reason == "converged"

    def test_converged_vertex_steps_nowhere(self):
        o = convex_regression_toy()
        theta, _ = minimize(o, np.array([0.9, 1.4]), LIMITS)
        start = solver._perturbed_start(o, theta, SplitMix64(0))
        vertex, records = descend_to_vertex(o, start, LIMITS)
        assert_allclose(vertex.point, theta, atol=1e-7)
        assert vertex_step(o, vertex, LIMITS) is None

    def test_step_swaps_exactly_one_active_tag(self):
        o, p0 = build_instance(38, (2, 3, 2, 1), 12)
        vertex, _ = descend_to_vertex(o, p0, LIMITS)
        steps = 0
        while steps < 5:
            outcome = vertex_step(o, vertex, LIMITS)
            if outcome is None:
                break
            new_vertex, rec = outcome
            shared = set(vertex.active) & set(new_vertex.active)
            assert len(new_vertex.active) == o.dim
            assert len(shared) == o.dim - 1
            assert rec.leaving in set(vertex.active) - shared
            assert rec.entering in set(new_vertex.active) - shared
            flat = orc.constraint_values_flat(
                o, orc.forward_values(o, new_vertex.point)
            )
            assert np.all(np.abs(flat[o.layout.positions(new_vertex.located)]) <= o.tol.act)
            vertex = new_vertex
            steps += 1
        assert steps >= 1

    def test_rows_are_the_one_record_of_the_active_set(self):
        # A vertex stores its active set once, as rows; its flat indices
        # are the encode of the rows, and a pivot swaps the row of the
        # leaving surface for the entering surface's, at the same position.
        assert "active" not in {f.name for f in fields(solver.VertexState)}
        cfg = ExperimentConfig(seed=6, samples=60, max_iterations=60)
        o, p0, _ = generate_instance(cfg)
        vertex, _ = descend_to_vertex(o, p0, LIMITS)
        for _ in range(30):
            active = vertex.active
            assert active == o.layout.encode(vertex.located).tolist()
            assert np.array_equal(o.layout.locate_many(active), vertex.located)
            outcome = vertex_step(o, vertex, LIMITS)
            if outcome is None:
                break
            new_vertex, rec = outcome
            pos = active.index(rec.leaving)
            assert new_vertex.active[pos] == rec.entering
            assert tuple(new_vertex.located[pos].tolist()) == o.layout.locate(rec.entering)
            kept = np.arange(o.dim) != pos
            assert np.array_equal(new_vertex.located[kept], vertex.located[kept])
            vertex = new_vertex
        else:
            return
        raise AssertionError("the walk converged before 30 pivots")

    def test_a_pivot_whose_loss_rises_raises(self, monkeypatch):
        o, p0 = build_instance(38, (2, 3, 2, 1), 12)
        vertex, _ = descend_to_vertex(o, p0, LIMITS)
        polish = solver._polish

        def rising(*args):
            p, flat, loss = polish(*args)
            return p, flat, loss + 1.0

        monkeypatch.setattr(solver, "_polish", rising)
        with pytest.raises(MonotonicityViolation):
            vertex_step(o, vertex, SolverLimits())

    def test_both_phases_build_their_vertex_one_way(self, monkeypatch):
        o, p0 = build_instance(38, (2, 3, 2, 1), 12)
        vertex, _ = descend_to_vertex(o, p0, LIMITS)

        def singular(a):
            raise SingularMatrix("forced")

        monkeypatch.setattr(solver, "factorize", singular)
        for build in (lambda: descend_to_vertex(o, p0, LIMITS), lambda: vertex_step(o, vertex)):
            with pytest.raises(DegenerateVertex, match="^vertex normal matrix is singular: forced$"):
                build()


class TestSelection:
    """vertex_step tries the descending sides of the derivative table in
    selection_key's order and takes the first one its probe confirms."""

    TAU = 1e-9

    def check(self, table, leaving, expect):
        sides = table_sides(table, leaving)
        assert brute_force_pick(sides, self.TAU) == expect
        assert table_pick(table, leaving, self.TAU) == expect

    def test_equal_derivatives_break_by_leaving_then_sign(self):
        # Positions are not in leaving order, so an order by position
        # would pick another side.
        table = np.array([[-2.0, -2.0], [-1.0, -2.0], [-2.0, 0.5]])
        self.check(table, [40, 7, 19], (1, -1))
        self.check(table, [4, 7, 19], (0, 1))
        self.check(np.array([[-2.0, -2.0]]), [5], (0, 1))
        self.check(np.array([[0.5, -2.0], [-2.0, 0.5]]), [5, 6], (0, -1))

    def test_collapsed_sides_are_never_picked(self):
        nan = np.nan
        self.check(np.array([[nan, -3.0], [-3.0, nan]]), [9, 4], (1, 1))
        self.check(np.array([[nan, -1.0], [-3.0, nan]]), [9, 4], (1, 1))
        self.check(np.array([[nan, nan], [0.0, nan]]), [9, 4], None)

    @settings(max_examples=200)
    @given(
        values=st.lists(
            st.sampled_from([-3.0, -1.0, -1.0, -1e-10, 0.0, 2.0, np.nan]), min_size=2, max_size=16
        ),
        seed=st.integers(0, 2**16),
    )
    def test_random_tables_with_ties(self, values, seed):
        if len(values) % 2:
            values = values[:-1]
        table = np.array(values).reshape(-1, 2)
        order = np.argsort(SplitMix64(seed).uniform_block(len(table), 0, 1))
        leaving = (3 * order + 1).tolist()
        expect = brute_force_order(table_sides(table, leaving), self.TAU)
        assert table_order(table, leaving, self.TAU) == expect

    def test_vertices_match_the_brute_force_pick(self):
        cases = [reference_scale_vertex()]
        o, p0, rng = quantized_instance((2, 3, 2, 1), 0)
        cases.append((o, descend_to_vertex(o, solver._perturbed_start(o, p0, rng), LIMITS)[0]))
        for o, vertex in cases:
            work = _VertexWork(o, vertex)
            tau = SolverLimits().descent_threshold(work.v.loss)
            sides = priced_sides(_VertexWork(o, vertex))
            assert table_order(work.table, vertex.active, tau) == brute_force_order(sides, tau)
        assert work.coincident_idx

    def test_vertex_step_takes_the_next_side_when_a_probe_rejects_one(self, monkeypatch):
        o, vertex = reference_scale_vertex()
        tau = SolverLimits().descent_threshold(vertex.loss)
        sides = priced_sides(_VertexWork(o, vertex))
        first, second = brute_force_order(sides, tau)[:2]
        probed = []
        candidate = _VertexWork.candidate

        def rejecting_first(work, pos, sign):
            probed.append((pos, sign))
            if (pos, sign) == first:
                raise DegenerateVertex("rejected")
            return candidate(work, pos, sign)

        monkeypatch.setattr(_VertexWork, "candidate", rejecting_first)
        _, record = vertex_step(o, vertex, SolverLimits())
        assert probed == [first, second]
        assert record.leaving == vertex.active[second[0]]
        assert record.derivative == sides[second].derivative

    def test_a_vertex_whose_descending_sides_are_all_rejected_raises(self, monkeypatch):
        # Only a vertex where no side descends is a minimum: one whose
        # descending sides the probe all rejects is reported degenerate,
        # even with no coincident surface for the escape to look at.
        o, vertex = reference_scale_vertex()
        toy = convex_regression_toy()
        theta, _ = minimize(toy, np.array([0.9, 1.4]))
        minimum, _ = descend_to_vertex(toy, solver._perturbed_start(toy, theta, SplitMix64(0)))
        probed = []

        def rejecting(work, pos, sign):
            probed.append((pos, sign))
            raise DegenerateVertex("rejected")

        monkeypatch.setattr(_VertexWork, "candidate", rejecting)
        assert vertex_step(toy, minimum) is None
        assert probed == []
        work = _VertexWork(o, vertex)
        assert not work.coincident_idx
        with pytest.raises(DegenerateVertex, match="^the probe rejected every descending side$"):
            vertex_step(o, vertex, SolverLimits(), work)
        tau = SolverLimits().descent_threshold(vertex.loss)
        assert probed == table_order(work.table, vertex.active, tau)


class TestPricingObjects:
    def test_a_simple_vertex_builds_only_the_probed_sides(self, monkeypatch):
        built, probes = [], []
        edge_candidate, candidate = solver.EdgeCandidate, _VertexWork.candidate

        def counting_candidate(*args, **kwargs):
            built.append(None)
            return edge_candidate(*args, **kwargs)

        def counting_probe(work, pos, sign):
            assert not work.coincident_idx
            probes.append((pos, sign))
            return candidate(work, pos, sign)

        monkeypatch.setattr(solver, "EdgeCandidate", counting_candidate)
        monkeypatch.setattr(_VertexWork, "candidate", counting_probe)
        o, p0 = build_instance(85, (4, 20, 4, 3, 2, 1), 500)
        vertex, _ = descend_to_vertex(o, p0, SolverLimits())
        for _ in range(5):
            vertex, _ = vertex_step(o, vertex, SolverLimits())
        assert len(probes) >= 5
        assert len(built) == len(probes)

    def test_affected_lists_the_deeper_surfaces_of_each_sample(self):
        # Reference: the per-pair definition as a loop over the located rows.
        o, p0, _ = quantized_instance((2, 3, 3, 2), 0)
        vertex, _ = descend_to_vertex(o, p0, LIMITS)
        found = 0
        for _ in range(20):
            work = _VertexWork(o, vertex)
            rows = [o.layout.locate(idx) for idx in vertex.active]
            want = {}
            for pos, (array, sample, _) in enumerate(rows):
                deeper = [q for q, (a, s, _) in enumerate(rows) if s == sample and a > array]
                if deeper:
                    want[pos] = deeper
            assert work.v.pricing.affected == want
            found += len(want)
            outcome = vertex_step(o, vertex, LIMITS, work)
            if outcome is None:
                break
            vertex = outcome[0]
        assert found > 0


def probe_walks():
    """(label, oracle, start, limits, rng) of the walks the probe tests run:
    the degenerate corpus, a capped reference-scale walk and a capped
    D = 100 walk (caps count the D phase-1 steps). Each call builds fresh
    instances and generators."""
    for widths, seed in TestDegenerateCorpus.INSTANCES:
        o, p0, rng = quantized_instance(widths, seed)
        yield f"widths={widths} seed={seed}", o, p0, SolverLimits(300, validate=True), rng
    o, p0 = build_instance(84, (4, 5, 4, 3, 2, 1), 500)
    yield "reference scale", o, p0, SolverLimits(60, validate=True), None
    o, p0 = build_instance(85, (4, 20, 4, 3, 2, 1), 500)
    yield "D = 100", o, p0, SolverLimits(130, validate=True), None


class TestProbe:
    """The chosen edge's probe reads the entered region from the edge's JVP
    (_VertexWork._probe_agrees) and runs a forward pass only when that
    check fails."""

    def test_forced_fallback_gives_the_same_walks(self, monkeypatch):
        normal = [minimize(o, p0, limits, rng)[1] for _, o, p0, limits, rng in probe_walks()]
        monkeypatch.setattr(_VertexWork, "_probe_agrees", lambda *args: False)
        for (label, o, p0, limits, rng), want in zip(probe_walks(), normal):
            _, got = minimize(o, p0, limits, rng)
            assert np.array_equal(got.points, want.points), label
            assert np.array_equal(got.losses, want.losses), label

    def test_passing_check_matches_a_forward_pass(self, monkeypatch):
        checks, shadowed = [], []
        agrees, candidate = _VertexWork._probe_agrees, _VertexWork.candidate

        def recording_agrees(work, *args):
            checks.append(agrees(work, *args))
            return checks[-1]

        def shadowed_candidate(work, pos, sign):
            checks.clear()
            c = candidate(work, pos, sign)
            if checks and checks[-1]:
                # The check passed and the probe returned on it.
                eps = solver._PROBE * (1.0 + work.pnorm)
                if c.crossing is not None:
                    eps = min(eps, 0.5 * c.crossing[0])
                vals = orc.forward_values(work.o, work.v.point + eps * c.direction)
                entered = c.entered.signature
                resolved = orc.resolve_signature(work.o, vals, fallback=entered)
                shadowed.append(resolved.equals(entered))
            return c

        monkeypatch.setattr(_VertexWork, "_probe_agrees", recording_agrees)
        monkeypatch.setattr(_VertexWork, "candidate", shadowed_candidate)
        for label, o, p0, limits, rng in probe_walks():
            before = len(shadowed)
            minimize(o, p0, limits, rng)
            assert len(shadowed) > before, label
        assert all(shadowed)

    def test_one_full_forward_pass_per_pivot(self, monkeypatch):
        o, p0 = build_instance(84, (4, 5, 4, 3, 2, 1), 500)
        vertex, _ = descend_to_vertex(o, p0, SolverLimits())
        calls = {"forward_values": 0, "row_values": 0, "resolve_signature": 0}
        for name in calls:
            fn = getattr(orc, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(orc, name, counted)
        pivots = 20
        for _ in range(pivots):
            outcome = vertex_step(o, vertex, SolverLimits())
            assert outcome is not None
            vertex, _ = outcome
        # Every pass is the polish's: a row pass at the edge's end point and
        # one at the corrected point decide, and the kept point gets the one
        # full pass. The probe's check decided every edge.
        assert calls == {"forward_values": pivots, "row_values": 2 * pivots, "resolve_signature": 0}

    @pytest.mark.blas_bits
    @pytest.mark.parametrize(
        "kw",
        [
            {"seed": 6, "max_iterations": 100},
            {"seed": 0, "samples": 2000, "max_iterations": 40},
            # Phase 1 takes 100 of the 160 iterations.
            {"seed": 0, "widths": (4, 20, 4, 3, 2, 1), "max_iterations": 160},
        ],
        ids=["ref seed 6", "N=2000 seed 0", "wide-d seed 0"],
    )
    def test_polish_matches_two_full_passes(self, monkeypatch, kw):
        # Every vertex of the walk, phase 1's included, is polished both
        # ways from the same inputs; the corrected point is kept at some
        # vertices and the edge's end point at others.
        config = ExperimentConfig(**kw)
        o, p0, rng = generate_instance(config)
        polish, kept = solver._polish, []

        def both(o, p, located, fact):
            got = polish(o, p, located, fact)
            want = two_pass_polish(o, p, located, fact)
            assert got[0].view(np.uint64).tolist() == want[0].view(np.uint64).tolist()
            assert got[1].view(np.uint64).tolist() == want[1].view(np.uint64).tolist()
            assert got[2] == want[2]
            kept.append(not np.array_equal(got[0], p))
            return got

        monkeypatch.setattr(solver, "_polish", both)
        _, traj = minimize(o, p0, config.solver_limits(), rng)
        assert len(kept) == len(traj) - traj.phase1_len
        assert any(kept) and not all(kept)

    def test_failing_check_rejects_the_changed_region(self, monkeypatch):
        # The linearized guess left no corpus probe whose region the forward
        # pass changed (0 of 13,950), so this vertex withholds the guess:
        # the coincident surface keeps the vertex's state, which the edge
        # leaves, the check fails, and the fallback's forward pass resolves
        # another region, which rejects the side. With the guess, the
        # same side is confirmed.
        o, p0, _ = quantized_instance((2, 3, 2, 1), 1)
        vertex, _ = descend_to_vertex(o, p0, LIMITS)
        _VertexWork(o, vertex).candidate(5, -1)

        checks, changes = [], []
        agrees, resolve = _VertexWork._probe_agrees, orc.resolve_signature

        def recording_agrees(work, *args):
            checks.append(agrees(work, *args))
            return checks[-1]

        def recording_resolve(o, vals, fallback):
            sig = resolve(o, vals, fallback)
            changes.append(not sig.equals(fallback))
            return sig

        monkeypatch.setattr(_VertexWork, "_probe_agrees", recording_agrees)
        monkeypatch.setattr(orc, "resolve_signature", recording_resolve)
        monkeypatch.setattr(_VertexWork, "_coincident_guess", lambda work, sig, d: sig)
        work = _VertexWork(o, vertex)
        assert len(work.coincident_idx) == 1
        with pytest.raises(DegenerateVertex, match="^the probe found another entered region$"):
            work.candidate(5, -1)
        assert checks == [False]
        assert changes == [True]

    def test_probe_resumes_where_the_side_settled(self, monkeypatch):
        o, p0, _ = quantized_instance((2, 3, 2, 1), 2)
        vertex, _ = descend_to_vertex(o, p0, LIMITS)
        calls = []
        for name in ("_coincident_guess", "_settled_direction"):
            fn = getattr(_VertexWork, name)

            def counted(*args, _fn=fn, _name=name):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(_VertexWork, name, counted)
        work = _VertexWork(o, vertex)
        assert work.coincident_idx
        tau = SolverLimits().descent_threshold(work.v.loss)
        descending = [key for key, c in priced_sides(work).items() if c.derivative < -tau]
        assert descending
        settled = 0
        for key in descending:
            fresh = _VertexWork(o, vertex).candidate(*key)
            settled += "_settled_direction" in calls
            calls.clear()
            resumed = work.candidate(*key)
            assert calls == [], key
            assert resumed.entered.signature.equals(fresh.entered.signature), key
            assert np.array_equal(resumed.direction, fresh.direction), key
            assert resumed.derivative == fresh.derivative, key
            assert resumed.crossing == fresh.crossing, key
        # Some sides re-solved their direction while settling.
        assert settled

    def test_region_normals_equal_their_recomputation(self, monkeypatch):
        # _VertexWork.normals keeps the columns of samples whose states do
        # not change. The pivot's matrix is carried and checked by
        # validate=True; a re-solve's is not, so every matrix is checked here
        # against all D columns recomputed in its region.
        built = {"re-solve": 0, "pivot": 0}
        wrong = []
        normals = _VertexWork.normals

        def checked(work, region, located, redo):
            cols = normals(work, region, located, redo)
            masks = orc.region_masks(region.signature)
            active = work.o.layout.encode(located)
            want = np.column_stack([orc.constraint_normal(work.o, masks, a) for a in active])
            # A re-solve keeps the vertex's active set; a pivot's is new.
            kind = "re-solve" if located is work.v.located else "pivot"
            if not np.array_equal(cols, want):
                wrong.append((label, kind))
            built[kind] += 1
            return cols

        monkeypatch.setattr(_VertexWork, "normals", checked)
        for label, o, p0, limits, rng in probe_walks():
            minimize(o, p0, limits, rng)
        assert wrong == []
        assert built["re-solve"] and built["pivot"], built


class TestMinimize:
    def test_rerun_from_minimum_is_idempotent(self):
        o, p0 = build_instance(39, (2, 3, 1), 10)
        theta, traj = minimize(o, p0, LIMITS)
        theta2, traj2 = minimize(o, theta, LIMITS)
        assert len(traj2) - 1 == traj2.phase1_len  # zero pivoting steps
        assert np.linalg.norm(theta2 - theta) <= 1e-6 * (1 + np.linalg.norm(theta))

    def test_monotone_and_converged(self):
        o, p0 = build_instance(40, (2, 3, 2, 1), 15)
        theta, traj = minimize(o, p0, LIMITS)
        assert traj.reason == "converged"
        diffs = np.diff(traj.losses)
        assert np.all(diffs <= 1e-10 * (1 + traj.losses[:-1]))
        # strict decrease across pivoting steps
        phase2 = traj.losses[traj.phase1_len :]
        assert np.all(np.diff(phase2) < 0)

    def test_prefix_length_equals_dimension(self):
        o, p0 = build_instance(41, (3, 2, 2), 9)
        _, traj = minimize(o, p0, LIMITS)
        assert traj.phase1_len == o.dim

    def test_iteration_cap(self):
        o, p0 = build_instance(42, (2, 3, 2, 1), 15)
        lim = SolverLimits(max_iterations=o.dim + 3, validate=True)
        _, traj = minimize(o, p0, lim)
        assert traj.reason == "max_iterations"
        assert len(traj) - 1 == o.dim + 3

    def test_positive_final_loss_when_overdetermined(self):
        # Far more samples than parameters: exact fit is generically
        # impossible, so the minimum keeps a positive loss.
        o, p0 = build_instance(43, (2, 2, 1), 60)
        _, traj = minimize(o, p0, LIMITS)
        assert traj.losses[-1] > 0.1

    def test_step_lengths_match_points(self):
        o, p0 = build_instance(44, (1, 1, 1), 5)
        _, traj = minimize(o, p0, LIMITS)
        recomputed = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
        assert_allclose(traj.step_lengths[1:], recomputed)
        assert traj.step_lengths[0] == 0.0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**20))
    def test_random_toys_monotone(self, seed):
        o, p0 = build_instance(seed, (1, 1, 1), 4)
        theta, traj = minimize(o, p0, SolverLimits(validate=True))
        assert np.all(np.diff(traj.losses) <= 1e-10 * (1 + traj.losses[:-1]))
        assert np.array_equal(traj.points[-1], theta)


def scratch_work(o, v):
    """A _VertexWork of v's point, active set and factorization with nothing
    carried: the region is rebuilt by make_region and the pricing from
    scratch."""
    region = orc.make_region(o, v.region.signature)
    pricing = solver._pricing(o, region, v.located)
    bare = solver.VertexState(
        v.point, v.located, v.normals, region, v.factorization, v.flat, v.loss, pricing
    )
    return _VertexWork(o, bare)


def assert_priced_as_from_scratch(o, v):
    """v's pricing and derivative table equal, bit for bit, the ones built
    from scratch; returns v's _VertexWork."""
    work, fresh = _VertexWork(o, v), scratch_work(o, v)
    got, want = work.v.pricing, fresh.v.pricing
    assert got.affected == want.affected
    assert np.array_equal(got.deltas, want.deltas)
    assert np.array_equal(got.ref, want.ref)
    assert got.bent.keys() == want.bent.keys()
    assert all(np.array_equal(got.bent[pos], want.bent[pos]) for pos in want.bent)
    assert np.array_equal(work.table, fresh.table, equal_nan=True)
    return work


class TestCarriedPricing:
    """A pivot hands the next vertex its Pricing with only the redo set
    recomputed; every carried table must equal one priced from scratch."""

    def test_carried_tables_equal_tables_priced_from_scratch(self):
        o, p0, _ = generate_instance(ExperimentConfig(seed=6))
        vertex, _ = descend_to_vertex(o, p0, SolverLimits())
        for _ in range(100):
            work = assert_priced_as_from_scratch(o, vertex)
            outcome = vertex_step(o, vertex, SolverLimits(), work)
            assert outcome is not None
            vertex = outcome[0]
            assert vertex.pricing is not None
        assert_priced_as_from_scratch(o, vertex)

    def test_exchanged_sets_are_priced_from_scratch(self, monkeypatch):
        # _swapped_states builds each exchanged set with dataclasses.replace
        # from a vertex a pivot reached, with a pricing built from scratch;
        # the vertex's carried pricing may not survive it, and the vertex
        # each exchanged set steps to carries its own pricing.
        escapes = []
        escape = solver._escape_if_degenerate

        def recording_escape(work, limits, rng):
            escapes.append((work, limits))
            return escape(work, limits, rng)

        monkeypatch.setattr(solver, "_escape_if_degenerate", recording_escape)
        o, p0, rng = quantized_instance((1, 2, 1), 14, 12)
        minimize(o, p0, SolverLimits(400, validate=True), rng)
        work, limits = next((w, lim) for w, lim in escapes if w.coincident_idx)
        assert work.v.pricing is not None
        exchanged = list(solver._swapped_states(o, work.v, work.coincident_at))
        assert len(exchanged) > 1
        stepped = 0
        for state in exchanged:
            assert state.pricing is not work.v.pricing
            assert_priced_as_from_scratch(o, state)
            outcome = vertex_step(o, state, limits)
            if outcome is not None:
                assert_priced_as_from_scratch(o, outcome[0])
                stepped += 1
        assert stepped > 0

    @pytest.mark.blas_bits
    def test_validated_walk_at_wide_fan_in(self):
        # Layer 2 of (4,40,4,3,2,1) has fan-in 40, where a product over a
        # vertex's D = 200 active rows gives other bits than the full pass
        # unless the row pass spreads it; validate=True compares the two at
        # every vertex, phase 1's and 200 pivots past it.
        config = ExperimentConfig(seed=0, widths=(4, 40, 4, 3, 2, 1), max_iterations=400)
        o, p0, rng = generate_instance(config)
        _, traj = minimize(o, p0, replace(config.solver_limits(), validate=True), rng)
        assert (traj.reason, len(traj) - 1, traj.phase1_len) == ("max_iterations", 400, 200)

    def test_validated_walk_at_d100_redoes_several_positions(self, monkeypatch):
        # The corpus stays at D <= 16, where a pivot rarely redoes more than
        # the entering position. Here many do, and validate=True checks
        # every carried pricing against a rebuild at every vertex. A pivot
        # redoes exactly the positions of the samples its entered region
        # changed and of the leaving and entering surfaces' samples.
        redone, moved, stepping = [], [], []
        step, carried_pricing = solver.vertex_step, solver._carried_pricing

        def recording_step(o, v, limits=None, work=None):
            stepping.append(v)
            try:
                return step(o, v, limits, work)
            finally:
                stepping.pop()

        def recording(o, carried, entered, located, redo):
            region, new = carried_pricing(o, carried, entered, located, redo)
            if stepping and carried is stepping[-1].pricing:
                left = stepping[-1].located
                (pos,) = np.flatnonzero(np.any(located != left, axis=1))
                samples = [*entered.changed, left[pos, 1], located[pos, 1]]
                assert np.array_equal(redo, np.isin(located[:, 1], samples))
                redone.append(int(redo.sum()))
                changed = np.any(new.deltas != carried.deltas, axis=1)
                assert not np.any(changed & ~redo)
                changed[pos] = False
                moved.append(int(changed.sum()))
            return region, new

        monkeypatch.setattr(solver, "vertex_step", recording_step)
        monkeypatch.setattr(solver, "_carried_pricing", recording)
        o, p0 = build_instance(2, (4, 20, 4, 3, 2, 1), 100)
        _, traj = minimize(o, p0, SolverLimits(max_iterations=o.dim + 60, validate=True))
        assert traj.reason == "max_iterations"
        assert len(redone) == 60
        assert sum(r >= 2 for r in redone) >= 10
        assert sum(moved) > 0


class TestDegenerateCorpus:
    """Quantized data and starts make many surfaces meet at one vertex; the
    walk must still converge monotonically through the coincident-surface
    settling of edge pricing, its degenerate escape and its restarts."""

    INSTANCES = [
        (widths, seed)
        for widths in ((2, 3, 2, 1), (2, 2, 1), (3, 4, 3, 1))
        for seed in range(6)
    ]

    @staticmethod
    def converge(widths, seed, n_samples=12, max_iterations=300):
        o, p0, rng = quantized_instance(widths, seed, n_samples)
        limits = SolverLimits(max_iterations=max_iterations, validate=True)
        _, traj = minimize(o, p0, limits, rng)
        label = f"widths={widths} N={n_samples} seed={seed}"
        assert traj.reason == "converged", label
        assert traj.phase1_len == o.dim, label
        diffs = np.diff(traj.losses)
        assert np.all(diffs <= 1e-10 * (1 + traj.losses[:-1])), label
        # The probe raises unless an edge's first crossing lies beyond
        # 1e-12 (1 + |p|), so no pivot, escape steps included, stands still.
        before = np.linalg.norm(traj.points[traj.phase1_len : -1], axis=1)
        assert np.all(traj.step_lengths[traj.phase1_len + 1 :] > 1e-12 * (1 + before)), label
        return traj

    # Two corpus walks (tests/corpus_walks.py) whose start lies on a surface:
    # minimize's attempts, the walk's iterations and its final loss. The
    # second walk's perturbed start reaches a degenerate vertex, so it
    # restarts once more, from minimize's second draw.
    PERTURBED_STARTS = {
        ((2, 2, 1), 12, 19): (2, 26, 6.1273487842526855),
        ((3, 4, 2), 30, 11): (3, 101, 73.18357341841941),
    }

    def test_walks_from_a_start_on_a_surface_pinned(self, monkeypatch):
        attempts = []
        once = solver._minimize_once

        def counting_once(*args):
            attempts.append(None)
            return once(*args)

        monkeypatch.setattr(solver, "_minimize_once", counting_once)
        for (widths, n_samples, seed), want in self.PERTURBED_STARTS.items():
            o, p0, _ = quantized_instance(widths, seed, n_samples)
            with pytest.raises(DegenerateStart):
                descend_to_vertex(o, p0)
            attempts.clear()
            traj = self.converge(widths, seed, n_samples, max_iterations=400)
            label = f"widths={widths} N={n_samples} seed={seed}"
            assert (len(attempts), len(traj) - 1) == want[:2], label
            assert traj.losses[-1] == pytest.approx(want[2], rel=1e-9, abs=0.0), label

    def test_quantized_instances_converge(self, monkeypatch):
        coincident_visits = []
        init = _VertexWork.__init__

        def counting_init(work, *args):
            init(work, *args)
            coincident_visits.append(bool(work.coincident_idx))

        monkeypatch.setattr(_VertexWork, "__init__", counting_init)
        runs_with_coincident = 0
        for widths, seed in self.INSTANCES:
            coincident_visits.clear()
            self.converge(widths, seed)
            runs_with_coincident += any(coincident_visits)
        assert runs_with_coincident >= 1

    def test_escape_steps_and_restarts_converge(self, monkeypatch):
        # The first two walks stall at a degenerate vertex and leave it by an
        # escape step; on the third a new vertex's normal matrix is singular,
        # and the walk restarts from a perturbed start.
        escapes, attempts = [], []
        escape, once = solver._escape_if_degenerate, solver._minimize_once

        def counting_escape(*args):
            outcome = escape(*args)
            escapes.append(outcome is not None)
            return outcome

        def counting_once(*args):
            attempts.append(None)
            return once(*args)

        monkeypatch.setattr(solver, "_escape_if_degenerate", counting_escape)
        monkeypatch.setattr(solver, "_minimize_once", counting_once)
        for widths, n_samples, seed, restarts in (
            ((1, 2, 1), 12, 14, False),
            ((1, 2, 1), 12, 15, False),
            ((2, 4, 1), 30, 2, True),
        ):
            escapes.clear()
            attempts.clear()
            self.converge(widths, seed, n_samples, max_iterations=400)
            label = f"widths={widths} N={n_samples} seed={seed}"
            if restarts:
                assert len(attempts) > 1, label
            else:
                assert any(escapes), label

    def test_escape_moves_past_an_exchanged_set_that_raises(self, monkeypatch):
        # At this walk's escape, exchanged sets 16 and 17 both step. When
        # set 16's pivot raises instead, the escape takes set 17's step.
        escapes = []
        escape = solver._escape_if_degenerate

        def recording_escape(work, limits, rng):
            state = rng.state
            outcome = escape(work, limits, rng)
            if outcome is not None:
                escapes.append((work, limits, state))
            return outcome

        monkeypatch.setattr(solver, "_escape_if_degenerate", recording_escape)
        o, p0, rng = quantized_instance((1, 2, 1), 14, 12)
        minimize(o, p0, SolverLimits(400, validate=True), rng)
        work, limits, state = escapes[0]

        step = solver.vertex_step
        exchanged = list(solver._swapped_states(o, work.v, work.coincident_at))
        stepping = [q for q, v in enumerate(exchanged) if step(o, v, limits) is not None]
        assert stepping[:2] == [16, 17]
        calls = []

        def first_step_raises(o, v, limits=None, work=None):
            calls.append(v.active)
            outcome = step(o, v, limits, work)
            if outcome is not None and len(calls) == stepping[0] + 1:
                raise DegenerateVertex("rejected")
            return outcome

        monkeypatch.setattr(solver, "vertex_step", first_step_raises)
        rng = SplitMix64(0)
        rng.state = state
        vertex, record = escape(work, limits, rng)
        assert [v.active for v in exchanged[: len(calls)]] == calls
        assert len(calls) == stepping[1] + 1
        want_vertex, want_record = step(o, exchanged[stepping[1]], limits)
        assert record == want_record
        assert np.array_equal(vertex.point, want_vertex.point)


def _scan_by_rule(o, v):
    """The coincident flat indices (ascending) and the ratio screen's
    excluded mask of vertex v, from scratch: every inactive surface with
    |value| <= act is coincident, and the mask holds those and the active
    ones."""
    close = np.abs(v.flat) <= o.tol.act
    active = o.layout.positions(v.located)
    close[active] = False
    coincident = sorted(o.layout.indices(close.nonzero()[0]).tolist())
    close[active] = True
    return coincident, close


class TestSharedScan:
    """_VertexWork.__init__ scans a vertex's values once: the coincident
    set, the ratio screen's excluded mask and its first round come from
    that scan. They must equal the rule computed from scratch, and every
    ratio test the full scan's crossing, whether its first round settles it
    or not."""

    # Validated walks: (instance, iteration cap, whether some vertex has
    # coincident surfaces). The quantized corpus walks (N = 30) meet up to
    # 59, 48 and 37 coincident surfaces at a vertex.
    WALKS = {
        "N=2000 seed 3": (
            lambda: generate_instance(ExperimentConfig(seed=3, samples=2000)), 25 + 40, False
        ),
        "quantized (2,3,2,1) N=30 seed 1": (
            lambda: quantized_instance((2, 3, 2, 1), 1, 30), 400, True
        ),
        "quantized (3,4,3,1) N=30 seed 2": (
            lambda: quantized_instance((3, 4, 3, 1), 2, 30), 400, True
        ),
        "quantized (2,3,3,2) N=30 seed 0": (
            lambda: quantized_instance((2, 3, 3, 2), 0, 30), 400, True
        ),
    }

    @staticmethod
    def walk(name):
        instance, cap, _ = TestSharedScan.WALKS[name]
        o, p0, rng = instance()
        _, traj = minimize(o, p0, SolverLimits(max_iterations=cap, validate=True), rng)
        return o, traj

    @staticmethod
    def check_scan(work):
        o, v, screen = work.o, work.v, work.screen
        coincident, excluded = _scan_by_rule(o, v)
        assert work.coincident_idx == coincident
        assert np.array_equal(work.coincident_slots, slots(o.layout, coincident))
        assert np.array_equal(screen.excluded, excluded)
        top = float(np.max(np.abs(v.flat)))
        assert screen.top == top or (np.isnan(top) and np.isnan(screen.top))
        if not np.isnan(top):
            assert screen.start >= max(orc.screen_start(top, v.flat.size), o.tol.act)
        assert np.array_equal(screen.near, (np.abs(v.flat) <= screen.start).nonzero()[0])

    @pytest.mark.parametrize("count", [None, 1e-6], ids=["screen count", "start below act"])
    @pytest.mark.parametrize("name", WALKS)
    def test_coincident_set_and_excluded_mask_follow_the_rule(self, monkeypatch, name, count):
        # With a count of 1e-6 the count-based start falls below act, which
        # the scan then takes, so that it still finds every coincident
        # surface.
        if count is not None:
            monkeypatch.setattr(orc, "_SCREEN_COUNT", count)
        init, coincident = _VertexWork.__init__, []

        def checked(work, o, v):
            init(work, o, v)
            self.check_scan(work)
            coincident.append(len(work.coincident_idx))

        monkeypatch.setattr(_VertexWork, "__init__", checked)
        _, traj = self.walk(name)
        assert len(coincident) >= len(traj) - 1 - traj.phase1_len
        assert any(coincident) == self.WALKS[name][2]

    @pytest.mark.parametrize("count", [None, 1e-6], ids=["screen count", "first round misses"])
    @pytest.mark.parametrize("name", WALKS)
    def test_crossings_equal_the_full_scan(self, monkeypatch, name, count):
        # With a count of 1e-6 the first round of a pivot's test holds only
        # surfaces within act of zero, which the test skips, so every such
        # test widens the screen (oracle._within) before it settles.
        if count is not None:
            monkeypatch.setattr(orc, "_SCREEN_COUNT", count)
        ratio, within = orc._ratio_from_arrays, orc._within
        tests, widened = [], []

        def replayed(flat, dvals, screen):
            widened.append(False)
            got = ratio(flat, dvals, screen)
            tests.append((got, orc._full_scan(flat, dvals, screen), screen.side is flat))
            return got

        def counted(flat, c):
            widened[-1] = True
            return within(flat, c)

        monkeypatch.setattr(orc, "_ratio_from_arrays", replayed)
        monkeypatch.setattr(orc, "_within", counted)
        o, traj = self.walk(name)
        by_value = [w for w, (*_, value) in zip(widened, tests) if value]
        assert len(by_value) >= len(traj) - 1 - traj.phase1_len
        for got, want, _ in tests:
            assert got == want
        if count is not None:
            assert all(by_value)
        elif o.n_samples == 2000:
            assert sum(by_value) < len(by_value) // 4

    def test_a_nan_value_leaves_the_rule_and_the_crossings_alone(self):
        # A NaN value makes the largest magnitude NaN, so the screen's first
        # round falls back to act, and every test scans fully.
        o, p0, rng = quantized_instance((2, 3, 2, 1), 1, 30)
        vertex, _ = descend_to_vertex(o, p0, LIMITS)
        assert _VertexWork(o, vertex).coincident_idx
        coincident, excluded = _scan_by_rule(o, vertex)
        flat = vertex.flat.copy()
        flat[np.flatnonzero(~excluded)[[0, -1]]] = np.nan
        work = _VertexWork(o, replace(vertex, flat=flat))
        self.check_scan(work)
        assert work.coincident_idx == coincident
        assert np.isnan(work.screen.top) and work.screen.start == o.tol.act
        _, units, flip_units = work._batch
        for pos in range(o.dim):
            for d in (units[:, pos], -units[:, pos], flip_units[:, pos]):
                dvals = orc.constraint_jvp_flat(o, vertex.region.masks, d)
                got = orc._ratio_from_arrays(flat, dvals, work.screen)
                assert got == orc._full_scan(flat, dvals, work.screen)
