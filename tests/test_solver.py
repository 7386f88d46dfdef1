import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import build_instance, quantized_instance
from vertexwalk import oracle as orc
from vertexwalk import solver
from vertexwalk.errors import DegenerateVertex
from vertexwalk.linalg import factorize, solve
from vertexwalk.network import Architecture, LayerParams, TrainingSet
from vertexwalk.oracle import make_oracle
from vertexwalk.prng import SplitMix64
from vertexwalk.solver import (
    SolverLimits,
    _VertexWork,
    descend_to_vertex,
    edge_directions,
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
    return orc.resolve_signature(o, vals, vertex.signature.with_state(vertex.active[pos], sign))


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
        for idx in vertex.active:
            assert abs(flat[idx]) <= o.tol.act

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
        sig = orc.region_signature(o, p0)
        piece = orc.affine_piece(o, sig)
        d0 = -piece.gradient / np.linalg.norm(piece.gradient)

        # Locate the first surface along the descent ray by a dense scan
        # of raw constraint values, independent of the ratio test.
        ts = np.linspace(0.0, 50.0, 20001)
        flats = np.array(
            [orc.constraint_values_flat(o, orc.forward_values(o, p0 + t * d0)) for t in ts]
        )
        signs = flats < 0
        changed = signs[1:] != signs[:1]
        first_row = np.argmax(np.any(changed, axis=1))
        first_tag_idx = int(np.argmax(changed[first_row]))
        lo, hi = ts[first_row], ts[first_row + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            v = orc.constraint_values_flat(o, orc.forward_values(o, p0 + mid * d0))
            if (v[first_tag_idx] < 0) == signs[0, first_tag_idx]:
                lo = mid
            else:
                hi = mid
        near = p0 + (lo - 1e-7 * (1 + lo)) * d0

        vertex, records = descend_to_vertex(o, near, LIMITS)
        assert vertex.active[0] == first_tag_idx

    def test_perturbs_degenerate_start(self):
        o, _ = build_instance(35, (1, 1, 1), 3)
        vertex, records = descend_to_vertex(o, np.zeros(2), LIMITS)
        assert len(vertex.active) == 2


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
        cands = edge_directions(o, vertex)
        assert len(cands) <= 2 * o.dim
        for c in cands:
            assert np.linalg.norm(c.direction) == pytest.approx(1.0, abs=1e-12)
            masks = orc.region_masks(c.entered)
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
        for c in edge_directions(o, vertex):
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
        cases.append((o, descend_to_vertex(o, p0, LIMITS, rng)[0]))
        assert _VertexWork(*cases[-1]).coincident_idx

        affected_sides = 0
        for o, vertex in cases:
            work = _VertexWork(o, vertex)
            edges = work.edges()
            assert len(edges) == 2 * o.dim
            affected_sides += 2 * sum(map(bool, work.affected))
            tol = 1e-9 * (1.0 + float(np.sum(np.abs(work.g))))
            for (pos, sign), c in edges.items():
                assert c.leaving == vertex.active[pos] and c.sign == sign
                entered = entered_signature(o, vertex, pos, sign, c.direction)
                assert c.entered.equals(entered)
                masks = orc.region_masks(entered)
                assert_allclose(
                    c.direction, edge_solve(o, vertex, masks, pos, sign), rtol=0, atol=1e-12
                )
                g_entered = orc.region_gradient(o, masks, orc.region_sigma(entered))
                assert abs(c.derivative - float(g_entered @ c.direction)) <= tol
        assert affected_sides > 0

    def test_batch_skips_exactly_the_sides_candidate_rejects(self, monkeypatch):
        # Releasing unit u moves each affected normal by a multiple of u's
        # own normal, so at a vertex with a nonsingular normal matrix no
        # release can zero one. The collapse is therefore built by zeroing
        # one affected normal on the flipped side of one release. The
        # reference is a dense solve against each side's entered normals,
        # recomputed through the patched oracle.
        o, p0 = build_instance(81, (2, 3, 2, 1), 10)
        vertex, _ = descend_to_vertex(o, p0, LIMITS)
        assert not _VertexWork(o, vertex).coincident_idx
        sides = [(pos, sign) for pos in range(o.dim) for sign in (1, -1)]

        def outcomes():
            work = _VertexWork(o, vertex)
            skipped = set(sides) - set(work.edges())
            rejected, dependent = set(), set()
            for pos, sign in sides:
                try:
                    work.candidate(pos, sign, probe=False)
                except DegenerateVertex:
                    rejected.add((pos, sign))
                entered = vertex.signature.with_state(vertex.active[pos], sign)
                try:
                    edge_solve(o, vertex, orc.region_masks(entered), pos, sign)
                except np.linalg.LinAlgError:
                    dependent.add((pos, sign))
            return skipped, rejected, dependent

        assert outcomes() == (set(), set(), set())

        work = _VertexWork(o, vertex)
        pos = next(q for q, affected in enumerate(work.affected) if affected)
        killed = vertex.active[work.affected[pos][0]]
        array, i, k = work.located[pos]
        flipped_on = vertex.signature.state_of(vertex.active[pos]) < 0
        normal = orc.constraint_normal

        def killing_normal(o, masks, idx):
            col = normal(o, masks, idx)
            if idx == killed and (masks[array][i, k] > 0) == flipped_on:
                return np.zeros_like(col)
            return col

        monkeypatch.setattr(orc, "constraint_normal", killing_normal)
        skipped, rejected, dependent = outcomes()
        assert skipped == rejected == dependent == {(pos, 1 if flipped_on else -1)}

    def test_derivatives_at_reference_scale(self):
        o, vertex = reference_scale_vertex()
        delta = 1e-6
        v0 = orc.value(o, vertex.point)
        cands = edge_directions(o, vertex)
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
        vertex, records = descend_to_vertex(o, theta, LIMITS)
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
            for idx in new_vertex.active:
                assert abs(flat[idx]) <= o.tol.act
            vertex = new_vertex
            steps += 1
        assert steps >= 1


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

    def test_quantized_instances_converge(self, monkeypatch):
        coincident_visits = []
        edges = _VertexWork.edges

        def counting_edges(work):
            coincident_visits.append(bool(work.coincident_idx))
            return edges(work)

        monkeypatch.setattr(_VertexWork, "edges", counting_edges)
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
