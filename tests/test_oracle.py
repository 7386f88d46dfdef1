from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import build_instance, in_flat_order, interior_point
from reference import (
    AmbiguousSignature,
    NetworkParams,
    NoCrossing,
    affine_piece,
    constraint_eval,
    forward_batch,
    l1_loss,
    network_params,
    ratio_test,
    region_signature,
    state_of,
    with_state,
)
from vertexwalk.errors import InvalidTag, ShapeMismatch
from vertexwalk.network import Architecture, LayerParams, TrainingSet, relu
from vertexwalk.oracle import (
    ConstraintLayout,
    constraint_jvp_flat,
    _full_scan,
    _ratio_from_arrays,
    ratio_screen,
    constraint_values_flat,
    crossing_candidates,
    forward_values,
    gradient_from_rows,
    make_oracle,
    make_region,
    release_corrections,
    region_gradient,
    region_masks,
    sample_gradient_rows,
    states_flat,
    tag_index,
    value,
)
from vertexwalk import oracle as orc
from vertexwalk.prng import SplitMix64

# Reference scale, D = 100 and two outputs.
ROW_INSTANCES = [((4, 5, 4, 3, 2, 1), 500), ((4, 20, 4, 3, 2, 1), 500), ((3, 4, 3, 2), 40)]


def _two_half_corrections(o, masks, released, dirs):
    """release_corrections as computed before the reference rows were
    carried: reference and flipped rows of the released samples in one
    sample_gradient_rows call, reference half first."""
    arrays, samples, units = (np.array(c, dtype=int) for c in zip(*released))
    dmats = dirs.T.reshape(len(samples), o.arch.widths[1], o.arch.widths[0] + 1)
    dz = np.einsum("qkc,qc->qk", dmats, o.x_aug[samples])
    ref = [m[samples] for m in masks]
    new = [a.copy() for a in ref]
    for l, a in enumerate(new):
        q = np.flatnonzero(arrays == l)
        old = a[q, units[q]]
        a[q, units[q]] = -old if l == len(masks) - 1 else 1.0 - old
    both = [np.concatenate(pair) for pair in zip(ref, new)]
    rows = sample_gradient_rows(o, both)
    n = len(samples)
    return np.sum((rows[n:] - rows[:n]) * dz, axis=1)


def flipped_deltas(o, region, idx):
    """Row deltas built from whole regions: row q is the sample's row of
    surface idx[q] in make_region of region's signature with that surface's
    state flipped, minus the sample's row in region."""
    sig = region.signature
    out = []
    for i in idx:
        sample = o.layout.locate(i)[1]
        flipped = make_region(o, with_state(sig, i, -state_of(sig, i)))
        out.append(flipped.rows[sample] - region.rows[sample])
    return np.array(out).reshape(len(idx), o.arch.widths[1])


def tiny_instance(w2=1.0, b2=0.0, xs=(1.0,), ys=(2.0,)):
    """widths (1,1,1) instance with one hidden unit and explicit data."""
    arch = Architecture((1, 1, 1))
    fixed = [LayerParams(np.array([[w2]]), np.array([b2]))]
    data = TrainingSet(
        np.array([[x] for x in xs]), np.array([[y] for y in ys])
    )
    return make_oracle(arch, fixed, data)


class TestMakeOracle:
    def test_reference_configuration_dimension(self):
        o, _ = build_instance(3, (4, 5, 4, 3, 2, 1), 10)
        assert o.dim == 25

    def test_toy_dimension_and_counts(self):
        o, _ = build_instance(4, (1, 1, 1), 3)
        assert o.dim == 2
        assert o.n_constraints == 6

    def test_missing_fixed_layers_rejected(self):
        arch = Architecture((2, 3, 1))
        data = TrainingSet(np.zeros((2, 2)), np.zeros((2, 1)))
        with pytest.raises(ShapeMismatch):
            make_oracle(arch, [], data)

    def test_wrong_fixed_shape_rejected(self):
        arch = Architecture((2, 3, 1))
        data = TrainingSet(np.zeros((2, 2)), np.zeros((2, 1)))
        with pytest.raises(ShapeMismatch):
            make_oracle(arch, [LayerParams(np.zeros((1, 2)), np.zeros(1))], data)


class TestValue:
    def test_exact_fit_gives_zero(self):
        o = tiny_instance(w2=1.0, b2=0.0, xs=(1.0,), ys=(2.0,))
        assert value(o, np.array([1.0, 1.0])) == 0.0

    def test_matches_l1_loss_on_random_points(self):
        o, _ = build_instance(5, (3, 4, 3, 1), 20)
        rng = SplitMix64(55)
        for _ in range(100):
            p = rng.uniform_block(o.dim, -5, 5)
            expected = l1_loss(network_params(o, p), o.data)
            assert value(o, p) == pytest.approx(expected, rel=1e-12)

    def test_local_lipschitz_probe(self):
        o, _ = build_instance(6, (2, 3, 2, 1), 15)
        rng = SplitMix64(66)
        for _ in range(10):
            p = interior_point(o, rng, min_clear=1e-3)
            g = affine_piece(o, region_signature(o, p)).gradient
            lip = np.linalg.norm(g)
            for _ in range(5):
                delta = rng.uniform_block(o.dim, -1, 1)
                delta *= 1e-6 / np.linalg.norm(delta)
                change = abs(value(o, p + delta) - value(o, p))
                assert change <= lip * np.linalg.norm(delta) * (1 + 1e-9) + 1e-15


class TestRegionSignature:
    def test_all_positive_states(self):
        o = tiny_instance(w2=1.0, b2=0.0, xs=(1.0,), ys=(10.0,))
        sig = region_signature(o, np.array([1.0, 1.0]))
        assert sig.states[0][0, 0] == 1
        assert sig.states[-1][0, 0] == 1

    def test_half_tolerance_is_zero_state(self):
        o = tiny_instance(xs=(1.0,), ys=(5.0,))
        z = 0.5 * o.tol.act
        sig = region_signature(o, np.array([z, 0.0]))
        assert sig.states[0][0, 0] == 0
        assert sig.has_zeros

    def test_consistent_with_forward_trace(self):
        o, _ = build_instance(7, (2, 3, 2, 1), 12)
        rng = SplitMix64(77)
        for _ in range(20):
            p = rng.uniform_block(o.dim, -4, 4)
            sig = region_signature(o, p)
            pres, _ = forward_batch(network_params(o, p), o.data.inputs)
            for states, z in zip(sig.states[:-1], pres, strict=True):
                clear = np.abs(z) > o.tol.act
                assert np.array_equal(states[clear], np.sign(z[clear]).astype(np.int8))


# Hidden widths (4, 3) and two outputs, N = 40. The pool holds a few
# surfaces of three samples in every state array, so that chains flip one
# surface again and several surfaces of one sample.
REGION_O, _ = build_instance(17, (3, 4, 3, 2), 40)
REGION_POOL = [s * 7 + u for s in (0, 5, 39) for u in (0, 4, 6)]
REGION_POOL += [40 * 7 + 2 * s + j for s in (0, 5) for j in (0, 1)]


class TestRegion:
    """Region.with_state chains must give the region a from-scratch build
    gives, while sharing what they leave unchanged."""

    @settings(max_examples=80)
    @given(
        flips=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from(REGION_POOL), st.integers(0, REGION_O.n_constraints - 1)
                ),
                st.sampled_from([-1, 1]),
            ),
            max_size=10,
        )
    )
    def test_with_state_chains_match_a_fresh_build(self, flips):
        o = REGION_O
        assert o.hidden_total == 7
        base = make_region(o, region_signature(o, interior_point(o, SplitMix64(170))))
        region = base
        for idx, state in flips:
            region = region.with_state(idx, state)
        sig = region.signature
        fresh = make_region(o, sig)
        assert len(region.masks) == len(fresh.masks)
        assert all(map(np.array_equal, region.masks, fresh.masks))
        assert np.array_equal(region.rows, fresh.rows)
        assert np.array_equal(region.gradient, fresh.gradient)
        assert np.array_equal(region.gradient, region_gradient(o, region_masks(sig)))
        # changed is ascending and covers every sample whose states differ.
        differ = np.zeros(o.n_samples, dtype=bool)
        for a, b in zip(sig.states, base.signature.states, strict=True):
            differ |= np.any(a != b, axis=1)
        assert list(region.changed) == sorted(set(region.changed))
        assert set(np.flatnonzero(differ).tolist()) <= set(region.changed)
        touched = {o.layout.locate(idx)[0] for idx, _ in flips}
        for array in range(len(sig.states)):
            kept = array not in touched
            assert (sig.states[array] is base.signature.states[array]) == kept
            assert (region.masks[array] is base.masks[array]) == kept
        # Nothing was written in place.
        assert all(map(np.array_equal, base.masks, region_masks(base.signature)))
        assert np.array_equal(base.rows, sample_gradient_rows(o, region_masks(base.signature)))

    @settings(max_examples=60)
    @given(
        flips=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from(REGION_POOL), st.integers(0, REGION_O.n_constraints - 1)
                ),
                st.sampled_from([-1, 1]),
            ),
            max_size=12,
            unique_by=lambda flip: flip[0],
        )
    )
    def test_with_states_matches_a_with_state_chain(self, flips):
        # One bulk update (a vertex's coincident guess) gives the region a
        # chain of one-surface updates gives, copying each touched array once.
        o = REGION_O
        base = make_region(o, region_signature(o, interior_point(o, SplitMix64(172))))
        chain = base
        for idx, state in flips:
            chain = chain.with_state(idx, state)
        rows = [o.layout.locate(idx) for idx, _ in flips]
        bulk = base.with_states(rows, [state for _, state in flips])
        assert bulk.changed == chain.changed
        assert bulk.signature.equals(chain.signature)
        assert all(map(np.array_equal, bulk.masks, chain.masks))
        assert np.array_equal(bulk.rows, chain.rows)
        touched = {array for array, _, _ in rows}
        for array in range(len(base.masks)):
            kept = array not in touched
            assert (bulk.masks[array] is base.masks[array]) == kept
            assert (bulk.signature.states[array] is base.signature.states[array]) == kept

    @settings(max_examples=40)
    @given(
        flips=st.lists(
            st.tuples(st.sampled_from(REGION_POOL), st.sampled_from([-1, 1])), max_size=6
        ),
        released=st.lists(
            st.one_of(
                st.sampled_from(REGION_POOL), st.integers(0, REGION_O.n_constraints - 1)
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_rerooted_rows_and_deltas_match_separate_builds(self, flips, released):
        # One sample_gradient_rows call gives the changed rows and the
        # released surfaces' flipped rows; both must keep every bit.
        o = REGION_O
        region = make_region(o, region_signature(o, interior_point(o, SplitMix64(171))))
        for idx, state in flips:
            region = region.with_state(idx, state)
        at = o.layout.locate_many(released)
        rerooted, deltas = region.rerooted(at)
        fresh = make_region(o, region.signature)
        assert rerooted.changed == () and rerooted.masks is region.masks
        assert np.array_equal(rerooted.rows, fresh.rows)
        assert np.array_equal(deltas, flipped_deltas(o, fresh, released))


class TestAffinePiece:
    def test_dead_first_layer_sample_contributes_nothing(self):
        o, _ = build_instance(8, (2, 3, 2, 1), 10)
        rng = SplitMix64(88)
        found = False
        for _ in range(300):
            p = rng.uniform_block(o.dim, -4, 4)
            vals = forward_values(o, p)
            dead = np.flatnonzero(np.all(vals.arrays[0] < -1e-6, axis=1))
            if dead.size == 0:
                continue
            found = True
            sig = region_signature(o, p)
            rows = sample_gradient_rows(o, region_masks(sig))
            assert_allclose(rows[int(dead[0])], np.zeros(o.arch.widths[1]))
            break
        assert found

    def test_release_corrections_match_flipped_gradients(self):
        # Every surface of every sample, two outputs: the batched slope
        # change must equal the change of the full region gradient.
        o, _ = build_instance(12, (2, 3, 2, 2), 8)
        p = interior_point(o, SplitMix64(120))
        sig = region_signature(o, p)
        masks = region_masks(sig)
        g = region_gradient(o, masks)
        idx = list(range(o.n_constraints))
        dirs = SplitMix64(121).uniform_block(o.dim * len(idx), -1, 1).reshape(o.dim, -1)
        region = make_region(o, sig)
        released = o.layout.locate_many(idx)
        deltas = flipped_deltas(o, region, idx)
        assert np.array_equal(deltas, region.rerooted(released)[1])
        got = release_corrections(o, deltas, released[:, 1], dirs)
        for q, i in enumerate(idx):
            flipped = with_state(sig, i, -state_of(sig, i))
            g_new = region_gradient(o, region_masks(flipped))
            assert got[q] == pytest.approx(float((g_new - g) @ dirs[:, q]), abs=1e-10)

    @pytest.mark.parametrize("widths,n_samples", ROW_INSTANCES)
    def test_carried_reference_rows_give_the_same_bits(self, widths, n_samples):
        # Region.rerooted takes each released sample's reference row from
        # the region's rows instead of computing it next to the flipped
        # row, and release_corrections applies the deltas apart from their
        # build; the corrections must keep every bit.
        o, _ = build_instance(15, widths, n_samples)
        rng = SplitMix64(150)
        sig = region_signature(o, rng.uniform_block(o.dim, -5, 5))
        region = make_region(o, sig)
        masks = region.masks
        # D surfaces, as at a vertex: every state array, samples repeated.
        h = o.hidden_total
        picks = rng.uniform_block(o.dim, 0, 1)
        idx = [int(u * n_samples * h) for u in picks[:-4]]
        idx += [n_samples * h + int(u * n_samples * o.arch.output_dim) for u in picks[-4:-1]]
        idx += [idx[0] - idx[0] % h + h - 1]
        released = [o.layout.locate(i) for i in idx]
        assert {a for a, _, _ in released} == set(range(o.arch.hidden_depth + 1))
        dirs = rng.uniform_block(o.dim * len(idx), -1, 1).reshape(o.dim, -1)
        deltas = flipped_deltas(o, region, idx)
        assert np.array_equal(deltas, region.rerooted(released)[1])
        samples = np.array([i for _, i, _ in released])
        got = release_corrections(o, deltas, samples, dirs)
        assert np.array_equal(got, _two_half_corrections(o, masks, released, dirs))

    @pytest.mark.parametrize("widths,n_samples", ROW_INSTANCES)
    def test_gradient_rows_of_any_subset_equal_full_rows(self, widths, n_samples):
        # The solver patches the rows of changed samples into carried ones,
        # so a subset must give the very same bits as the full batch.
        o, _ = build_instance(13, widths, n_samples)
        rng = SplitMix64(130)
        sig = region_signature(o, rng.uniform_block(o.dim, -5, 5))
        masks = region_masks(sig)
        full = sample_gradient_rows(o, masks)
        assert full.shape == (n_samples, o.arch.widths[1])
        assert np.array_equal(gradient_from_rows(o, full), region_gradient(o, masks))
        for size in (1, 2, 7, n_samples // 3):
            pick = np.sort(np.argsort(rng.uniform_block(n_samples))[:size])
            sub = sample_gradient_rows(o, [m[pick] for m in masks])
            assert np.array_equal(sub, full[pick])

    @pytest.mark.parametrize("widths,n_samples", ROW_INSTANCES)
    def test_patched_rows_give_flipped_region_gradient(self, widths, n_samples):
        o, _ = build_instance(14, widths, n_samples)
        rng = SplitMix64(140)
        region = make_region(o, region_signature(o, rng.uniform_block(o.dim, -5, 5)))
        # One surface in every state array: each hidden layer and the residuals.
        h = o.hidden_total
        sample = int(rng.uniform(0, n_samples))
        idx = [sample * h + o.layer_offset(l) for l in range(1, o.arch.hidden_depth + 1)]
        idx.append(n_samples * h + sample * o.arch.output_dim)
        for i in idx:
            flipped = region.with_state(i, -state_of(region.signature, i))
            assert flipped.changed == (sample,)
            masks = region_masks(flipped.signature)
            assert np.array_equal(flipped.gradient, region_gradient(o, masks))

    def test_gradient_matches_central_differences(self):
        from reference import fd_gradient

        o, _ = build_instance(9, (3, 4, 2, 1), 25)
        rng = SplitMix64(99)
        for _ in range(8):
            p = interior_point(o, rng, min_clear=5e-3)
            g = affine_piece(o, region_signature(o, p)).gradient
            fd = fd_gradient(o, p, h=1e-5 * (1 + np.linalg.norm(p)))
            assert np.linalg.norm(fd - g) <= 1e-6 * np.linalg.norm(g)

    def test_intercept_reproduces_value(self):
        o, _ = build_instance(10, (2, 3, 1), 15)
        rng = SplitMix64(110)
        for _ in range(10):
            p = interior_point(o, rng, min_clear=1e-4)
            piece = affine_piece(o, region_signature(o, p))
            predicted = piece.gradient @ p + piece.intercept
            assert predicted == pytest.approx(value(o, p), rel=1e-10)

    def test_zero_states_rejected(self):
        o = tiny_instance()
        sig = region_signature(o, np.array([0.0, 0.0]))
        with pytest.raises(AmbiguousSignature):
            affine_piece(o, sig)


class TestConstraintEval:
    def test_first_layer_gradient_block(self):
        o, _ = build_instance(12, (3, 2, 1), 6)
        rng = SplitMix64(112)
        p = rng.uniform_block(o.dim, -2, 2)
        sig = region_signature(o, p)
        i, k = 4, 1
        val, grad = constraint_eval(o, p, sig, tag_index(o, 1, i, k))
        block = grad.reshape(2, 4)
        assert_allclose(block[k, :3], o.data.inputs[i])
        assert block[k, 3] == 1.0
        assert_allclose(block[1 - k], np.zeros(4))
        vals = forward_values(o, p)
        assert val == pytest.approx(float(vals.arrays[0][i, k]), abs=1e-14)

    def test_gradient_matches_finite_differences(self):
        o, _ = build_instance(13, (2, 3, 2, 2), 8)
        rng = SplitMix64(113)
        p = interior_point(o, rng, min_clear=5e-3)
        sig = region_signature(o, p)
        h = 1e-6 * (1 + np.linalg.norm(p))
        for surface in [(2, 2, 0), (1, 5, 2), (3, 3, 1)]:
            val, grad = constraint_eval(o, p, sig, tag_index(o, *surface))
            fd = np.zeros(o.dim)
            for j in range(o.dim):
                e = np.zeros(o.dim)
                e[j] = h
                vp = _constraint_value(o, p + e, surface)
                vm = _constraint_value(o, p - e, surface)
                fd[j] = (vp - vm) / (2 * h)
            assert np.linalg.norm(fd - grad) <= 1e-6 * (1 + np.linalg.norm(grad))

    def test_surface_point_has_zero_value(self):
        o, _ = build_instance(14, (2, 2, 1), 6)
        rng = SplitMix64(114)
        surface = (1, 1, 0)
        a = rng.uniform_block(o.dim, -5, 5)
        b = rng.uniform_block(o.dim, -5, 5)
        va = _constraint_value(o, a, surface)
        vb = _constraint_value(o, b, surface)
        # Find a segment that crosses the surface, then bisect onto it.
        tries = 0
        while (va < 0) == (vb < 0):
            b = rng.uniform_block(o.dim, -5, 5)
            vb = _constraint_value(o, b, surface)
            tries += 1
            assert tries < 100
        for _ in range(80):
            m = 0.5 * (a + b)
            vm = _constraint_value(o, m, surface)
            if (vm < 0) == (va < 0):
                a, va = m, vm
            else:
                b, vb = m, vm
        p_surface = 0.5 * (a + b)
        sig = region_signature(o, p_surface)
        val, _ = constraint_eval(o, p_surface, sig, tag_index(o, *surface))
        assert abs(val) <= o.tol.act

    def test_invalid_tag(self):
        o, p = build_instance(15, (1, 1, 1), 2)
        sig = region_signature(o, p)
        for idx in (-1, o.n_constraints):
            with pytest.raises(InvalidTag):
                constraint_eval(o, p, sig, idx)
        # Sample 2 of 2, layer 0, layer L+2 and unit 1 of width-1 layers.
        for surface in [(1, 2, 0), (0, 0, 0), (3, 0, 0), (1, 0, 1), (2, 0, 1), (1, -1, 0)]:
            with pytest.raises(InvalidTag):
                tag_index(o, *surface)


def _constraint_value(o, p, surface):
    """Value of the surface (layer, sample, unit), layer L+1 for residuals,
    read directly from the forward pass."""
    layer, sample, unit = surface
    return float(forward_values(o, p).arrays[layer - 1][sample, unit])


def _documented_order(o):
    """(layer, sample, unit) of every surface in the documented flat order:
    each sample's hidden units by layer then unit, sample after sample, then
    the residuals by sample then output."""
    depth = o.arch.hidden_depth
    for i in range(o.n_samples):
        for l in range(1, depth + 1):
            for k in range(o.arch.widths[l]):
                yield l, i, k
    for i in range(o.n_samples):
        for j in range(o.arch.output_dim):
            yield depth + 1, i, j


@st.composite
def _layouts(draw, max_samples=6, max_width=4):
    """A ConstraintLayout of 0 to 3 hidden layers, as OracleInstance builds
    one."""
    hidden = draw(st.lists(st.integers(1, max_width), min_size=0, max_size=3))
    pos = tuple((l, k) for l, w in enumerate(hidden) for k in range(w))
    n_samples = draw(st.integers(1, max_samples))
    return ConstraintLayout(n_samples, draw(st.integers(1, 3)), len(hidden), pos)


def _layout_size(layout):
    return layout.n_samples * (len(layout.neuron_pos) + layout.output_dim)


class TestEnumerateConstraints:
    def test_reference_count(self):
        o, _ = build_instance(16, (4, 5, 4, 3, 2, 1), 500)
        assert o.n_constraints == 500 * (5 + 4 + 3 + 2) + 500 * 1 == 7500

    def test_minimal_toy(self):
        o, _ = build_instance(17, (1, 1, 1), 1)
        assert o.n_constraints == 2
        assert tag_index(o, 1, 0, 0) == 0  # the neuron surface
        assert tag_index(o, 2, 0, 0) == 1  # the residual surface

    def test_index_round_trip(self):
        # Two outputs, so residual units past 0 are walked as well.
        for widths in [(2, 2, 3, 1), (2, 3, 2, 2)]:
            o, _ = build_instance(19, widths, 5)
            order = list(_documented_order(o))
            assert len(order) == o.n_constraints
            for idx, (layer, sample, unit) in enumerate(order):
                assert tag_index(o, layer, sample, unit) == idx
                assert o.layout.locate(idx) == (layer - 1, sample, unit)
            rows = [(layer - 1, sample, unit) for layer, sample, unit in order]
            shuffled = np.random.default_rng(0).permutation(len(order))
            assert o.layout.locate_many(shuffled).tolist() == [list(rows[i]) for i in shuffled]
            assert o.layout.locate_many([]).shape == (0, 3)

    @settings(max_examples=200, deadline=None)
    @given(layout=_layouts())
    def test_buffer_positions_round_trip(self, layout):
        # slots is a permutation that keeps the residuals' numbers, indices
        # inverts it, and the position of (array, sample, unit) is that
        # entry of the buffer's block views.
        n = _layout_size(layout)
        idx = np.arange(n)
        slots = layout.slots(idx)
        assert sorted(slots.tolist()) == idx.tolist()
        assert np.array_equal(layout.indices(slots), idx)
        assert np.array_equal(layout.slots(layout.indices(idx)), idx)
        blocks = layout.blocks(idx)
        assert np.array_equal(np.concatenate([b.ravel() for b in blocks]), idx)
        for i in idx.tolist():
            array, sample, unit = layout.locate(i)
            assert blocks[array][sample, unit] == slots[i] == layout.slots(i)
        cut = layout.n_samples * len(layout.neuron_pos)
        assert np.array_equal(slots[cut:], idx[cut:])

    def test_flat_values_align_with_tags(self):
        o, p = build_instance(20, (2, 3, 1), 4)
        vals = forward_values(o, p)
        flat = in_flat_order(o, constraint_values_flat(o, vals))
        for idx, surface in enumerate(_documented_order(o)):
            assert flat[idx] == pytest.approx(_constraint_value(o, p, surface), abs=1e-14)

    def test_region_arrays_follow_locate(self):
        # Values, states and masks hold L + 1 arrays in locate's order; the
        # masks are 1.0 for an on hidden unit and the sign for a residual.
        o, p = build_instance(20, (2, 3, 2, 2), 4)
        vals = forward_values(o, p)
        sig = region_signature(o, p)
        masks = region_masks(sig)
        depth = o.arch.hidden_depth
        assert len(vals.arrays) == len(sig.states) == len(masks) == depth + 1
        flat, states = constraint_values_flat(o, vals), states_flat(sig)
        for idx in range(o.n_constraints):
            a, i, k = o.layout.locate(idx)
            state = state_of(sig, idx)
            slot = o.layout.slots(idx)
            assert flat[slot] == vals.arrays[a][i, k]
            assert states[slot] == sig.states[a][i, k] == state
            assert masks[a][i, k] == (state if a == depth else float(state > 0))


class TestRatioTest:
    def _loop_oracle(self, o, p, d, sig, active):
        """Per-constraint recomputation of the first crossing, independent of
        the vectorized path."""
        best = (np.inf, None)
        for idx in range(o.n_constraints):
            if idx in active:
                continue
            val, grad = constraint_eval(o, p, sig, idx)
            dv = float(grad @ d)
            if val * dv < 0 and abs(dv) > 1e-12:
                t = -val / dv
                if t < best[0]:
                    best = (t, idx)
        return best

    def test_matches_loop_oracle(self):
        o, _ = build_instance(21, (2, 2, 2, 1), 6)
        rng = SplitMix64(121)
        for _ in range(10):
            p = interior_point(o, rng, min_clear=1e-4)
            sig = region_signature(o, p)
            d = rng.unit_vector(o.dim)
            expect_t, expect_idx = self._loop_oracle(o, p, d, sig, [])
            if expect_idx is None:
                with pytest.raises(NoCrossing):
                    ratio_test(o, p, d, sig, [])
            else:
                t, hit = ratio_test(o, p, d, sig, [])
                assert t == pytest.approx(expect_t, rel=1e-9)
                assert hit == expect_idx

    def test_hand_computed_crossing(self):
        # One sample, unit weights: z = w + b and r = 2 - relu(z).
        o = tiny_instance(w2=1.0, b2=0.0, xs=(1.0,), ys=(2.0,))
        p = np.array([0.5, 0.0])  # z = 0.5, output 0.5, r = 1.5
        sig = region_signature(o, p)
        d = np.array([1.0, 0.0])
        # r decreases at rate 1 toward zero: crossing at t = 1.5;
        # z increases away from zero and is never hit.
        t, hit = ratio_test(o, p, d, sig, [])
        assert t == pytest.approx(1.5, rel=1e-12)
        assert hit == tag_index(o, 2, 0, 0)

    def test_no_crossing(self):
        o = tiny_instance(w2=1.0, b2=0.0, xs=(1.0,), ys=(2.0,))
        p = np.array([0.5, 0.0])
        sig = region_signature(o, p)
        # Along (1, -1) the pre-activation w + b stays constant, so neither
        # the neuron surface nor the residual surface is approached.
        d = np.array([1.0, -1.0]) / np.sqrt(2.0)
        with pytest.raises(NoCrossing):
            ratio_test(o, p, d, sig, [])

    def test_active_excluded(self):
        o = tiny_instance(w2=1.0, b2=0.0, xs=(1.0,), ys=(2.0,))
        p = np.array([0.5, 0.0])
        sig = region_signature(o, p)
        d = np.array([1.0, 0.0])
        with pytest.raises(NoCrossing):
            ratio_test(o, p, d, sig, [tag_index(o, 2, 0, 0)])

    def test_out_of_range_active_rejected(self):
        # numpy would wrap -1 round to the last constraint and skip it.
        o = tiny_instance(w2=1.0, b2=0.0, xs=(1.0,), ys=(2.0,))
        p = np.array([0.5, 0.0])
        sig = region_signature(o, p)
        d = np.array([1.0, 0.0])
        for idx in (-1, o.n_constraints):
            with pytest.raises(InvalidTag):
                ratio_test(o, p, d, sig, [idx])


    def test_states_judge_toward_and_clip_at_zero(self):
        # Surface 0 sits at zero and surface 1 a rounding step past it; both
        # move against their state, so judged by state both lie ahead and
        # are hit at step 0. By value only surface 2 is ahead.
        flat = np.array([0.0, -1e-17, 2.0, 0.0])
        dvals = np.array([-1.0, -1.0, -1.0, 1.0])
        states = np.ones(4, dtype=np.int8)
        none = np.zeros(4, dtype=bool)
        by_value = _screen(flat, none, first=6e-3)
        by_state = _screen(flat, none, states, first=6e-3)
        assert by_state.near.tolist() == [0, 1, 3]
        toward, floor = crossing_candidates(dvals, by_value)
        assert toward.tolist() == [False, False, True, False] and floor == 1e-12
        toward, _ = crossing_candidates(dvals, by_state)
        assert toward.tolist() == [True, True, True, False]
        assert _ratio_from_arrays(flat, dvals, by_value) == ((2.0, 2), 1e-12)
        assert _ratio_from_arrays(flat, dvals, by_state) == ((0.0, 0), 1e-12)
        first = _screen(flat, np.array([True, False, False, False]), states, first=6e-3)
        assert _ratio_from_arrays(flat, dvals, first) == ((0.0, 1), 1e-12)
        # Nothing ahead: no crossing, and still the floor.
        second = _screen(flat, np.array([False, True, False, False]), first=6e-3)
        assert _ratio_from_arrays(flat, -dvals, second) == (None, 1e-12)

    def test_states_flat_follow_the_flat_order(self):
        o, _ = build_instance(22, (2, 3, 2, 2), 5)
        p = interior_point(o, SplitMix64(122))
        states = states_flat(region_signature(o, p))
        assert states.dtype == np.int8
        flat = constraint_values_flat(o, forward_values(o, p))
        assert np.array_equal(states, np.sign(flat))


def _residuals_only(n):
    """A layout of one sample with n outputs: buffer position equals flat
    index."""
    return ConstraintLayout(1, n, 0, ())


def _screen(flat, excluded, states=None, layout=None, first=None):
    """The ratio test's screen of flat, judged by value or by states. Its
    first round is ratio_screen's (screen_start), or, given `first`, keeps
    the magnitudes up to first: at these sizes screen_start's bound reaches
    the largest magnitude, and the test goes straight to the full scan."""
    layout = layout or _residuals_only(flat.size)
    if states is None:
        side, magnitude = flat, np.abs(flat)
    else:
        side, magnitude = states, np.maximum(states * flat, 0.0)
    screen = ratio_screen(side, magnitude, excluded, layout)
    if first is None:
        return screen
    return replace(screen, start=first, near=(magnitude <= first).nonzero()[0])


def _first_crossing_loop(flat, dvals, screen):
    """The first crossing, one surface at a time in flat index order."""
    floor = 1e-12 * max(abs(float(v)) for v in dvals)
    best = None
    for idx, j in enumerate(screen.layout.slots(np.arange(flat.size)).tolist()):
        f, dv = float(flat[j]), float(dvals[j])
        if screen.excluded[j] or abs(dv) <= floor or not float(screen.side[j]) * dv < 0.0:
            continue
        t = max(-f / dv, 0.0)
        if best is None or t < best[0]:
            best = (t, idx)
    return best, floor


def _screened_and_full(flat, dvals, excluded, states=None, layout=None, first=None):
    """The screened ratio test and the full scan on the same screen; the
    full scan is first checked against a loop over the surfaces."""
    screen = _screen(flat, excluded, states, layout, first)
    full = _full_scan(flat, dvals, screen)
    assert full == _first_crossing_loop(flat, dvals, screen)
    return _ratio_from_arrays(flat, dvals, screen), full


# Few distinct magnitudes, so that steps tie. The first screen's bound is
# drawn among them too, so that ties fall inside and outside it. Slopes of
# 1e-14 and 1e-12 lie at or below the floor. Values of 0 and +-1e-17 sit
# at or a rounding step off zero, on either side of a state.
VALUE_MAGNITUDES = (0.0, 1e-17, 1e-13, 1e-9, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 10.0, 1000.0)
SLOPE_MAGNITUDES = (0.0, 1e-14, 1e-12, 0.5, 1.0, 2.0)


def _signed(magnitudes):
    return st.tuples(st.sampled_from(magnitudes), st.sampled_from((1.0, -1.0))).map(
        lambda ms: ms[0] * ms[1]
    )


class TestScreenedRatio:
    """The screened ratio test gives the full scan's answer, bit for bit,
    judged by value (phase 2) or by state (phase 1): the same step, the
    same index among ties, the same floor."""

    @settings(max_examples=600, deadline=None)
    @given(data=st.data())
    def test_equals_the_full_scan(self, data):
        # A residual-only layout keeps buffer position and flat index equal;
        # one with hidden layers orders them differently, so that ties
        # between positions are broken by flat index.
        if data.draw(st.booleans()):
            layout = _residuals_only(data.draw(st.integers(1, 24)))
        else:
            layout = data.draw(_layouts(max_samples=3, max_width=3))
        n = _layout_size(layout)
        entries = st.lists(_signed(VALUE_MAGNITUDES), min_size=n, max_size=n)
        if data.draw(st.booleans()):
            # One |value| everywhere.
            size = data.draw(st.sampled_from(VALUE_MAGNITUDES))
            flat = size * np.array(data.draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=n, max_size=n)))
        else:
            flat = np.array(data.draw(entries))
        dvals = np.array(data.draw(st.lists(_signed(SLOPE_MAGNITUDES), min_size=n, max_size=n)))
        excluded = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        states = None
        if data.draw(st.booleans()):
            # States drawn apart from the values, so that surfaces sit on,
            # at or past zero by their state.
            states = np.array(
                data.draw(st.lists(st.sampled_from((1, -1, 0)), min_size=n, max_size=n)),
                dtype=np.int8,
            )
        first = data.draw(st.one_of(st.none(), st.sampled_from(VALUE_MAGNITUDES)))
        screened, full = _screened_and_full(flat, dvals, excluded, states, layout, first)
        assert screened == full

    @pytest.mark.parametrize(
        "flat,dvals,excluded",
        [
            ([2.0], [-1.0], [False]),  # a single entry
            ([2.0], [-1.0], [True]),  # a single excluded entry
            ([0.0, 0.0], [-1.0, 1.0], [False, False]),  # every value zero
            ([1.0, -2.0, 1000.0], [1.0, -1.0, 1.0], [False] * 3),  # nothing ahead
            ([3.0, -3.0, 3.0, -3.0], [-1.0, 1.0, -2.0, 2.0], [False] * 4),  # equal |value|, ties
            ([0.5, 1000.0, 1000.0], [1.0, -1.0, -1.0], [False] * 3),  # ties past every screen
        ],
    )
    def test_edge_cases(self, flat, dvals, excluded):
        # Each with screen_start's first screen, which holds every surface
        # at these sizes, and with one at 3e-3 of the largest |value|.
        flat = np.array(flat)
        for first in (None, 3e-3 * float(np.abs(flat).max())):
            screened, full = _screened_and_full(flat, np.array(dvals), np.array(excluded), first=first)
            assert screened == full

    def test_state_judged_edge_cases(self):
        # A surface past zero by its state far from zero (surface 0) is hit
        # at step 0 ahead of one just inside the first screen (surface 2);
        # with every surface past zero, no screen holds a magnitude.
        # The first screen keeps magnitudes up to 3.
        flat, dvals = np.array([-1000.0, 1000.0, 2.0]), np.array([-1.0, -1.0, -1.0])
        states = np.ones(3, dtype=np.int8)
        none = np.zeros(3, dtype=bool)
        screened, full = _screened_and_full(flat, dvals, none, states, first=3.0)
        assert screened == full == ((0.0, 0), 1e-12)
        screened, full = _screened_and_full(flat, dvals, none, -states, first=3.0)
        assert screened == full == (None, 1e-12)
        screened, full = _screened_and_full(-np.abs(flat), dvals, none, states, first=3.0)
        assert screened == full == ((0.0, 0), 1e-12)

    def test_the_floor_spans_every_entry(self):
        # The only surface ahead moves at 1e-13 of the largest derivative,
        # which belongs to a surface outside the first screen (|value| <= 3):
        # it is below the floor, though not below 1e-12 of the screened
        # derivatives.
        flat, dvals = np.array([1e-13, 1000.0]), np.array([-1e-13, 1.0])
        screened, full = _screened_and_full(flat, dvals, np.zeros(2, dtype=bool), first=3.0)
        assert screened == full == (None, 1e-12)

    def test_no_surface_outside_the_screen_ties(self):
        # Surface 1 lies in the first screen (|value| <= 3) and surface 0
        # outside it, one rounding step beyond t * M, the screen's bound
        # without its margin; both are hit at the same step, and the
        # smaller index wins.
        flat = np.array([5.555555555555556, 2.0, 1000.0])
        dvals = np.array([-1.25, -0.45, 1.25])
        t = -flat[1] / dvals[1]
        assert -flat[0] / dvals[0] == t and flat[0] > t * 1.25
        screened, full = _screened_and_full(flat, dvals, np.zeros(3, dtype=bool), first=3.0)
        assert screened == full == ((t, 0), 1.25e-12)

    def test_the_first_screen_holds_the_count(self):
        # Magnitudes 1 to n spread evenly, so the first screen holds the
        # _SCREEN_COUNT smallest.
        flat = np.arange(1.0, 6401.0)
        screen = _screen(flat, np.zeros(flat.size, dtype=bool))
        assert screen.top == 6400.0 and screen.start == orc._SCREEN_COUNT
        assert screen.near.tolist() == list(range(orc._SCREEN_COUNT))

    def test_subnormal_magnitudes_scan_fully(self):
        # With every magnitude the least subnormal, 64 / 200 of it rounds
        # to 0, a bound that would never grow: the test scans fully. No
        # surface lies ahead, so no first round could settle it.
        flat = np.tile([5e-324, -5e-324], 100)
        dvals = np.tile([1.0, -1.0], 100)
        screen = _screen(flat, np.zeros(flat.size, dtype=bool))
        assert screen.start == 0.0 < screen.top
        screened, full = _screened_and_full(flat, dvals, np.zeros(flat.size, dtype=bool))
        assert screened == full == (None, 1e-12)

    def test_ties_across_layers_resolve_to_the_smaller_flat_index(self, monkeypatch):
        # Two samples, two hidden layers of one unit, one output. By buffer
        # position the flat indices run 0 2 1 3 4 5: layer 1 of sample 1
        # (flat 2) comes before layer 2 of sample 0 (flat 1). Those two tie,
        # inside the first screen (|value| <= 3), by value and by state; no
        # round past it runs.
        layout = ConstraintLayout(2, 1, 2, ((0, 0), (1, 0)))
        assert layout.indices(np.arange(6)).tolist() == [0, 2, 1, 3, 4, 5]
        flat = np.array([1000.0, 2.0, 2.0, 1000.0, 1000.0, 1000.0])
        dvals = np.array([1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
        none = np.zeros(6, dtype=bool)
        screens = [_screen(flat, none, states, layout, first=3.0) for states in (None, np.sign(flat))]
        for screen in screens:
            assert _full_scan(flat, dvals, screen) == ((2.0, 1), 1e-12)
        monkeypatch.setattr(orc, "_full_scan", None)
        monkeypatch.setattr(orc, "_within", None)
        for screen in screens:
            assert _ratio_from_arrays(flat, dvals, screen) == ((2.0, 1), 1e-12)

    def test_walk_replay_matches_the_full_scan(self, monkeypatch):
        # Every ratio test of a capped N = 2000 walk, phase 1's D and those
        # of 30 pivots past it, against the full scan; most never reach it.
        from vertexwalk.experiment import ExperimentConfig, generate_instance
        from vertexwalk.solver import minimize

        ratio, full_scan = orc._ratio_from_arrays, orc._full_scan
        calls, scans = [], []

        def replayed(flat, dvals, screen):
            before = len(scans)
            got = ratio(flat, dvals, screen)
            by_state = screen.side is not flat
            calls.append((got, full_scan(flat, dvals, screen), len(scans) > before, by_state))
            return got

        def counted(*args):
            scans.append(None)
            return full_scan(*args)

        monkeypatch.setattr(orc, "_ratio_from_arrays", replayed)
        monkeypatch.setattr(orc, "_full_scan", counted)
        cfg = ExperimentConfig(seed=3, samples=2000, max_iterations=25 + 30)
        o, p0, rng = generate_instance(cfg)
        _, traj = minimize(o, p0, cfg.solver_limits(), rng)
        assert len(traj) - 1 - traj.phase1_len == 30
        assert sum(by_state for *_, by_state in calls) >= o.dim
        assert sum(not by_state for *_, by_state in calls) >= 30
        for got, want, _, _ in calls:
            assert got == want
        assert sum(scanned for _, _, scanned, _ in calls) < len(calls) // 2


class TestRegionInvariants:
    def test_affinity_up_to_first_crossing(self):
        o, _ = build_instance(22, (2, 3, 2, 1), 8)
        rng = SplitMix64(122)
        for _ in range(10):
            p = interior_point(o, rng, min_clear=1e-4)
            sig = region_signature(o, p)
            piece = affine_piece(o, sig)
            d = rng.unit_vector(o.dim)
            try:
                t_star, _ = ratio_test(o, p, d, sig, [])
            except NoCrossing:
                t_star = 1.0
            for frac in (0.1, 0.5, 0.99):
                q = p + frac * t_star * d
                predicted = piece.gradient @ q + piece.intercept
                assert predicted == pytest.approx(value(o, q), rel=1e-9)

    def test_first_layer_normals_signature_independent(self):
        o, _ = build_instance(23, (2, 2, 1), 5)
        rng = SplitMix64(123)
        p1 = rng.uniform_block(o.dim, -3, 3)
        p2 = rng.uniform_block(o.dim, -3, 3)
        idx = tag_index(o, 1, 2, 1)
        _, g1 = constraint_eval(o, p1, region_signature(o, p1), idx)
        _, g2 = constraint_eval(o, p2, region_signature(o, p2), idx)
        assert_allclose(g1, g2)

    def test_value_equals_sum_of_residual_magnitudes(self):
        o, _ = build_instance(24, (3, 2, 2), 7)
        rng = SplitMix64(124)
        for _ in range(20):
            p = rng.uniform_block(o.dim, -4, 4)
            vals = forward_values(o, p)
            total = float(np.sum(np.abs(vals.arrays[-1])))
            assert value(o, p) == pytest.approx(total, rel=1e-12)

    def test_crossing_flips_exactly_one_state(self):
        o, _ = build_instance(25, (2, 3, 1), 6)
        rng = SplitMix64(125)
        flips_checked = 0
        for _ in range(20):
            p = interior_point(o, rng, min_clear=1e-4)
            sig = region_signature(o, p)
            d = rng.unit_vector(o.dim)
            try:
                t_star, hit = ratio_test(o, p, d, sig, [])
            except NoCrossing:
                continue
            eps = 1e-7 * (1 + t_star)
            before = region_signature(o, p + (t_star - eps) * d)
            after = region_signature(o, p + (t_star + eps) * d)
            diff = sum(
                int(np.count_nonzero(a != b)) for a, b in zip(before.states, after.states)
            )
            if diff == 0:
                continue  # probe landed inside the activity band; skip
            assert diff == 1
            assert state_of(before, hit) != state_of(after, hit)
            flips_checked += 1
        assert flips_checked >= 5

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**20))
    def test_value_nonnegative(self, seed):
        o, p0 = build_instance(seed, (2, 2, 1), 4)
        assert value(o, p0) >= 0.0


# Widths with one output, with n_out = 2, and at D = 100.
FLAT_WIDTHS = [(2, 3, 2, 1), (3, 4, 3, 2), (4, 20, 4, 3, 2, 1)]


# The benchmark's three workload shapes (ref-walk, tall-n, wide-d), and one
# whose products all have an inner dimension K of 20.
BUFFER_SHAPES = [
    ((4, 5, 4, 3, 2, 1), 500),
    ((4, 5, 4, 3, 2, 1), 8000),
    ((4, 20, 4, 3, 2, 1), 500),
    ((19, 20, 20, 2), 300),
]


def _plain_forms(o, p, masks, d):
    """The constraint values at p and their JVP along d in the region of
    masks, one plain array per state array: h @ W.T + b layer by layer, the
    targets minus the outputs, and the JVP's products."""
    widths = o.arch.widths
    z = o.x_aug @ p.reshape(widths[1], widths[0] + 1).T
    values = [z]
    for layer in o.fixed[:-1]:
        z = relu(z) @ layer.weight.T + layer.bias
        values.append(z)
    values.append(o.data.targets - (relu(z) @ o.fixed[-1].weight.T + o.fixed[-1].bias))
    dz = o.x_aug @ d.reshape(widths[1], widths[0] + 1).T
    jvp = [dz]
    for mask, layer in zip(masks, o.fixed):
        dz = (dz * mask) @ layer.weight.T
        jvp.append(dz)
    jvp[-1] = -jvp[-1]
    return values, jvp


def _assert_buffers_are_the_plain_forms(o, p, d):
    """Every entry of the values, states and JVP buffers at p equals the
    plain per-layer form, the arrays laid one after another, bit for bit;
    the values' arrays are views of their buffer."""
    vals = forward_values(o, p)
    sig = region_signature(o, p)
    masks = region_masks(sig)
    values, jvp = _plain_forms(o, p, masks, d)
    for got, arrays in [
        (constraint_values_flat(o, vals), values),
        (states_flat(sig), sig.states),
        (constraint_jvp_flat(o, masks, d), jvp),
    ]:
        want = np.concatenate([a.ravel() for a in arrays])
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert all(np.shares_memory(a, vals.flat) for a in vals.arrays)


class TestForwardAndFlattenBits:
    """forward_values adds pre-tiled bias rows in place, and both O(N H)
    passes write each layer straight into its block of one buffer; both
    must give the bits of the plain per-layer forms."""

    @pytest.mark.parametrize("n", [1, 30, 500])
    @pytest.mark.parametrize("widths", FLAT_WIDTHS)
    def test_forward_values_match_forward_batch(self, widths, n):
        o, p = build_instance(31, widths, n)
        vals = forward_values(o, p)
        pmat = p.reshape(widths[1], widths[0] + 1)
        assert np.array_equal(vals.arrays[0], o.x_aug @ pmat.T)
        # The fixed layers as a network of their own, fed the same
        # first-layer activations.
        pres, outputs = forward_batch(NetworkParams(o.fixed), relu(vals.arrays[0]))
        assert len(vals.arrays) == len(pres) + 2
        for got, want in zip(vals.arrays[1:-1], pres):
            assert np.array_equal(got, want)
        assert np.array_equal(vals.arrays[-1], o.data.targets - outputs)
        for rows, layer in zip(o.bias_rows, o.fixed):
            assert rows.flags.c_contiguous and rows.shape == (n, layer.fan_out)

    @pytest.mark.parametrize("n", [1, 30, 500])
    @pytest.mark.parametrize("widths", FLAT_WIDTHS)
    def test_flatten_matches_concatenate(self, widths, n):
        # Each buffer is the concatenation of its per-layer arrays.
        o, p = build_instance(32, widths, n)
        _assert_buffers_are_the_plain_forms(o, p, SplitMix64(132).uniform_block(o.dim, -1.0, 1.0))

    @pytest.mark.parametrize("widths, n", [*((w, 500) for w in FLAT_WIDTHS), *BUFFER_SHAPES])
    def test_jvp_matches_the_view_operand_jvp(self, widths, n):
        # The plain JVP multiplies by the transposed views (x_aug @ dmat.T,
        # (dz * mask) @ W.T); the pass takes a C-ordered copy only where
        # the probe finds that it gives their bits, so at K = 20 (layer 2
        # of (4,20,4,3,2,1), every layer of (19,20,20,2)) it keeps the view.
        o, p = build_instance(40, widths, n)
        rng = SplitMix64(140)
        masks = [np.floor(rng.uniform_block(n * w, 0.0, 2.0)).reshape(n, w) for w in widths[1:-1]]
        d = rng.uniform_block(o.dim, -1.0, 1.0)
        want = np.concatenate([a.ravel() for a in _plain_forms(o, p, masks, d)[1]])
        got = constraint_jvp_flat(o, masks, d)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("widths, n", BUFFER_SHAPES)
    def test_every_buffer_entry_is_written(self, widths, n):
        # Passes at several points in a row: a block left unwritten in an
        # np.empty buffer would hold another pass's values, or zeros.
        o, p0 = build_instance(33, widths, n)
        rng = SplitMix64(133)
        for _ in range(3):
            p = p0 + rng.uniform_block(o.dim, -1.0, 1.0)
            _assert_buffers_are_the_plain_forms(o, p, rng.uniform_block(o.dim, -1.0, 1.0))


@st.composite
def _row_pass_cases(draw):
    """An instance of random widths (hidden widths 1-20, so products reach
    K = 16-20; output width 1 or 2) and N from n_0 + 1 to 300, and a list
    of 2-120 of its samples, repeats allowed."""
    n_in = draw(st.integers(1, 19))
    hidden = draw(st.lists(st.integers(1, 20), min_size=1, max_size=3))
    widths = (n_in, *hidden, draw(st.integers(1, 2)))
    n = draw(st.integers(n_in + 1, 300))
    samples = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=120))
    return widths, n, draw(st.integers(0, 2**32)), np.array(samples, dtype=np.intp)


class TestRowPass:
    """row_values, over two or more rows of any samples, gives each entry
    the full forward pass's bits: the polish decides on it."""

    @given(_row_pass_cases())
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_the_full_pass_bit_for_bit(self, case):
        widths, n, seed, samples = case
        o, p0 = build_instance(seed, widths, n)
        rows = orc.sample_rows(o, samples)
        rng = SplitMix64(seed + 1)
        for p in (p0, rng.uniform_block(o.dim, -1.0, 1.0), p0 + rng.uniform_block(o.dim, -1.0, 1.0)):
            full = forward_values(o, p)
            got = o.layout.blocks(orc.row_values(o, rows, p))
            assert len(got) == len(full.arrays)
            for a, b in zip(got, full.arrays):
                assert a.view(np.uint64).tolist() == b[samples].view(np.uint64).tolist()

    @pytest.mark.parametrize("widths, n", BUFFER_SHAPES)
    def test_rows_at_the_benchmark_shapes(self, widths, n):
        # At N = 8000 the full pass's products are large enough for BLAS to
        # split them among threads, which CI runs at two.
        o, p = build_instance(37, widths, n)
        samples = SplitMix64(137).uniform_block(o.dim, 0.0, n).astype(np.intp)
        rows = orc.sample_rows(o, samples)
        got = o.layout.blocks(orc.row_values(o, rows, p))
        for a, b in zip(got, forward_values(o, p).arrays):
            assert a.view(np.uint64).tolist() == b[samples].view(np.uint64).tolist()

    def test_row_slots_pick_each_surface_in_its_own_row(self):
        # More rows than samples (D = 16 > N = 12) and every state array.
        o, p = build_instance(34, (3, 4, 3, 1), 12)
        idx = SplitMix64(134).uniform_block(o.dim, 0.0, o.n_constraints).astype(np.intp)
        located = o.layout.locate_many(idx)
        assert len(set(located[:, 0].tolist())) == 3
        rows = orc.sample_rows(o, located[:, 1])
        got = orc.row_values(o, rows, p).take(o.layout.row_slots(located))
        want = forward_values(o, p).flat[o.layout.slots(idx)]
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("widths, n", [((9, 1, 3, 1), 50), ((2, 9, 1), 37), ((4, 12, 1), 301)])
    def test_width_one_layers_keep_the_full_pass_bits(self, widths, n):
        # One-column products of fan-in 10, 9 and 12, and runs of rows with
        # a short tail: OpenBLAS's matrix-vector product gives such rows
        # other bits than the full pass's, unless the pass spreads them.
        o, p = build_instance(36, widths, n)
        for m in (2, 3, 5, 7, 26):
            samples = np.arange(n - m, n)[::-1].copy()
            rows = orc.sample_rows(o, samples)
            got = o.layout.blocks(orc.row_values(o, rows, p))
            for a, b in zip(got, forward_values(o, p).arrays):
                assert a.view(np.uint64).tolist() == b[samples].view(np.uint64).tolist()
        # A single multiply has no order to change.
        assert not any(orc._product_plan(n, 1, w)[1] for w in (1, 2, 5))

    @pytest.mark.parametrize(
        "widths, n", [((4, 40, 4, 3, 2, 1), 500), ((3, 36, 2, 1), 40), ((2, 3, 33, 2), 64)]
    )
    def test_rows_at_wide_fan_ins_keep_the_full_pass_bits(self, widths, n):
        # Products of fan-in 40, 36 and 33 into 4, 2 and 2 columns: from
        # fan-in 32 on OpenBLAS's matrix-matrix product gives rows other
        # bits over a few rows than over all N, unless the pass spreads them.
        o, p = build_instance(38, widths, n)
        rng = SplitMix64(138)
        for m in (2, 3, 7, 25, o.dim):
            samples = rng.uniform_block(m, 0.0, n).astype(np.intp)
            got = o.layout.blocks(orc.row_values(o, orc.sample_rows(o, samples), p))
            for a, b in zip(got, forward_values(o, p).arrays):
                assert a.view(np.uint64).tolist() == b[samples].view(np.uint64).tolist()

    @pytest.mark.parametrize(
        "widths, n", [((3, 32, 24, 1), 30), ((1, 33, 28, 2), 30), ((4, 36, 32, 1), 20)]
    )
    def test_more_rows_than_samples_keep_the_full_pass_bits(self, widths, n):
        # D = 128, 66 and 180 active rows of 30, 30 and 20 samples: from
        # fan-in 32 on a product over more rows than N can give rows other
        # bits even where the probe finds none over up to N rows.
        o, p = build_instance(41, widths, n)
        rng = SplitMix64(141)
        full = forward_values(o, p).arrays
        for m in (n + 5, 2 * n, o.dim):
            samples = rng.uniform_block(m, 0.0, n).astype(np.intp)
            got = o.layout.blocks(orc.row_values(o, orc.sample_rows(o, samples), p))
            for a, b in zip(got, full):
                assert a.view(np.uint64).tolist() == b[samples].view(np.uint64).tolist()

    @pytest.mark.parametrize("n", [30, 500])
    def test_product_rows_move_has_no_false_negative(self, n):
        # Over fan-ins and widths 1-40, on fresh data: wherever the probe
        # takes the C-ordered copy of W.T, the copy's product gives the
        # view's bits, and wherever it does not spread a product, random
        # row lists of 2 to n rows with repeats give the full product's
        # bits by the operand it takes. (A pass over more rows spreads
        # every product.)
        rng = np.random.default_rng(n)
        for k in range(1, 41):
            for w in range(1, 41):
                contiguous, spread = orc._product_plan(n, k, w)
                a, weight_t = rng.uniform(-3.0, 3.0, (n, k)), rng.uniform(-1.0, 1.0, (w, k)).T
                whole = np.matmul(a, weight_t, out=np.empty((n, w))).view(np.uint64)
                if contiguous:
                    weight_t = np.ascontiguousarray(weight_t)
                    copy = np.matmul(a, weight_t, out=np.empty((n, w)))
                    assert np.array_equal(copy.view(np.uint64), whole), (k, w)
                if spread:
                    continue
                for m in rng.integers(2, n + 1, 8).tolist():
                    rows = rng.integers(0, n, m)
                    part = np.matmul(a.take(rows, axis=0), weight_t, out=np.empty((m, w)))
                    assert np.array_equal(part.view(np.uint64), whole.take(rows, axis=0)), (k, w, m)

    def test_spread_layers_name_each_layer_the_probe_flags(self, monkeypatch):
        # Layer 2 of (4,40,4,3,2,1) has fan-in 40 and width 4; layers 1
        # and 4 take the copy.
        plans = {(500, 40, 4): (False, True), (500, 5, 40): (True, False), (500, 3, 2): (True, False)}
        monkeypatch.setattr(orc, "_product_plan", lambda n, k, w: plans.get((n, k, w), (False, False)))
        o, p = build_instance(39, (4, 40, 4, 3, 2, 1), 500)
        assert o.spread_layers == ((1, 40, 4),)
        rows = orc.sample_rows(o, np.array([3, 1, 3]))
        assert rows.products[1].func is orc._spread_product
        assert [f is np.matmul for i, f in enumerate(rows.products) if i != 1] == [True] * 4
        # The passes multiply by a C-ordered copy where the plan takes it,
        # gathered from p for the first layer, and by the view elsewhere.
        first = p[o.first_t]
        assert first.flags.c_contiguous and np.array_equal(first, p.reshape(40, 5).T)
        shared = [np.shares_memory(t, layer.weight) for t, layer in zip(o.weights_t, o.fixed)]
        assert shared == [True, True, False, True]
        assert all(np.array_equal(t, layer.weight.T) for t, layer in zip(o.weights_t, o.fixed))
        assert build_instance(39, (4, 5, 4, 3, 2, 1), 500)[0].first_t is None

    def test_a_single_row_is_refused(self):
        # numpy sends one row to a matrix-vector kernel, whose bits differ.
        o, _ = build_instance(35, (2, 3, 1), 10)
        with pytest.raises(ShapeMismatch, match="at least 2 rows"):
            orc.sample_rows(o, np.array([4]))
