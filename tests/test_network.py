import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from reference import NetworkParams, forward_batch, l1_loss
from vertexwalk.errors import ShapeMismatch
from vertexwalk.network import Architecture, LayerParams, TrainingSet, relu
from vertexwalk.prng import SplitMix64


def random_params(seed, widths, low=-1.0, high=1.0):
    rng = SplitMix64(seed)
    layers = []
    for n_in, n_out in zip(widths, widths[1:]):
        w = rng.uniform_block(n_out * n_in, low, high).reshape(n_out, n_in)
        b = rng.uniform_block(n_out, low, high)
        layers.append(LayerParams(w, b))
    return NetworkParams(tuple(layers))


def forward_one(params, x):
    """Pre-activations and output of one input, from a one-row batch."""
    pres, out = forward_batch(params, np.asarray(x, dtype=float)[None, :])
    return [z[0] for z in pres], out[0]


class TestForward:
    def test_constant_network(self):
        c = 7.5
        layers = (
            LayerParams(np.zeros((3, 2)), np.zeros(3)),
            LayerParams(np.zeros((1, 3)), np.array([c])),
        )
        _, out = forward_one(NetworkParams(layers), [1.0, -4.0])
        assert_allclose(out, [c])

    def test_scalar_chain_by_hand(self):
        params = NetworkParams(
            (
                LayerParams(np.array([[1.0]]), np.array([-1.0])),
                LayerParams(np.array([[2.0]]), np.array([0.0])),
            )
        )
        pres, out = forward_one(params, [3.0])
        assert_allclose(pres[0], [2.0])
        assert_allclose(out, [4.0])

        pres, out = forward_one(params, [0.5])
        assert_allclose(pres[0], [-0.5])
        assert_allclose(out, [0.0])

    def test_reference_architecture_shapes(self):
        params = random_params(11, (4, 5, 4, 3, 2, 1))
        pres, outs = forward_batch(params, np.zeros((7, 4)))
        assert outs.shape == (7, 1)
        assert [z.shape for z in pres] == [(7, 5), (7, 4), (7, 3), (7, 2)]

    def test_shape_mismatch(self):
        params = random_params(14, (3, 2, 1))
        with pytest.raises(ShapeMismatch):
            forward_batch(params, np.zeros((1, 4)))
        with pytest.raises(ShapeMismatch):
            forward_batch(params, np.zeros(3))

    @settings(max_examples=20, deadline=None)
    @given(c=st.floats(0.1, 50.0), seed=st.integers(0, 2**20))
    def test_final_layer_homogeneity_with_zero_biases(self, c, seed):
        rng = SplitMix64(seed)
        widths = (2, 3, 2)
        layers = []
        for n_in, n_out in zip(widths, widths[1:]):
            w = rng.uniform_block(n_out * n_in, -1, 1).reshape(n_out, n_in)
            layers.append(LayerParams(w, np.zeros(n_out)))
        params = NetworkParams(tuple(layers))
        scaled = NetworkParams(
            (params.layers[0], LayerParams(c * params.layers[1].weight, np.zeros(2)))
        )
        x = rng.uniform_block(2, -2, 2)
        assert_allclose(
            forward_one(scaled, x)[1], c * forward_one(params, x)[1], rtol=1e-12
        )


class TestL1Loss:
    def test_exact_fit_is_zero(self):
        params = random_params(21, (2, 3, 1))
        rng = SplitMix64(22)
        xs = rng.uniform_block(4 * 2, -2, 2).reshape(4, 2)
        _, outs = forward_batch(params, xs)
        data = TrainingSet(xs, outs)
        assert l1_loss(params, data) == 0.0

    def test_single_sample_by_hand(self):
        layers = (
            LayerParams(np.zeros((2, 1)), np.zeros(2)),
            LayerParams(np.zeros((1, 2)), np.array([0.5])),
        )
        data = TrainingSet(np.array([[1.0]]), np.array([[2.0]]))
        assert l1_loss(NetworkParams(layers), data) == pytest.approx(1.5)

    def test_matches_independent_resummation(self):
        params = random_params(23, (3, 4, 3, 2))
        rng = SplitMix64(24)
        xs = rng.uniform_block(40 * 3, -3, 3).reshape(40, 3)
        ys = rng.uniform_block(40 * 2, -3, 3).reshape(40, 2)
        data = TrainingSet(xs, ys)
        total = l1_loss(params, data)
        # Per-sample forward passes, summed in reverse order.
        acc = 0.0
        for i in reversed(range(40)):
            _, out = forward_one(params, xs[i])
            for j in reversed(range(2)):
                acc += abs(ys[i, j] - out[j])
        assert total == pytest.approx(acc, rel=1e-12)

    def test_duplicated_sample_adds_its_contribution(self):
        params = random_params(25, (2, 2, 1))
        rng = SplitMix64(26)
        xs = rng.uniform_block(6 * 2, -2, 2).reshape(6, 2)
        ys = rng.uniform_block(6 * 1, -2, 2).reshape(6, 1)
        base = l1_loss(params, TrainingSet(xs, ys))
        dup = l1_loss(
            params,
            TrainingSet(np.vstack([xs, xs[2:3]]), np.vstack([ys, ys[2:3]])),
        )
        single = abs(ys[2, 0] - forward_one(params, xs[2])[1][0])
        assert dup == pytest.approx(base + single, rel=1e-12)

    def test_loss_nonnegative(self):
        params = random_params(27, (2, 3, 2))
        rng = SplitMix64(28)
        xs = rng.uniform_block(10 * 2, -3, 3).reshape(10, 2)
        ys = rng.uniform_block(10 * 2, -3, 3).reshape(10, 2)
        assert l1_loss(params, TrainingSet(xs, ys)) >= 0.0


class TestReLU:
    def test_idempotent_on_nonnegative(self):
        rng = SplitMix64(31)
        z = np.abs(rng.uniform_block(50, -4, 4))
        assert_allclose(relu(z), z)
        assert_allclose(relu(relu(z - 2.0)), relu(z - 2.0))

    def test_zero_boundary(self):
        assert relu(np.array([0.0]))[0] == 0.0


class TestValidation:
    def test_architecture_needs_hidden_layer(self):
        with pytest.raises(ShapeMismatch):
            Architecture((2, 3))

    def test_architecture_positive_widths(self):
        with pytest.raises(ShapeMismatch):
            Architecture((2, 0, 1))

    def test_layer_chain_checked(self):
        with pytest.raises(ShapeMismatch):
            NetworkParams(
                (
                    LayerParams(np.zeros((3, 2)), np.zeros(3)),
                    LayerParams(np.zeros((1, 4)), np.zeros(1)),
                )
            )

    def test_training_set_counts(self):
        with pytest.raises(ShapeMismatch):
            TrainingSet(np.zeros((3, 2)), np.zeros((2, 1)))
