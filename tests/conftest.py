import numpy as np
import pytest
from hypothesis import settings

from vertexwalk.network import Architecture, LayerParams, TrainingSet
from vertexwalk.oracle import OracleInstance, forward_values, make_oracle
from vertexwalk.prng import SplitMix64

# Property tests must behave identically on reruns.
settings.register_profile("stable", derandomize=True, deadline=None)
settings.load_profile("stable")


def build_instance(
    seed: int,
    widths,
    n_samples: int,
    theta_range=(-1.0, 1.0),
    data_range=(-3.0, 3.0),
    init_range=(-20.0, 20.0),
):
    """Random instance in the style of the experiment harness, local to tests."""
    rng = SplitMix64(seed)
    widths = tuple(widths)
    arch = Architecture(widths)
    fixed = []
    for l in range(1, len(widths) - 1):
        n_out, n_in = widths[l + 1], widths[l]
        w = rng.uniform_block(n_out * n_in, *theta_range).reshape(n_out, n_in)
        b = rng.uniform_block(n_out, *theta_range)
        fixed.append(LayerParams(w, b))
    x = rng.uniform_block(n_samples * widths[0], *data_range).reshape(n_samples, widths[0])
    y = rng.uniform_block(n_samples * widths[-1], *data_range).reshape(n_samples, widths[-1])
    data = TrainingSet(x, y)
    o = make_oracle(arch, fixed, data)
    p0 = rng.uniform_block(o.dim, *init_range)
    return o, p0


def in_flat_order(o: OracleInstance, buffer: np.ndarray) -> np.ndarray:
    """A buffer of per-constraint entries (buffer positions) reordered so
    that entry idx belongs to the constraint with flat index idx."""
    return buffer[o.layout.slots(np.arange(o.n_constraints))]


def interior_point(o: OracleInstance, rng: SplitMix64, scale=5.0, min_clear=1e-4, tries=200):
    """Sample a point whose smallest constraint magnitude exceeds min_clear."""
    for _ in range(tries):
        p = rng.uniform_block(o.dim, -scale, scale)
        vals = forward_values(o, p)
        smallest = min(float(np.min(np.abs(a))) for a in vals.arrays)
        if smallest > min_clear:
            return p
    raise AssertionError("could not sample an interior point")


def slope_change_across(o, p, d, t_star):
    """Loss slope change across the crossing at p + t_star d along d, or
    None when no zero-free probe signature exists within a few widenings."""
    from reference import affine_piece, region_signature

    for mult in (1.0, 10.0, 100.0):
        eps = mult * 1e-7 * (1.0 + t_star)
        lo = region_signature(o, p + (t_star - eps) * d)
        hi = region_signature(o, p + (t_star + eps) * d)
        if lo.has_zeros or hi.has_zeros:
            continue
        g_lo = affine_piece(o, lo).gradient
        g_hi = affine_piece(o, hi).gradient
        return float((g_hi - g_lo) @ d)
    return None


@pytest.fixture
def rng():
    return SplitMix64(20240817)


def quantized_instance(widths, seed: int, n_samples: int = 12):
    """Instance of the experiment generator with inputs, targets and start
    rounded to integers: many kink surfaces then pass through one point."""
    from vertexwalk.experiment import ExperimentConfig, generate_instance

    cfg = ExperimentConfig(seed=seed, widths=tuple(widths), samples=n_samples)
    o, p0, solver_rng = generate_instance(cfg)
    data = TrainingSet(np.round(o.data.inputs), np.round(o.data.targets))
    return make_oracle(o.arch, o.fixed, data), np.round(p0), solver_rng
