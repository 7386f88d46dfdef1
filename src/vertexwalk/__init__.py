"""Vertex walking on the piecewise-affine L1 loss of ReLU networks.

The layer-wise L1 training loss of a feed-forward ReLU network, seen as a
function of the first layer's parameters with everything else frozen, is
piecewise affine. This package minimizes it by pivoting between adjacent
vertices of that landscape, records the full vertex trajectory, and
provides the analytics (loss-floor extrapolation, phase segmentation,
step-distance statistics) and the two-parameter brute-force check around it.
"""

from .analysis import (
    FloorEstimate,
    PhaseSegmentation,
    SeriesStats,
    distance_to_final,
    estimate_loss_floor,
    running_mean,
    segment_phases,
    step_distances,
    vertex_density_proxy,
)
from .experiment import ExperimentConfig, RunArtifacts, generate_instance, run, sweep
from .network import Architecture, LayerParams, TrainingSet
from .oracle import OracleInstance, Region, Signature, Tolerances, make_oracle, tag_index, value
from .prng import SplitMix64
from .solver import (
    EdgeCandidate,
    SolverLimits,
    Trajectory,
    VertexState,
    descend_to_vertex,
    minimize,
    vertex_step,
)

__version__ = "0.1.0"
