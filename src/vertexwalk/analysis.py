"""Trajectory analytics: step distances, running means, loss-floor
extrapolation, and segmentation into the exponential-decay and fine-tuning
phases of a vertex walk."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, NoExponentialPhase, TooShort
from .solver import Trajectory

# The analysis defaults; ExperimentConfig and the CLI read them from here.
MEAN_WINDOW = 40
FIT_WINDOW = 50
R2_THRESHOLD = 0.9


@dataclass(frozen=True)
class SeriesStats:
    """A per-iteration series, optionally with its running mean."""

    raw: np.ndarray
    window: int | None = None
    mean: np.ndarray | None = None


@dataclass(frozen=True)
class FloorEstimate:
    """Extrapolated terminal loss of a geometrically decaying series."""

    floor: float
    ratio: float
    window: int
    r2: float


@dataclass(frozen=True)
class PhaseSegmentation:
    """Iteration ranges (inclusive) of the two phases after the vertex is
    reached; indices refer to positions in the full trajectory."""

    exp_start: int
    exp_end: int
    fine_start: int
    fine_end: int
    floor: float
    window_slopes: np.ndarray
    window_r2: np.ndarray


def step_distances(traj: Trajectory) -> SeriesStats:
    """Euclidean distances between consecutive iterates; entry t is
    ||p_{t+1} - p_t||, read from the trajectory's step lengths."""
    if len(traj) < 2:
        raise TooShort("need at least two iterates for step distances")
    return SeriesStats(raw=traj.step_lengths[1:])


def running_mean(series: np.ndarray, window: int = MEAN_WINDOW) -> np.ndarray:
    """Mean of the trailing `window` entries; early entries average over
    however many observations exist so far."""
    if window < 1:
        raise ValueError("window must be >= 1")
    s = np.asarray(series, dtype=float)
    c = np.concatenate([[0.0], np.cumsum(s)])
    n = len(s)
    idx = np.arange(n)
    lo = np.maximum(idx - window + 1, 0)
    return (c[idx + 1] - c[lo]) / (idx + 1 - lo)


def distance_to_final(traj: Trajectory) -> SeriesStats:
    """Distance of every iterate to the last one; the final entry is 0."""
    if len(traj) < 1:
        raise TooShort("empty trajectory")
    return SeriesStats(
        raw=np.linalg.norm(traj.points - traj.points[-1][None, :], axis=1)
    )


def estimate_loss_floor(losses: np.ndarray, window: int) -> FloorEstimate:
    """Extrapolate the limit of a non-increasing series from its last
    `window` entries.

    Assumes the tail behaves like floor + b * ratio^t. Each consecutive
    triple (x0, x1, x2) yields the delta-squared estimate
    (x0*x2 - x1^2) / (x0 + x2 - 2*x1), evaluated in the equivalent
    difference form x2 - d2^2 / (d2 - d1) with d1 = x1 - x0 and
    d2 = x2 - x1 to avoid cancellation; the estimate is exact for any
    series of that form, and the floor is the median over triples with an
    acceptable denominator. The ratio and R^2 come from a log-linear
    regression of the excess over the floor.
    """
    if window < 3:
        raise ValueError("window must be >= 3")
    x = np.asarray(losses, dtype=float)
    if x.size < 3:
        raise TooShort("need at least three entries")
    x = x[-window:]
    scale = 1.0 + float(np.max(np.abs(x)))
    d1 = np.diff(x[:-1])
    d2 = np.diff(x[1:])
    denom = d2 - d1
    if float(np.max(np.abs(np.diff(x)))) <= 1e-15 * scale:
        # Constant tail: the series already sits on its floor.
        return FloorEstimate(floor=float(x[-1]), ratio=0.0, window=window, r2=1.0)
    accepted = np.abs(denom) > 1e-12 * scale
    if not np.any(accepted):
        raise IllConditioned("no acceptable extrapolation triples in the window")
    # Differences carry ~eps*scale of round-off, which the quotient blows
    # up by (|d1|+|d2|)/|denom|; triples beyond the amplification cap
    # cannot resolve the floor. If none survives, the tail is numerically
    # flat and the last entry is the floor at achievable precision.
    amplification = (np.abs(d1) + np.abs(d2)) / np.maximum(np.abs(denom), 1e-300)
    precise = accepted & (amplification < 1e5)
    if np.any(precise):
        estimates = x[2:][precise] - d2[precise] ** 2 / denom[precise]
        floor = float(np.median(estimates))
        floor = min(floor, float(x[-1]))
    else:
        floor = float(x[-1])
    excess = x - floor
    usable = excess > 1e-14 * scale
    if int(np.count_nonzero(usable)) >= 2:
        t = np.arange(x.size, dtype=float)[usable]
        y = np.log(excess[usable])
        slope, _, r2 = _linear_fit(t, y)
        ratio = float(np.exp(slope))
    else:
        ratio, r2 = 0.0, 1.0
    return FloorEstimate(floor=floor, ratio=ratio, window=window, r2=r2)


def _linear_fit(t: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line fit returning (slope, intercept, r_squared)."""
    tbar = float(np.mean(t))
    ybar = float(np.mean(y))
    tt = t - tbar
    denom = float(tt @ tt)
    if denom == 0.0:
        return 0.0, ybar, 0.0
    slope = float(tt @ (y - ybar)) / denom
    intercept = ybar - slope * tbar
    resid = y - (slope * t + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float((y - ybar) @ (y - ybar))
    if ss_tot <= 1e-24 * (1.0 + ybar * ybar) * y.size:
        r2 = 1.0 if ss_res <= ss_tot + 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def segment_phases(
    traj: Trajectory,
    fit_window: int = FIT_WINDOW,
    r2_threshold: float = R2_THRESHOLD,
) -> PhaseSegmentation:
    """Split the post-vertex iterations into an exponential-decay phase and
    the fine-tuning phase after it.

    Log-linear fits of (loss - floor) slide over windows of `fit_window`
    iterations; the exponential phase is the longest contiguous run of
    windows with R^2 >= r2_threshold and negative slope, and everything
    after it is fine tuning. The floor is the delta-squared extrapolation
    from the series tail.
    """
    losses = traj.phase2_losses
    n = losses.size
    if n < fit_window:
        raise TooShort(f"{n} post-vertex iterates < fit window {fit_window}")
    floor = estimate_loss_floor(losses, window=min(n, max(10, 2 * fit_window))).floor
    scale = 1.0 + abs(float(losses[0]))
    excess = losses - floor
    usable = excess > 1e-14 * scale
    logx = np.where(usable, np.log(np.maximum(excess, 1e-300)), 0.0)

    n_windows = n - fit_window + 1
    slopes = np.full(n_windows, np.nan)
    r2s = np.full(n_windows, np.nan)
    t = np.arange(n, dtype=float)
    for w in range(n_windows):
        sl = slice(w, w + fit_window)
        if not np.all(usable[sl]):
            continue
        slopes[w], _, r2s[w] = _linear_fit(t[sl], logx[sl])
    good = (r2s >= r2_threshold) & (slopes < 0.0)
    if not np.any(good):
        raise NoExponentialPhase("no sliding window met the fit threshold")

    best_start, best_len = 0, 0
    run_start = None
    for w, flag in enumerate(np.append(good, False)):
        if flag and run_start is None:
            run_start = w
        elif not flag and run_start is not None:
            if w - run_start > best_len:
                best_start, best_len = run_start, w - run_start
            run_start = None

    exp_start = best_start
    exp_end = best_start + best_len - 1 + fit_window - 1
    offset = traj.phase1_len
    return PhaseSegmentation(
        exp_start=offset + exp_start,
        exp_end=offset + exp_end,
        fine_start=offset + min(exp_end + 1, n - 1),
        fine_end=offset + n - 1,
        floor=float(floor),
        window_slopes=slopes,
        window_r2=r2s,
    )


def vertex_density_proxy(traj: Trajectory, window: int = MEAN_WINDOW) -> SeriesStats:
    """Reciprocal running-mean step distance over post-vertex iterates;
    larger values mean denser vertices. Entries whose mean vanishes are
    reported as +inf."""
    steps = traj.step_lengths[traj.phase1_len + 1 :]
    if steps.size < 1:
        raise TooShort("need at least two post-vertex iterates")
    mean = running_mean(steps, window)
    proxy = np.full(mean.shape, np.inf)
    ok = mean >= 1e-15
    proxy[ok] = 1.0 / mean[ok]
    return SeriesStats(raw=proxy, window=window, mean=mean)
