"""Exception types shared across the package, and the checks that raise InvalidConfig."""

import math
import numbers


class ShapeMismatch(ValueError):
    """Array shapes are incompatible with the declared architecture, or a
    starting point has a non-finite entry."""


class SingularMatrix(ArithmeticError):
    """Matrix is numerically singular (pivot below the relative threshold)."""


class DependentNormals(ArithmeticError):
    """A set of constraint normals failed the linear-independence check."""


class InvalidTag(ValueError):
    """The (layer, sample, unit) given to oracle.tag_index, or a flat index
    given to ConstraintLayout.locate or locate_many, names no surface."""


class UnboundedEdge(RuntimeError):
    """A strictly descending edge never hits a constraint; the loss is bounded
    below by zero, so this signals a numerical fault."""


class Degenerate(RuntimeError):
    """More surfaces meet than the dimension allows, or normals collapsed."""


class DegenerateStart(Degenerate):
    """The start lies on a surface (a zero in its signature); minimize, not
    descend_to_vertex, perturbs it."""


class DegenerateVertex(Degenerate):
    """A vertex could not be built, priced or left: a hit normal or the
    normal matrix is singular, the polish fails, an edge's direction or
    entered signature does not settle, a surface crosses pathologically
    close to it, a probe finds another entered region than its side's,
    the probe rejects every descending side, or no exchanged active set
    escapes a degenerate one."""


class ValidationFailure(RuntimeError):
    """A vertex checked with SolverLimits(validate=True) carries an array
    that differs from its recomputation, or its active set, active values,
    normal matrix or region fail their checks. It is not Degenerate: a
    perturbed restart would hide the fault."""


class NumericalStall(RuntimeError):
    """No progress direction was found before the active set filled up."""


class MonotonicityViolation(RuntimeError):
    """A pivot increased the loss beyond round-off, signalling a fault."""


class TooShort(ValueError):
    """Series or trajectory has too few entries for the requested analysis."""


class NoExponentialPhase(ValueError):
    """No sliding window passed the exponential-fit quality threshold."""


class IllConditioned(ArithmeticError):
    """Too few extrapolation triples were numerically acceptable."""


class InvalidConfig(ValueError):
    """A setting failed validation: a config field, a seed list, a series
    file, or a field of SolverLimits or oracle.Tolerances (built checked)."""


def is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_finite(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def check_int(name: str, v, least: int) -> None:
    """InvalidConfig unless v is an integer of at least `least`."""
    if not (is_int(v) and v >= least):
        raise InvalidConfig(f"{name} must be an integer of at least {least}, got {v!r}")


def check_positive(name: str, v) -> None:
    """InvalidConfig unless v is a finite positive real number."""
    if not (is_finite(v) and v > 0):
        raise InvalidConfig(f"{name} must be finite and positive, got {v!r}")
