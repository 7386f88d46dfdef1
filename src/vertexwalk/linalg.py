"""Dense kernels for constraint-normal systems.

Everything here goes through full factorizations (LAPACK via scipy); there
are no incremental updates. Systems stay small (a few dozen rows), so
correctness wins over cleverness.

The LAPACK routines are called directly, fetched once: at these sizes the
wrappers around them (scipy's lu_factor, np.linalg.solve) cost several
times the work itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DependentNormals, ShapeMismatch, SingularMatrix

# Pivot below this fraction of the largest entry counts as singular.
PIVOT_RTOL = 1e-12

# Reciprocal condition below this flags the system as near-singular.
NEAR_SINGULAR_RCOND = 1e-12

_getrf, _getri, _getrs, _gecon, _gesv = scipy.linalg.get_lapack_funcs(
    ("getrf", "getri", "getrs", "gecon", "gesv"), dtype=np.float64
)


@dataclass(frozen=True)
class Factorization:
    """LU factorization (LAPACK getrf) of a square matrix of size n.

    It carries no condition estimate: near_singular estimates one from the
    factorization and the matrix, for the callers that check it.
    """

    lu: np.ndarray
    piv: np.ndarray
    n: int


def factorize(a: np.ndarray) -> Factorization:
    """LU-factorize a square matrix.

    Raises SingularMatrix when any pivot falls below PIVOT_RTOL times the
    largest entry magnitude of the input.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    # The largest magnitude is NaN or inf exactly when some entry is.
    scale = float(np.maximum.reduce(np.abs(a), axis=None)) if n else 0.0
    if not math.isfinite(scale):
        raise ShapeMismatch("matrix entries must be finite")
    # Singularity is detected below with our own pivot rule, not from
    # getrf's info.
    lu, piv, info = _getrf(a)
    if info < 0:
        raise ValueError(f"getrf: illegal value in argument {-info}")
    if n:
        least = float(np.minimum.reduce(np.abs(lu.diagonal())))
        if scale == 0.0 or least < PIVOT_RTOL * scale:
            raise SingularMatrix(f"numerical rank below {n} (min pivot {least:.3e})")
    return Factorization(lu=lu, piv=piv, n=n)


def rcond(f: Factorization, a: np.ndarray) -> float:
    """LAPACK's (gecon) estimate of the reciprocal 1-norm condition number
    of a from its factorization f; 0 when the estimate fails."""
    anorm = scipy.linalg.norm(a, 1) if f.n else 0.0
    rc, info = _gecon(f.lu, anorm)
    if info != 0:
        return 0.0
    return float(rc)


def near_singular(f: Factorization, a: np.ndarray) -> bool:
    """Whether a, factorized as f, has rcond below NEAR_SINGULAR_RCOND."""
    return rcond(f, a) < NEAR_SINGULAR_RCOND


def solve(
    f: Factorization, b: np.ndarray | None, transpose: bool = False
) -> np.ndarray:
    """Solve A x = b (or A^T x = b) using a prior factorization.

    b None asks for A^-T, the edge directions of a vertex, and needs
    transpose=True. LAPACK getri forms the inverse from level-2 kernels; a
    many-column getrs would wake threaded level-3 kernels, whose spinning
    threads slow down concurrent processes.
    """
    if b is None:
        if not transpose:
            raise ValueError("b=None gives A^-T and needs transpose=True")
        inv, info = _getri(f.lu, f.piv)
        if info != 0:
            raise SingularMatrix(f"getri failed with info {info}")
        return inv.T
    b = np.asarray(b, dtype=float)
    if b.shape[0] != f.n:
        raise ShapeMismatch(f"rhs length {b.shape[0]} != system size {f.n}")
    x, info = _getrs(f.lu, f.piv, b, trans=1 if transpose else 0)
    if info != 0:
        raise ValueError(f"getrs: illegal value in argument {-info}")
    return x


def solve_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the small square system a x = b (b a vector) with LAPACK gesv,
    the routine np.linalg.solve calls. Up to 5 rows x has np.linalg.solve's
    bits (tests/test_linalg.py checks it; the walk's Woodbury systems have
    1 or 2); from 6 rows on, the LAPACK builds that numpy and scipy ship
    can round differently. Raises np.linalg.LinAlgError, as
    np.linalg.solve does, when a is exactly singular."""
    _, _, x, info = _gesv(a, b)
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    if info < 0:
        raise ValueError(f"gesv: illegal value in argument {-info}")
    return x


def norm(x: np.ndarray) -> float:
    """The Euclidean norm of a contiguous vector: np.linalg.norm's
    sqrt(x . x), bit for bit, without its dispatch."""
    return math.sqrt(x @ x)


def rank_extends(basis: list[np.ndarray], candidate: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff the candidate leaves the span of the basis.

    The test is on the norm of the candidate's component orthogonal to
    span(basis), relative to 1 + ||candidate||.
    """
    candidate = np.asarray(candidate, dtype=float)
    threshold = tol * (1.0 + norm(candidate))
    if not basis:
        return norm(candidate) > threshold
    bmat = np.column_stack([np.asarray(v, dtype=float) for v in basis])
    if bmat.shape[0] != candidate.shape[0]:
        raise ShapeMismatch("basis and candidate dimensions differ")
    q, _ = np.linalg.qr(bmat)
    residual = candidate - q @ (q.T @ candidate)
    return norm(residual) > threshold


def project_nullspace(normals: list[np.ndarray], g: np.ndarray) -> np.ndarray:
    """Component of g orthogonal to span(normals).

    Raises DependentNormals if the normals are not linearly independent.
    """
    g = np.asarray(g, dtype=float)
    if not normals:
        return g.copy()
    nmat = np.column_stack([np.asarray(v, dtype=float) for v in normals])
    if nmat.shape[0] != g.shape[0]:
        raise ShapeMismatch("normal and vector dimensions differ")
    q, r = np.linalg.qr(nmat)
    diag = np.abs(np.diag(r))
    scale = float(np.max(np.abs(nmat)))
    if scale == 0.0 or np.min(diag) < PIVOT_RTOL * scale * nmat.shape[0]:
        raise DependentNormals("normals are numerically dependent")
    return g - q @ (q.T @ g)


def nullspace_basis(normals: list[np.ndarray], dim: int) -> np.ndarray:
    """Orthonormal basis (columns) of the orthogonal complement of the normals."""
    if not normals:
        return np.eye(dim)
    nmat = np.column_stack([np.asarray(v, dtype=float) for v in normals])
    q, _ = scipy.linalg.qr(nmat, mode="full")
    return q[:, nmat.shape[1] :]
