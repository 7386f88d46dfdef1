"""Dense kernels for constraint-normal systems.

Everything here goes through full factorizations (LAPACK via scipy); there
are no incremental updates. Systems stay small (a few dozen rows), so
correctness wins over cleverness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DependentNormals, ShapeMismatch, SingularMatrix

# Pivot below this fraction of the largest entry counts as singular.
PIVOT_RTOL = 1e-12

# Reciprocal condition below this flags the system as near-singular.
NEAR_SINGULAR_RCOND = 1e-12


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
    if not np.all(np.isfinite(a)):
        raise ShapeMismatch("matrix entries must be finite")
    n = a.shape[0]
    # LAPACK getrf directly: scipy's lu_factor wrapper costs as much as the
    # factorization at these sizes. Singularity is detected below with our
    # own pivot rule, not from getrf's info.
    getrf = scipy.linalg.get_lapack_funcs(("getrf",), (a,))[0]
    lu, piv, info = getrf(a)
    if info < 0:
        raise ValueError(f"getrf: illegal value in argument {-info}")
    scale = float(np.max(np.abs(a))) if n else 0.0
    pivots = np.abs(np.diag(lu))
    if n and (scale == 0.0 or np.min(pivots) < PIVOT_RTOL * scale):
        raise SingularMatrix(
            f"numerical rank below {n} (min pivot {np.min(pivots) if n else 0:.3e})"
        )
    return Factorization(lu=lu, piv=piv, n=n)


def rcond(f: Factorization, a: np.ndarray) -> float:
    """LAPACK's (gecon) estimate of the reciprocal 1-norm condition number
    of a from its factorization f; 0 when the estimate fails."""
    anorm = scipy.linalg.norm(a, 1) if f.n else 0.0
    gecon = scipy.linalg.get_lapack_funcs(("gecon",), (f.lu,))[0]
    rc, info = gecon(f.lu, anorm)
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
        getri = scipy.linalg.get_lapack_funcs(("getri",), (f.lu,))[0]
        inv, info = getri(f.lu, f.piv)
        if info != 0:
            raise SingularMatrix(f"getri failed with info {info}")
        return inv.T
    b = np.asarray(b, dtype=float)
    if b.shape[0] != f.n:
        raise ShapeMismatch(f"rhs length {b.shape[0]} != system size {f.n}")
    getrs = scipy.linalg.get_lapack_funcs(("getrs",), (f.lu,))[0]
    x, info = getrs(f.lu, f.piv, b, trans=1 if transpose else 0)
    if info != 0:
        raise ValueError(f"getrs: illegal value in argument {-info}")
    return x


def rank_extends(basis: list[np.ndarray], candidate: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff the candidate leaves the span of the basis.

    The test is on the norm of the candidate's component orthogonal to
    span(basis), relative to 1 + ||candidate||.
    """
    candidate = np.asarray(candidate, dtype=float)
    threshold = tol * (1.0 + float(np.linalg.norm(candidate)))
    if not basis:
        return float(np.linalg.norm(candidate)) > threshold
    bmat = np.column_stack([np.asarray(v, dtype=float) for v in basis])
    if bmat.shape[0] != candidate.shape[0]:
        raise ShapeMismatch("basis and candidate dimensions differ")
    q, _ = np.linalg.qr(bmat)
    residual = candidate - q @ (q.T @ candidate)
    return float(np.linalg.norm(residual)) > threshold


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
