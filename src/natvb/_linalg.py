"""The factorisations and solves natvb runs, and two vector norms.

cholesky, cho_factor and cho_solve are scipy.linalg's own functions,
checks included: a non-finite argument, a matrix that is not square or a
right-hand side of other rows raises ValueError, a matrix that is not
positive definite LinAlgError. The ridge oracle, the Newton recovery
step, verify's Fisher solve, quadrature's transport and
FullGaussian.dual_to_natural call them.

The Gaussian families' hot path calls the LAPACK routine behind each
instead, without scipy.linalg's per-call wrapper layers, and returns
bitwise what the scipy function would:

- cholesky_unchecked          dpotrf(a, lower, clean=1, overwrite_a=0)
- cho_solve_unchecked         dpotrs(c, b, lower, overwrite_b=0)
- solve_triangular_unchecked  dtrtrs(a, b, lower, trans=0, unitdiag=0,
                              overwrite_b=0); a C-ordered `a` goes in as
                              the Fortran-ordered a.T with `lower` flipped
                              and trans=1, as scipy does

These keep only LAPACK's info checks (info > 0 raises LinAlgError, not
positive definite or singular; info < 0 ValueError), for a square matrix
natvb has already scanned and a finite right-hand side of matching rows:
every Cholesky factorisation in `gaussian` is cholesky_unchecked after
one scan of the matrix (a full natural parameter's precision, or the
covariance of an expectation parameter), a full natural parameter's mean
and covariance come from one cho_solve_unchecked, and draws take
solve_triangular_unchecked, from the public transport, which scans the
caller's normals, or from the private _transport that sample and natvb's
fixed-seed blocks go through.

norm is np.linalg.norm's sqrt(x.dot(x)) for a 1-D float vector, and
row_norms the same for each row of a 2-D one.

scipy.linalg is imported at the first call, so it loads only when
something factors a matrix: every BLR run, `natvb verify`, `natvb oracle
ridge`, and VON at P <= 2, whose objective goes through quadrature.
IVON, Adam, RMSprop and VON at P > 2 run on numpy alone and never load
scipy. This is the one module in natvb that imports scipy.linalg.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.cache
def _lapack():
    from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
    return dpotrf, dpotrs, dtrtrs


def cholesky(a, lower=False) -> np.ndarray:
    """scipy.linalg.cholesky: the factor of a symmetric PD `a`, the other
    triangle zeroed."""
    from scipy.linalg import cholesky
    return cholesky(a, lower=lower)


def cho_factor(a, lower=False) -> tuple[np.ndarray, bool]:
    """scipy.linalg.cho_factor: (c, lower) for cho_solve; c's other
    triangle is not zeroed."""
    from scipy.linalg import cho_factor
    return cho_factor(a, lower=lower)


def cho_solve(c_and_lower, b) -> np.ndarray:
    """scipy.linalg.cho_solve: x with a x = b, from cho_factor's (c, lower)."""
    from scipy.linalg import cho_solve
    return cho_solve(c_and_lower, b)


def cholesky_unchecked(a: np.ndarray, lower: bool) -> np.ndarray:
    """cholesky's LAPACK core: a finite, square float array a."""
    c, info = _lapack()[0](a, lower=lower, clean=True, overwrite_a=False)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrf")
    return c


def cho_solve_unchecked(c: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """cho_solve's LAPACK core: a validated factor c, a finite b of matching rows."""
    x, info = _lapack()[1](c, b, lower=lower, overwrite_b=False)
    if info != 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrs")
    return x


def solve_triangular_unchecked(a: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """x with a x = b for a lower (or upper) triangular `a`, bitwise
    scipy.linalg.solve_triangular's: a validated factor a, a finite b of
    matching rows."""
    trtrs = _lapack()[2]
    if a.flags.f_contiguous:
        x, info = trtrs(a, b, lower=lower, trans=0, unitdiag=0, overwrite_b=False)
    else:
        # trtrs reads Fortran order, in which a C-ordered a is stored as a.T
        x, info = trtrs(a.T, b, lower=not lower, trans=1, unitdiag=0,
                        overwrite_b=False)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector, bitwise np.linalg.norm(x)."""
    return float(np.sqrt(x.dot(x)))


def row_norms(x: np.ndarray) -> np.ndarray:
    """norm of each row of a 2-D float array, bitwise: one stacked matmul
    whose (1, n) @ (n, 1) products are each the dot that norm takes."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])
