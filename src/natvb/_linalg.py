"""The four LAPACK calls natvb factors and solves with.

Each function is named after, and returns bitwise what, its scipy.linalg
namesake returns for 2-D float64 factors, but calls the LAPACK routine
behind it directly, without scipy.linalg's per-call wrapper layers:

- cholesky          dpotrf(a, lower, clean=1, overwrite_a=0)
- cho_factor        dpotrf(a, lower, clean=0, overwrite_a=0)
- cho_solve         dpotrs(c, b, lower, overwrite_b=0)
- solve_triangular  dtrtrs(a, b, lower, trans=0, unitdiag=0, overwrite_b=0);
                    a C-ordered `a` goes in as the Fortran-ordered a.T with
                    `lower` flipped and trans=1, as scipy does

They keep scipy's checks: every argument must be finite (else
ValueError), matrices square and right-hand sides (n,) or (n, k) with
matching n (else ValueError), dpotrf's info > 0 raises LinAlgError (not
positive definite), dtrtrs's info > 0 raises LinAlgError (singular) and
any info < 0 raises ValueError. They do not batch, take complex input,
or overwrite their arguments. cholesky, cho_solve and solve_triangular
are each those checks plus a raw core (cholesky_unchecked,
cho_solve_unchecked, solve_triangular_unchecked) keeping only the info
checks, for a square matrix natvb has already scanned and a finite
right-hand side of matching rows. The Gaussian families call the cores
behind their own scans: every Cholesky factorisation in `gaussian` is
cholesky_unchecked after one scan of the matrix (a full natural
parameter's precision, or the covariance of an expectation parameter),
a full natural parameter's mean and covariance come from one
cho_solve_unchecked, and draws take solve_triangular_unchecked, from the
public transport, which scans the caller's normals, or from the private
_transport that sample and natvb's fixed-seed blocks go through.

norm is np.linalg.norm's sqrt(x.dot(x)) for a 1-D float vector, and
row_norms the same for each row of a 2-D one.

The routines are resolved at the first call, so scipy.linalg loads only
when something factors a matrix: every BLR run, `natvb verify`, `natvb
oracle ridge`, and VON at P <= 2, whose objective goes through
quadrature. IVON, Adam, RMSprop and VON at P > 2 run on numpy alone and
never load scipy. This is the one module in natvb that imports
scipy.linalg.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.cache
def _lapack():
    from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
    return dpotrf, dpotrs, dtrtrs


def _finite(a) -> np.ndarray:
    """a as an array, scanned once; np.asarray_chkfinite's check and
    message at half its per-call cost."""
    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def _square(a) -> np.ndarray:
    a = _finite(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _rhs(b, a: np.ndarray) -> np.ndarray:
    b = _finite(b)
    if b.ndim not in (1, 2) or b.shape[0] != a.shape[0]:
        raise ValueError(f"shapes of a {a.shape} and b {b.shape} are incompatible")
    return b


def _potrf(a, lower, clean) -> np.ndarray:
    c, info = _lapack()[0](a, lower=lower, clean=clean, overwrite_a=False)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrf")
    return c


def cholesky(a, lower=False) -> np.ndarray:
    """Cholesky factor of a symmetric PD `a`, the other triangle zeroed."""
    return _potrf(_square(a), lower, clean=True)


def cholesky_unchecked(a: np.ndarray, lower: bool) -> np.ndarray:
    """cholesky's LAPACK core: a finite, square float array a."""
    return _potrf(a, lower, clean=True)


def cho_factor(a, lower=False) -> tuple[np.ndarray, bool]:
    """(c, lower) for cho_solve; c's other triangle is not zeroed."""
    return _potrf(_square(a), lower, clean=False), lower


def cho_solve(c_and_lower, b) -> np.ndarray:
    """x with a x = b, from cho_factor's (c, lower) for a."""
    c, lower = c_and_lower
    c = _square(c)
    return cho_solve_unchecked(c, _rhs(b, c), lower)


def cho_solve_unchecked(c: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """cho_solve's LAPACK core: a validated factor c, a finite b of matching rows."""
    x, info = _lapack()[1](c, b, lower=lower, overwrite_b=False)
    if info != 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrs")
    return x


def solve_triangular(a, b, lower=False) -> np.ndarray:
    """x with a x = b for a lower (or upper) triangular `a`."""
    a = _square(a)
    return solve_triangular_unchecked(a, _rhs(b, a), lower)


def solve_triangular_unchecked(a: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """solve_triangular's LAPACK core: a validated factor a, a finite b of matching rows."""
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
