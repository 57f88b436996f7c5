"""Gauss-Hermite quadrature for Gaussian expectations in one or two dimensions.

Used as an independent ground-truth route for expected losses on
desk-scale problems (P <= 2); higher dimensions fall back to Monte Carlo
elsewhere in the package.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from ._linalg import cholesky


@lru_cache(maxsize=16)
def standard_normal_nodes(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights w with E[f(Z)] ~ sum_i w_i f(z_i), Z ~ N(0,1).

    Computed once per node count and returned read-only. scipy.special is
    imported on first use, so runs that never integrate do not load it.
    """
    from scipy.special import roots_hermitenorm

    z, w = roots_hermitenorm(n_nodes)
    w = w / np.sqrt(2.0 * np.pi)
    for arr in (z, w):
        arr.setflags(write=False)
    return z, w


def gaussian_expectation(f_batch: Callable[[np.ndarray], np.ndarray],
                         mean: np.ndarray, cov: np.ndarray,
                         n_nodes: int = 80) -> float:
    """E[f(theta)] for theta ~ N(mean, cov), mean of length 1 or 2.

    cov is the covariance matrix or a diagonal Gaussian's variance vector.
    `f_batch` maps an array of theta rows, shape (G, P), to G values. A
    tensor-product rule is used in 2-D after a Cholesky transport of the
    standard grid.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.asarray(cov, dtype=float)
    dim = mean.size
    if dim > 2:
        raise ValueError(f"quadrature supports dimension <= 2, got {dim}")
    z, w = standard_normal_nodes(n_nodes)
    chol = cholesky(np.diag(cov) if cov.ndim == 1 else np.atleast_2d(cov), lower=True)
    if dim == 1:
        thetas = (mean[0] + chol[0, 0] * z).reshape(-1, 1)
        weights = w
    else:
        z_grid = np.stack(np.meshgrid(z, z, indexing="ij"), axis=-1).reshape(-1, 2)
        weights = np.outer(w, w).reshape(-1)
        thetas = mean + z_grid @ chol.T
    values = np.asarray(f_batch(thetas), dtype=float).reshape(-1)
    return float(weights @ values)
