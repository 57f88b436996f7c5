"""Finite-difference oracles.

Single home for the finite-difference policy used by every checker in
the package and its test suite: central differences with relative step
1e-5, scaled per coordinate by max(1, |x_i|).

central_diff_batch takes the differences in batches: the +h and -h rows
of up to BLOCK_COORDS coordinates go to one call of a function over the
rows of an array, so a vectorised loss evaluates them in one pass and
the stacked rows stay bounded whatever the dimension. The per-point
forms, central_diff_gradient and central_diff_jacobian, wrap it with a
loop over the rows; there is no other implementation.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

REL_STEP = 1e-5
#: coordinates perturbed per batched call, so at most 2 * BLOCK_COORDS rows
BLOCK_COORDS = 32


def _steps(x: np.ndarray, rel_step: float) -> np.ndarray:
    return rel_step * np.maximum(1.0, np.abs(x))


def _perturbed_blocks(x: np.ndarray, rel_step: float
                      ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per block of coordinates i: (their steps h_i, the rows x + h_i e_i
    followed by the rows x - h_i e_i)."""
    h = _steps(x, rel_step)
    for start in range(0, x.size, BLOCK_COORDS):
        coords = np.arange(start, min(start + BLOCK_COORDS, x.size))
        rows = np.empty((2, coords.size, x.size))
        # signed zeros as adding and subtracting a zero step leave them:
        # -0.0 + 0.0 is 0.0, -0.0 - 0.0 is -0.0
        rows[0] = x + 0.0
        rows[1] = x
        diag = np.arange(coords.size)
        rows[0, diag, coords] += h[coords]
        rows[1, diag, coords] -= h[coords]
        yield h[coords], rows.reshape(2 * coords.size, x.size)


def central_diff_batch(f_batch: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                       rel_step: float = REL_STEP) -> np.ndarray:
    """Central differences of f at x, from f_batch, which maps an (n, x.size)
    array to f's n outputs stacked: the gradient, shape (in,), of a scalar
    f; the Jacobian, shape (out, in), of a vector f."""
    x = np.asarray(x, dtype=float)
    cols = []
    for steps, rows in _perturbed_blocks(x, rel_step):
        outs = np.asarray(f_batch(rows))
        diff = np.moveaxis(outs[:steps.size] - outs[steps.size:], 0, -1)
        cols.append(diff / (2.0 * steps))
    return np.concatenate(cols, axis=-1)


def _row_by_row(f: Callable) -> Callable[[np.ndarray], np.ndarray]:
    return lambda rows: np.array([f(row) for row in rows])


def central_diff_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                          rel_step: float = REL_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    return central_diff_batch(_row_by_row(f), x, rel_step)


def central_diff_jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                          rel_step: float = REL_STEP) -> np.ndarray:
    """Central-difference Jacobian of a vector function, shape (out, in)."""
    return central_diff_batch(_row_by_row(f), x, rel_step)
