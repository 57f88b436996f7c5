"""Finite-difference oracles.

Single home for the finite-difference policy used by every checker in
the package and its test suite: central differences with relative step
1e-5, scaled per coordinate by max(1, |x_i|).

central_diff_batch takes the differences in batches: the +h and -h rows
of up to BLOCK_COORDS coordinates go to one call of a function over the
rows of an array, so a vectorised loss evaluates them in one pass and
the stacked rows stay bounded whatever the dimension. The per-point
forms, central_diff_gradient and central_diff_jacobian, wrap it with a
loop over the rows. The derivative gate's gradient differences come
from LossModel.axis_values, a scalar loss's values at all 2 * x.size
points perturbed_blocks forms (an override may skip forming the rows),
through central_quotient, the one quotient (f(x + h) - f(x - h)) / (2h)
both routes share.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

REL_STEP = 1e-5
#: coordinates perturbed per batched call, so at most 2 * BLOCK_COORDS rows
BLOCK_COORDS = 32


def axis_steps(x: np.ndarray, rel_step: float = REL_STEP) -> np.ndarray:
    """The step h_i = rel_step * max(1, |x_i|) of every coordinate."""
    return rel_step * np.maximum(1.0, np.abs(x))


def perturbed_blocks(x: np.ndarray, steps: np.ndarray, coords=None
                     ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per block of up to BLOCK_COORDS of the coordinates i (default: all):
    (those coordinates, the rows x + steps_i e_i followed by the rows
    x - steps_i e_i)."""
    coords = np.arange(x.size) if coords is None else np.asarray(coords)
    for start in range(0, coords.size, BLOCK_COORDS):
        block = coords[start:start + BLOCK_COORDS]
        rows = np.empty((2, block.size, x.size))
        # signed zeros as adding and subtracting a zero step leave them:
        # -0.0 + 0.0 is 0.0, -0.0 - 0.0 is -0.0
        rows[0] = x + 0.0
        rows[1] = x
        diag = np.arange(block.size)
        rows[0, diag, block] += steps[block]
        rows[1, diag, block] -= steps[block]
        yield block, rows.reshape(2 * block.size, x.size)


def central_quotient(plus, minus, steps: np.ndarray) -> np.ndarray:
    """(f(x + h) - f(x - h)) / (2h) from the values at the two points."""
    return (plus - minus) / (2.0 * steps)


def central_diff_batch(f_batch: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                       rel_step: float = REL_STEP) -> np.ndarray:
    """Central differences of f at x, from f_batch, which maps an (n, x.size)
    array to f's n outputs stacked: the gradient, shape (in,), of a scalar
    f; the Jacobian, shape (out, in), of a vector f."""
    x = np.asarray(x, dtype=float)
    steps = axis_steps(x, rel_step)
    cols = []
    for coords, rows in perturbed_blocks(x, steps):
        outs = np.moveaxis(np.asarray(f_batch(rows)), 0, -1)
        cols.append(central_quotient(outs[..., :coords.size], outs[..., coords.size:],
                                     steps[coords]))
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
