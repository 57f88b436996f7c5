"""The scipy.linalg routines natvb uses, each importing scipy.linalg on first call.

scipy.linalg loads only when something factors a matrix: every BLR run,
`natvb verify`, `natvb oracle ridge`, and VON at P <= 2, whose objective
goes through quadrature. IVON, Adam, RMSprop and VON at P > 2 run on
numpy alone and never load scipy. Each function passes its arguments to
the scipy.linalg routine of the same name unchanged, so the same LAPACK
calls see the same inputs.
"""

from __future__ import annotations


def cholesky(*args, **kwargs):
    from scipy.linalg import cholesky
    return cholesky(*args, **kwargs)


def cho_factor(*args, **kwargs):
    from scipy.linalg import cho_factor
    return cho_factor(*args, **kwargs)


def cho_solve(*args, **kwargs):
    from scipy.linalg import cho_solve
    return cho_solve(*args, **kwargs)


def solve_triangular(*args, **kwargs):
    from scipy.linalg import solve_triangular
    return solve_triangular(*args, **kwargs)
