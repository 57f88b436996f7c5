"""Full-covariance and diagonal-covariance Gaussian families.

A Gaussian N(m, S^-1) with precision S is the exponential-family member

    q(theta) ~ exp[ (Sm)' theta + <-S/2, theta theta'> ],

so the natural parameter has a linear block Sm and a quadratic block
-S/2. Parameter vectors are flattened as (linear block, then the upper
triangle of the quadratic block in row-major order). Two layouts share
that ordering:

  * coefficient layout (natural side): off-diagonal entries are stored
    doubled, so that <lam, T(theta)> is an ordinary dot product;
  * moment layout (statistic/dual side): plain entries, T(theta) carries
    theta_i theta_j once per (i, j) pair with i <= j.

With these layouts mu = grad A(lam) holds coordinate-wise and the Fisher
matrix Cov[T] is the exact Jacobian of natural_to_dual. fisher_vp and
fisher_solve differentiate natural_to_dual and dual_to_natural in
closed form, so F v and F^-1 w cost O(P^3) from the parameter's stored
factor (elementwise for the diagonal family), and no family forms the
dense F, whose O(P^4) entries take 3.3 GB at P = 200. Given a block of
B parameters, both stack the B products into one set of batched numpy
calls; one parameter is the block B = 1.

quadratic_to_natural(hess, lin), the coefficients c with <c, T(theta)> =
lin'theta - theta'hess theta/2 (hess the (P, P) matrix for hessian_kind
"full", its diagonal for "diag"), and its inverse natural_to_quadratic
are each family's one place for the coefficient layout: QuadraticLoss and
every conversion here go through them, gaussian_identity (a loss's expected
gradient and Hessian at q to the natural gradient) too. The ridge oracle
(models.ridge_natural_coefficients) writes its own layout on purpose, as
the independent route the conjugate path is checked against.

The precision parameterization is primary throughout: sampling
(transport of standard normals) runs a triangular solve against the
Cholesky factor of S, and nothing inverts a covariance on the hot path.
Each family's _derive is its one natural-side domain check: S must be
positive definite (for the full family, Cholesky must succeed) and the
mean and covariance must be finite; the full family scans S once, before
one dpotrf, and the moments once, from one dpotrs on [lin | I]. The
factorisation, that solve and every draw's triangular solve use
_linalg's unchecked cores. transport scans the caller's normals; sample
and the fixed-seed blocks natvb draws itself (the objective's Monte
Carlo fallback, the Bayes-filter probes) go through the families'
private _transport, which does not. _derive's result (the full family's
_Factor: precision, its Cholesky factor, mean, covariance and the
cumulant A(lam); the diagonal family's _DiagFactor: the vectors lin,
s, mean lin/s and variance 1/s, and A(lam)) rides on the NaturalParams
that natural() returns, so a parameter is factored, and its moments and
A computed, once however many methods read it. The domain is open, so
boundary cases fail rather than being nudged.

from_moment(mean, precision) is the one route from moments to a
Gaussian: it checks the shapes (and, for the full family, that S is
symmetric, since _derive builds its S symmetric from the upper
triangle) and returns natural((Sm, -S/2)), validated and factored once.
The other way, to_mean_cov, to_mean_var and split_natural read the
moments and precision off that derived view.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._linalg import cho_solve, cho_solve_unchecked, solve_triangular_unchecked
# the module's one factorisation, under the name perfbench/layers.py counts:
# _chol_pd, its one caller, scans the matrix first
from ._linalg import cholesky_unchecked as cholesky
from .errors import DomainError
from .expfam import ExpFamily, NaturalParams

_LOG_2PI = float(np.log(2.0 * np.pi))


# -- symmetric-matrix flattening -------------------------------------

@dataclass(frozen=True)
class _TriuIndex:
    """Upper-triangular pairs (rows[a], cols[a]) in row-major order, plus
    the per-pair factors between the coefficient and moment layouts."""

    rows: np.ndarray
    cols: np.ndarray
    #: flat positions of (rows, cols) in a C-ordered matrix
    flat: np.ndarray
    #: for each flat position of a C-ordered matrix, the index a of its
    #: pair: (i, j) and (j, i) both map to the a with (rows[a], cols[a]) = (i, j)
    pair: np.ndarray
    #: 1 on the diagonal, 2 off it (moment -> coefficient)
    double: np.ndarray
    #: 1 on the diagonal, 1/2 off it (coefficient -> moment)
    half: np.ndarray


@lru_cache(maxsize=64)
def _triu_index(dim: int) -> _TriuIndex:
    rows, cols = np.triu_indices(dim)
    diag = rows == cols
    pair = np.empty((dim, dim), dtype=np.intp)
    pair[rows, cols] = pair[cols, rows] = np.arange(rows.size)
    index = _TriuIndex(rows, cols, rows * dim + cols, pair.reshape(-1),
                       np.where(diag, 1.0, 2.0), np.where(diag, 1.0, 0.5))
    for arr in vars(index).values():
        arr.setflags(write=False)
    return index


def sym_to_coeff(mat: np.ndarray) -> np.ndarray:
    """Coefficient layout of a symmetric matrix (off-diagonals doubled);
    leading axes of a stack of matrices are kept."""
    mat = np.asarray(mat, dtype=float)
    return _triu_index(mat.shape[-1]).double * sym_to_moment(mat)


def coeff_to_sym(vec: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of sym_to_coeff: moment_to_sym of the halved entries."""
    index = _triu_index(dim)
    vec = index.half * np.asarray(vec, dtype=float)
    return np.take(vec, index.pair, axis=-1).reshape(*vec.shape[:-1], dim, dim)


def sym_to_moment(mat: np.ndarray) -> np.ndarray:
    """Moment layout of a symmetric matrix (plain upper triangle); leading
    axes of a stack of matrices are kept."""
    mat = np.asarray(mat, dtype=float)
    flat = mat.reshape(*mat.shape[:-2], -1)
    return np.take(flat, _triu_index(mat.shape[-1]).flat, axis=-1)


def moment_to_sym(vec: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of sym_to_moment: one gather of each entry's pair."""
    vec = np.asarray(vec, dtype=float)
    flat = np.take(vec, _triu_index(dim).pair, axis=-1)
    return flat.reshape(*vec.shape[:-1], dim, dim)


def _chol_pd(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric float mat, or DomainError if not
    finite or PD: one scan of mat, then dpotrf's core."""
    if not np.isfinite(mat).all():
        raise DomainError("matrix must be finite")
    try:
        return cholesky(mat, lower=True)
    except np.linalg.LinAlgError as exc:
        raise DomainError("matrix not positive definite") from exc


def _check_size(size: int) -> None:
    if size < 1:
        raise ValueError("sample size must be >= 1")


def _normal_rows(z, dim: int) -> np.ndarray:
    """The caller's standard-normal draws, checked once: shape (n >= 1, dim), finite."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] != dim:
        raise ValueError(f"standard-normal draws must have shape (n >= 1, {dim})")
    if not np.isfinite(z).all():
        raise ValueError("standard-normal draws must be finite")
    return z


def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Row b is mats[b] @ vecs[b]: one stacked matmul, each product a gemv."""
    return np.matmul(mats, vecs[..., None])[..., 0]


# -- families ---------------------------------------------------------

class _Factor(NamedTuple):
    """FullGaussian's derived natural parameter: its factorisation (arrays
    all read-only) and the log normalizer A(lam) computed from it."""

    lin: np.ndarray
    prec: np.ndarray
    #: lower Cholesky factor of prec
    chol: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    #: A(lam) = m'lin/2 - log det(S)/2 + P log(2 pi)/2
    cumulant: float


class _DiagFactor(NamedTuple):
    """DiagGaussian's derived natural parameter: read-only lin, s, lin / s, 1 / s and A(lam)."""

    lin: np.ndarray
    prec: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    cumulant: float


class FullGaussian(ExpFamily):
    """Full-covariance Gaussians on R^P, T(theta) = (theta, theta theta').

    Every method that needs the precision's factorisation reads it from
    natural(lam).derived, which _derive computes once per parameter.
    """

    hessian_kind = "full"

    def __init__(self, theta_dim: int):
        if theta_dim < 1:
            raise ValueError("theta_dim must be >= 1")
        self.theta_dim = int(theta_dim)
        self.param_dim = self.theta_dim + self.theta_dim * (self.theta_dim + 1) // 2
        self.name = f"gaussian_full_{self.theta_dim}"
        self._triu = _triu_index(self.theta_dim)
        #: [0 | I], the right-hand side of _derive's solve less its first column
        self._unit_rhs = np.eye(self.theta_dim, self.theta_dim + 1, 1, order="F")
        self._unit_rhs.setflags(write=False)

    def quadratic_to_natural(self, hess, lin) -> np.ndarray:
        """c with <c, T(theta)> = lin'theta - theta'hess theta/2, hess (..., P, P)."""
        return np.concatenate([lin, sym_to_coeff(-0.5 * hess)], axis=-1)

    def natural_to_quadratic(self, coeff) -> tuple[np.ndarray, np.ndarray]:
        """(hess, lin) of the coefficients coeff, the inverse of quadratic_to_natural."""
        p = self.theta_dim
        return -2.0 * coeff_to_sym(coeff[..., p:], p), coeff[..., :p]

    def _derive(self, coords) -> _Factor:
        # -2 q overflows to inf for q below about -9e307, which _chol_pd's scan rejects
        prec, lin = self.natural_to_quadratic(coords)
        try:
            chol = _chol_pd(prec)
        except DomainError as exc:
            raise DomainError(
                f"natural parameters outside the domain of {self.name!r}") from exc
        # (mean | raw covariance) in one solve, column for column the bits of
        # two; the covariance is the symmetrised block's C-ordered transpose
        rhs = self._unit_rhs.copy(order="F")
        rhs[:, 0] = lin
        moments = cho_solve_unchecked(chol, rhs, lower=True)
        block = moments[:, 1:]
        block[...] = 0.5 * (block + block.T)
        if not np.isfinite(moments).all():  # after symmetrising, which can overflow
            raise DomainError(f"the moments of {self.name!r} overflow at these parameters")
        for arr in (prec, chol, moments):
            arr.setflags(write=False)
        mean, cov = moments[:, 0], moments[:, 1:].T
        logdet = 2.0 * np.log(chol.diagonal()).sum()
        # m'lin can overflow at finite moments: A is then inf, stored without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            cumulant = float(0.5 * lin @ mean - 0.5 * logdet + 0.5 * self.theta_dim * _LOG_2PI)
        return _Factor(lin, prec, chol, mean, cov, cumulant)

    def _derive_expectation(self, coords) -> tuple[np.ndarray, np.ndarray]:
        """(mean, lower Cholesky factor of the covariance) of mu = coords, read-only."""
        p = self.theta_dim
        mean = coords[:p]
        low = _chol_pd(moment_to_sym(coords[p:], p) - np.outer(mean, mean))
        low.setflags(write=False)
        return mean, low

    def split_natural(self, lam) -> tuple[np.ndarray, np.ndarray]:
        """(linear block, precision matrix S); raises if S is not PD."""
        factor = self.natural(lam).derived
        return factor.lin, factor.prec

    def to_mean_cov(self, lam) -> tuple[np.ndarray, np.ndarray]:
        """(mean, covariance) of q_lam."""
        factor = self.natural(lam).derived
        return factor.mean, factor.cov

    def from_moment(self, mean, precision) -> NaturalParams:
        """natural((Sm, -S/2)) for mean m and a symmetric (P, P) precision S.

        Raises DomainError for the wrong shapes or an asymmetric S here,
        and, from natural(), for an S that is not positive definite or
        moments that are not finite.
        """
        mean = np.asarray(mean, dtype=float).reshape(-1)
        prec = np.asarray(precision, dtype=float)
        if mean.size != self.theta_dim or prec.shape != (self.theta_dim,) * 2:
            raise DomainError("moment parameters have the wrong shape")
        # inf - inf and inf * 0 give NaN, which natural() rejects
        with np.errstate(invalid="ignore"):
            if np.max(np.abs(prec - prec.T)) > 1e-12 * max(1.0, np.max(np.abs(prec))):
                raise DomainError("precision must be symmetric")
            coords = self.quadratic_to_natural(prec, prec @ mean)
        return self.natural(coords)

    def natural_to_dual(self, lam) -> np.ndarray:
        mean, cov = self.to_mean_cov(lam)
        # E[th_i th_j] = C_ij + m_i m_j, on the upper triangle alone
        rows, cols = self._triu.rows, self._triu.cols
        return np.concatenate([mean, sym_to_moment(cov) + mean[rows] * mean[cols]])

    def dual_to_natural(self, mu) -> np.ndarray:
        mean, low = self.expectation(mu).derived
        prec = cho_solve((low, True), np.eye(self.theta_dim))
        prec = 0.5 * (prec + prec.T)
        return self.quadratic_to_natural(prec, prec @ mean)

    def fisher_vp(self, lam, v) -> np.ndarray:
        # JVP of natural_to_dual: perturb S by dS, m = S^-1 lin and
        # M = Sigma + m m' follow; stacked over a block of parameters
        factors, v, one = self._tangent_block(lam, v)
        mean = np.array([f.mean for f in factors])
        cov = np.array([f.cov for f in factors])
        rows, cols = self._triu.rows, self._triu.cols
        d_prec, d_lin = self.natural_to_quadratic(v)
        d_mean = _matvec(cov, d_lin - _matvec(d_prec, mean))
        # the upper triangle of -Sigma dS Sigma + dm m' + m dm'
        d_second = (-sym_to_moment(cov @ d_prec @ cov) + d_mean[:, rows] * mean[:, cols]
                    + d_mean[:, cols] * mean[:, rows])
        out = np.concatenate([d_mean, d_second], axis=1)
        return out[0] if one else out

    def fisher_solve(self, lam, w) -> np.ndarray:
        # JVP of dual_to_natural at mu(lam): Sigma = M - m m' moves by
        # W - w_m m' - m w_m', and S = Sigma^-1 by -S dSigma S
        factors, w, one = self._tangent_block(lam, w)
        p = self.theta_dim
        mean = np.array([f.mean for f in factors])
        prec = np.array([f.prec for f in factors])
        rows, cols = self._triu.rows, self._triu.cols
        w_mean = w[:, :p]
        # dSigma from its upper triangle, W - w_m m' - m w_m'
        d_cov = moment_to_sym(w[:, p:] - w_mean[:, rows] * mean[:, cols]
                              - w_mean[:, cols] * mean[:, rows], p)
        d_prec = -(prec @ d_cov @ prec)
        out = self.quadratic_to_natural(d_prec, _matvec(d_prec, mean) + _matvec(prec, w_mean))
        return out[0] if one else out

    def sufficient_stats(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.size != self.theta_dim:
            raise ValueError(f"theta must have length {self.theta_dim}")
        return np.concatenate([theta, theta[self._triu.rows] * theta[self._triu.cols]])

    def sufficient_stats_batch(self, thetas) -> np.ndarray:
        thetas = self._theta_rows(thetas)
        out = np.empty((len(thetas), self.param_dim))
        out[:, :self.theta_dim] = thetas
        np.multiply(thetas.take(self._triu.rows, axis=1), thetas.take(self._triu.cols, axis=1),
                    out=out[:, self.theta_dim:])
        return out

    def transport(self, lam, z) -> np.ndarray:
        """Map standard-normal rows z, shape (n, P), to draws from q_lam."""
        return self._transport(self.natural(lam), _normal_rows(z, self.theta_dim))

    def _transport(self, lam, z: np.ndarray) -> np.ndarray:
        """transport's core, for z natvb drew: a finite (n >= 1, P) float array."""
        factor = self.natural(lam).derived
        # theta = m + L^-T z  has covariance (L L')^-1 = S^-1
        return factor.mean + solve_triangular_unchecked(factor.chol.T, z.T, lower=False).T

    def sample(self, lam, size: int, rng: np.random.Generator) -> np.ndarray:
        _check_size(size)
        return self._transport(lam, rng.standard_normal((size, self.theta_dim)))

    def gaussian_identity(self, mean, grad, hess) -> np.ndarray:
        """tilde_lam = -(E[grad] - E[H] m ; E[H]/2) for a (P, P) E[H]."""
        hess = np.atleast_2d(np.asarray(hess, dtype=float))
        return self.quadratic_to_natural(hess, -grad + hess @ mean)


class DiagGaussian(ExpFamily):
    """Diagonal-covariance Gaussians, T(theta) = (theta, theta^2) elementwise.

    The restriction of the full family to diagonal precisions; every
    quantity agrees with FullGaussian on the shared coordinates.
    """

    hessian_kind = "diag"

    def __init__(self, theta_dim: int):
        if theta_dim < 1:
            raise ValueError("theta_dim must be >= 1")
        self.theta_dim = int(theta_dim)
        self.param_dim = 2 * self.theta_dim
        self.name = f"gaussian_diag_{self.theta_dim}"

    def quadratic_to_natural(self, hess, lin) -> np.ndarray:
        """c with <c, T(theta)> = lin'theta - sum(hess theta^2)/2, hess (..., P)."""
        return np.concatenate([lin, -0.5 * hess], axis=-1)

    def natural_to_quadratic(self, coeff) -> tuple[np.ndarray, np.ndarray]:
        """(hess, lin) of the coefficients coeff, the inverse of quadratic_to_natural."""
        p = self.theta_dim
        return -2.0 * coeff[..., p:], coeff[..., :p]

    def _derive(self, coords) -> _DiagFactor:
        # lin^2/s can overflow at finite moments: A is then inf, stored without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            prec, lin = self.natural_to_quadratic(coords)
            if not np.all(prec > 0.0):
                raise DomainError("precision diagonal must be positive")
            # -2 q overflows to inf for q below about -9e307
            if not np.all(np.isfinite(prec)):
                raise DomainError(f"the precision of {self.name!r} overflows at these parameters")
            mean, var = lin / prec, 1.0 / prec
            if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(var))):
                raise DomainError(f"the moments of {self.name!r} overflow at these parameters")
            cumulant = float(np.sum(0.5 * lin ** 2 / prec - 0.5 * np.log(prec)
                                    + 0.5 * _LOG_2PI))
        for arr in (prec, mean, var):
            arr.setflags(write=False)
        return _DiagFactor(lin, prec, mean, var, cumulant)

    def _derive_expectation(self, coords) -> tuple[np.ndarray, np.ndarray]:
        """(mean, variance) of mu = coords, read-only."""
        p = self.theta_dim
        mean = coords[:p]
        var = coords[p:] - mean ** 2
        if not np.all(var > 0.0):
            raise DomainError(f"expectation parameters not realizable in {self.name!r}")
        var.setflags(write=False)
        return mean, var

    def split_natural(self, lam) -> tuple[np.ndarray, np.ndarray]:
        """(linear block, precision diagonal s)."""
        factor = self.natural(lam).derived
        return factor.lin, factor.prec

    def to_mean_var(self, lam) -> tuple[np.ndarray, np.ndarray]:
        factor = self.natural(lam).derived
        return factor.mean, factor.var

    def to_mean_cov(self, lam) -> tuple[np.ndarray, np.ndarray]:
        factor = self.natural(lam).derived
        return factor.mean, np.diag(factor.var)

    def from_moment(self, mean, precision) -> NaturalParams:
        """natural((s m, -s/2)) for mean m and precision diagonal s.

        Raises DomainError for the wrong shapes here, and, from natural(),
        for an s that is not positive or moments that are not finite.
        """
        mean = np.asarray(mean, dtype=float).reshape(-1)
        prec = np.asarray(precision, dtype=float).reshape(-1)
        if mean.size != self.theta_dim or prec.size != self.theta_dim:
            raise DomainError("moment parameters have the wrong shape")
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN, which natural() rejects
            coords = self.quadratic_to_natural(prec, prec * mean)
        return self.natural(coords)

    def natural_to_dual(self, lam) -> np.ndarray:
        mean, var = self.to_mean_var(lam)
        return np.concatenate([mean, var + mean ** 2])

    def dual_to_natural(self, mu) -> np.ndarray:
        mean, var = self.expectation(mu).derived
        prec = 1.0 / var
        return self.quadratic_to_natural(prec, prec * mean)

    def fisher_vp(self, lam, v) -> np.ndarray:
        factors, v, one = self._tangent_block(lam, v)
        mean, var = np.array([f.mean for f in factors]), np.array([f.var for f in factors])
        d_prec, d_lin = self.natural_to_quadratic(v)
        d_mean = var * (d_lin - d_prec * mean)
        out = np.concatenate([d_mean, -var ** 2 * d_prec + 2.0 * mean * d_mean], axis=1)
        return out[0] if one else out

    def fisher_solve(self, lam, w) -> np.ndarray:
        factors, w, one = self._tangent_block(lam, w)
        p = self.theta_dim
        prec, mean = np.array([f.prec for f in factors]), np.array([f.mean for f in factors])
        d_prec = -prec ** 2 * (w[:, p:] - 2.0 * mean * w[:, :p])
        out = self.quadratic_to_natural(d_prec, d_prec * mean + prec * w[:, :p])
        return out[0] if one else out

    def sufficient_stats(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.size != self.theta_dim:
            raise ValueError(f"theta must have length {self.theta_dim}")
        return np.concatenate([theta, theta ** 2])

    def sufficient_stats_batch(self, thetas) -> np.ndarray:
        thetas = self._theta_rows(thetas)
        return np.concatenate([thetas, thetas ** 2], axis=1)

    def transport(self, lam, z) -> np.ndarray:
        """Map standard-normal rows z, shape (n, P), to draws from q_lam."""
        return self._transport(self.natural(lam), _normal_rows(z, self.theta_dim))

    def _transport(self, lam, z: np.ndarray) -> np.ndarray:
        """transport's core, for z natvb drew: a finite (n >= 1, P) float array."""
        factor = self.natural(lam).derived
        return factor.mean + np.sqrt(factor.var) * z

    def sample(self, lam, size: int, rng: np.random.Generator) -> np.ndarray:
        _check_size(size)
        return self._transport(lam, rng.standard_normal((size, self.theta_dim)))

    def gaussian_identity(self, mean, grad, hess) -> np.ndarray:
        """tilde_lam = -(E[grad] - E[H] m ; E[H]/2) for the diagonal of E[H]."""
        hdiag = np.asarray(hess, dtype=float).reshape(-1)
        return self.quadratic_to_natural(hdiag, -grad + hdiag * mean)

