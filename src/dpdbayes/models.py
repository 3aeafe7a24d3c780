"""Model families for independent, non-identically-distributed fixed-design data.

The data model is a vector of independent responses x_1..x_n, one per row z_i
of a fixed design matrix, with per-index densities f_i that all share a single
parameter vector.  Three families are built in: normal linear regression with
known error scale, with unknown error scale (the scale is the last parameter
coordinate), and Bernoulli-logit regression.

The power-divergence machinery needs a few per-index quantities: log f_i,
the integral of f_i^{1+a}, the expectations of f_i^a and of log f_i under a
true distribution G_i (for population-level functionals and contamination
analysis), the first and second parameter derivatives of the divergence loss

    V_i(x, theta) = integral f_i^{1+a} - (1 + 1/a) f_i^a(x),

and their in-model expectations (for asymptotic covariances).  A family
writes each quantity once, as a kernel batched over rows of parameters and
over a block of observation indices ``rows`` (a slice or an index array);
the derivative kernels take one parameter point and sum over the block.
The full-data single-parameter methods (``*_terms``, ``summed_q_value``) and
the per-index ones (``log_density``, ``density_power``, ``integral_power``,
``dpd_loss*``) are slices of those kernels, defined once on ``ModelFamily``.
A family may override ``summed_q_value_batch``, the samplers' hot path,
with an in-place kernel.  What the other layers need to know about a family
is stated by five hooks rather than by type checks: ``scale_index``,
``in_support``, ``default_init``, ``scale`` and ``curvature_unit``.

The two Gaussian families share one kernel set: ``LinearKnownSigma`` pins
the scale to its ``sigma`` and ``LinearUnknownSigma`` reads it from the last
parameter coordinate.  User-defined families can be added through
``QuadratureFamily``, which falls back to adaptive quadrature over a declared
support and finite-difference derivatives.

All operations are pure; family objects are immutable after construction and
safe to share across workers.
"""

from __future__ import annotations

import csv
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy import integrate

__all__ = [
    "Dataset",
    "DataFormatError",
    "DesignConditionReport",
    "ModelFamily",
    "LinearKnownSigma",
    "LinearUnknownSigma",
    "Logistic",
    "QuadratureFamily",
    "check_design_conditions",
    "dpd_loss",
    "dpd_loss_grad",
    "dpd_loss_hess",
]

# Relative eigenvalue threshold below which a design is declared rank deficient.
RANK_TOLERANCE = 1e-12

_LOG_2PI = math.log(2.0 * math.pi)


class DataFormatError(ValueError):
    """Raised when a data file cannot be parsed into a numeric dataset."""


@dataclass(frozen=True)
class Dataset:
    """Responses paired with the fixed design rows they were observed under.

    Attributes:
        responses: Length-n vector of observations (binary-coded {0,1} for
            logistic families).
        design: n-by-p matrix of fixed covariate rows.
    """

    responses: np.ndarray
    design: np.ndarray

    def __post_init__(self) -> None:
        x = np.atleast_1d(np.asarray(self.responses, dtype=float))
        z = np.asarray(self.design, dtype=float)
        if z.ndim == 1:
            z = z[:, None]
        if x.ndim != 1 or z.ndim != 2:
            raise ValueError("responses must be a vector and design a matrix")
        if x.shape[0] != z.shape[0]:
            raise ValueError(
                f"{x.shape[0]} responses but {z.shape[0]} design rows"
            )
        n, p = z.shape
        if n < 1 or p < 1:
            raise ValueError("dataset must have at least one row and one column")
        if n < p:
            raise ValueError(f"need n >= p, got n={n}, p={p}")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(z)):
            raise ValueError("responses and design entries must be finite")
        x.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "responses", x)
        object.__setattr__(self, "design", z)

    @property
    def n(self) -> int:
        return self.responses.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.design.shape[1]

    @classmethod
    def from_csv(cls, path, header: bool = False) -> "Dataset":
        """Load a dataset from CSV: first column response, rest covariates.

        Args:
            path: File path.
            header: Skip the first row when True.

        Raises:
            DataFormatError: On an empty file, ragged rows, or a non-numeric
                cell (the message carries the line and column).
        """
        rows: list[list[float]] = []
        with open(path, newline="") as fh:
            for line_no, row in enumerate(csv.reader(fh), start=1):
                if header and line_no == 1:
                    continue
                if not row or all(not cell.strip() for cell in row):
                    continue
                values = []
                for col_no, cell in enumerate(row, start=1):
                    try:
                        values.append(float(cell))
                    except ValueError:
                        raise DataFormatError(
                            f"non-numeric value {cell.strip()!r} at "
                            f"line {line_no}, column {col_no}"
                        ) from None
                if rows and len(values) != len(rows[0]):
                    raise DataFormatError(
                        f"row at line {line_no} has {len(values)} fields, "
                        f"expected {len(rows[0])}"
                    )
                rows.append(values)
        if not rows:
            raise DataFormatError("no data rows found")
        if len(rows[0]) < 2:
            raise DataFormatError("need at least one covariate column")
        arr = np.asarray(rows, dtype=float)
        return cls(responses=arr[:, 0], design=arr[:, 1:])


@dataclass(frozen=True)
class DesignConditionReport:
    """Numerical summary of the fixed-design regularity conditions."""

    max_abs_entry: float
    min_eigenvalue_scaled: float
    max_leverage: float
    full_column_rank: bool


def check_design_conditions(design: np.ndarray) -> DesignConditionReport:
    """Check boundedness, eigenvalue, and leverage conditions of a design.

    Reports the largest absolute entry, the smallest eigenvalue of the scaled
    Gram matrix Z'Z/n, the maximum leverage max_i z_i'(Z'Z)^{-1}z_i, and
    whether Z has full column rank (up to ``RANK_TOLERANCE`` relative to the
    largest eigenvalue).  Degenerate designs are reported, never rejected;
    acceptability is the caller's decision.
    """
    z = np.asarray(design, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    if z.size == 0:
        raise ValueError("design must be non-empty")
    n = z.shape[0]
    gram = z.T @ z
    eigvals = np.linalg.eigvalsh(gram / n)
    min_eig = float(eigvals[0])
    max_eig = float(eigvals[-1])
    full_rank = min_eig > RANK_TOLERANCE * max(max_eig, 1e-300)
    # Leverage via pseudo-inverse so rank-deficient designs still report.
    hat = z @ np.linalg.pinv(gram) @ z.T
    return DesignConditionReport(
        max_abs_entry=float(np.max(np.abs(z))),
        min_eigenvalue_scaled=min_eig if full_rank else 0.0,
        max_leverage=float(np.max(np.diag(hat))),
        full_column_rank=bool(full_rank),
    )


class ModelFamily(ABC):
    """A family of per-index densities sharing one parameter vector.

    Concrete families hold the fixed design and implement the batched
    kernels; everything the estimation, posterior, and robustness layers
    consume is derived from these.  A kernel's ``rows`` argument selects a
    block of k observation indices (a slice or an integer index array), and
    its observation argument (``x`` or ``points``) holds one value per index
    of the block or a scalar shared by all.
    """

    #: Position of the strictly positive scale coordinate in the parameter
    #: vector, or None for a family without one.
    scale_index: int | None = None

    def __init__(self, design: np.ndarray):
        z = np.asarray(design, dtype=float)
        if z.ndim == 1:
            z = z[:, None]
        if z.ndim != 2 or z.size == 0:
            raise ValueError("design must be a non-empty matrix")
        if not np.all(np.isfinite(z)):
            raise ValueError("design entries must be finite")
        z.setflags(write=False)
        self.design = z

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.design.shape[1]

    @property
    @abstractmethod
    def dim(self) -> int:
        """Length of the parameter vector."""

    def validate_theta(self, theta) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != (self.dim,):
            raise ValueError(f"parameter must have length {self.dim}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("parameter coordinates must be finite")
        if self.scale_index is not None and theta[self.scale_index] <= 0.0:
            raise ValueError("scale coordinate must be strictly positive")
        return theta

    def validate_data(self, data: Dataset) -> None:
        if data.n != self.n or data.n_covariates != self.n_covariates:
            raise ValueError("dataset shape does not match the model design")
        if not np.array_equal(data.design, self.design):
            raise ValueError("dataset design differs from the model design")

    def _check_index(self, i) -> np.ndarray:
        idx = np.atleast_1d(np.asarray(i, dtype=int))
        if np.any(idx < 0) or np.any(idx >= self.n):
            raise IndexError(f"observation index out of range [0, {self.n})")
        return idx

    # ---- facts other layers need about the family ------------------------

    def in_support(self, thetas) -> np.ndarray:
        """(m,) mask of the parameter rows that lie in the parameter space."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if self.scale_index is None:
            return np.ones(thetas.shape[0], dtype=bool)
        return thetas[:, self.scale_index] > 0.0

    def default_init(self, data: Dataset) -> np.ndarray:
        """Starting point of the a = 0 stage of the default fitting path."""
        return np.zeros(self.dim)

    def scale(self, theta) -> float:
        """Error scale at ``theta`` (1 if the family has none): the unit of
        one-dimensional grid sweeps and the sigma of efficiency targets."""
        return 1.0

    def curvature_unit(self, theta, alpha: float) -> np.ndarray | None:
        """(dim, dim) positive-semidefinite matrix in the units of the
        per-observation objective curvature at ``theta`` (singular only for
        a rank-deficient design), or None (the default) when the family
        cannot state one.

        A regular optimum has a curvature of order one in this unit whatever
        the units of the responses and of the design columns and however
        collinear the columns are; ``mdpde.fit`` declares an optimum flat
        when a generalized eigenvalue against it vanishes.  A family without
        one gets no flat-optimum test.
        """
        return None

    # ---- per-family kernels ----------------------------------------------

    @abstractmethod
    def log_density_batch(self, points, thetas, rows=slice(None)) -> np.ndarray:
        """(m, k) array of log f_{i,theta}(t_i) for parameter rows; a new
        array that the caller may overwrite."""

    @abstractmethod
    def log_power_integral_batch(self, thetas, alpha: float, rows=slice(None)) -> np.ndarray:
        """(m, k) array of log integral f_i^{1+alpha} for parameter rows."""

    @abstractmethod
    def log_power_expectation_batch(
        self, thetas, alpha: float, theta_true, rows=slice(None)
    ) -> np.ndarray:
        """(m, k) array of log integral f_{i,theta}^alpha dG_i for parameter
        rows, with G_i in-model at theta_true."""

    @abstractmethod
    def log_density_expectation_batch(self, thetas, theta_true, rows=slice(None)) -> np.ndarray:
        """(m, k) array of integral log f_{i,theta} dG_i for parameter rows,
        with G_i in-model at theta_true."""

    @abstractmethod
    def loss_grad_sum(self, x, theta: np.ndarray, alpha: float, rows=slice(None)) -> np.ndarray:
        """Sum over the block of the parameter gradient of V_i(x_i, theta)."""

    @abstractmethod
    def loss_hess_sum(self, x, theta: np.ndarray, alpha: float, rows=slice(None)) -> np.ndarray:
        """Sum over the block of the parameter Hessian of V_i(x_i, theta)."""

    @abstractmethod
    def in_model_psi_omega(
        self, theta: np.ndarray, alpha: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form expected-curvature and score-variance matrices.

        Both are averages over i under the model at ``theta`` itself: psi is
        the expected negative Hessian of the per-observation objective and
        omega the variance of its gradient (each scaled by 1/n).
        """

    @abstractmethod
    def sample_responses(self, theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw one response vector from the family at ``theta``."""

    def summed_q_value_batch(
        self, x: np.ndarray, thetas: np.ndarray, alpha: float
    ) -> np.ndarray:
        """Sum over i of the per-observation divergence objective, per row.

        For alpha > 0 each term is f_i^a(x_i)/a - I_i/(1+a) - 1/a with
        I_i = integral f_i^{1+a}; the alpha = 0 branch is the exact
        log-likelihood minus n (never a small-alpha evaluation).  The
        1/a pieces are combined through expm1 so values stay accurate
        down to alpha ~ 1e-12.  A family may override this with an in-place
        kernel giving the same values.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        ll = self.log_density_batch(x, thetas)
        if alpha == 0.0:
            return np.sum(ll, axis=1) - self.n
        ints = np.exp(self.log_power_integral_batch(thetas, alpha))
        return np.sum(np.expm1(alpha * ll) / alpha - ints / (1.0 + alpha), axis=1)

    # ---- slices of the kernels -------------------------------------------

    def summed_q_value(self, x: np.ndarray, theta: np.ndarray, alpha: float) -> float:
        """``summed_q_value_batch`` at a single parameter point."""
        return float(self.summed_q_value_batch(x, theta, alpha)[0])

    def log_density_terms(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """log f_i(x_i) for every index, as an (n,) array."""
        return self.log_density_batch(x, theta)[0]

    def log_power_integral_terms(self, theta: np.ndarray, alpha: float) -> np.ndarray:
        """log of integral f_i^{1+alpha} for every index, as an (n,) array."""
        return self.log_power_integral_batch(theta, alpha)[0]

    def log_power_expectation_terms(
        self, theta: np.ndarray, alpha: float, theta_true: np.ndarray
    ) -> np.ndarray:
        """log of integral f_{i,theta}^alpha dG_i with G_i in-model at theta_true."""
        return self.log_power_expectation_batch(theta, alpha, theta_true)[0]

    def log_density_expectation_terms(
        self, theta: np.ndarray, theta_true: np.ndarray
    ) -> np.ndarray:
        """integral of log f_{i,theta} dG_i with G_i in-model at theta_true."""
        return self.log_density_expectation_batch(theta, theta_true)[0]

    def log_density(self, i, x, theta):
        """log f_i(x) at an index or an index array."""
        out = self.log_density_batch(x, self.validate_theta(theta), self._check_index(i))[0]
        return float(out[0]) if out.size == 1 and np.isscalar(i) else out

    def density_power(self, i, x, theta, alpha: float):
        """f_i^alpha(x); equals 1 identically at alpha = 0."""
        if alpha != 0.0:
            return np.exp(alpha * self.log_density(i, x, theta))
        self.validate_theta(theta)
        out = np.ones(np.broadcast(self._check_index(i), np.asarray(x, dtype=float)).shape)
        return float(out[0]) if np.isscalar(i) and np.isscalar(x) else out

    def integral_power(self, i, theta, alpha: float):
        """integral of f_i^{1+alpha}; equals 1 at alpha = 0 (normalization)."""
        theta = self.validate_theta(theta)
        vals = np.exp(self.log_power_integral_batch(theta, alpha, self._check_index(i))[0])
        return float(vals[0]) if np.isscalar(i) else vals


def dpd_loss(model: ModelFamily, i: int, x: float, theta, alpha: float) -> float:
    """Per-observation divergence loss V_i(x, theta) for alpha > 0."""
    if alpha <= 0.0:
        raise ValueError("dpd_loss requires alpha > 0")
    power = model.density_power(i, x, theta, alpha)
    return float(model.integral_power(i, theta, alpha) - (1.0 + 1.0 / alpha) * power)


def dpd_loss_grad(model: ModelFamily, i: int, x: float, theta, alpha: float) -> np.ndarray:
    """Analytic parameter gradient of V_i(x, theta); valid for alpha >= 0."""
    theta = model.validate_theta(theta)
    return model.loss_grad_sum([float(x)], theta, alpha, model._check_index(int(i)))


def dpd_loss_hess(model: ModelFamily, i: int, x: float, theta, alpha: float) -> np.ndarray:
    """Analytic parameter Hessian of V_i(x, theta); valid for alpha >= 0."""
    theta = model.validate_theta(theta)
    return model.loss_hess_sum([float(x)], theta, alpha, model._check_index(int(i)))


# ---------------------------------------------------------------------------
# Normal linear regression, known and unknown error scale.
# ---------------------------------------------------------------------------


def _log_norm(sigma):
    """log of the normal density's constant, -log(sqrt(2 pi) sigma).

    alpha times it is the log of the prefactor (2 pi)^{-a/2} sigma^{-a} of
    every powered-density formula.
    """
    return -0.5 * _LOG_2PI - np.log(sigma)


def _log_power_integral(alpha: float, log_norm):
    """log integral f^{1+a} = a log((2 pi)^{-1/2} sigma^{-1}) - log(1+a)/2,
    from ``log_norm`` = ``_log_norm(sigma)``."""
    return alpha * log_norm - 0.5 * math.log1p(alpha)


def _zeta(alpha: float, sigma: float) -> float:
    """Curvature constant (2 pi)^{-a/2} sigma^{-(a+2)} (1+a)^{-3/2}."""
    return math.exp(alpha * _log_norm(sigma)) / sigma**2 * (1.0 + alpha) ** -1.5


class LinearKnownSigma(ModelFamily):
    """Normal linear regression x_i ~ N(z_i'beta, sigma^2) with sigma known.

    The parameter is the coefficient vector beta.  All power integrals and
    expectations are closed-form Gaussian algebra:

        integral f^{1+a} = (2 pi)^{-a/2} sigma^{-a} (1+a)^{-1/2}

    independent of the index and of beta.  The kernels are written for a
    free scale, which ``_split`` pins to ``sigma`` here; ``LinearUnknownSigma``
    reads it from the parameter instead, so each Gaussian formula exists
    once.  The derivative kernels add the scale entries only when the scale
    is free, and psi/omega return the leading ``dim`` block.
    """

    def __init__(self, design: np.ndarray, sigma: float):
        super().__init__(design)
        if not (sigma > 0 and np.isfinite(sigma)):
            raise ValueError("sigma must be a positive finite number")
        self.sigma = float(sigma)

    @property
    def dim(self) -> int:
        return self.n_covariates

    def _split(self, theta: np.ndarray):
        """(coefficients, scale) of a parameter vector or of parameter rows.

        The scale of a single vector is a float; a scale that varies by row
        comes as an (m, 1) column that broadcasts against (m, k) blocks.
        """
        return theta, self.sigma

    def scale(self, theta) -> float:
        return self._split(np.asarray(theta, dtype=float))[1]

    def curvature_unit(self, theta, alpha):
        # Each derivative in a coefficient brings a covariate over the scale,
        # one in the scale a 1/scale, and f^a itself carries scale^-a.
        _, sigma = self._split(np.asarray(theta, dtype=float))
        p = self.n_covariates
        unit = np.eye(self.dim)
        unit[:p, :p] = self.design.T @ self.design / self.n
        return unit * sigma ** -(2.0 + alpha)

    def default_init(self, data: Dataset) -> np.ndarray:
        beta, *_ = np.linalg.lstsq(self.design, data.responses, rcond=None)
        if self.scale_index is None:
            return beta
        resid = data.responses - self.design @ beta
        return np.append(beta, max(float(np.sqrt(np.mean(resid**2))), 1e-3))

    def log_density_batch(self, points, thetas, rows=slice(None)):
        # One (m, k) scratch array, updated in place: log_norm - r*r/(2 sigma^2)
        # with r = points - z'beta, in that operation order.
        betas, sigma = self._split(np.atleast_2d(np.asarray(thetas, dtype=float)))
        work = betas @ self.design[rows].T
        np.subtract(np.asarray(points, dtype=float), work, out=work)
        np.multiply(work, work, out=work)
        work /= 2.0 * sigma**2
        np.subtract(_log_norm(sigma), work, out=work)
        return work

    def log_power_integral_batch(self, thetas, alpha, rows=slice(None)):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        shape = (thetas.shape[0], self.design[rows].shape[0])
        return np.full(shape, _log_power_integral(alpha, _log_norm(self._split(thetas)[1])))

    def _shift(self, thetas, theta_true, rows):
        """Mean shifts z_i'(beta - beta_g) of parameter rows, and both scales."""
        betas, sigma = self._split(np.atleast_2d(np.asarray(thetas, dtype=float)))
        beta_g, sigma_g = self._split(np.asarray(theta_true, dtype=float))
        z = self.design[rows]
        return betas @ z.T - z @ beta_g, sigma, sigma_g

    def log_power_expectation_batch(self, thetas, alpha, theta_true, rows=slice(None)):
        delta, sigma, sigma_g = self._shift(thetas, theta_true, rows)
        excess = alpha * (sigma_g / sigma) ** 2
        return (alpha * _log_norm(sigma) - 0.5 * np.log1p(excess)) - alpha * delta * delta / (
            2.0 * sigma**2 * (1.0 + excess)
        )

    def log_density_expectation_batch(self, thetas, theta_true, rows=slice(None)):
        delta, sigma, sigma_g = self._shift(thetas, theta_true, rows)
        return _log_norm(sigma) - (sigma_g**2 + delta * delta) / (2.0 * sigma**2)

    def _pieces(self, x, theta, alpha, rows):
        beta, sigma = self._split(theta)
        z = self.design[rows]
        w = (np.asarray(x, dtype=float) - z @ beta) / sigma
        u = np.exp(-0.5 * alpha * w * w)
        return z, sigma, w, u, math.exp(alpha * _log_norm(sigma))

    def loss_grad_sum(self, x, theta, alpha, rows=slice(None)):
        z, sigma, w, u, c = self._pieces(x, theta, alpha, rows)
        g_beta = -(1.0 + alpha) * (c / sigma) * (z.T @ (w * u))
        if self.scale_index is None:
            return g_beta
        g_sigma = -w.size * alpha * c * (1.0 + alpha) ** -0.5 / sigma - (1.0 + alpha) * (
            c / sigma
        ) * np.sum(u * (w * w - 1.0))
        return np.append(g_beta, g_sigma)

    def loss_hess_sum(self, x, theta, alpha, rows=slice(None)):
        z, sigma, w, u, c = self._pieces(x, theta, alpha, rows)
        s2 = sigma**2
        h_bb = (1.0 + alpha) * (c / s2) * (z.T @ ((u * (1.0 - alpha * w * w))[:, None] * z))
        if self.scale_index is None:
            return h_bb
        p = z.shape[1]
        out = np.empty((p + 1, p + 1))
        out[:p, :p] = h_bb
        h_bs_w = (1.0 + alpha) * (c / s2) * w * u * ((alpha + 2.0) - alpha * w * w)
        out[:p, p] = out[p, :p] = z.T @ h_bs_w
        out[p, p] = w.size * alpha * math.sqrt(1.0 + alpha) * c / s2 - (1.0 + alpha) * (
            c / s2
        ) * np.sum(u * (alpha * w**4 - (2.0 * alpha + 3.0) * w * w + (alpha + 1.0)))
        return out

    def summed_q_value_batch(self, x, thetas, alpha):
        # Hot path for samplers; one large scratch array, updated in place.
        # Row sums stay an (m, 1) column, so a per-row scale broadcasts on them.
        betas, sigma = self._split(np.atleast_2d(np.asarray(thetas, dtype=float)))
        if self.scale_index is not None and sigma.min() <= 0.0:
            raise ValueError("scale coordinate must be strictly positive")
        x = np.asarray(x, dtype=float)
        log_norm = _log_norm(sigma)
        work = betas @ self.design.T  # (m, n)
        np.subtract(x[None, :], work, out=work)
        np.multiply(work, work, out=work)
        if alpha == 0.0:
            total = work.sum(axis=1, keepdims=True)
            total *= -0.5 / sigma**2
            total += self.n * (log_norm - 1.0)
            return total[:, 0]
        work *= -0.5 * alpha / sigma**2
        work += alpha * log_norm
        np.expm1(work, out=work)
        total = work.sum(axis=1, keepdims=True)
        total /= alpha
        total -= self.n / (1.0 + alpha) * np.exp(_log_power_integral(alpha, log_norm))
        return total[:, 0]

    def zeta(self, alpha: float) -> float:
        """Curvature constant (2 pi)^{-a/2} sigma^{-(a+2)} (1+a)^{-3/2} of the
        known scale: psi = zeta(a) Z'Z/n and omega = zeta(2a) Z'Z/n."""
        if self.scale_index is not None:
            raise TypeError("closed form available for the known-scale linear model only")
        return _zeta(alpha, self.sigma)

    def in_model_psi_omega(self, theta, alpha):
        _, sigma = self._split(np.asarray(theta, dtype=float))
        c = math.exp(alpha * _log_norm(sigma))
        c2 = math.exp(2.0 * alpha * _log_norm(sigma))
        gram = self.design.T @ self.design / self.n
        s = 1.0 + 2.0 * alpha
        p = self.n_covariates
        psi = np.zeros((p + 1, p + 1))
        omega = np.zeros((p + 1, p + 1))
        psi[:p, :p] = _zeta(alpha, sigma) * gram
        omega[:p, :p] = _zeta(2.0 * alpha, sigma) * gram
        psi[p, p] = c / sigma**2 * (1.0 + alpha) ** -2.5 * (2.0 + alpha**2)
        omega[p, p] = c2 / sigma**2 * (
            3.0 * s**-2.5 - 2.0 * s**-1.5 + s**-0.5 - alpha**2 * (1.0 + alpha) ** -3.0
        )
        return psi[: self.dim, : self.dim], omega[: self.dim, : self.dim]

    def sample_responses(self, theta, rng):
        beta, sigma = self._split(self.validate_theta(theta))
        return self.design @ beta + sigma * rng.standard_normal(self.n)


class LinearUnknownSigma(LinearKnownSigma):
    """Normal linear regression with the error scale as a free parameter.

    The parameter vector is (beta_1..beta_p, sigma) with sigma > 0 enforced as
    a domain constraint; optimizers keep iterates feasible by backtracking.
    Every formula is the known-scale one with the scale read from the last
    coordinate.
    """

    scale_index = -1

    def __init__(self, design: np.ndarray):
        ModelFamily.__init__(self, design)

    @property
    def dim(self) -> int:
        return self.n_covariates + 1

    def _split(self, theta):
        if theta.ndim == 1:
            return theta[:-1], float(theta[-1])
        return theta[:, :-1], theta[:, -1:]


# ---------------------------------------------------------------------------
# Bernoulli-logit regression.
# ---------------------------------------------------------------------------


class Logistic(ModelFamily):
    """Fixed-design logistic regression: x_i ~ Bernoulli(expit(z_i'beta)).

    Powered-density integrals are exact two-term sums over the support {0,1};
    all computations run in log space so extreme linear predictors stay
    finite.
    """

    @property
    def dim(self) -> int:
        return self.n_covariates

    def validate_data(self, data: Dataset) -> None:
        super().validate_data(data)
        x = data.responses
        if not np.all((x == 0.0) | (x == 1.0)):
            raise ValueError("logistic responses must be coded 0/1")

    @staticmethod
    def _log_p(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # log P(X=1), log P(X=0) given linear predictor t
        log_p1 = -np.logaddexp(0.0, -t)
        log_p0 = -np.logaddexp(0.0, t)
        return log_p1, log_p0

    def _log_p_rows(self, thetas, rows):
        """``_log_p`` of the linear predictors of parameter rows, (m, k) each."""
        return self._log_p(np.atleast_2d(np.asarray(thetas, dtype=float)) @ self.design[rows].T)

    def success_probabilities(self, theta) -> np.ndarray:
        theta = self.validate_theta(theta)
        log_p1, _ = self._log_p(self.design @ theta)
        return np.exp(log_p1)

    def log_density_batch(self, points, thetas, rows=slice(None)):
        pts = np.asarray(points, dtype=float)
        if not np.all((pts == 0.0) | (pts == 1.0)):
            raise ValueError("logistic observations must be 0 or 1")
        t = np.atleast_2d(np.asarray(thetas, dtype=float)) @ self.design[rows].T
        return pts * t - np.logaddexp(0.0, t)

    def log_power_integral_batch(self, thetas, alpha, rows=slice(None)):
        log_p1, log_p0 = self._log_p_rows(thetas, rows)
        return np.logaddexp((1.0 + alpha) * log_p1, (1.0 + alpha) * log_p0)

    def log_power_expectation_batch(self, thetas, alpha, theta_true, rows=slice(None)):
        log_p1, log_p0 = self._log_p_rows(thetas, rows)
        log_g1, log_g0 = self._log_p_rows(theta_true, rows)
        return np.logaddexp(alpha * log_p1 + log_g1, alpha * log_p0 + log_g0)

    def log_density_expectation_batch(self, thetas, theta_true, rows=slice(None)):
        log_p1, log_p0 = self._log_p_rows(thetas, rows)
        log_g1, log_g0 = self._log_p_rows(theta_true, rows)
        return np.exp(log_g1) * log_p1 + np.exp(log_g0) * log_p0

    def _loss_derivatives(self, x, theta, alpha, rows):
        t = self.design[rows] @ theta
        x = np.asarray(x, dtype=float)
        log_p1, log_p0 = self._log_p(t)
        pi = np.exp(log_p1)
        q1 = np.exp((1.0 + alpha) * log_p1)
        q0 = np.exp((1.0 + alpha) * log_p0)
        px_a = np.exp(alpha * (x * t - np.logaddexp(0.0, t)))
        # first and second derivatives of V_i in the linear predictor
        dv = (1.0 + alpha) * (
            q1 * (1.0 - pi) + q0 * (0.0 - pi) - px_a * (x - pi)
        )
        var_term = pi * (1.0 - pi)
        d2v = (1.0 + alpha) * (
            q1 * ((1.0 + alpha) * (1.0 - pi) ** 2 - var_term)
            + q0 * ((1.0 + alpha) * pi**2 - var_term)
            - px_a * (alpha * (x - pi) ** 2 - var_term)
        )
        return dv, d2v

    def loss_grad_sum(self, x, theta, alpha, rows=slice(None)):
        dv, _ = self._loss_derivatives(x, theta, alpha, rows)
        return self.design[rows].T @ dv

    def loss_hess_sum(self, x, theta, alpha, rows=slice(None)):
        _, d2v = self._loss_derivatives(x, theta, alpha, rows)
        z = self.design[rows]
        return z.T @ (d2v[:, None] * z)

    def summed_q_value_batch(self, x, thetas, alpha):
        # Hot path for samplers; three large scratch arrays, updated in place.
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        x = np.asarray(x, dtype=float)
        t = thetas @ self.design.T  # (m, n)
        lae = np.logaddexp(0.0, t)
        if alpha == 0.0:
            total = t @ x  # sum_i x_i t_i per row
            total -= lae.sum(axis=1)
            return total - self.n
        ll = np.multiply(t, x[None, :])
        ll -= lae
        ll *= alpha
        np.expm1(ll, out=ll)
        total = ll.sum(axis=1)
        total /= alpha
        # integral term: exp((1+a)(t - lae)) + exp(-(1+a) lae), reusing t, lae
        t -= lae
        t *= 1.0 + alpha
        np.exp(t, out=t)
        lae *= -(1.0 + alpha)
        np.exp(lae, out=lae)
        t += lae
        total -= t.sum(axis=1) / (1.0 + alpha)
        return total

    def curvature_unit(self, theta, alpha):
        # Bernoulli weights are at most 1/4; they vanish only where every
        # fitted probability is 0 or 1 (separated data).
        return self.design.T @ self.design / self.n

    def in_model_psi_omega(self, theta, alpha):
        t = self.design @ theta
        # psi weight: e^t (e^{at} + e^t) / (1+e^t)^{3+a}, in log space
        log_base = np.logaddexp(0.0, t)
        log_w_psi = t + np.logaddexp(alpha * t, t) - (3.0 + alpha) * log_base
        log_w_omega = t + 2.0 * np.logaddexp(alpha * t, t) - (4.0 + 2.0 * alpha) * log_base
        w_psi = np.exp(log_w_psi)
        w_omega = np.exp(log_w_omega)
        psi = self.design.T @ (w_psi[:, None] * self.design) / self.n
        omega = self.design.T @ (w_omega[:, None] * self.design) / self.n
        return psi, omega

    def sample_responses(self, theta, rng):
        return (rng.random(self.n) < self.success_probabilities(theta)).astype(float)


# ---------------------------------------------------------------------------
# Generic user-supplied families via quadrature.
# ---------------------------------------------------------------------------


class QuadratureFamily(ModelFamily):
    """Base class for user-defined continuous families without closed forms.

    Subclasses implement ``dim``, ``support`` (integration limits, may be
    infinite), and scalar ``log_density_scalar(i, x, theta)``.  Power
    integrals and expectations are computed index by index with adaptive
    quadrature (absolute tolerance 1e-10, relative 1e-8), and loss
    derivatives by central finite differences of the per-index objective
    term, which integrates that index only.  This path is an order of
    magnitude slower than the built-ins; it exists for correctness, not
    speed.
    """

    _FD_STEP = 1e-6
    _QUAD_OPTS = {"epsabs": 1e-10, "epsrel": 1e-8, "limit": 200}

    @abstractmethod
    def log_density_scalar(self, i: int, x: float, theta: np.ndarray) -> float: ...

    @abstractmethod
    def support(self) -> tuple[float, float]: ...

    def _tabulate(self, thetas, rows, term, points=0.0) -> np.ndarray:
        """term(i, t_i, theta) over parameter rows (first axis) and the block."""
        idx = np.arange(self.n)[rows]
        pts = np.broadcast_to(np.asarray(points, dtype=float), idx.shape)
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        return np.array([[term(int(i), float(t), th) for i, t in zip(idx, pts)] for th in thetas])

    def _quad(self, integrand) -> float:
        lo, hi = self.support()
        return integrate.quad(integrand, lo, hi, **self._QUAD_OPTS)[0]

    def _log_quad(self, i: int, integrand) -> float:
        val = self._quad(integrand)
        if not val > 0.0:
            raise ValueError(f"quadrature for index {i} returned {val!r}, not a positive integral")
        return math.log(val)

    def _log_power_integral(self, i, theta, alpha) -> float:
        density = self.log_density_scalar
        return self._log_quad(i, lambda t: math.exp((1.0 + alpha) * density(i, t, theta)))

    def log_density_batch(self, points, thetas, rows=slice(None)):
        return self._tabulate(thetas, rows, self.log_density_scalar, points)

    def log_power_integral_batch(self, thetas, alpha, rows=slice(None)):
        return self._tabulate(thetas, rows, lambda i, _, th: self._log_power_integral(i, th, alpha))

    def log_power_expectation_batch(self, thetas, alpha, theta_true, rows=slice(None)):
        g, density = np.asarray(theta_true, dtype=float), self.log_density_scalar
        return self._tabulate(thetas, rows, lambda i, _, th: self._log_quad(
            i, lambda t: math.exp(alpha * density(i, t, th) + density(i, t, g))
        ))

    def log_density_expectation_batch(self, thetas, theta_true, rows=slice(None)):
        g, density = np.asarray(theta_true, dtype=float), self.log_density_scalar
        return self._tabulate(thetas, rows, lambda i, _, th: self._quad(
            lambda t: density(i, t, th) * math.exp(density(i, t, g))
        ))

    def _q_term(self, i, x, theta, alpha) -> float:
        """Objective term q_i = expm1(a ll_i)/a - I_i/(1+a), exactly ll_i at a = 0.

        V_i = -(1+a) q_i - (1+a)/a, so differences of q_i give the loss
        derivatives at every a >= 0 without the 1/a cancellation in V_i.
        """
        ll = self.log_density_scalar(i, x, theta)
        if alpha == 0.0:
            return ll
        log_int = self._log_power_integral(i, theta, alpha)
        return math.expm1(alpha * ll) / alpha - math.exp(log_int) / (1.0 + alpha)

    @staticmethod
    def _central_difference(fn, theta, h) -> np.ndarray:
        """Rows (fn(theta + e_j) - fn(theta - e_j)) / (2 e_j), e_j = h max(1, |theta_j|)."""
        steps = np.diag(h * np.maximum(1.0, np.abs(theta)))
        return np.array(
            [(fn(theta + e) - fn(theta - e)) / (2.0 * e[j]) for j, e in enumerate(steps)]
        )

    def _q_grad(self, i, x, theta, alpha) -> np.ndarray:
        q = self._q_term
        return self._central_difference(lambda th: q(i, x, th, alpha), theta, self._FD_STEP)

    def loss_grad_sum(self, x, theta, alpha, rows=slice(None)):
        grads = self._tabulate(theta, rows, lambda i, v, th: self._q_grad(i, v, th, alpha), x)
        return -(1.0 + alpha) * grads[0].sum(axis=0)

    def loss_hess_sum(self, x, theta, alpha, rows=slice(None)):
        def hess(i, v, th):
            h = self._central_difference(lambda t: self._q_grad(i, v, t, alpha), th, 1e-5)
            return 0.5 * (h + h.T)

        return -(1.0 + alpha) * self._tabulate(theta, rows, hess, x)[0].sum(axis=0)

    def in_model_psi_omega(self, theta, alpha):
        raise NotImplementedError(
            "closed-form asymptotic matrices are only available for built-in "
            "families; use the observed-curvature matrix instead"
        )

    def sample_responses(self, theta, rng):
        raise NotImplementedError("quadrature families do not define a sampler")
