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

and their in-model expectations (for asymptotic covariances).  A family is
its kernels: each quantity is written once, batched over rows of parameters
and over a block of observation indices ``rows`` (a slice or an index
array), and the other layers call the kernels directly; the derivative
kernel ``loss_derivative_sums`` sums the gradient and the Hessian at one
parameter point.  The per-index API, ``dpd_loss``, ``dpd_loss_grad`` and
``dpd_loss_hess``, reads V_i and its derivatives from them at one index.
A family may override the hot paths with in-place kernels:
``summed_q_value_batch`` for the samplers, and ``contamination_terms``, the
t-free parts of the one score reduction ``summed_contamination_scores``,
for the robustness grids.  What the other
layers need to know about a family is stated by five hooks rather than by
type checks: ``scale_index``, ``in_support``, ``default_init``, ``scale``
and ``curvature_unit``.

An index enters a population-level sum, the population objective or the
contamination scores of every index, only through its design row, so those
sums run once per distinct design row, weighted by the row's count
(``ModelFamily._row_groups``).  A design whose rows are all distinct takes
the per-index route unchanged.

The two Gaussian families share one kernel set: ``LinearKnownSigma`` pins
the scale to its ``sigma`` and ``LinearUnknownSigma`` reads it from the last
parameter coordinate.  User-defined families can be added through
``QuadratureFamily``, which falls back to adaptive quadrature over a declared
support and to derivatives from ``_fd_derivatives``, the one central-difference
stencil, which also gives the robustness layer its population curvatures.

All operations are pure; family objects are immutable after construction and
safe to share across workers.
"""

from __future__ import annotations

import csv
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

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

# numpy's expm1 returns exactly -1.0 at every argument <= -37.43 (measured
# down to -1e300; e^-37.43 is below half an ulp of 1), so a Gaussian score
# term whose exponent is <= _FAR_EXPONENT is exactly -weight.  The margin
# covers the exponent's rounding, a few ulps of its offset (``_cap_offsets``).
_FAR_EXPONENT = -40.0

# log(DBL_MAX): numpy's exp and expm1 overflow above it and nowhere below.
_LOG_MAX = float(np.log(np.finfo(float).max))


class DataFormatError(ValueError):
    """Raised when a data file cannot be parsed into a numeric dataset."""


def _check_alpha(alpha: float) -> None:
    """Refuse an alpha that is not a finite number >= 0, NaN included."""
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be a finite number >= 0, got {alpha}")


def _is_common_point(points, n: int) -> bool:
    """True for contamination points shared by all n indices (a scalar or
    a length-1 array), False for one point per index (a length-n vector);
    ``ValueError`` naming n for any other shape."""
    shape = np.shape(points)
    if np.size(points) == 1:
        return True
    if shape == (n,):
        return False
    raise ValueError(
        f"contamination points must be a scalar or one per index ({n} values), got shape {shape}"
    )


class _RowGroups(NamedTuple):
    """The distinct rows of a design: the index of each one's first
    occurrence, how many indices share it (as floats, for row sums), and
    each index's distinct row (the inverse map)."""

    first: np.ndarray
    counts: np.ndarray
    inverse: np.ndarray


class _FarScores(NamedTuple):
    """Common contamination points t < lo or t > hi put every Gaussian
    score term at exactly -weight, and ``scores`` are their row sums."""

    lo: float
    hi: float
    scores: np.ndarray


class _ScoreTerms(NamedTuple):
    """Prepared contamination scores (``ModelFamily.contamination_terms``):
    the t-free offset of the exponent point(points, inverse) + offset, the
    point term (a new array, over every index through ``inverse`` if given),
    the weights m/a (None at a = 0), the row groups, the far scores (None
    without a far hull) and the row shifts of ``_cap_offsets``."""

    offset: np.ndarray
    point: Callable[[object, np.ndarray | None], np.ndarray]
    weights: np.ndarray | None
    groups: _RowGroups | None
    far: _FarScores | None
    shift: tuple[np.ndarray, np.ndarray] | None

    def far_scores(self, points) -> np.ndarray | None:
        """The far scores (not a copy) if ``points`` is a common point
        outside the far hull, where the scores do not depend on it; else
        None, as for per-index points or terms without a hull."""
        if self.far is None or np.size(points) != 1:
            return None
        t = np.asarray(points, dtype=float).item()
        return self.far.scores if t < self.far.lo or t > self.far.hi else None


def _cap_offsets(offset, weights, alpha: float, bound, groups):
    """Cap the offsets c above ``_LOG_MAX`` in place, with their weights
    w = e^{bound - c}/a, and return the row shifts that keep the scores, as
    (rows, values), or None.  Such a w is subnormal or zero, and near a point
    term P = 0 expm1 overflows: inf * 0.  Yet expm1(P + c) w = expm1(P + c') w'
    + w' - w for any c', and c' = min(bound + 700, _LOG_MAX) keeps w' normal
    and, for P <= 0, expm1 finite; w' - w is summed per row (times counts)."""
    rows, cols = np.nonzero(offset > _LOG_MAX)
    if rows.size == 0:
        return None
    bound = np.broadcast_to(bound, offset.shape)[rows, cols]
    cap = np.minimum(bound + 700.0, _LOG_MAX)
    capped = np.exp(bound - cap) / alpha
    gaps = (capped - weights[rows, cols]) * (1.0 if groups is None else groups.counts[cols])
    offset[rows, cols], weights[rows, cols] = cap, capped
    shifted, where = np.unique(rows, return_inverse=True)
    return shifted, np.bincount(where, gaps)


@dataclass(frozen=True)
class Dataset:
    """Responses paired with the fixed design rows they were observed under.

    Attributes:
        responses: Length-n vector of observations (binary-coded {0,1} for
            logistic families).
        design: n-by-p matrix of fixed covariate rows.

    Both are read-only copies of the caller's arrays: the caller's stay
    writable, and no later edit of theirs reaches the dataset.
    """

    responses: np.ndarray
    design: np.ndarray

    def __post_init__(self) -> None:
        x = np.array(np.atleast_1d(self.responses), dtype=float)
        z = np.array(self.design, dtype=float)
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
        """Load a dataset from CSV: first column response, rest covariates,
        each a compact copy, as the columns of any ``Dataset`` are.

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
    # Leverages z_i'(Z'Z)^+ z_i as row sums, O(np) with no n-by-n hat matrix;
    # the pseudo-inverse lets rank-deficient designs still report.
    leverages = np.einsum("ij,ij->i", z @ np.linalg.pinv(gram), z)
    return DesignConditionReport(
        max_abs_entry=float(np.max(np.abs(z))),
        min_eigenvalue_scaled=min_eig if full_rank else 0.0,
        max_leverage=float(np.max(leverages)),
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

    The design is a read-only, compact C-ordered copy of the caller's: no
    edit of theirs reaches it, and their memory layout moves no bit.
    """

    #: Position of the strictly positive scale coordinate in the parameter
    #: vector, or None for a family without one.
    scale_index: int | None = None

    def __init__(self, design: np.ndarray):
        z = np.array(design, dtype=float, order="C")
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

    @cached_property
    def _row_groups(self) -> _RowGroups | None:
        """The distinct design rows, or None when every row is distinct.

        Found on first use by a population-level sum, so building a family
        and the data-level paths cost nothing more.
        """
        _, first, inverse, counts = np.unique(
            self.design, axis=0, return_index=True, return_inverse=True, return_counts=True
        )
        if first.size == self.n:
            return None
        return _RowGroups(first, counts.astype(float), inverse.reshape(-1))

    def _grouped_rows(self, rows):
        """(rows to evaluate, their ``_RowGroups``): the first occurrences of
        the distinct rows when ``rows`` is every index of a design with
        repeated rows, else ``rows`` itself and None."""
        groups = self._row_groups if isinstance(rows, slice) and rows == slice(None) else None
        return (rows, None) if groups is None else (groups.first, groups)

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
    def loss_derivative_sums(
        self, x, theta: np.ndarray, alpha: float, rows=slice(None)
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sums over the block of the parameter gradient and Hessian of
        V_i(x_i, theta), as a (dim,) and a (dim, dim) array."""

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
        return self._summed_q_rows(x, thetas, alpha, slice(None))

    def _summed_q_rows(self, x, thetas, alpha: float, rows) -> np.ndarray:
        """``summed_q_value_batch``'s sums over the block ``rows`` (minus
        the block size at a = 0)."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        ll = self.log_density_batch(x, thetas, rows)
        if alpha == 0.0:
            return np.sum(ll, axis=1) - ll.shape[1]
        ints = np.exp(self.log_power_integral_batch(thetas, alpha, rows))
        return np.sum(np.expm1(alpha * ll) / alpha - ints / (1.0 + alpha), axis=1)

    def contamination_terms(self, thetas, alpha: float, theta_true, rows=slice(None)):
        """The t-free terms of the contamination scores of parameter rows,
        opaque to callers, for ``summed_contamination_scores`` (a grid may
        ask ``far_scores`` which points share one score vector).  With G_i
        in-model at theta_true the scores are

            k_i(theta, t_i) = [f_i^a(t_i) - integral f_i^a dG_i] / a     (a > 0)
            k_i(theta, t_i) = log f_i(t_i) - integral log f_i dG_i       (a = 0),

        that is expm1(E) m/a, E = a log f(t) - log m with m = integral f^a dG
        (E itself at a = 0).  Here the point term a log f(t) is one
        ``log_density_batch`` call, against the bound 0 (``_score_weights``):
        exact for a probability mass; a density above 1 (a
        ``QuadratureFamily``) may overflow in a capped cell, but only where
        it did uncapped.  For every index of a design with repeated rows the
        terms are made once per distinct row (``_grouped_rows``).  A family
        with a closed form overrides this method only.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        rows, groups = self._grouped_rows(rows)
        offset, weights, shift = self._score_weights(thetas, alpha, theta_true, rows, groups, 0.0)

        def point(points, inverse):
            work = self.log_density_batch(points, thetas, rows if inverse is None else slice(None))
            if alpha != 0.0:
                work *= alpha
            return work

        return _ScoreTerms(offset, point, weights, groups, None, shift)

    def _score_weights(self, thetas, alpha, theta_true, rows, groups, bound):
        """(offset, weights m/a, ``_cap_offsets`` shifts) of contamination
        terms from m = integral f^a dG (log m = integral log f dG at a = 0)
        and ``bound`` >= a log f(t) (log f at a = 0): the exponent is the
        point term a log f(t) - bound <= 0 plus the offset bound - log m."""
        if alpha == 0.0:
            return bound - self.log_density_expectation_batch(thetas, theta_true, rows), None, None
        log_m = self.log_power_expectation_batch(thetas, alpha, theta_true, rows)
        offset = bound - log_m
        weights = np.divide(np.exp(log_m, out=log_m), alpha, out=log_m)
        return offset, weights, _cap_offsets(offset, weights, alpha, bound, groups)

    def summed_contamination_scores(self, terms, points) -> np.ndarray:
        """(m,) sums of k_i(theta, t_i) over the block of ``terms`` (from
        ``contamination_terms``) at ``points``, one per index of the block or
        a scalar shared by all.  A common point outside a far hull costs a
        copy of the far scores (``_ScoreTerms.far_scores``), the full path's
        bits.  Terms per distinct design row score a common point once per
        row, weighted by its count; per-index points expand them to every
        index.
        """
        far = terms.far_scores(points)
        if far is not None:
            return far.copy()
        offset, point, weights, groups, _, shift = terms
        inverse = groups.inverse if groups is not None and np.size(points) != 1 else None
        if inverse is not None:
            # np.take keeps the rows C-ordered; a fancy index on the columns
            # would return them F-ordered, and the row sums would change order.
            groups, offset = None, np.take(offset, inverse, axis=1)
            weights = None if weights is None else np.take(weights, inverse, axis=1)
        work = point(points, inverse)
        work += offset
        if weights is not None:
            np.expm1(work, out=work)
        if groups is not None:
            # One column per distinct design row: the counts weight the row
            # sum, a dot product (einsum is slow on a few columns).
            if weights is not None:
                work *= weights
            scores = np.dot(work, groups.counts)
        elif weights is None:
            return np.einsum("ij->i", work)
        else:
            scores = np.einsum("ij,ij->i", work, weights)
        if shift is not None:
            scores[shift[0]] += shift[1]
        return scores


def dpd_loss(model: ModelFamily, i: int, x: float, theta, alpha: float) -> float:
    """Per-observation divergence loss V_i(x, theta) for alpha > 0."""
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"dpd_loss requires a finite alpha > 0, got {alpha}")
    theta, rows = model.validate_theta(theta), model._check_index(int(i))
    power = np.exp(alpha * model.log_density_batch(float(x), theta, rows)[0, 0])
    integral = np.exp(model.log_power_integral_batch(theta, alpha, rows)[0, 0])
    return float(integral - (1.0 + 1.0 / alpha) * power)


def dpd_loss_grad(model: ModelFamily, i: int, x: float, theta, alpha: float) -> np.ndarray:
    """Analytic parameter gradient of V_i(x, theta); valid for alpha >= 0."""
    theta = model.validate_theta(theta)
    return model.loss_derivative_sums([float(x)], theta, alpha, model._check_index(int(i)))[0]


def dpd_loss_hess(model: ModelFamily, i: int, x: float, theta, alpha: float) -> np.ndarray:
    """Analytic parameter Hessian of V_i(x, theta); valid for alpha >= 0."""
    theta = model.validate_theta(theta)
    return model.loss_derivative_sums([float(x)], theta, alpha, model._check_index(int(i)))[1]


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


def _far_scores(mu, factor, offset, weights, groups) -> _FarScores | None:
    """The far hull and far scores of a > 0 Gaussian terms (``_FarScores``),
    or None for empty terms.  The scores take the full path's reductions
    over its terms there: -1.0 against the weights, or -weights against the
    counts."""
    if offset.size == 0:
        return None
    radius = offset - _FAR_EXPONENT
    radius /= -factor
    np.maximum(radius, 0.0, out=radius)
    np.sqrt(radius, out=radius)
    hi = float(np.max(mu + radius))
    lo = float(np.min(np.subtract(mu, radius, out=radius)))
    if groups is None:
        radius.fill(-1.0)
        scores = np.einsum("ij,ij->i", radius, weights)
    else:
        scores = np.dot(np.negative(weights, out=radius), groups.counts)
    return _FarScores(lo, hi, scores)


class LinearKnownSigma(ModelFamily):
    """Normal linear regression x_i ~ N(z_i'beta, sigma^2) with sigma known.

    The parameter is the coefficient vector beta.  All power integrals and
    expectations are closed-form Gaussian algebra:

        integral f^{1+a} = (2 pi)^{-a/2} sigma^{-a} (1+a)^{-1/2}

    independent of the index and of beta.  The kernels are written for a
    free scale, which ``_split`` pins to ``sigma`` here; ``LinearUnknownSigma``
    reads it from the parameter instead, so each Gaussian formula exists
    once.  The derivative kernel adds the scale entries only when the scale
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

        The scale of a single vector is a scalar; a scale that varies by row
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

    def contamination_terms(self, thetas, alpha, theta_true, rows=slice(None)):
        """The base method's terms in closed form: a log f(t) = factor
        (t - mu)^2 + a log_norm with mu = z'beta, factor = -a/(2 sigma^2) (a
        read as 1 at a = 0), so a point costs five element passes and one
        weighted row sum.  For a > 0 the terms carry the hull [lo, hi] of the
        intervals mu +- sqrt((c + 40)/-factor), c the offset, over every
        cell: a common point outside it puts every exponent at or below -40,
        where expm1 is exactly -1, and the row sums that gives are made once
        (``_far_scores``)."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        betas, sigma = self._split(thetas)
        rows, groups = self._grouped_rows(rows)
        if alpha == 0.0:
            bound, factor = _log_norm(sigma), -0.5 / sigma**2
        else:
            bound, factor = alpha * _log_norm(sigma), -0.5 * alpha / sigma**2
        offset, weights, shift = self._score_weights(thetas, alpha, theta_true, rows, groups, bound)
        # The expectation kernels' temporaries are freed before mu is made.
        mu = betas @ self.design[rows].T
        far = None if weights is None else _far_scores(mu, factor, offset, weights, groups)
        if far is not None and shift is not None:
            far.scores[shift[0]] += shift[1]

        def point(points, inverse):
            means = mu if inverse is None else np.take(mu, inverse, axis=1)
            work = np.subtract(np.asarray(points, dtype=float), means)
            np.multiply(work, work, out=work)
            work *= factor
            return work

        return _ScoreTerms(offset, point, weights, groups, far, shift)

    def loss_derivative_sums(self, x, theta, alpha, rows=slice(None)):
        beta, sigma = self._split(theta)
        z = self.design[rows]
        w = (np.asarray(x, dtype=float) - z @ beta) / sigma
        u = np.exp(-0.5 * alpha * w * w)
        c = math.exp(alpha * _log_norm(sigma))
        s2 = sigma**2
        g_beta = -(1.0 + alpha) * (c / sigma) * (z.T @ (w * u))
        h_bb = (1.0 + alpha) * (c / s2) * (z.T @ ((u * (1.0 - alpha * w * w))[:, None] * z))
        if self.scale_index is None:
            return g_beta, h_bb
        g_sigma = -w.size * alpha * c * (1.0 + alpha) ** -0.5 / sigma - (1.0 + alpha) * (
            c / sigma
        ) * np.sum(u * (w * w - 1.0))
        p = z.shape[1]
        hess = np.empty((p + 1, p + 1))
        hess[:p, :p] = h_bb
        h_bs_w = (1.0 + alpha) * (c / s2) * w * u * ((alpha + 2.0) - alpha * w * w)
        hess[:p, p] = hess[p, :p] = z.T @ h_bs_w
        hess[p, p] = w.size * alpha * math.sqrt(1.0 + alpha) * c / s2 - (1.0 + alpha) * (
            c / s2
        ) * np.sum(u * (alpha * w**4 - (2.0 * alpha + 3.0) * w * w + (alpha + 1.0)))
        return np.append(g_beta, g_sigma), hess

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
        if theta.ndim == 1:  # a numpy scale: a vanished sigma**2 divides to inf
            return theta[:-1], theta[-1]
        return theta[:, :-1], theta[:, -1:]


# ---------------------------------------------------------------------------
# Bernoulli-logit regression.
# ---------------------------------------------------------------------------


def _softplus_tail(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log1p(exp(-|t|)), the part that softplus(t) and softplus(-t) share,
    written to ``out`` (a new array when None)."""
    tail = np.abs(t, out=out)
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    return tail


def _softplus(t: np.ndarray) -> np.ndarray:
    """log(1 + e^t) as max(t, 0) + log1p(exp(-|t|)), finite for finite t.

    numpy's vectorised exp and log1p do the work, where logaddexp(0, t)
    calls libm once per element.  Against a 400-digit reference the result
    is within 1 ulp; the two forms may round a point differently.
    """
    out = _softplus_tail(t)
    out += np.maximum(t, 0.0)
    return out


class Logistic(ModelFamily):
    """Fixed-design logistic regression: x_i ~ Bernoulli(expit(z_i'beta)).

    Powered-density integrals are exact two-term sums over the support {0,1};
    all computations run in log space so extreme linear predictors stay
    finite.

    The objective kernel reads the signed linear predictors
    u_i = (1 - 2 x_i) z_i'beta from one product with the sign-folded design
    diag(1 - 2x) Z.  A sign flip is exact, so u is -t or t bit for bit, and
    -log P(X = x) = softplus(u).  The folded design is kept for the last
    response vector that is read-only and owns its data, such as a
    ``Dataset``'s, keyed by that array's identity; any other vector gets a
    fresh one for its call only.
    """

    _signed: tuple[np.ndarray, np.ndarray] | None = None

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
        # log P(X=1) = -softplus(-t), log P(X=0) = -softplus(t), one shared tail;
        # t - softplus(t) would cancel for large t.
        tail = _softplus_tail(t)
        log_p1 = -(np.maximum(-t, 0.0) + tail)
        log_p0 = -(np.maximum(t, 0.0) + tail)
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
        # x t - softplus(t), with x t - max(t, 0) first: exact for x in {0, 1}
        return pts * t - np.maximum(t, 0.0) - _softplus_tail(t)

    def log_power_integral_batch(self, thetas, alpha, rows=slice(None)):
        log_p1, log_p0 = self._log_p_rows(thetas, rows)
        return np.logaddexp((1.0 + alpha) * log_p1, (1.0 + alpha) * log_p0)

    def log_power_expectation_batch(self, thetas, alpha, theta_true, rows=slice(None)):
        log_p1, log_p0 = self._log_p_rows(thetas, rows)
        log_g1, log_g0 = self._log_p_rows(theta_true, rows)
        log_m = np.logaddexp(alpha * log_p1 + log_g1, alpha * log_p0 + log_g0)
        # log m is O(a) near m = 1, but logaddexp rounds it to about
        # eps |log g_x|, which the scores divide by a.  There m - 1 =
        # g_1 expm1(a log p_1) + g_0 expm1(a log p_0) has relative error eps;
        # a tiny m (a row far from the truth) needs the log space above.
        m_minus_1 = np.exp(log_g1) * np.expm1(alpha * log_p1)
        m_minus_1 += np.exp(log_g0) * np.expm1(alpha * log_p0)
        return np.log1p(m_minus_1, out=log_m, where=log_m > -math.log(2.0))

    def log_density_expectation_batch(self, thetas, theta_true, rows=slice(None)):
        log_p1, log_p0 = self._log_p_rows(thetas, rows)
        log_g1, log_g0 = self._log_p_rows(theta_true, rows)
        return np.exp(log_g1) * log_p1 + np.exp(log_g0) * log_p0

    def loss_derivative_sums(self, x, theta, alpha, rows=slice(None)):
        z = self.design[rows]
        t = z @ theta
        x = np.asarray(x, dtype=float)
        log_p1, log_p0 = self._log_p(t)
        pi = np.exp(log_p1)
        q1 = np.exp((1.0 + alpha) * log_p1)
        q0 = np.exp((1.0 + alpha) * log_p0)
        px_a = np.exp(alpha * (x * log_p1 + (1.0 - x) * log_p0))  # f^a(x), no t - softplus(t)
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
        return z.T @ dv, z.T @ (d2v[:, None] * z)

    def _signed_design(self, x: np.ndarray) -> np.ndarray:
        """diag(1 - 2x) Z for the 0/1 responses ``x``.

        An x that is read-only and owns its data, such as a ``Dataset``'s
        responses, cannot change while it stays read-only, so it keys the
        cache by identity; the cache holds it, so no other array can take
        its identity.  A writable x, or a view whose base may be written,
        gets a fresh product every call.
        """
        cached = self._signed
        if cached is not None and cached[0] is x and not x.flags.writeable:
            return cached[1]
        if not np.all((x == 0.0) | (x == 1.0)):
            raise ValueError("logistic observations must be 0 or 1")
        signed = (1.0 - 2.0 * x)[:, None] * self.design
        if x.flags.owndata and not x.flags.writeable:
            self._signed = (x, signed)
        return signed

    def summed_q_value_batch(self, x, thetas, alpha):
        # Hot path for samplers; three (m, n) scratch arrays, updated in place,
        # and every sum is row-local.  With tail = log1p(exp(-|u|)), a cell's
        # log P(X = x) is -(max(u, 0) + tail), and its two class log
        # probabilities are -(|u| + tail) and -tail.  As |u| = |t|, these
        # round as -(max(+-t, 0) + tail) in t do, and nothing cancels.
        # The arrays are one allocation: as several, malloc gave them back to
        # the system after each row block of alpha_likelihood_batch and
        # faulted them in again at the next, which doubled the time of a batch.
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        u, tail, nll = np.empty((3, thetas.shape[0], self.n))
        np.matmul(thetas, self._signed_design(np.asarray(x, dtype=float)).T, out=u)
        _softplus_tail(u, out=tail)
        np.maximum(u, 0.0, out=nll)
        nll += tail  # -log P(X = x)
        if alpha == 0.0:
            return -nll.sum(axis=1) - self.n
        nll *= -alpha
        np.expm1(nll, out=nll)
        total = nll.sum(axis=1)
        total /= alpha
        # integral term: P(X = 1)^(1+a) + P(X = 0)^(1+a), one class's log
        # probability -(|u| + tail) and the other's -tail, in u and tail
        np.abs(u, out=u)
        u += tail
        u *= -(1.0 + alpha)
        np.exp(u, out=u)
        tail *= -(1.0 + alpha)
        np.exp(tail, out=tail)
        u += tail
        total -= u.sum(axis=1) / (1.0 + alpha)
        return total

    def curvature_unit(self, theta, alpha):
        # Bernoulli weights are at most 1/4; they vanish only where every
        # fitted probability is 0 or 1 (separated data).
        return self.design.T @ self.design / self.n

    def in_model_psi_omega(self, theta, alpha):
        t = self.design @ theta
        # psi weight: e^t (e^{at} + e^t) / (1+e^t)^{3+a}, in log space
        log_base = _softplus(t)
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


def _fd_derivatives(fn_batch, center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference negative Hessian and gradient of a function given
    per parameter row; the whole stencil, 1 + 2d + 2d(d-1) rows, is one
    ``fn_batch`` call, and the gradient reads its +-h rows."""
    dim = center.size
    h = 1e-4 * np.maximum(1.0, np.abs(center))
    e = np.diag(h)
    plus, minus = center + e, center - e  # row j: h_j added to, taken from, coordinate j
    j, k = np.tril_indices(dim, -1)
    mixed = [plus[j] + e[k], plus[j] - e[k], minus[j] + e[k], minus[j] - e[k]]
    f = fn_batch(np.vstack([center, plus, minus, *mixed]))
    fpp, fpm, fmp, fmm = f[1 + 2 * dim :].reshape(4, -1)
    hess = np.diag((f[1 : 1 + dim] - 2.0 * f[0] + f[1 + dim : 1 + 2 * dim]) / h**2)
    hess[j, k] = hess[k, j] = (fpp - fpm - fmp + fmm) / (4.0 * h[j] * h[k])
    return -hess, (f[1 : 1 + dim] - f[1 + dim : 1 + 2 * dim]) / (2.0 * h)


class QuadratureFamily(ModelFamily):
    """Base class for user-defined continuous families without closed forms.

    Subclasses implement ``dim``, ``support`` (integration limits, may be
    infinite), and scalar ``log_density_scalar(i, x, theta)``.  Power
    integrals and expectations are computed index by index with adaptive
    quadrature (absolute tolerance 1e-10, relative 1e-8), and the loss
    derivatives of a block by one central-difference stencil
    (``_fd_derivatives``) of its summed objective terms, which integrates
    that block only.  This path is an order of
    magnitude slower than the built-ins; it exists for correctness, not
    speed.  ``log_density_scalar`` must let the index enter only through
    its design row ``design[i]``: population sums are taken once per
    distinct row, at its first index.
    """

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

    def loss_derivative_sums(self, x, theta, alpha, rows=slice(None)):
        # V_i = -(1+a) q_i - (1+a)/a for the objective term q_i, so the
        # stencil of the block's summed q_i gives the loss derivatives at
        # every a >= 0 without the 1/a cancellation in V_i.
        neg_hess, grad = _fd_derivatives(lambda t: self._summed_q_rows(x, t, alpha, rows), theta)
        return -(1.0 + alpha) * grad, (1.0 + alpha) * neg_hess

    def in_model_psi_omega(self, theta, alpha):
        raise NotImplementedError(
            "closed-form asymptotic matrices are only available for built-in "
            "families; use the observed-curvature matrix instead"
        )

    def sample_responses(self, theta, rng):
        raise NotImplementedError("quadrature families do not define a sampler")
