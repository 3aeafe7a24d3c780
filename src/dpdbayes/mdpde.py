"""Minimum density power divergence estimation and sandwich asymptotics.

The point estimate maximizes the power-divergence objective (equivalently
solves its estimating equation), computed by Newton ascent with Armijo
backtracking and a gradient-ascent fallback when the curvature matrix is not
positive definite.  The default initialization is a continuation path: solve
the easy a = 0 problem first (least squares, or the logistic MLE from a zero
start) and warm-start upward in steps of at most 0.1, which avoids the
spurious local optima the flattening objective develops under contamination.

Asymptotic covariances come from the usual sandwich construction: with psi
the expected negative curvature of the per-observation objective and omega
the variance of its gradient (closed forms at the model for built-in
families), the estimator covariance is psi^{-1} omega psi^{-1} / n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .alpha_likelihood import Contaminated, InModel, alpha_likelihood
from .models import Dataset, ModelFamily, _check_alpha, check_design_conditions

__all__ = [
    "MdpdeResult",
    "SandwichMatrices",
    "SingularHessianError",
    "FitNotConvergedError",
    "fit",
    "sandwich",
    "asymptotic_covariance",
]

#: Largest increment used on the warm-start continuation path in alpha.
CONTINUATION_STEP = 0.1

#: Generalized eigenvalue of the per-observation curvature against the
#: family's ``curvature_unit`` at or below which an optimum is flat.  Regular
#: fits read 0.01 to 2; separated logistic data reads 1e-7 and less.
FLAT_CURVATURE = 1e-6

#: Four ulps: a Newton decrement or step below this share of its scale is round-off.
ROUNDOFF = 4.0 * float(np.finfo(float).eps)

#: Gradient-norm stop per observation where the Newton decrement is undefined.
GRAD_TOL = 1e-8


class SingularHessianError(RuntimeError):
    """The curvature matrix is numerically singular (degenerate design)."""


class FitNotConvergedError(RuntimeError):
    """A caller needs a converged point estimate and ``fit`` returned
    ``converged=False`` (iteration cap, stalled line search, or a flat
    optimum such as separated logistic data or a start far from the data)."""

    def __init__(self, result: MdpdeResult) -> None:
        if result.flat:
            reason = (
                "the objective is flat in some direction at the optimum, as on separated "
                "data or from a start so far from the data that every density vanished"
            )
        else:
            reason = (
                f"gradient norm {result.gradient_norm:.3g} after {result.iterations} iterations"
            )
        super().__init__(f"point estimate did not converge: {reason}")


@dataclass(frozen=True)
class MdpdeResult:
    """Outcome of one divergence-objective maximization."""

    theta_hat: np.ndarray
    q_value: float
    iterations: int
    converged: bool
    gradient_norm: float
    #: The gradient test passed at a flat optimum; ``converged`` is False.
    flat: bool = False

    def converged_estimate(self) -> np.ndarray:
        """``theta_hat`` of a converged fit.

        Raises:
            FitNotConvergedError: If the fit did not converge.
        """
        if not self.converged:
            raise FitNotConvergedError(self)
        return self.theta_hat


@dataclass(frozen=True)
class SandwichMatrices:
    """Expected-curvature, score-variance, and observed-curvature matrices."""

    psi: np.ndarray
    omega: np.ndarray
    psi_hat: np.ndarray | None
    at_theta: np.ndarray


def _is_pd(matrix: np.ndarray) -> bool:
    """Whether ``matrix`` is finite and has a Cholesky factor.  LAPACK
    factors a matrix with an inf or NaN entry without raising."""
    if not np.isfinite(matrix).all():
        return False
    try:
        np.linalg.cholesky(matrix)
        return True
    except np.linalg.LinAlgError:
        return False


def _flat_direction(model: ModelFamily, theta, alpha: float, curvature: np.ndarray) -> bool:
    """Whether ``curvature``, the negative objective Hessian over n at
    ``theta``, has a flat direction.

    The curvature is measured against ``model.curvature_unit``: its smallest
    generalized eigenvalue is compared with ``FLAT_CURVATURE``, so the test
    depends neither on units nor on how collinear the design is.  A singular
    unit (a rank-deficient design) is a flat direction itself.  A family
    without a unit gets no verdict (False).
    """
    unit = model.curvature_unit(theta, alpha)
    if unit is None:
        return False
    try:
        eigvals = scipy.linalg.eigh(curvature, unit, eigvals_only=True)
    except np.linalg.LinAlgError:
        return True
    return bool(eigvals[0] <= FLAT_CURVATURE)


def _max_feasible_step(model: ModelFamily, theta: np.ndarray, direction: np.ndarray) -> float:
    # Keep a positive scale coordinate feasible by shrinking the step bound.
    k = model.scale_index
    if k is None or direction[k] >= 0.0:
        return 1.0
    return min(1.0, 0.9 * theta[k] / (-direction[k]))


def _newton_ascent(
    model: ModelFamily,
    data: Dataset,
    theta: np.ndarray,
    alpha: float,
    max_iter: int,
) -> tuple[MdpdeResult, np.ndarray]:
    """Newton ascent from ``theta``: its result and the curvature at its last point."""
    armijo_c = 1e-4
    theta = np.array(theta, dtype=float)
    state = alpha_likelihood(model, data, theta, alpha, derivatives=True)
    for iterations in range(max(max_iter, 0) + 1):
        grad = state.gradient
        gnorm = float(np.linalg.norm(grad))
        if gnorm == math.inf and np.isfinite(grad).all():  # the squares overflowed
            top = float(np.abs(grad).max())
            gnorm = top * float(np.linalg.norm(grad / top))
        curvature = -state.hessian
        pd = _is_pd(curvature)  # True only for a finite matrix
        if not (math.isfinite(gnorm) and (pd or np.isfinite(curvature).all())):
            converged = False  # overflowed: no step from a non-finite state is meaningful
            break
        if pd:
            direction = np.linalg.solve(curvature, grad)
            slope = float(grad @ direction)  # the Newton decrement
            converged = slope <= ROUNDOFF * max(1.0, abs(state.value))
        else:
            direction = grad / max(float(np.abs(np.diag(curvature)).max()), 1.0)
            slope = float(grad @ direction)
            converged = gnorm <= GRAD_TOL * model.n
        if converged or iterations >= max_iter:
            break
        step = _max_feasible_step(model, theta, direction)
        while step > 1e-14:
            candidate = theta + step * direction
            cand_state = alpha_likelihood(model, data, candidate, alpha, derivatives=True)
            if cand_state.value >= state.value + armijo_c * step * slope:
                break
            step *= 0.5
        else:
            break  # the line search stalled
        theta, state = candidate, cand_state
    return MdpdeResult(theta, state.value, iterations, converged, gnorm), curvature


def fit(
    model: ModelFamily,
    data: Dataset,
    alpha: float,
    init=None,
    max_iter: int = 200,
) -> MdpdeResult:
    """Maximize the power-divergence objective.

    Args:
        model: Model family (design must have full column rank; otherwise the
            curvature matrix is singular and a ``SingularHessianError`` is
            raised, or, where rounding leaves it positive definite, the fit
            is flat).
        data: Observations.
        alpha: Tuning constant, a finite number >= 0.
        init: Optional starting point.  When omitted, fitting starts from the
            least-squares (linear) or zero (logistic) solution at a = 0 and
            follows a warm-start continuation path in alpha: every stage starts
            the next, and the result is the last stage's, at ``alpha``.
        max_iter: Newton iteration cap per continuation stage.  Exceeding it
            returns ``converged=False`` with diagnostics rather than raising.

    A stage stops when the Newton decrement g'C^{-1}g, twice the gain of the
    full Newton step, is at most ``ROUNDOFF`` * max(1, |Q|): no step can
    then change Q, whatever the units of the data.  Where the curvature C is
    not positive definite, the gradient norm stops it at ``GRAD_TOL`` * n.

    A stationary point whose curvature has a flat direction (a vanishing
    gradient at infinity, as on separated logistic data, or a plateau where
    every f_i^a has vanished, reached from a start far from the data) also
    returns ``converged=False``, with ``flat=True``.  So does, with
    ``flat=False``, an ascent whose derivatives overflow: on responses that
    the design fits exactly the objective has no maximizer and grows without
    bound as the scale goes to 0.
    """
    _check_alpha(alpha)
    model.validate_data(data)
    total_iters = 0
    if init is not None:
        theta = model.validate_theta(np.asarray(init, dtype=float))
        stages = [alpha]
    else:
        theta = model.default_init(data)
        n_stages = int(np.ceil(alpha / CONTINUATION_STEP)) if alpha > 0 else 0
        stages = [0.0] + list(np.linspace(0.0, alpha, n_stages + 1)[1:])
    for stage_alpha in stages:
        try:
            result, curvature = _newton_ascent(model, data, theta, stage_alpha, max_iter)
        except np.linalg.LinAlgError as exc:
            raise SingularHessianError(
                f"curvature matrix is singular ({exc}); check the design for rank deficiency"
            ) from exc
        theta = result.theta_hat
        total_iters += result.iterations
    # The last stage ran at alpha, so the curvature is at (theta, alpha).  The
    # Cholesky test is laplace_integral's: a converged fit expands.  A
    # full-rank design fails it only where the start was far from the data
    # and every f_i^a vanished: a flat stationary point, not a bad design.
    if result.converged and not _is_pd(curvature):
        if not check_design_conditions(model.design).full_column_rank:
            raise SingularHessianError(
                "curvature at the optimum is not positive definite; "
                "check the design for rank deficiency"
            )
        flat = True
    else:
        flat = result.converged and _flat_direction(model, theta, alpha, curvature / model.n)
    return MdpdeResult(
        theta_hat=theta,
        q_value=result.q_value,
        iterations=total_iters,
        converged=result.converged and not flat,
        gradient_norm=result.gradient_norm,
        flat=flat,
    )


def sandwich(model: ModelFamily, data_or_spec, theta, alpha: float) -> SandwichMatrices:
    """Assemble the asymptotic matrices at a parameter point.

    The expected-curvature and score-variance matrices use the in-model
    closed forms at ``theta``.  When observed data is supplied, the
    observed-curvature matrix (negative objective Hessian divided by n) is
    attached as well; with a population spec it is left as None.
    """
    theta = model.validate_theta(theta)
    psi, omega = model.in_model_psi_omega(theta, alpha)
    psi_hat = None
    if isinstance(data_or_spec, Dataset):
        hess = alpha_likelihood(model, data_or_spec, theta, alpha, derivatives=True).hessian
        psi_hat = -hess / model.n
    elif isinstance(data_or_spec, Contaminated):
        raise ValueError("closed-form sandwich matrices require in-model truths")
    elif not isinstance(data_or_spec, InModel):
        raise TypeError("expected a Dataset or an in-model true-distribution spec")
    return SandwichMatrices(
        psi=0.5 * (psi + psi.T),
        omega=0.5 * (omega + omega.T),
        psi_hat=None if psi_hat is None else 0.5 * (psi_hat + psi_hat.T),
        at_theta=theta,
    )


def asymptotic_covariance(sw: SandwichMatrices, n: int) -> np.ndarray:
    """Estimator covariance psi^{-1} omega psi^{-1} / n."""
    try:
        inner = np.linalg.solve(sw.psi, sw.omega)
        cov = np.linalg.solve(sw.psi, inner.T).T / n
    except np.linalg.LinAlgError as exc:
        raise SingularHessianError("singular expected-curvature matrix") from exc
    return 0.5 * (cov + cov.T)
