"""Central differences of an objective: a second-order reference for the tests.

The solver differences its objective by SciPy's forward rule; these stencils
step both ways from an interior point, so halving the step shrinks their error
about fourfold.
"""

from typing import Sequence

import numpy as np

from flashsim.vectors import AttackVector


def central_difference(f, params: np.ndarray, step: float) -> np.ndarray:
    """Central difference of `f` at each point of a batch ``(k, n)``, from one call on the 2n
    stencil rows of every point."""
    k, n = params.shape
    bump = step * np.eye(n)
    stencil = np.concatenate([params[:, None] + bump, params[:, None] - bump], axis=1)
    values = np.asarray(f(stencil.reshape(-1, n)), dtype=float).reshape(k, 2 * n)
    return (values[:, :n] - values[:, n:]) / (2.0 * step)


def finite_diff_gradient(vector: AttackVector, params: Sequence[float], step: float) -> np.ndarray:
    """Central-difference gradient of the objective at an interior point."""
    params = np.asarray(params, dtype=float)
    for i, ((lo, hi), p) in enumerate(zip(vector.bounds, params)):
        if not (lo + step <= p <= hi - step):
            raise ValueError(f"parameter {i} = {p} not interior to [{lo}, {hi}] by step {step}")
    return central_difference(vector.objective, params[None], step)[0]
