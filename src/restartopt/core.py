"""Problem oracles, regularity assumptions, and derived condition numbers.

Every solver and restart scheme in this package consumes a
:class:`ProximalOracle` and, when guarantees are wanted, a
:class:`RegularityParams` describing Hölder smoothness of the gradient
and sharpness (a Łojasiewicz-type lower bound) of the minimizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

Vector = np.ndarray


class DivergenceError(RuntimeError):
    """A solver produced a non-finite objective or gradient value."""


def require_finite(**values: float) -> None:
    """Raise ValueError naming the first keyword value that is nan or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class QuadraticForm:
    """The smooth part f0(x) = x^T Q x / 2 - h^T x + c, with Q symmetric.

    ``Q`` is anything that supports ``Q @ x``. Knowing the form lets the
    UFGM carry the gradients Q y - h and Q z - h beside its iterates. On a
    smooth form (no prox) it also carries their images under Q, tests each
    line-search trial on scalars and spends one product per accepted step
    (plus four every 32 steps to re-anchor them); on a composite form it
    spends one product per trial, plus one per step for z after its prox.
    """

    Q: Any
    h: Vector
    c: float = 0.0

    def value(self, x: Vector, Qx: Vector) -> float:
        """f0(x), given the image Qx = Q @ x."""
        return 0.5 * float(x @ Qx) - float(self.h @ x) + self.c


@dataclass(frozen=True)
class ProximalOracle:
    """First-order oracle for an objective f = f0 + psi.

    ``value`` evaluates the full objective f; ``smooth_gradient`` returns a
    (sub)gradient of the smooth part f0. For composite problems, ``prox``
    is the proximal operator of the nonsmooth part psi::

        prox(v, t) = argmin_u  psi(u) + ||u - v||^2 / (2 t)

    and ``nonsmooth_value`` evaluates psi. Both are ``None`` for plain
    smooth problems (psi = 0, prox = identity).

    ``smooth_value_and_gradient``, when given, returns (f0(x), grad f0(x))
    from one evaluation, sharing the work both need (for example one
    matrix-vector product); it must agree with ``smooth_value`` and
    ``smooth_gradient``. ``smooth_eval`` uses it when it is there.

    ``quadratic``, when given, declares f0 as a :class:`QuadraticForm`;
    ``smooth_value`` then evaluates it directly, and the UFGM uses it in
    place of the callables. ``from_quadratic`` builds every callable from
    the form.

    ``prox_rowwise`` declares that ``prox`` acts on each row of a stacked
    (k, n) array alone: given a (k, 1) column of steps T, row i of
    prox(V, T) is prox(V[i], T[i, 0]). It is a statement about the prox,
    not a setting. On a declared form whose Q is an array the grid search
    then runs its cycles in lockstep, one prox call and one matrix product
    for many cycles at once (see ``restartopt.solvers``).

    Oracles are immutable and safe to share across concurrent solver runs.
    """

    dimension: int
    value: Callable[[Vector], float]
    smooth_gradient: Callable[[Vector], Vector]
    prox: Optional[Callable[[Vector, float], Vector]] = None
    nonsmooth_value: Optional[Callable[[Vector], float]] = None
    smooth_value_and_gradient: Optional[Callable[[Vector], tuple[float, Vector]]] = None
    quadratic: Optional[QuadraticForm] = None
    prox_rowwise: bool = False

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")

    @classmethod
    def from_quadratic(
        cls,
        form: QuadraticForm,
        prox: Optional[Callable[[Vector, float], Vector]] = None,
        nonsmooth_value: Optional[Callable[[Vector], float]] = None,
        prox_rowwise: bool = False,
    ) -> ProximalOracle:
        """The oracle of f = f0 + psi whose smooth part f0 is ``form``."""
        Q, h = form.Q, form.h

        def value(x: Vector) -> float:
            f0 = form.value(x, Q @ x)
            return f0 if nonsmooth_value is None else f0 + float(nonsmooth_value(x))

        def smooth_value_and_gradient(x: Vector) -> tuple[float, Vector]:
            Qx = Q @ x
            return form.value(x, Qx), Qx - h

        return cls(
            dimension=len(h), value=value, smooth_gradient=lambda x: Q @ x - h,
            prox=prox, nonsmooth_value=nonsmooth_value,
            smooth_value_and_gradient=smooth_value_and_gradient, quadratic=form,
            prox_rowwise=prox_rowwise,
        )

    def smooth_value(self, x: Vector) -> float:
        """Value of the smooth part f0: the form when declared, else f - psi."""
        if self.quadratic is not None:
            return self.quadratic.value(x, self.quadratic.Q @ x)
        v = float(self.value(x))
        if self.nonsmooth_value is not None:
            v -= float(self.nonsmooth_value(x))
        return v

    def smooth_eval(self, x: Vector) -> tuple[float, Vector]:
        """The smooth value f0(x) and gradient grad f0(x), in one call if fused."""
        if self.smooth_value_and_gradient is not None:
            return self.smooth_value_and_gradient(x)
        return self.smooth_value(x), self.smooth_gradient(x)

    def psi(self, x: Vector) -> float:
        """Value of the nonsmooth part (0 when the problem is smooth)."""
        if self.nonsmooth_value is None:
            return 0.0
        return float(self.nonsmooth_value(x))


@dataclass(frozen=True)
class RegularityParams:
    """Hölder smoothness (s, L) and sharpness (r, mu) of an objective.

    Smoothness: ||grad f(x) - grad f(y)|| <= L ||x - y||^(s-1) with
    s in [1, 2]; s = 1 means bounded subgradients with norm <= L.
    Sharpness: mu * d(x, X*)^r <= f(x) - f* on the validated region.
    The exponents always satisfy s <= r.
    """

    s: float
    L: float
    r: float
    mu: float
    f_star: Optional[float] = None

    def __post_init__(self) -> None:
        if not 1.0 <= self.s <= 2.0:
            raise ValueError(f"smoothness exponent s must lie in [1, 2], got {self.s}")
        if self.L <= 0:
            raise ValueError(f"smoothness constant L must be positive, got {self.L}")
        if self.mu <= 0:
            raise ValueError(f"sharpness constant mu must be positive, got {self.mu}")
        if self.r < self.s:
            raise ValueError(
                f"sharpness exponent r={self.r} must be >= smoothness exponent s={self.s}"
            )


@dataclass(frozen=True)
class DerivedConditioning:
    """Condition numbers derived from (s, L, r, mu).

    kappa = L^(2/s) / mu^(2/r) generalizes the classical condition number,
    tau = 1 - s/r vanishes exactly when the smoothness and sharpness
    exponents match, and q = (3s - 2)/2 is the optimal rate exponent of
    first-order methods on s-smooth problems.
    """

    kappa: float
    tau: float
    q: float

    @property
    def s(self) -> float:
        """Smoothness exponent recovered from q."""
        return (2.0 * self.q + 2.0) / 3.0


def derive_conditioning(params: RegularityParams) -> DerivedConditioning:
    """Compute (kappa, tau, q) from regularity parameters.

    Pure function: identical inputs give bit-identical outputs.
    """
    s, L, r, mu = params.s, params.L, params.r, params.mu
    if s > r:
        raise ValueError(f"inconsistent regularity: s={s} > r={r}")
    kappa = L ** (2.0 / s) / mu ** (2.0 / r)
    tau = 1.0 - s / r
    q = (3.0 * s - 2.0) / 2.0
    return DerivedConditioning(kappa=kappa, tau=tau, q=q)


_CHECK_SLACK = 1e-12


def check_sharpness_bound(
    oracle: ProximalOracle,
    params: RegularityParams,
    points: Sequence[Vector],
    minimizer_set_distance: Callable[[Vector], float],
) -> bool:
    """True iff mu * d(x, X*)^r <= f(x) - f* at every supplied point.

    Comparisons allow a 1e-12 relative floating-point slack so that exact
    equality cases (e.g. f(x) = ||x||^r with mu = 1) pass.
    """
    if params.f_star is None:
        raise ValueError("sharpness check requires a known optimum f_star")
    for x in points:
        gap = float(oracle.value(x)) - params.f_star
        lhs = params.mu * float(minimizer_set_distance(x)) ** params.r
        slack = _CHECK_SLACK * max(1.0, abs(gap), abs(lhs))
        if lhs > gap + slack:
            return False
    return True


def check_suboptimality_upper_bound(
    oracle: ProximalOracle,
    params: RegularityParams,
    points: Sequence[Vector],
    minimizer_set_distance: Callable[[Vector], float],
) -> bool:
    """True iff f(x) - f* <= (L/s) * d(x, X*)^s at every supplied point.

    This is the suboptimality upper bound implied by Hölder smoothness;
    together with the sharpness lower bound it sandwiches the objective.
    """
    if params.f_star is None:
        raise ValueError("suboptimality check requires a known optimum f_star")
    for x in points:
        gap = float(oracle.value(x)) - params.f_star
        rhs = (params.L / params.s) * float(minimizer_set_distance(x)) ** params.s
        slack = _CHECK_SLACK * max(1.0, abs(gap), abs(rhs))
        if gap > rhs + slack:
            return False
    return True


def gradient_finite_difference_error(
    oracle: ProximalOracle,
    points: Sequence[Vector],
    step: float | None = None,
) -> float:
    """Largest relative error between smooth_gradient and central differences.

    The differences are taken on the smooth part of the objective. Returns
    max over points of ||g_fd - g|| / max(1, ||g||). Raises
    ``DivergenceError`` naming the point where a gradient entry or a
    difference quotient is not finite.
    """
    worst = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        g = np.asarray(oracle.smooth_gradient(x), dtype=float)
        h = step if step is not None else 1e-5 * max(1.0, float(np.linalg.norm(x)))
        fd = np.empty_like(g)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            fd[i] = (oracle.smooth_value(x + e) - oracle.smooth_value(x - e)) / (2 * h)
        if not (np.isfinite(g).all() and np.isfinite(fd).all()):
            raise DivergenceError(
                f"non-finite gradient or difference quotient at x = {x.tolist()}"
            )
        err = float(np.linalg.norm(fd - g)) / max(1.0, float(np.linalg.norm(g)))
        worst = max(worst, err)
    return worst
