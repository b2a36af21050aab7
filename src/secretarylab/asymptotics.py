"""Large-n limit objects for both hiring models.

As n grows, the rescaled re-arrival tables phi/psi/upsilon/f at threshold
k = floor(n x) approach curves over x in (0, 1) governed by a first-order
ODE system with poles at both endpoints:

    phi'(x)     = ((1-p)/x + p/((1+p)(1-x))) phi(x) - (p x/((1+p)(1-x)) + (1-p))
    psi'(x)     = psi(x)/x - (1-p + (p/x) phi(x))
    upsilon'(x) = -(1/x + p/((1+p)(1-x))) upsilon(x) + 1/x

with phi, psi anchored at x = 1 (values p and 0) and upsilon at x = 0
(value 1); f = upsilon*phi + (1-upsilon)*psi.  The system is integrated
with a fixed-step classical Runge-Kutta scheme on [eps, 1-eps], anchoring
the boundary data at the offset points.  For 0 < p < 1 the finite-n curves
do not settle near x = 1 (a boundary layer persists), and eps effectively
plays the role of 1/n; results there are finite-size proxies, accurate to
O(eps) at the endpoints.

The top-3 objective has a closed-form limit

    P(x) = -3 x ln(x) + 3 x^2 - x^3/2 - 5 x/2,

maximised where P'(x) = -3 ln(x) + 6 x - (3/2) x^2 - 11/2 vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, DomainError, InvalidSpec, NonFinite, real
from .reappearance import check_p

__all__ = [
    "LimitCurve",
    "RootResult",
    "integrate_limit_system",
    "top3_limit",
    "top3_limit_derivative",
    "optimal_x_top3",
]


@dataclass(frozen=True)
class LimitCurve:
    """A limit curve sampled on a strictly increasing grid inside (0, 1)."""

    grid: np.ndarray
    values: np.ndarray
    label: str

    def __post_init__(self):
        g, v = self.grid, self.values
        if g.ndim != 1 or v.shape != g.shape:
            raise InvalidSpec("grid and values must be 1-d arrays of equal length")
        if not (g[0] > 0.0 and g[-1] < 1.0 and (np.diff(g) > 0.0).all()):
            raise InvalidSpec("grid must be strictly increasing inside (0, 1)")
        if not np.isfinite(v).all():
            raise NonFinite(f"{self.label} curve contains non-finite values")
        if self.label in ("upsilon", "f") and not (
            (v >= -1e-3).all() and (v <= 1.0 + 1e-3).all()
        ):
            raise NonFinite(f"{self.label} curve left [0, 1] beyond integration tolerance")


@dataclass(frozen=True)
class RootResult:
    """A bracketed root: location, objective value there, and residual."""

    x_star: float
    value_at_root: float
    residual: float


# Each right-hand side is linear in its own curve: slope = coefficient * curve
# + forcing (psi's forcing also carries a phi term).  These pairs are the one
# statement of the ODE; the integrator reads them over arrays of x, the tests
# at scalar x.

def _phi_terms(x, p):
    """(coefficient, forcing) of phi' = coefficient * phi + forcing."""
    return (
        (1.0 - p) / x + p / ((1.0 + p) * (1.0 - x)),
        -(p * x / ((1.0 + p) * (1.0 - x)) + (1.0 - p)),
    )


def _psi_terms(x, p):
    """(coefficient, phi coupling, forcing) of psi' = c psi + d phi + e."""
    return 1.0 / x, -p / x, -(1.0 - p)


def _upsilon_terms(x, p):
    """(coefficient, forcing) of upsilon' = coefficient * upsilon + forcing."""
    return -(1.0 / x + p / ((1.0 + p) * (1.0 - x))), 1.0 / x


def _rk4_step(rhs, x, h, y):
    """One classical fourth-order Runge-Kutta step of y' = rhs(x, y) from x to x + h."""
    k1 = rhs(x, y)
    k2 = rhs(x + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(x + h, y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _affine_steps(rhs, x, h, dim):
    """RK4 step maps of a linear system, for every start point in ``x`` at once.

    The state is extended by a constant component 1, so a step of the
    linear system is a linear map of the extended state; stepping each unit
    vector gives its columns.  Returns M with M[j, c] the array, over x, of
    how much of start component j (j = dim is the constant) ends in
    component c.
    """
    basis = np.eye(dim + 1)[:, :, None]
    return _rk4_step(rhs, x, h, basis * np.ones_like(x))


# The step maps and their RK4 stages take about 520 bytes per grid point: a
# process integrating at step 1e-6 (1e6 points) peaks near 555 MiB, so a
# finer step is refused before anything is allocated.
_MIN_STEP = 1e-6


def integrate_limit_system(
    p: float, step: float = 1e-4, epsilon: float = 1e-4
) -> tuple[LimitCurve, LimitCurve, LimitCurve, LimitCurve]:
    """Integrate the limit system on [eps, 1-eps]; returns (phi, psi, upsilon, f).

    phi and psi run jointly backward from x = 1-eps (psi's slope needs the
    stage values of phi); upsilon runs forward from x = eps.  Classical
    fixed-step fourth-order Runge-Kutta on a shared uniform grid; the step
    is rounded so the grid lands exactly on both ends.  A step below 1e-6
    raises DomainError, which bounds the memory of one call.

    The system is linear, so each RK4 step is an affine map of the state:
    backward, phi <- P phi + Q and psi <- S psi + R phi + T (phi at the
    start of the step), forward, upsilon <- U upsilon + V.  The maps of all
    steps are computed at once with array arithmetic on the same stage
    points, and one scalar pass then applies them in order.  This is the
    same scheme as stepping the right-hand sides one stage at a time, with
    rounding in a different order: at the published p, for steps and
    offsets from 1e-4 to 1e-2, the curves agree with that evaluation to
    within 8e-15 and have the same argmax.

    Terminal data: upsilon(eps) = 1 and, for p > 0, phi(1-eps) = p,
    psi(1-eps) = 0.  At p = 0 both backward curves follow the classical
    closed form -x ln x, so the offset points are seeded with its exact
    value; seeding the raw anchors there would shift the whole curve by
    O(eps).
    """
    p = float(check_p(p))
    if not 0.0 < real("epsilon", epsilon) < 0.1:
        raise DomainError(f"need 0 < epsilon < 0.1, got epsilon={epsilon}")
    real("step", step, _MIN_STEP, epsilon)

    m = max(1, int(round((1.0 - 2.0 * epsilon) / step)))
    grid = np.linspace(epsilon, 1.0 - epsilon, m + 1)
    h = (1.0 - 2.0 * epsilon) / m

    if p == 0.0:
        x1 = 1.0 - epsilon
        phi_end = psi_end = -x1 * math.log(x1)
    else:
        phi_end, psi_end = p, 0.0

    def backward_rhs(x, y):
        phi, psi, one = y[..., 0, :], y[..., 1, :], y[..., 2, :]
        a, b = _phi_terms(x, p)
        c, d, e = _psi_terms(x, p)
        return np.stack((a * phi + b * one, c * psi + d * phi + e * one, 0.0 * one), axis=-2)

    def forward_rhs(x, y):
        ups, one = y[..., 0, :], y[..., 1, :]
        c, e = _upsilon_terms(x, p)
        return np.stack((c * ups + e * one, 0.0 * one), axis=-2)

    # entry i of each map steps the state at grid[i+1] back to grid[i]
    back = _affine_steps(backward_rhs, grid[1:], -h, 2)
    P, Q = back[0, 0].tolist(), back[2, 0].tolist()
    R, S, T = back[0, 1].tolist(), back[1, 1].tolist(), back[2, 1].tolist()
    phi = np.empty(m + 1)
    psi = np.empty(m + 1)
    phi[m], psi[m] = phi_end, psi_end
    y1, y2 = phi_end, psi_end
    for i in range(m - 1, -1, -1):
        y1, y2 = P[i] * y1 + Q[i], S[i] * y2 + R[i] * y1 + T[i]
        phi[i], psi[i] = y1, y2

    # entry i steps the state at grid[i] forward to grid[i+1]
    fwd = _affine_steps(forward_rhs, grid[:-1], h, 1)
    U, V = fwd[0, 0].tolist(), fwd[1, 0].tolist()
    ups = np.empty(m + 1)
    ups[0] = u = 1.0
    for i in range(m):
        u = U[i] * u + V[i]
        ups[i + 1] = u

    for arr in (phi, psi, ups):
        if not np.isfinite(arr).all():
            raise NonFinite(f"integration diverged for p={p}, step={step}, eps={epsilon}")

    f = ups * phi + (1.0 - ups) * psi
    return (
        LimitCurve(grid=grid, values=phi, label="phi"),
        LimitCurve(grid=grid, values=psi, label="psi"),
        LimitCurve(grid=grid, values=ups, label="upsilon"),
        LimitCurve(grid=grid, values=f, label="f"),
    )


def top3_limit(x: float) -> float:
    """Limiting success probability of the top-3 rule at rescaled threshold x.

    Defined on [0, 1]; the x -> 0 limit is 0 (x ln x vanishes) and is
    returned at x = 0 by continuous extension.
    """
    real("x", x, 0.0, 1.0)
    if x == 0.0:
        return 0.0
    return -3.0 * x * math.log(x) + 3.0 * x * x - x ** 3 / 2.0 - 5.0 * x / 2.0


def top3_limit_derivative(x: float) -> float:
    """Derivative of the top-3 limit curve, simplified closed form."""
    if not 0.0 < real("x", x) < 1.0:
        raise DomainError(f"x={x} outside (0, 1)")
    return -3.0 * math.log(x) + 6.0 * x - 1.5 * x * x - 5.5


_BRACKET = (0.05, 0.5)
_MAX_BISECT = 200


def optimal_x_top3(tolerance: float) -> RootResult:
    """Locate the maximiser of the top-3 limit curve by bisection.

    Bisects the derivative on the fixed bracket [0.05, 0.5] (positive at
    the left end, negative at the right; checked defensively) until the
    residual |P'(x)| drops to ``tolerance``.
    """
    if not real("tolerance", tolerance) > 0.0:
        raise DomainError(f"tolerance must be positive, got {tolerance}")
    a, b = _BRACKET
    fa = top3_limit_derivative(a)
    fb = top3_limit_derivative(b)
    if not (fa > 0.0 > fb):
        raise BracketError(f"derivative signs do not bracket a root on [{a}, {b}]")
    for _ in range(_MAX_BISECT):
        c = 0.5 * (a + b)
        fc = top3_limit_derivative(c)
        if abs(fc) <= tolerance:
            return RootResult(x_star=c, value_at_root=top3_limit(c), residual=fc)
        if fc > 0.0:
            a = c
        else:
            b = c
    raise BracketError(
        f"bisection could not reach |residual| <= {tolerance}; "
        "the practical floor is near 1e-14"
    )
