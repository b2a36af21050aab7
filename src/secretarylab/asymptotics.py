"""Large-n limit objects for both hiring models.

As n grows, the rescaled re-arrival tables phi/psi/upsilon/f at threshold
k = floor(n x) approach curves over x in (0, 1) governed by a first-order
ODE system with poles at both endpoints:

    phi'(x)     = ((1-p)/x + p/((1+p)(1-x))) phi(x) - (p x/((1+p)(1-x)) + (1-p))
    psi'(x)     = psi(x)/x - (1-p + (p/x) phi(x))
    upsilon'(x) = -(1/x + p/((1+p)(1-x))) upsilon(x) + 1/x

with phi, psi anchored at x = 1 (values p and 0) and upsilon at x = 0
(value 1); f = upsilon*phi + (1-upsilon)*psi.  Each equation is linear in
its own curve, so integrating factors solve the system.  With
c = p/(1+p) and G(t) = t^(p-1) (t + (1-p^2)/p (1-t)):

    phi(x)     = x^(1-p) c int_0^1 r^(c-1) G(1 - r(1-x)) dr
    psi(x)     = x (-(1-p) ln x + p int_x^1 phi(t)/t^2 dt)
    upsilon(x) = (1-x)^c (1 - (1-x)^(1-c)) / ((1-c) x)

and at p = 0 phi = psi = f = -x ln x, upsilon = 1, the classical limit.
The limit exists for every p, and the finite-n tables approach it as
n^(-c).  ``optimal_x_reappearance`` evaluates it by Gauss quadrature and
bisects f'.

``integrate_limit_system`` integrates the same system with fixed-step
classical Runge-Kutta on [eps, 1-eps], anchoring the boundary data at the
offset points.  At p = 0 and p = 1 those anchors are exact and its curves
converge to the closed form.  For 0 < p < 1 the anchor phi(1-eps) = p
excites the homogeneous mode (1-x)^(-c), so the curves approach the limit
only as eps^c: eps acts as a 1/n proxy there.

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
    "P_MIN_LIMIT",
    "integrate_limit_system",
    "optimal_x_reappearance",
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
        if g.ndim != 1 or v.shape != g.shape or not g.size:
            raise InvalidSpec("grid and values must be non-empty 1-d arrays of equal length")
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
# statement of the ODE; the integrator, the closed form's f' and the tests
# read them at scalar x.

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


# The RK4 loops hold about 88 bytes per grid point (tracemalloc).  At step
# 1e-6 (1e6 points) one call takes about 8 s and its process peaks near
# 115 MiB resident (Python 3.11, 2-vCPU x86-64), so a finer step is refused
# before anything is allocated.
_MIN_STEP = 1e-6


def integrate_limit_system(
    p: float, step: float = 1e-4, epsilon: float = 1e-4
) -> tuple[LimitCurve, LimitCurve, LimitCurve, LimitCurve]:
    """Integrate the limit system on [eps, 1-eps]; returns (phi, psi, upsilon, f).

    phi and psi run jointly backward from x = 1-eps (psi's slope needs the
    stage values of phi); upsilon runs forward from x = eps.  Classical
    fixed-step fourth-order Runge-Kutta on a shared uniform grid; the step
    is rounded so the grid lands exactly on both ends.  A step below 1e-6
    raises DomainError, which bounds the time of one call.

    Terminal data: upsilon(eps) = 1 and, for p > 0, phi(1-eps) = p,
    psi(1-eps) = 0.  At p = 0 both backward curves follow the classical
    closed form -x ln x, so the offset points are seeded with its exact
    value; seeding the raw anchors there would shift the whole curve by
    O(eps).
    """
    p = float(check_p(p))
    epsilon = real("epsilon", epsilon)
    if not 0.0 < epsilon < 0.1:
        raise DomainError(f"need 0 < epsilon < 0.1, got epsilon={epsilon}")
    step = real("step", step, _MIN_STEP, epsilon)

    m = max(1, int(round((1.0 - 2.0 * epsilon) / step)))
    grid = np.linspace(epsilon, 1.0 - epsilon, m + 1)
    h = (1.0 - 2.0 * epsilon) / m

    if p == 0.0:
        x1 = 1.0 - epsilon
        phi_end = psi_end = -x1 * math.log(x1)
    else:
        phi_end, psi_end = p, 0.0

    def backward(x, y):  # y = phi + i psi: RK4's real combinations act on each part
        (a, b), (c, d, e) = _phi_terms(x, p), _psi_terms(x, p)
        return complex(a * y.real + b, c * y.imag + d * y.real + e)

    def forward(x, u):
        c, e = _upsilon_terms(x, p)
        return c * u + e

    phi, psi, ups = curves = np.empty((3, m + 1))
    phi[m], psi[m], ups[0] = phi_end, psi_end, 1.0
    y, u, xs = complex(phi_end, psi_end), 1.0, grid.tolist()
    for i in range(m, 0, -1):
        y = _rk4_step(backward, xs[i], -h, y)
        phi[i - 1], psi[i - 1] = y.real, y.imag
    for i in range(m):
        ups[i + 1] = u = _rk4_step(forward, xs[i], h, u)

    if not np.isfinite(curves).all():
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
    x = real("x", x, 0.0, 1.0)
    if x == 0.0:
        return 0.0
    return -3.0 * x * math.log(x) + 3.0 * x * x - x ** 3 / 2.0 - 5.0 * x / 2.0


def top3_limit_derivative(x: float) -> float:
    """Derivative of the top-3 limit curve, simplified closed form."""
    x = real("x", x)
    if not 0.0 < x < 1.0:
        raise DomainError(f"x={x} outside (0, 1)")
    return -3.0 * math.log(x) + 6.0 * x - 1.5 * x * x - 5.5


def _gauss_jacobi(c: float, m: int):
    """Nodes r and weights w of the m-point Gauss rule for c r^(c-1) dr on [0, 1], 0 < c < 1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Jacobi polynomials P^(0, c-1) on [-1, 1], mapped to [0, 1]; the weights
    are the squared first components of the eigenvectors, and sum to 1 as
    the weight does.  The entries are written in c, so a small c loses no
    digits to c - 1; the first diagonal entry, 0/0 at c = 1, is finite for
    every c the limit asks for (c = p/(1+p) <= 1/2).
    """
    k = 2.0 * np.arange(m) - 1.0 + c  # 2j - 1 + c for j = 0..m-1
    j = np.arange(1.0, m)
    diagonal = (c - 1.0) ** 2 / (k * (k + 2.0))
    below = 2.0 * j * (j - 1.0 + c) / (k[1:] * np.sqrt((k[1:] + 1.0) * (2.0 * j - 2.0 + c)))
    y, vectors = np.linalg.eigh(np.diag(diagonal) + np.diag(below, -1))  # reads the lower triangle
    return 0.5 * (1.0 + y), vectors[0] ** 2


def _gauss_legendre(m: int):
    """Nodes and weights of the m-point Gauss-Legendre rule on [0, 1]; the weights sum to 1."""
    from numpy.polynomial.legendre import leggauss  # here, so importing the CLI does not load it

    s, v = leggauss(m)
    return 0.5 * (1.0 + s), 0.5 * v


def _reappearance_limit(p: float):
    """(f', f) of the bookkeeping re-arrival limit, as functions of a float x in (0, 1).

    phi's integral takes 16 Gauss-Jacobi nodes and psi's 40 Gauss-Legendre
    nodes.  For p >= P_MIN_LIMIT twice as many move f and f' by under 5e-11
    on [0.4, 1), where every optimum lies, and f* by under 2e-13.  f' is
    assembled from the right-hand sides of the limit system.
    """
    c = p / (1.0 + p)
    s, v = _gauss_legendre(40)
    r, w = _gauss_jacobi(c, 16) if p > 0.0 else (None, None)

    def phi(x):
        if p == 0.0:
            return -x * np.log(x)
        d = np.multiply.outer(1.0 - x, r)  # 1 - t, for t = 1 - r (1 - x)
        return x ** (1.0 - p) * (((1.0 - d) ** (p - 1.0) * (1.0 - d + (1.0 - p * p) / p * d)) @ w)

    def curves(x):
        t = x + (1.0 - x) * s
        psi = x * (p * (1.0 - x) * ((phi(t) / t ** 2) @ v) - (1.0 - p) * math.log(x))
        upsilon = (1.0 - x) ** c * (1.0 - (1.0 - x) ** (1.0 - c)) / ((1.0 - c) * x)
        return float(phi(x)), float(psi), upsilon

    def value(x):
        phi_x, psi, upsilon = curves(x)
        return upsilon * phi_x + (1.0 - upsilon) * psi

    def derivative(x):
        phi_x, psi, upsilon = curves(x)
        (a, b), (g, h, e), (u, z) = _phi_terms(x, p), _psi_terms(x, p), _upsilon_terms(x, p)
        return ((u * upsilon + z) * (phi_x - psi) + upsilon * (a * phi_x + b)
                + (1.0 - upsilon) * (g * psi + h * phi_x + e))

    return derivative, value


_MAX_BISECT = 200
_TOLERANCE = 1e-9  # the precision ``asymptotic`` prints


def _bisect(derivative, value, a: float, b: float) -> RootResult:
    """Bisect ``derivative`` on [a, b] until |derivative| <= ``_TOLERANCE``.

    The derivative must be positive at a and negative at b (checked), so
    the root is a maximum of ``value``.
    """
    if not derivative(a) > 0.0 > derivative(b):
        raise BracketError(f"derivative signs do not bracket a root on [{a}, {b}]")
    for _ in range(_MAX_BISECT):
        c = 0.5 * (a + b)
        fc = derivative(c)
        if abs(fc) <= _TOLERANCE:
            return RootResult(x_star=c, value_at_root=value(c), residual=fc)
        if fc > 0.0:
            a = c
        else:
            b = c
    raise BracketError(f"bisection could not reach |residual| <= {_TOLERANCE}")


# Below this p the optimum crowds x = 1 (1 - x* is about sqrt(p)) and the
# evaluation loses digits as p falls: against a 40-digit series evaluation
# of the closed form, f* is off by 6e-13 at p = 1e-6 (x* = 0.99900125),
# 3.6e-12 at 1e-8 and 3.3e-11 at 1e-10.
P_MIN_LIMIT = 1e-6


def optimal_x_reappearance(p: float) -> RootResult:
    """Locate the maximiser of the bookkeeping re-arrival limit f by bisection.

    Bisects f' on [0.05, 1 - 1e-6] until |f'(x)| <= 1e-9.
    p = 0 gives the classical 1/e; 0 < p < P_MIN_LIMIT raises DomainError.
    """
    p = float(check_p(p))
    if 0.0 < p < P_MIN_LIMIT:
        raise DomainError(f"need p = 0 or p >= {P_MIN_LIMIT} for the large-n limit, got p={p}")
    return _bisect(*_reappearance_limit(p), 0.05, 1.0 - 1e-6)


def optimal_x_top3() -> RootResult:
    """Locate the maximiser of the top-3 limit curve by bisection.

    Bisects the derivative on [0.05, 0.5] until the residual |P'(x)| <= 1e-9.
    """
    return _bisect(top3_limit_derivative, top3_limit, 0.05, 0.5)
