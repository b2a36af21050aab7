import math
import tracemalloc

import numpy as np
import pytest

from secretarylab import (
    LimitCurve,
    ProblemSpec,
    integrate_limit_system,
    optimal_policy,
    optimal_policy_top3,
    optimal_x_reappearance,
    optimal_x_top3,
    top3_limit,
    top3_limit_derivative,
    top3_table,
)
from secretarylab.asymptotics import (
    P_MIN_LIMIT,
    _gauss_jacobi,
    _gauss_legendre,
    _phi_terms,
    _psi_terms,
    _reappearance_limit,
    _upsilon_terms,
)
from secretarylab.cli import TABLE1_ROWS
from secretarylab.errors import DomainError, InvalidSpec


def stagewise_rk4(p, step, epsilon):
    """Classical RK4 stepped one stage at a time on the right-hand sides as
    written out here, with the integrator's grid and anchors: a reference
    for its shared ``_rk4_step`` and complex (phi, psi) pairing.  Returns
    (phi, psi, upsilon) values."""
    def rhs_phi(x, phi):
        return ((1.0 - p) / x + p / ((1.0 + p) * (1.0 - x))) * phi \
            - (p * x / ((1.0 + p) * (1.0 - x)) + (1.0 - p))

    def rhs_psi(x, psi, phi):
        return psi / x - (1.0 - p + (p / x) * phi)

    def rhs_upsilon(x, u):
        return -(1.0 / x + p / ((1.0 + p) * (1.0 - x))) * u + 1.0 / x

    m = max(1, int(round((1.0 - 2.0 * epsilon) / step)))
    grid = np.linspace(epsilon, 1.0 - epsilon, m + 1)
    h = (1.0 - 2.0 * epsilon) / m
    if p == 0.0:
        x1 = 1.0 - epsilon
        y1 = y2 = -x1 * math.log(x1)
    else:
        y1, y2 = p, 0.0
    phi, psi, ups = np.empty(m + 1), np.empty(m + 1), np.empty(m + 1)
    phi[m], psi[m] = y1, y2
    for i in range(m, 0, -1):
        x = grid[i]
        k1a = rhs_phi(x, y1)
        k1b = rhs_psi(x, y2, y1)
        xm = x - 0.5 * h
        k2a = rhs_phi(xm, y1 - 0.5 * h * k1a)
        k2b = rhs_psi(xm, y2 - 0.5 * h * k1b, y1 - 0.5 * h * k1a)
        k3a = rhs_phi(xm, y1 - 0.5 * h * k2a)
        k3b = rhs_psi(xm, y2 - 0.5 * h * k2b, y1 - 0.5 * h * k2a)
        xe = x - h
        k4a = rhs_phi(xe, y1 - h * k3a)
        k4b = rhs_psi(xe, y2 - h * k3b, y1 - h * k3a)
        y1 -= h / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        y2 -= h / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        phi[i - 1], psi[i - 1] = y1, y2
    ups[0] = u = 1.0
    for i in range(m):
        x = grid[i]
        k1 = rhs_upsilon(x, u)
        k2 = rhs_upsilon(x + 0.5 * h, u + 0.5 * h * k1)
        k3 = rhs_upsilon(x + 0.5 * h, u + 0.5 * h * k2)
        k4 = rhs_upsilon(x + h, u + h * k3)
        u += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ups[i + 1] = u
    return phi, psi, ups


@pytest.mark.parametrize("p", [p for p, _, _ in TABLE1_ROWS])
@pytest.mark.parametrize(
    "step,epsilon", [(1e-4, 1e-4), (1e-3, 1e-3), (1e-3, 1e-2), (0.01, 0.01), (0.005, 0.01)]
)
def test_affine_steps_match_stagewise_rk4(p, step, epsilon):
    curves = integrate_limit_system(p, step=step, epsilon=epsilon)
    phi, psi, ups = stagewise_rk4(p, step, epsilon)
    f = ups * phi + (1.0 - ups) * psi
    for curve, ref in zip(curves, (phi, psi, ups, f)):
        assert np.max(np.abs(curve.values - ref)) <= 1e-13
    assert np.argmax(curves[3].values) == np.argmax(f)


def rhs_phi(x, phi, p):
    c, e = _phi_terms(x, p)
    return c * phi + e


def rhs_psi(x, psi, phi, p):
    c, d, e = _psi_terms(x, p)
    return c * psi + d * phi + e


def rhs_upsilon(x, upsilon, p):
    c, e = _upsilon_terms(x, p)
    return c * upsilon + e


def test_rhs_phi_hand_values():
    assert rhs_phi(0.5, 0.0, 0.0) == pytest.approx(-1.0, abs=1e-15)
    assert rhs_phi(0.5, 0.5, 1.0) == pytest.approx(0.0, abs=1e-15)
    # pole at the right endpoint
    assert abs(rhs_phi(1.0 - 1e-12, 0.3, 0.5)) > 1e9


def test_rhs_psi_hand_values():
    assert rhs_psi(0.5, 0.0, 0.0, 0.0) == pytest.approx(-1.0, abs=1e-15)
    assert rhs_psi(0.25, 0.25, 0.5, 1.0) == pytest.approx(-1.0, abs=1e-15)
    assert rhs_psi(0.5, 0.2, 0.3, 0.5) == pytest.approx(-0.4, abs=1e-15)


def test_rhs_upsilon_hand_values():
    assert rhs_upsilon(0.5, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert rhs_upsilon(0.5, 0.5, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert rhs_upsilon(0.1, 1.0, 0.5) == pytest.approx(-0.5 / (1.5 * 0.9), abs=1e-15)


def test_parameter_validation():
    with pytest.raises(DomainError):
        integrate_limit_system(0.5, step=1e-4, epsilon=0.2)
    with pytest.raises(DomainError):
        integrate_limit_system(0.5, step=0.02, epsilon=0.01)
    with pytest.raises(DomainError):
        integrate_limit_system(0.5, step=-1e-4, epsilon=1e-3)
    for p in ("0.5", True):
        with pytest.raises(InvalidSpec):
            integrate_limit_system(p)


def test_limit_curve_refuses_an_empty_grid():
    with pytest.raises(InvalidSpec, match="non-empty"):
        LimitCurve(grid=np.empty(0), values=np.empty(0), label="f")


def test_step_floor_refuses_before_allocating(monkeypatch):
    # a grid at step 1e-9 would take about 500 GiB; the step is refused first
    def no_grid(*args, **kwargs):
        raise AssertionError("grid allocated before the step was checked")

    monkeypatch.setattr(np, "linspace", no_grid)
    with pytest.raises(DomainError, match="step=1e-09"):
        integrate_limit_system(0.5, step=1e-9, epsilon=1e-3)


def test_integrator_memory_per_grid_point():
    # numpy reports its buffers to tracemalloc.  Grid, three curves and f
    # take 8 bytes a point each, the grid's list of floats 32 and f's
    # temporaries the rest; nothing else may grow with the grid.
    tracemalloc.start()
    try:
        curves = integrate_limit_system(0.5, step=1e-4, epsilon=1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 120 * curves[0].grid.size


def test_classical_curve_matches_closed_form():
    phi, _, ups, f = integrate_limit_system(0.0, step=1e-4, epsilon=1e-4)
    g = phi.grid
    window = (g >= 0.05) & (g <= 0.95)
    err = np.max(np.abs(phi.values[window] + g[window] * np.log(g[window])))
    assert err <= 1e-6
    # p=0 keeps the leader-seen-once probability pinned at its fixed point
    assert np.max(np.abs(ups.values - 1.0)) <= 1e-4
    i = int(np.argmax(f.values))
    assert abs(f.grid[i] - 1.0 / math.e) <= 1e-3
    assert abs(f.values[i] - 1.0 / math.e) <= 1e-3


def test_fourth_order_convergence():
    # truncation-dominated regime: halving the step should shrink the error
    # by about 2**4 (>= 12 allows slack)
    errs = []
    for step in (0.01, 0.005):
        phi, _, _, _ = integrate_limit_system(0.0, step=step, epsilon=0.01)
        g = phi.grid
        window = (g >= 0.05) & (g <= 0.95)
        errs.append(np.max(np.abs(phi.values[window] + g[window] * np.log(g[window]))))
    assert errs[0] / errs[1] >= 12.0


def test_composition_identity_on_grid():
    phi, psi, ups, f = integrate_limit_system(0.7, step=1e-3, epsilon=1e-3)
    rebuilt = ups.values * phi.values + (1.0 - ups.values) * psi.values
    assert np.max(np.abs(f.values - rebuilt)) <= 1e-14
    assert phi.grid.shape == psi.grid.shape == ups.grid.shape == f.grid.shape
    assert (phi.grid == f.grid).all()
    assert [c.label for c in (phi, psi, ups, f)] == ["phi", "psi", "upsilon", "f"]


def test_guaranteed_return_limit():
    _, _, _, f = integrate_limit_system(1.0, step=1e-4, epsilon=1e-4)
    i = int(np.argmax(f.values))
    assert abs(f.grid[i] - 0.47) <= 0.01
    assert abs(f.values[i] - 0.76) <= 0.01


def test_half_return_finite_size_proxy():
    # for 0 < p < 1 the rescaled tables keep a boundary layer at x = 1, so
    # epsilon acts as a 1/n proxy; eps = 1e-2 tracks the n=100 optimum
    _, _, _, f = integrate_limit_system(0.5, step=1e-3, epsilon=1e-2)
    i = int(np.argmax(f.values))
    assert abs(f.grid[i] - 0.57) <= 0.02
    assert abs(f.values[i] - 0.6875) <= 0.02


def test_rk4_tracks_closed_form_at_p1():
    # at p = 1 the RK4 anchors are exact, so its curve is an oracle for the
    # closed form; the gap scales with epsilon (5.8e-4 at epsilon = 1e-3)
    _, value = _reappearance_limit(1.0)
    _, _, _, f = integrate_limit_system(1.0, step=1e-4, epsilon=1e-4)
    window = np.flatnonzero((f.grid >= 0.05) & (f.grid <= 0.95))[::50]
    gap = max(abs(f.values[i] - value(float(f.grid[i]))) for i in window)
    assert gap <= 1e-4


def test_gauss_legendre_rule_is_exact_to_degree_79():
    s, v = _gauss_legendre(40)
    for j in range(80):
        assert (s ** j) @ v == pytest.approx(1.0 / (j + 1), rel=1e-12)


# at p = P_MIN_LIMIT, c = p/(1+p) is near 1e-6 and the rule loses digits: 5.9e-10
@pytest.mark.parametrize("p,bound", [(0.001, 1e-12), (0.1, 1e-12), (0.5, 1e-12), (0.9, 1e-12),
                                     (1.0, 1e-12), (P_MIN_LIMIT, 1e-9)])
def test_gauss_jacobi_rule_is_exact_to_degree_31(p, bound):
    c = p / (1.0 + p)
    r, w = _gauss_jacobi(c, 16)
    for j in range(32):  # the weight c r^(c-1) times r^j integrates to c/(c+j)
        assert (r ** j) @ w == pytest.approx(c / (c + j), rel=bound)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
def test_reappearance_residual_is_the_slope_of_f(p):
    derivative, value = _reappearance_limit(p)
    h = 1e-5
    for x in (0.3, 0.6, 0.9):
        assert derivative(x) == pytest.approx((value(x + h) - value(x - h)) / (2 * h), abs=1e-6)
    root = optimal_x_reappearance(p)
    assert root.residual == derivative(root.x_star) and abs(root.residual) <= 1e-9
    assert root.value_at_root == value(root.x_star)


def extrapolate(v, v10, e):
    """The limit of optima v(n) that approach it as n^(-e), from v = v(n)
    and v10 = v(10n): v(10n) + (v(10n) - v(n)) 10^(-e)/(1 - 10^(-e))."""
    ratio = 10.0 ** (-e)
    return v10 + (v10 - v) * ratio / (1.0 - ratio)


@pytest.mark.parametrize("p", [0.5, 0.75, 1.0])
def test_reappearance_optima_extrapolate_to_the_limit(p):
    # the exact optima approach f* as n^(-c), c = p/(1+p)
    root = optimal_x_reappearance(p)
    v = [optimal_policy(ProblemSpec(n=10 ** e, p=p)).value for e in (4, 5, 6)]
    coarse, fine = (extrapolate(a, b, p / (1.0 + p)) for a, b in zip(v, v[1:]))
    assert abs(fine - root.value_at_root) <= 3e-5
    assert 3.0 * abs(fine - root.value_at_root) <= abs(coarse - root.value_at_root)


def test_top3_optima_extrapolate_to_the_limit():
    # the exact top-3 optima approach P(x*) as 1/n
    root = optimal_x_top3()
    v, v10 = (optimal_policy_top3(n).value for n in (10**5, 10**6))
    limit = extrapolate(v, v10, 1.0)
    assert abs(limit - root.value_at_root) <= 1e-10
    assert 50.0 * abs(limit - root.value_at_root) <= abs(v10 - root.value_at_root)


def test_finite_n_tables_approach_top3_limit():
    worst = []
    for n in (10**3, 10**4, 10**5):
        prob = top3_table(n).prob
        worst.append(max(abs(prob[int(n * x)] - top3_limit(x)) for x in (0.2, 0.26, 0.4)))
    assert worst[0] > worst[1] > worst[2]


def test_top3_limit_values():
    assert top3_limit(1.0) == 0.0
    assert top3_limit(0.0) == 0.0
    direct = -1.5 * math.log(0.5) + 0.75 - 0.0625 - 1.25
    assert top3_limit(0.5) == pytest.approx(direct, abs=1e-15)
    assert abs(top3_limit(0.259) - 0.59) <= 5e-3
    x = np.float32(0.3)  # a numpy float is computed as the Python float it equals
    assert type(top3_limit(x)) is float and top3_limit(x) == top3_limit(float(x))
    with pytest.raises(DomainError):
        top3_limit(-0.1)
    with pytest.raises(DomainError):
        top3_limit(1.1)
    with pytest.raises(DomainError):
        top3_limit(math.nan)


def test_top3_derivative_values():
    assert top3_limit_derivative(0.1) == pytest.approx(-3 * math.log(0.1) + 0.6 - 0.015 - 5.5, abs=1e-15)
    assert top3_limit_derivative(0.5) == pytest.approx(-3 * math.log(0.5) + 3 - 0.375 - 5.5, abs=1e-15)
    assert abs(top3_limit_derivative(0.2599)) <= 1e-3
    x = np.float32(0.3)
    assert type(top3_limit_derivative(x)) is float
    assert top3_limit_derivative(x) == top3_limit_derivative(float(x))
    with pytest.raises(DomainError):
        top3_limit_derivative(0.0)
    with pytest.raises(DomainError):
        top3_limit_derivative(1.0)
    with pytest.raises(DomainError):
        top3_limit_derivative(math.nan)


def test_top3_derivative_matches_finite_difference():
    h = 1e-6
    for x in (0.1, 0.26, 0.5, 0.8):
        fd = (top3_limit(x + h) - top3_limit(x - h)) / (2 * h)
        assert top3_limit_derivative(x) == pytest.approx(fd, abs=1e-6)


def test_optimal_x():
    root = optimal_x_top3()
    assert root.x_star == pytest.approx(0.2599716, abs=1e-6)
    assert root.value_at_root == pytest.approx(0.5947294, abs=1e-6)
    assert abs(root.residual) <= 1e-9
    assert abs(top3_limit_derivative(root.x_star)) <= 1e-9
    # the root is a maximum, not just a stationary point
    assert root.value_at_root > top3_limit(root.x_star + 0.05)
    assert root.value_at_root > top3_limit(root.x_star - 0.05)
