"""Closed-form area, cost, and pressure bounds."""

import math

import numpy as np
import pytest

from foambounds import (
    CostInput,
    PressureInput,
    a0,
    compact_foam_bounds,
    cost_lower_bound,
    kelvin_cell_bound,
    main_theorem_bound,
    pressure_lower_bound,
)
from foambounds.geometry import (
    ARCCOS_THIRD,
    THETA_EDGE,
    THETA_FACE,
    THETA_V_PI,
    THETA_VERTEX,
)


def test_density_constants():
    assert THETA_VERTEX == pytest.approx(3.0 * math.acos(-1.0 / 3.0) / math.pi, rel=1e-15)
    assert THETA_VERTEX == pytest.approx(1.8245203, abs=1e-6)
    assert THETA_EDGE == 1.5
    assert THETA_FACE == 1.0


def test_main_bound_flat_face_disc():
    assert main_theorem_bound(1.0, 0.0, 1.0) == pytest.approx(math.pi, rel=1e-15)


def test_main_bound_sphere_never_exceeds_true_cap_area():
    # For a round sphere of radius rho, the disc of chord radius R has area
    # pi R^2 when R <= 2 rho; the bound pi R^2 exp(-2R/rho) must sit below.
    rho = 1.0
    for r in np.linspace(0.05, 2.0 * rho, 40):
        bound = main_theorem_bound(1.0, 1.0 / rho, float(r))
        assert bound == pytest.approx(math.pi * r * r * math.exp(-2.0 * r / rho), rel=1e-12)
        assert bound <= math.pi * r * r + 1e-12


def test_main_bound_vertex_half_radius():
    value = main_theorem_bound(THETA_VERTEX, 0.0, 0.5)
    assert value == pytest.approx(THETA_V_PI / 4.0, rel=1e-12)
    assert value == pytest.approx(1.432975, abs=1e-6)


def test_main_bound_monotone_up_to_r_max():
    h = 2.0
    rs = np.linspace(1e-3, 1.0 / h, 50)
    vals = [main_theorem_bound(1.0, h, float(r)) for r in rs]
    assert np.all(np.diff(vals) > 0)
    beyond = np.linspace(1.0 / h, 3.0 / h, 50)
    vals = [main_theorem_bound(1.0, h, float(r)) for r in beyond]
    assert np.all(np.diff(vals) < 0)


def test_main_bound_validation():
    with pytest.raises(ValueError):
        main_theorem_bound(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        main_theorem_bound(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        main_theorem_bound(0.0, 0.0, 1.0)


def test_a0_values():
    assert a0(2.0) == pytest.approx(THETA_V_PI, rel=1e-12)
    assert a0(2.0) == pytest.approx(5.731900, abs=1e-6)
    assert a0(1.0, theta=1.0) == pytest.approx(math.pi / 4.0, rel=1e-15)
    assert a0(1e-12) < 1e-20  # vanishes with separation
    with pytest.raises(ValueError):
        a0(0.0)


@pytest.mark.parametrize("theta", [float("nan"), -1.0, 0.0, -math.inf])
def test_a0_rejects_theta_not_positive(theta):
    with pytest.raises(ValueError, match="theta"):
        a0(2.0, theta)


def test_compact_foam_double_bubble():
    r2 = 1.0
    result = compact_foam_bounds(1.5, 1.0 / r2)
    assert result.r_max_lower == pytest.approx(r2)
    assert result.area_lower == pytest.approx(3.0 * math.pi / (2.0 * math.e ** 2), rel=1e-12)
    assert result.area_lower == pytest.approx(0.637752, abs=1e-6)


def test_compact_foam_sphere_bound_below_true_area():
    radius = 2.5
    result = compact_foam_bounds(1.0, 1.0 / radius)
    assert result.area_lower == pytest.approx(math.pi * radius ** 2 / math.e ** 2, rel=1e-12)
    assert result.area_lower <= 4.0 * math.pi * radius ** 2


def test_compact_foam_vertex_theta():
    result = compact_foam_bounds(THETA_VERTEX, 1.0)
    assert result.area_lower == pytest.approx(THETA_V_PI / math.e ** 2, rel=1e-12)
    assert result.area_lower == pytest.approx(0.775729, abs=1e-6)


def test_compact_foam_rejects_minimal():
    with pytest.raises(ValueError):
        compact_foam_bounds(1.0, 0.0)


def test_kelvin_unit_edge():
    result = kelvin_cell_bound(1.0)
    assert result.hex_face_discs == pytest.approx(math.pi, rel=1e-12)
    assert result.vertex_discs == pytest.approx(4.5 * ARCCOS_THIRD, rel=1e-12)
    assert result.square_face_rest == pytest.approx(3.0 - 0.75 * math.pi, rel=1e-12)
    assert result.total == pytest.approx(12.38325, abs=1e-3)


def test_kelvin_quadratic_scaling():
    assert kelvin_cell_bound(2.0).total == pytest.approx(
        4.0 * kelvin_cell_bound(1.0).total, rel=1e-12
    )
    assert kelvin_cell_bound(2.0).total == pytest.approx(49.53302, abs=4e-3)


def test_kelvin_below_slicing_bound():
    slicing = 6.0 * (math.sqrt(1.5) + 1.0)
    assert slicing == pytest.approx(13.3485, abs=1e-3)
    assert kelvin_cell_bound(1.0).total < slicing


def test_kelvin_symbolic_identity():
    result = kelvin_cell_bound(1.0)
    symbolic = math.pi + 4.5 * ARCCOS_THIRD + 3.0 - 0.75 * math.pi
    assert abs(result.total - symbolic) <= 1e-12


def test_cost_bound_reference_point():
    data = CostInput(n=1, v=1, volume=1.0, d=2.0)
    value = cost_lower_bound(data)
    assert value == pytest.approx(THETA_V_PI ** 3, rel=1e-12)
    assert value == pytest.approx(188.3197, abs=1e-3)


def test_cost_bound_periodic_factor():
    data = CostInput(n=1, v=1, volume=1.0, d=2.0)
    assert cost_lower_bound(data, periodic=True) == pytest.approx(
        24.0 * cost_lower_bound(data), rel=1e-12
    )
    # A foam already above 24 vertices per cell keeps its own count.
    rich = CostInput(n=1, v=30, volume=1.0, d=2.0)
    assert cost_lower_bound(rich, periodic=True) == pytest.approx(
        cost_lower_bound(rich), rel=1e-12
    )


def test_cost_bound_vanishes_with_separation():
    data = CostInput(n=2, v=40, volume=5.0, d=1e-8)
    assert cost_lower_bound(data) < 1e-40


def test_cost_bound_scale_invariance():
    for lam in (0.5, 3.0):
        base = CostInput(n=3, v=50, volume=7.0, d=0.4)
        scaled = CostInput(n=3, v=50, volume=7.0 * lam ** 3, d=0.4 * lam)
        assert cost_lower_bound(scaled) == pytest.approx(
            cost_lower_bound(base), rel=1e-9
        )


def test_pressure_bound_reference_point():
    data = PressureInput(p_ext=0.0, sigma=1.0, vertex_density=1.0, d=2.0)
    value = pressure_lower_bound(data)
    assert value == pytest.approx(1.5 * THETA_V_PI, rel=1e-12)
    assert value == pytest.approx(8.597850, abs=1e-6)
    assert value == pytest.approx(4.5 * ARCCOS_THIRD, rel=1e-12)


def test_pressure_bound_limits():
    base = PressureInput(p_ext=2.0, sigma=1e-12, vertex_density=1.0, d=1.0)
    assert pressure_lower_bound(base) == pytest.approx(2.0, abs=1e-11)
    lo = PressureInput(p_ext=1.0, sigma=0.5, vertex_density=1.0, d=1.0)
    hi = PressureInput(p_ext=1.0, sigma=0.5, vertex_density=2.0, d=1.0)
    assert pressure_lower_bound(hi) - 1.0 == pytest.approx(
        2.0 * (pressure_lower_bound(lo) - 1.0), rel=1e-12
    )


def test_area_bounds_scale_as_length_squared():
    for lam in (0.5, 3.0):
        assert main_theorem_bound(1.5, 0.2 / lam, 2.0 * lam) == pytest.approx(
            lam ** 2 * main_theorem_bound(1.5, 0.2, 2.0), rel=1e-9
        )
        assert a0(2.0 * lam) == pytest.approx(lam ** 2 * a0(2.0), rel=1e-12)
        assert kelvin_cell_bound(lam).total == pytest.approx(
            lam ** 2 * kelvin_cell_bound(1.0).total, rel=1e-12
        )


def test_input_validation():
    with pytest.raises(ValueError):
        CostInput(n=0, v=1, volume=1.0, d=1.0)
    with pytest.raises(ValueError):
        CostInput(n=1, v=1, volume=-1.0, d=1.0)
    with pytest.raises(ValueError):
        PressureInput(p_ext=0.0, sigma=0.0, vertex_density=1.0, d=1.0)
