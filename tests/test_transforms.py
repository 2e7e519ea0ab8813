"""Surface/field conversions and the derivative-transformation checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from trafficlab import (DomainError, EulerianField, ParameterError,
                        SpatialGrid, TrajectorySurface, lagrangian_derivatives,
                        to_eulerian, to_trajectories, traveling_wave_surface,
                        verify_transform_identities)
from trafficlab.transforms import (TRANSFORM_IDENTITY_ROWS, LagrangianDerivatives,
                                   cumulative_count)

from conftest import assert_bits_equal


def uniform_surface(n_steps=4, n_veh=41, s0=25.0, v0=10.0, dt=1.0, lead_x=1000.0):
    t = dt * np.arange(n_steps)[:, None]
    n = np.arange(n_veh)[None, :]
    return TrajectorySurface(t0=0.0, dt=dt, positions=lead_x + v0 * t - s0 * n)


def identity_level_case(r):
    """Wavy surface and grid of the r-th joint refinement (criterion 09)."""
    scale = 2 ** r
    n_veh = 40 * scale
    s0, v0, eps = 20.0, 8.0, 6.0
    alpha = 2 * math.pi / (20.0 * scale)
    beta = 2 * math.pi / 24.0 / scale
    surf = traveling_wave_surface(n_veh, 9, 0.4, v0, s0, eps, alpha, beta)
    dx = 25.0  # at least one spacing per cell: averages stay smooth
    span = s0 * n_veh + 60.0
    return surf, SpatialGrid(-s0 * n_veh - 30.0, dx, int(math.ceil(span / dx)))


def identity_row_levels(levels=3):
    """Residuals of the identity rows at successive joint refinements."""
    return [verify_transform_identities(*identity_level_case(r)) for r in range(levels)]


class TestSurfaceValidation:
    @pytest.mark.parametrize("x0, dx, cells", [
        (0.0, math.nan, 10), (0.0, math.inf, 10), (0.0, 0.0, 10), (0.0, 1.0, 0),
        (math.nan, 1.0, 10), (-math.inf, 1.0, 10)])
    def test_grid_refuses_non_finite_or_empty_sizes(self, x0, dx, cells):
        with pytest.raises(ParameterError):
            SpatialGrid(x0, dx, cells)

    @pytest.mark.parametrize("make", [
        lambda: TrajectorySurface(t0=0.0, dt=math.nan, positions=np.zeros((1, 1))),
        lambda: EulerianField(x0=0.0, dx=math.nan, t0=0.0, dt=1.0,
                              density=np.zeros((1, 1)), speed=np.zeros((1, 1))),
        lambda: EulerianField(x0=0.0, dx=1.0, t0=0.0, dt=math.nan,
                              density=np.zeros((1, 1)), speed=np.zeros((1, 1))),
    ], ids=["surface-dt", "field-dx", "field-dt"])
    def test_nan_step_refused(self, make):
        with pytest.raises(ParameterError, match="must be > 0"):
            make()

    def test_collision_rejected(self):
        x = np.array([[0.0, -10.0], [0.0, 0.5]])
        with pytest.raises(ParameterError):
            TrajectorySurface(t0=0.0, dt=1.0, positions=x)

    def test_ring_gaps_checked(self):
        x = np.array([[30.0, 20.0, 10.0]])
        TrajectorySurface(t0=0.0, dt=1.0, positions=x, ring_length=40.0)
        with pytest.raises(ParameterError):
            # consecutive gaps alone exceed this circumference
            TrajectorySurface(t0=0.0, dt=1.0, positions=x, ring_length=15.0)

    def test_speed_matrix_differences(self):
        surf = uniform_surface()
        np.testing.assert_allclose(surf.speed_matrix(), 10.0, rtol=1e-12)


class TestLagrangianDerivatives:
    def test_uniform_platoon(self):
        d = lagrangian_derivatives(uniform_surface(), 1, 3)
        assert d.X_t == pytest.approx(10.0, abs=1e-9)
        assert d.X_N == -25.0
        assert d.X_tN == 0.0
        assert d.X_NN == 0.0
        assert d.X_tt == 0.0

    def test_quadratic_in_vehicle_index(self):
        c = 0.3
        n = np.arange(8)
        x = np.tile(-20.0 * n - c * n**2, (3, 1))
        d = lagrangian_derivatives(TrajectorySurface(t0=0, dt=1.0, positions=x), 1, 4)
        assert d.X_NN == pytest.approx(-2 * c, abs=1e-12)

    def test_leading_vehicle_has_no_curvature(self):
        d = lagrangian_derivatives(uniform_surface(), 1, 1)
        assert math.isnan(d.X_NN)

    def test_bounds(self):
        surf = uniform_surface()
        with pytest.raises(DomainError):
            lagrangian_derivatives(surf, 0, 2)
        with pytest.raises(DomainError):
            lagrangian_derivatives(surf, 1, 0)

    def test_array_arguments_match_per_sample_reference(self):
        surf = traveling_wave_surface(12, 6, 0.5, 8.0, 20.0, 3.0, 0.3, 0.2)
        step, n = np.meshgrid(np.arange(1, 5), np.arange(1, 12), indexing="ij")
        d = lagrangian_derivatives(surf, step, n)
        for name in ("X_t", "X_N", "X_tN", "X_NN", "X_tt"):
            expected = [[getattr(reference_lagrangian_derivatives(surf, s, m), name)
                         for m in range(1, 12)] for s in range(1, 5)]
            np.testing.assert_array_equal(getattr(d, name), expected)  # NaN at n == 1
            assert getattr(lagrangian_derivatives(surf, 3, 7), name) == expected[2][6]
        with pytest.raises(DomainError):
            lagrangian_derivatives(surf, step, n + 1)  # reaches vehicle 12 of 0..11
        with pytest.raises(DomainError):
            lagrangian_derivatives(surf, step + 1, n)  # reaches the last step


class TestToEulerian:
    def test_uniform_density(self):
        surf = uniform_surface()
        field = to_eulerian(surf, SpatialGrid(-100.0, 10.0, 115))
        covered = ~np.isnan(field.speed)
        assert np.allclose(field.density[covered.nonzero()[0][0]][covered[0]], 0.04)
        assert np.allclose(field.speed[covered], 10.0)

    def test_two_speed_platoon_densities(self):
        pos = [2000.0]
        for _ in range(20):
            pos.append(pos[-1] - 20.0)
        for _ in range(20):
            pos.append(pos[-1] - 40.0)
        surf = TrajectorySurface(t0=0, dt=1.0,
                                 positions=np.tile(pos, (2, 1)) + [[0.0], [1.0]])
        field = to_eulerian(surf, SpatialGrid(0.0, 20.0, 100))
        k = field.density[0]
        assert k[85] == pytest.approx(0.05)
        assert k[65] == pytest.approx(0.025)
        # exactly one transition cell between the two plateaus
        interior = k[(k > 0.026) & (k < 0.049)]
        assert interior.size <= 1

    def test_vehicle_conservation(self):
        surf = uniform_surface()
        field = to_eulerian(surf, SpatialGrid(-200.0, 7.0, 200))
        total = np.sum(field.density[0]) * 7.0
        assert abs(total - (surf.n_vehicles - 1)) <= 1.0

    def test_empty_cells_marked(self):
        surf = uniform_surface(n_veh=3, lead_x=50.0)
        field = to_eulerian(surf, SpatialGrid(-500.0, 10.0, 100))
        assert np.isnan(field.speed[0, 0])
        assert field.density[0, 0] == 0.0

    def test_ring_covers_whole_circumference(self):
        n, L = 20, 400.0
        x = (L - 20.0 * np.arange(n))[None, :]
        surf = TrajectorySurface(t0=0, dt=1.0, positions=x,
                                 speeds=np.full((1, n), 5.0), ring_length=L)
        field = to_eulerian(surf, SpatialGrid(0.0, 10.0, 40))
        np.testing.assert_allclose(field.density[0], 0.05, rtol=1e-12)
        np.testing.assert_allclose(field.speed[0], 5.0, rtol=1e-12)


class TestToTrajectories:
    def test_uniform_density_inverts_to_even_spacing(self):
        k = np.full((1, 100), 0.04)
        field = EulerianField(x0=0.0, dx=10.0, t0=0.0, dt=1.0, density=k,
                              speed=np.zeros_like(k))
        surf = to_trajectories(field, 30)
        np.testing.assert_allclose(-np.diff(surf.positions[0]), 25.0, rtol=1e-9)

    def test_step_density_inverts_to_two_spacings(self):
        k = np.concatenate([np.full(50, 0.05), np.full(50, 0.025)])[None, :]
        field = EulerianField(x0=0.0, dx=10.0, t0=0.0, dt=1.0, density=k,
                              speed=np.zeros_like(k))
        surf = to_trajectories(field, 36)
        spacing = -np.diff(surf.positions[0])
        assert spacing[0] == pytest.approx(40.0, rel=1e-9)   # downstream, sparse
        assert spacing[-1] == pytest.approx(20.0, rel=1e-9)  # upstream, dense

    def test_round_trip(self):
        wave = traveling_wave_surface(60, 5, 0.5, v0=5.0, s0=12.0, eps=2.0,
                                      alpha=0.3, beta=0.4)
        grid = SpatialGrid(-800.0, 4.0, 220)
        field = to_eulerian(wave, grid)
        back = to_trajectories(field, 60, seed_positions=wave.positions[0])
        assert np.max(np.abs(back.positions - wave.positions)) <= grid.dx

    def test_too_many_vehicles_rejected(self):
        k = np.full((1, 10), 0.04)
        field = EulerianField(x0=0.0, dx=10.0, t0=0.0, dt=1.0, density=k,
                              speed=np.zeros_like(k))
        with pytest.raises(DomainError):
            to_trajectories(field, 10)

    def test_cumulative_count_decreases_downstream(self):
        k = np.full((1, 10), 0.05)
        field = EulerianField(x0=0.0, dx=10.0, t0=0.0, dt=1.0, density=k,
                              speed=np.zeros_like(k))
        edges, counts = cumulative_count(field, 0)
        assert counts[0] == pytest.approx(5.0)
        assert counts[-1] == 0.0
        assert np.all(np.diff(counts) <= 0)


def reference_lagrangian_derivatives(surface, step, n):
    """The one-sample derivatives that the array form replaced, kept as its reference."""
    x = surface.positions
    last = surface.n_steps - 1
    if not 1 <= n <= surface.n_vehicles - 1:
        raise DomainError(f"vehicle index {n} needs a leader (1 <= n <= {surface.n_vehicles - 1})")
    if not 1 <= step <= last - 1:
        raise DomainError(f"step {step} outside central-difference range [1, {last - 1}]")
    dt = surface.dt
    x_n = x[:, n]
    x_lead = x[:, n - 1]
    X_N = x_n[step] - x_lead[step]
    X_t = (x_n[step + 1] - x_n[step - 1]) / (2 * dt)
    X_tt = (x_n[step + 1] - 2 * x_n[step] + x_n[step - 1]) / dt**2
    xn_diff = x_n - x_lead
    X_tN = (xn_diff[step + 1] - xn_diff[step - 1]) / (2 * dt)
    if n >= 2:
        X_NN = x_n[step] + x[step, n - 2] - 2 * x_lead[step]
    else:
        X_NN = math.nan
    return LagrangianDerivatives(X_t=X_t, X_N=X_N, X_tN=X_tN, X_NN=X_NN, X_tt=X_tt)


def _sample_linear(values, x, x0, dx):
    """Linear interpolation over cell centers; NaN near undefined cells."""
    pos = (x - x0) / dx - 0.5
    i0 = int(math.floor(pos))
    if i0 < 0 or i0 + 1 >= values.shape[0]:
        return math.nan
    w = pos - i0
    return (1.0 - w) * values[i0] + w * values[i0 + 1]


def reference_verify_transform_identities(surface, grid):
    """The per-sample identity loop that the array form replaced, kept as its
    reference."""
    field = to_eulerian(surface, grid)
    k = field.density.copy()
    v = field.speed
    k[np.isnan(v)] = math.nan  # exclude uncovered cells from differencing
    for row in range(k.shape[0]):
        covered = np.flatnonzero(np.isfinite(k[row]))
        if covered.size and covered.size < k.shape[1]:
            # Outermost covered cells are only partially covered by the
            # platoon; their averages are biased and would poison gradients.
            k[row, covered[0]] = math.nan
            k[row, covered[-1]] = math.nan
    dx, dt = field.dx, surface.dt
    k_x = np.gradient(k, dx, axis=1)
    k_t = np.gradient(k, dt, axis=0)
    v_x = np.gradient(v, dx, axis=1)
    v_t = np.gradient(v, dt, axis=0)

    residuals = {row: 0.0 for row in TRANSFORM_IDENTITY_ROWS}
    samples = 0
    margin = 2.5 * dx
    x_lo, x_hi = field.x0 + margin, field.x0 + grid.span - margin
    x = surface.positions
    for step in range(1, surface.n_steps - 1):
        for n in range(2, surface.n_vehicles - 1):
            pos = x[step, n]
            if not x_lo <= pos <= x_hi:
                continue
            lp = reference_lagrangian_derivatives(surface, step, n)
            es = {name: _sample_linear(arr[step], pos, field.x0, dx)
                  for name, arr in (("k", k), ("v", v), ("k_x", k_x),
                                    ("k_t", k_t), ("v_x", v_x), ("v_t", v_t))}
            if any(math.isnan(val) for val in es.values()):
                continue
            samples += 1
            pairs = {
                "density": (es["k"], -1.0 / lp.X_N),
                "speed": (es["v"], lp.X_t),
                "flow": (es["k"] * es["v"], -lp.X_t / lp.X_N),
                "speed_rate": (es["v_t"], lp.X_tt - lp.X_t / lp.X_N * lp.X_tN),
                "speed_gradient": (es["v_x"], lp.X_tN / lp.X_N),
                "density_rate": (es["k_t"],
                                 (lp.X_tN * lp.X_N - lp.X_t * lp.X_NN) / lp.X_N**3),
                "density_gradient": (es["k_x"], lp.X_NN / lp.X_N**3),
                "acceleration": (es["v_t"] + es["v"] * es["v_x"], lp.X_tt),
                "speed_difference": (-es["v_x"] / es["k"], lp.X_tN),
                "spacing_difference": (-es["k_x"] / es["k"] ** 3, lp.X_NN),
            }
            for row, (lhs, rhs) in pairs.items():
                residuals[row] = max(residuals[row], abs(lhs - rhs))
    if samples == 0:
        raise DomainError("no interior samples: grid does not cover the platoon")
    return residuals


@st.composite
def wave_cases(draw):
    """A traveling-wave surface and a grid around it, of any cell width."""
    n, steps = draw(st.integers(3, 60)), draw(st.integers(3, 12))
    v0, s0 = draw(st.floats(2.0, 25.0)), draw(st.floats(8.0, 40.0))
    alpha, beta = draw(st.floats(0.05, 1.5)), draw(st.floats(0.05, 1.5))
    # eps * alpha < s0 and eps * beta < v0 keep the surface valid
    eps = draw(st.floats(0.0, 0.9)) * min(s0 / alpha, v0 / beta)
    surface = traveling_wave_surface(n, steps, draw(st.floats(0.05, 1.0)), v0, s0, eps,
                                     alpha, beta)
    dx = draw(st.floats(0.3, 3.0)) * s0
    x0 = surface.positions.min() - draw(st.floats(0.0, 6.0)) * dx
    cells = math.ceil((surface.positions.max() - x0) / dx) + draw(st.integers(0, 6))
    return surface, SpatialGrid(x0, dx, cells)


class TestTransformIdentities:
    def test_linear_surface_residuals_vanish(self):
        surf = uniform_surface(n_steps=5, n_veh=30, s0=20.0, v0=9.0, dt=0.5,
                               lead_x=0.0)
        res = verify_transform_identities(surf, SpatialGrid(-620.0, 25.0, 26))
        for row, value in res.items():
            assert value <= 1e-9, row

    def test_all_rows_present(self):
        surf = uniform_surface(n_steps=5, n_veh=30, s0=20.0, v0=9.0, dt=0.5,
                               lead_x=0.0)
        res = verify_transform_identities(surf, SpatialGrid(-620.0, 25.0, 26))
        assert set(res) == set(TRANSFORM_IDENTITY_ROWS)

    def test_residuals_converge_at_first_order(self):
        r0, r1 = identity_row_levels(2)
        for row in TRANSFORM_IDENTITY_ROWS:
            order = math.log2(r0[row] / r1[row])
            assert order >= 1.0, (row, order)

    @pytest.mark.parametrize("surf, grid", [
        pytest.param(traveling_wave_surface(3, 4, 0.5, 8.0, 20.0, 2.0, 0.5, beta=0.2),
                     SpatialGrid(-16.0, 24.0, 1), id="one-cell"),
        pytest.param(traveling_wave_surface(30, 1, 0.5, 8.0, 20.0, 2.0, 0.5, beta=0.2),
                     SpatialGrid(-620.0, 25.0, 26), id="one-time-step"),
    ])
    def test_too_few_samples_for_gradients(self, surf, grid):
        with pytest.raises(DomainError, match="two time samples and two cells"):
            verify_transform_identities(surf, grid)

    @pytest.mark.parametrize("level", range(3))
    def test_residuals_equal_per_sample_reference(self, level):
        surf, grid = identity_level_case(level)
        assert (verify_transform_identities(surf, grid)
                == reference_verify_transform_identities(surf, grid))


@given(case=wave_cases())
@settings(max_examples=150, deadline=None)
def test_identity_residuals_match_per_sample_reference(case):
    """Equal up to the last digits: ``k ** 3`` of an array and of a scalar may
    round apart by one ulp (seen in spacing_difference)."""
    surface, grid = case
    try:
        expected = reference_verify_transform_identities(surface, grid)
    except ValueError:  # the reference ends in NumPy's error on a one-cell grid
        with pytest.raises(DomainError):
            verify_transform_identities(surface, grid)
        return
    assert (verify_transform_identities(surface, grid)
            == pytest.approx(expected, rel=1e-12, abs=0.0))


@given(v0=st.floats(min_value=2.0, max_value=25.0),
       s0=st.floats(min_value=8.0, max_value=40.0),
       rel=st.floats(min_value=0.0, max_value=0.15))
@settings(max_examples=25, deadline=None)
def test_round_trip_spacing_recovery(v0, s0, rel):
    """Reconstructed spacing stays within one cell of the original."""
    # bounds keep eps*alpha < s0 and eps*beta < v0, the surface's validity domain
    n = 30
    eps, alpha = rel * s0, 0.5
    surf = traveling_wave_surface(n, 3, 0.1, v0, s0, eps, alpha, beta=0.2)
    dx = s0 / 2
    grid = SpatialGrid(-s0 * n - 3 * dx, dx, 2 * n + 12)
    back = to_trajectories(to_eulerian(surf, grid), n,
                           seed_positions=surf.positions[0])
    assert np.max(np.abs(back.positions - surf.positions)) <= dx + 1e-9


def _deposit(mass, flow_mass, lo, hi, k_pair, v_pair, grid):
    x_end = grid.x0 + grid.span
    if hi <= grid.x0 or lo >= x_end:
        return
    j_lo = max(int(math.floor((lo - grid.x0) / grid.dx)), 0)
    j_hi = min(int(math.ceil((hi - grid.x0) / grid.dx)), grid.cells)
    if j_hi <= j_lo:
        return
    edges = grid.x0 + grid.dx * np.arange(j_lo, j_hi + 1)
    overlap = np.minimum(hi, edges[1:]) - np.maximum(lo, edges[:-1])
    overlap = np.maximum(overlap, 0.0)
    mass[j_lo:j_hi] += k_pair * overlap
    flow_mass[j_lo:j_hi] += k_pair * v_pair * overlap


def reference_to_eulerian(surface, grid):
    """(density, speed) by depositing each vehicle pair's segment separately.

    The pair-by-pair construction that ``to_eulerian`` replaced; kept here
    as the reference that the cumulative count is pinned against.
    """
    ring = surface.ring_length
    x = surface.positions
    speeds = surface.speed_matrix()
    density = np.zeros((surface.n_steps, grid.cells))
    speed = np.full((surface.n_steps, grid.cells), math.nan)
    for t in range(surface.n_steps):
        mass = np.zeros(grid.cells)
        flow_mass = np.zeros(grid.cells)
        hi_all = x[t, :-1]
        lo_all = x[t, 1:]
        v_all = speeds[t, 1:]  # each pair moves at its trailing vehicle's speed
        gaps = hi_all - lo_all
        if ring is not None:
            gaps = np.mod(gaps, ring)
        pairs = [(lo_all[i], gaps[i], v_all[i]) for i in range(len(gaps))]
        if ring is not None:
            gap0 = (x[t, -1] + ring - x[t, 0]) % ring or ring
            pairs.append((x[t, 0], gap0, speeds[t, 0]))
        for lo, gap, v_pair in pairs:
            k_pair = 1.0 / gap
            if ring is not None:
                lo = grid.x0 + (lo - grid.x0) % ring
                if lo + gap > grid.x0 + ring:
                    _deposit(mass, flow_mass, lo, grid.x0 + ring, k_pair, v_pair, grid)
                    _deposit(mass, flow_mass, grid.x0, lo + gap - ring, k_pair,
                             v_pair, grid)
                    continue
            _deposit(mass, flow_mass, lo, lo + gap, k_pair, v_pair, grid)
        density[t] = mass / grid.dx
        covered = mass > 0.0
        speed[t, covered] = flow_mass[covered] / mass[covered]
    return density, speed


LATTICE = 0.25  # m


@st.composite
def lattice_platoon(draw):
    """Gaps, positions and speeds of up to 3 rows of 2-30 vehicles.

    Each row permutes one set of spacings (5-40 m, so a ring keeps its
    length) behind its own lead position, on a quarter-metre lattice.
    """
    n = draw(st.integers(2, 30))
    quarters = draw(st.lists(st.integers(20, 160), min_size=n, max_size=n))
    rows = draw(st.lists(st.permutations(quarters), min_size=1, max_size=3))
    gaps = LATTICE * np.array(rows, dtype=float)
    lead = LATTICE * np.array(draw(st.lists(st.integers(-2000, 2000),
                                            min_size=len(rows), max_size=len(rows))))
    x = lead[:, None] - np.cumsum(gaps, axis=1) + gaps[:, :1]
    return gaps, x, draw(hnp.arrays(float, x.shape, elements=st.floats(1.0, 30.0)))


@st.composite
def platoon_and_grid(draw):
    """An open-road or ring ``lattice_platoon`` and a grid for it.

    The grid origin and the open-road dx lie on the quarter-metre lattice.
    """
    ring = draw(st.booleans())
    gaps, x, v = draw(lattice_platoon())
    if ring:
        length = float(np.sum(gaps[0]))
        cells = draw(st.integers(1, min(200, int(length / LATTICE))))
        x0 = LATTICE * draw(st.integers(-2000, 2000))
        grid = SpatialGrid(x0, length / cells, cells)
        surface = TrajectorySurface(t0=0.0, dt=1.0, positions=x, speeds=v,
                                    ring_length=length)
    else:
        x0 = x.min() + LATTICE * draw(st.integers(-200, 200))
        grid = SpatialGrid(x0, LATTICE * draw(st.integers(1, 200)),
                           draw(st.integers(1, 300)))
        surface = TrajectorySurface(t0=0.0, dt=1.0, positions=x, speeds=v)
    return surface, grid


@given(case=platoon_and_grid())
@settings(max_examples=200, deadline=None)
def test_cumulative_count_matches_pair_deposit(case):
    """The cumulative count reproduces the pair-by-pair deposit.

    N and F carry an absolute rounding error of about one ulp of the row's
    vehicle count and summed pair speeds, where the reference keeps relative
    digits in every cell. The draws keep that below the speed tolerance:
    the lattice leaves no sliver overlap, and speeds stay within 1-30 m/s.
    """
    surface, grid = case
    field = to_eulerian(surface, grid)
    density, speed = reference_to_eulerian(surface, grid)
    np.testing.assert_array_equal(np.isnan(field.speed), np.isnan(speed))
    np.testing.assert_allclose(field.density, density, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(field.speed, speed, rtol=1e-10)

    vehicles = field.density.sum(axis=1) * grid.dx
    n = surface.n_vehicles
    if surface.ring_length is not None:
        np.testing.assert_allclose(vehicles, n, rtol=1e-12)
    elif grid.x0 <= surface.positions.min() and grid.edges[-1] >= surface.positions.max():
        np.testing.assert_allclose(vehicles, n - 1, rtol=1e-12)


@st.composite
def open_platoon_and_covering_grid(draw):
    """An open-road ``lattice_platoon`` on a lattice grid that covers it."""
    _, x, v = draw(lattice_platoon())
    dx = LATTICE * draw(st.integers(1, 200))
    x0 = x.min() - LATTICE * draw(st.integers(0, 200))
    cells = math.ceil((x.max() - x0) / dx) + draw(st.integers(0, 20))
    return (TrajectorySurface(t0=0.0, dt=1.0, positions=x, speeds=v),
            SpatialGrid(x0, dx, max(cells, 1)))


@given(case=open_platoon_and_covering_grid())
@settings(max_examples=200, deadline=None)
def test_round_trip_conserves_vehicles(case):
    """to_eulerian holds the n - 1 vehicles between the n knots, and
    to_trajectories puts each vehicle back within one cell."""
    surface, grid = case
    field = to_eulerian(surface, grid)
    n = surface.n_vehicles
    np.testing.assert_allclose(field.density.sum(axis=1) * grid.dx, n - 1, rtol=1e-12)
    back = to_trajectories(field, n)
    assert np.max(np.abs(back.positions - surface.positions)) <= grid.dx


def diff_to_eulerian(surface, grid):
    """``to_eulerian`` with its per-row edge differences taken by ``np.diff``."""
    x = surface.positions
    v = surface.speed_matrix()
    ring = surface.ring_length
    if ring is not None:
        x = grid.x0 + np.mod(x - grid.x0, ring)
    order = np.argsort(x, axis=1)
    x = np.take_along_axis(x, order, axis=1)
    v = np.take_along_axis(v, order, axis=1)
    if ring is not None:
        x = np.hstack([x[:, -1:] - ring, x, x[:, :1] + ring])
        v = np.hstack([v[:, -1:], v, v[:, :1]])
    count = np.arange(x.shape[1], dtype=float)
    flow = np.cumsum(np.hstack([np.zeros_like(x[:, :1]), v[:, :-1]]), axis=1)
    mass = np.array([np.diff(np.interp(grid.edges, x[t], count))
                     for t in range(surface.n_steps)])
    flow_mass = np.array([np.diff(np.interp(grid.edges, x[t], flow[t]))
                          for t in range(surface.n_steps)])
    speed = np.divide(flow_mass, mass, out=np.full_like(mass, math.nan),
                      where=mass > 0.0)
    return mass / grid.dx, speed


@given(case=platoon_and_grid())
@settings(max_examples=150, deadline=None)
def test_to_eulerian_matches_np_diff_form_bitwise(case):
    """Ring and open-road surfaces give the bits of the ``np.diff`` form."""
    surface, grid = case
    field = to_eulerian(surface, grid)
    density, speed = diff_to_eulerian(surface, grid)
    assert_bits_equal(field.density, density)
    assert_bits_equal(field.speed, speed)


def per_row_to_trajectories(field, n_vehicles, seed_positions=None):
    """``to_trajectories`` with one ``cumulative_count`` call per row."""
    offset = 0.0
    if seed_positions is not None:
        edges0, counts0 = cumulative_count(field, 0)
        offset = float(np.interp(seed_positions[0], edges0, counts0))
    targets = np.arange(n_vehicles) + offset
    positions = np.empty((field.n_steps, n_vehicles))
    for t in range(field.n_steps):
        edges, counts = cumulative_count(field, t)
        if targets[-1] > counts[0] + 1e-6:
            raise DomainError(
                f"field holds {counts[0]:.3f} vehicles at step {t}, need {targets[-1]:.3f}")
        occupied = np.flatnonzero(field.density[t] > 0.0)
        if occupied.size == 0:
            raise DomainError(f"field is empty at step {t}")
        sl = slice(occupied[0], occupied[-1] + 2)
        step_targets = np.clip(targets, counts[sl][-1], counts[sl][0])
        positions[t] = np.interp(step_targets, counts[sl][::-1], edges[sl][::-1])
    return positions


@st.composite
def fields_to_invert(draw):
    """Small fields with empty cells and sometimes empty or under-filled rows,
    a vehicle count, and a seed position or none."""
    shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 12)))
    density = draw(hnp.arrays(float, shape, elements=st.one_of(
        st.just(0.0), st.floats(1e-6, 0.2))))
    x0, dx = draw(st.floats(-1e3, 1e3)), draw(st.floats(0.5, 50.0))
    field = EulerianField(x0=x0, dx=dx, t0=0.0, dt=1.0, density=density,
                          speed=np.ones(shape))
    span = dx * shape[1]
    seed = draw(st.none() | st.floats(x0 - span, x0 + 2 * span).map(lambda x: np.array([x])))
    return field, draw(st.integers(1, 6)), seed


@given(case=fields_to_invert())
@settings(max_examples=200, deadline=None)
def test_to_trajectories_matches_per_row_counts_bitwise(case):
    """One cumulative sum over the field gives each row's ``cumulative_count``
    bits, and an empty or under-filled row raises the same error at the same step."""
    field, n_vehicles, seed = case
    try:
        want = per_row_to_trajectories(field, n_vehicles, seed)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            to_trajectories(field, n_vehicles, seed)
        assert str(got.value) == str(exc)
        return
    assert_bits_equal(to_trajectories(field, n_vehicles, seed).positions, want)
