import math

import numpy as np
import pytest

from cathseg.spring import (ModelTable, OverDeflectionError,
                            SingularConfigurationError, SpringModelParams,
                            bracket_threshold, build_model_table, cut_at_depth,
                            export_table_csv, find_max_force, lookup,
                            simulate_backward, simulate_forward, solve_at_depth)


def scalar_recurrence_oracle(k_a, n_seg, seg_len, f0):
    """Independent re-implementation of the three forward recurrences with
    plain python floats; returns the tip (a, d)."""
    alpha_sum = [0.0]
    force = [f0]
    for _ in range(n_seg - 1):
        alpha = force[-1] / k_a
        alpha_sum.append(alpha_sum[-1] + alpha)
        force.append(force[-1] * math.cos(alpha_sum[-1]))
    a = d = 0.0
    for s in alpha_sum:
        a += seg_len * math.cos(s)
        d += seg_len * math.sin(s)
    return a, d


def test_zero_force_stays_on_axis(model):
    state = simulate_forward(model, 0.0)
    assert np.all(state.alpha == 0.0)
    assert np.all(state.force == 0.0)
    assert np.all(state.positions[:, 1] == 0.0)
    assert state.tip_position[0] == pytest.approx(model.total_length, abs=1e-9)


def test_forward_bends_and_foreshortens(model):
    state = simulate_forward(model, 100.0)
    assert state.tip_position[1] > 0.0
    assert state.tip_position[0] < model.total_length


def test_forward_matches_scalar_oracle(model):
    f0 = find_max_force(model) / 2.0
    a, d = scalar_recurrence_oracle(model.k_a, model.n_seg, model.seg_length, f0)
    state = simulate_forward(model, f0)
    assert state.tip_position[0] == pytest.approx(a, abs=1e-9)
    assert state.tip_position[1] == pytest.approx(d, abs=1e-9)


def test_forward_over_deflection_error(model):
    f_max = find_max_force(model)
    with pytest.raises(OverDeflectionError) as exc:
        simulate_forward(model, 10.0 * f_max)
    assert 0 < exc.value.segment < model.n_seg


def test_arc_length_is_conserved(model):
    for f0 in [0.0, 50.0, 400.0, 1000.0]:
        state = simulate_forward(model, f0)
        chords = np.linalg.norm(np.diff(state.positions, axis=0), axis=1)
        assert np.allclose(chords, model.seg_length, atol=1e-9)
        assert chords.sum() == pytest.approx(model.total_length, abs=1e-9)


def test_tip_deflection_monotone_in_force(model):
    f_max = find_max_force(model)
    forces = np.linspace(0.0, f_max, 40)
    tips = np.array([simulate_forward(model, f).tip_position for f in forces])
    assert np.all(np.diff(tips[:, 1]) > 0)     # d strictly increasing
    assert np.all(np.diff(tips[:, 0]) < 0)     # a strictly decreasing


def test_backward_straight_degenerate(model):
    state = simulate_backward(model, 0.0, 0.0, 10)
    assert np.all(state.alpha_sum == 0.0)
    assert np.all(state.force == 0.0)


def test_backward_reproduces_forward_in_reverse(model):
    fwd = simulate_forward(model, 321.0)
    bwd = simulate_backward(model, float(fwd.alpha_sum[-1]),
                            float(fwd.force[-1]), model.n_seg - 1)
    assert np.allclose(bwd.alpha_sum, fwd.alpha_sum[::-1], atol=1e-9)
    assert np.allclose(bwd.force, fwd.force[::-1], atol=1e-9)


def test_duality_over_random_parameter_pairs():
    rng = np.random.default_rng(99)
    for _ in range(25):
        params = SpringModelParams(k_a=float(rng.uniform(500, 5000)),
                                   n_seg=int(rng.integers(5, 30)),
                                   total_length=float(rng.uniform(50, 250)))
        f0 = float(rng.uniform(0.0, 0.8) * find_max_force(params))
        fwd = simulate_forward(params, f0)
        bwd = simulate_backward(params, float(fwd.alpha_sum[-1]),
                                float(fwd.force[-1]), params.n_seg - 1)
        assert np.allclose(bwd.alpha_sum, fwd.alpha_sum[::-1], atol=1e-9)


def test_backward_singular_configuration(model):
    with pytest.raises(SingularConfigurationError):
        simulate_backward(model, math.pi / 2 - 1e-9, 5e5, model.n_seg)


def test_backward_positions_march_proximally(model):
    fwd = simulate_forward(model, 200.0)
    bwd = simulate_backward(model, float(fwd.alpha_sum[-1]),
                            float(fwd.force[-1]), 5)
    assert np.all(np.diff(bwd.positions[:, 0]) < 0)
    chords = np.linalg.norm(np.diff(bwd.positions, axis=0), axis=1)
    assert np.allclose(chords, model.seg_length, atol=1e-9)


def test_find_max_force_respects_angle_cap(model):
    f_max = find_max_force(model)
    state = simulate_forward(model, f_max)
    assert np.max(np.abs(state.alpha_sum)) < math.radians(80.0)
    over = simulate_forward(model, f_max * 1.001)
    assert np.max(np.abs(over.alpha_sum)) >= math.radians(80.0) - 1e-6


def test_find_max_force_rejects_model_too_soft_for_any_force():
    """A spring so soft that even the smallest force the bisection tries
    bends it past the cap would sweep no deflection into the table."""
    with pytest.raises(RuntimeError, match="positive force"):
        find_max_force(SpringModelParams(k_a=1e-20))


def test_find_max_force_rejects_model_too_stiff_for_the_force_search():
    """A limit past 2**200 uN, where solve_at_depth stops doubling, is
    rejected; just below that ceiling, and for the default spring, it is not."""
    with pytest.raises(RuntimeError, match="too stiff"):
        find_max_force(SpringModelParams(k_a=1e308))
    assert find_max_force(SpringModelParams(k_a=2e60)) < 2.0 ** 200
    assert find_max_force(SpringModelParams()) < 2.0 ** 200


# ---------------------------------------------------------------------------
# model table
# ---------------------------------------------------------------------------

def test_bracket_threshold_ends_on_adjacent_floats():
    calls = []

    def below(f):
        calls.append(f)
        return f < 0.3

    lo, hi = bracket_threshold(below, 1e-3, 200)
    assert lo < 0.3 <= hi and hi == np.nextafter(lo, np.inf)
    assert len(calls) < 80            # stops long before its 200-step cap
    assert bracket_threshold(lambda f: True, 1.0, 60) is None


def test_table_resolution_and_ranges(model, table):
    assert table.f_grid.shape == (100, 100)
    assert table.alpha_grid.shape == (100, 100)
    assert table.a_range == (0.0, model.total_length)
    assert table.d_range[0] == 0.0
    assert table.d_range[1] > 0.0


def test_table_axis_row_is_zero_force(table):
    a_lo, a_hi = table.a_range
    for a in np.linspace(a_lo, a_hi, 17):
        res = lookup(table, float(a), 0.0)
        assert res.f_est == pytest.approx(0.0, abs=1e-9)


def test_table_monotone_in_deflection(table):
    assert np.all(np.diff(table.f_grid, axis=1) >= -1e-12)


def test_lookup_at_node_is_exact(table):
    for i, j in [(10, 10), (50, 3), (99, 99), (0, 0)]:
        res = lookup(table, float(table.a_nodes[i]), float(table.d_nodes[j]))
        assert res.f_est == pytest.approx(float(table.f_grid[i, j]), abs=1e-12)
        assert res.alpha_sum_est == pytest.approx(float(table.alpha_grid[i, j]),
                                                  abs=1e-12)
        assert not res.clamped


def test_lookup_midpoint_linearity(table):
    i, j = 40, 20
    a_mid = 0.5 * (table.a_nodes[i] + table.a_nodes[i + 1])
    res = lookup(table, float(a_mid), float(table.d_nodes[j]))
    expected = 0.5 * (table.f_grid[i, j] + table.f_grid[i + 1, j])
    assert res.f_est == pytest.approx(float(expected), abs=1e-12)


def test_lookup_out_of_range_clamps_and_flags(table):
    res = lookup(table, 50.0, table.d_range[1] + 100.0)
    assert res.clamped
    inside = lookup(table, 50.0, table.d_range[1])
    assert res.f_est == pytest.approx(inside.f_est, abs=1e-12)
    assert not inside.clamped


def test_tip_inversion_recovers_force(model, table):
    """Looking up a forward-simulated tip recovers the generating force."""
    for frac in np.linspace(0.1, 0.9, 20):
        f0 = float(frac * table.f_max)
        tip = simulate_forward(model, f0).tip_position
        res = lookup(table, float(tip[0]), float(tip[1]))
        assert abs(res.f_est - f0) / f0 < 0.05


def test_table_nodes_hold_the_force_that_deflects_there(model, table):
    """Every reachable node, with an offset below the largest that any sweep
    catheter reaching its depth has there, holds within 1e-3 relative the
    force that ``force_for_deflection`` bisects for it.  That force is the
    threshold of the bisection's predicate, so the check is that the
    catheter at 0.1 % less force stops short of the node and the one at
    0.1 % more does not: two forward runs per node instead of ~70."""
    def short(f, a, d):          # force_for_deflection's bisection predicate
        cut = cut_at_depth(model, f, a)
        return cut is not None and cut[-1, 1] < d

    sweep = [simulate_forward(model, float(f)).positions
             for f in np.linspace(0.0, table.f_max, 200)]
    checked = 0
    for i, a in enumerate(table.a_nodes[1:], start=1):
        reach = max((np.interp(a, pos[:, 0], pos[:, 1]) for pos in sweep
                     if pos[-1, 0] >= a), default=0.0)
        for j, d in enumerate(table.d_nodes[1:], start=1):
            if d < reach:
                f = float(table.f_grid[i, j])
                assert short(f * (1 - 1e-3), a, d) and not short(f * (1 + 1e-3), a, d)
                checked += 1
    assert checked > 5000


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_tip_inversion_within_half_percent(seed):
    """Tips of the sweep's own catheters read back their force to 0.5 %, on
    the default model (seed None) and on random spring models."""
    params = SpringModelParams()
    if seed is not None:
        rng = np.random.default_rng(seed)
        params = SpringModelParams(k_a=float(rng.uniform(500, 5000)),
                                   n_seg=int(rng.integers(5, 30)),
                                   total_length=float(rng.uniform(50, 250)))
    table = build_model_table(params)
    for frac in np.linspace(0.1, 0.9, 20):
        f0 = float(frac * table.f_max)
        tip = simulate_forward(params, f0).tip_position
        res = lookup(table, float(tip[0]), float(tip[1]))
        assert abs(res.f_est - f0) / f0 < 0.005


def test_solve_at_depth_rejects_a_spring_too_stiff_to_bend():
    """No force the bisection reaches bends such a spring: the search says
    so instead of unpacking a bracket it never found."""
    with pytest.raises(ValueError, match="too stiff"):
        solve_at_depth(SpringModelParams(k_a=1e308), 80.0, lambda cut: cut[-1, 1] < 5.0)


def test_lookup_continuity(table):
    rng = np.random.default_rng(4)
    da = table.a_nodes[1] - table.a_nodes[0]
    dd = table.d_nodes[1] - table.d_nodes[0]
    max_jump = max(np.abs(np.diff(table.f_grid, axis=0)).max(),
                   np.abs(np.diff(table.f_grid, axis=1)).max())
    for _ in range(200):
        a = float(rng.uniform(*table.a_range))
        d = float(rng.uniform(*table.d_range))
        a2 = float(np.clip(a + rng.uniform(-da, da), *table.a_range))
        d2 = float(np.clip(d + rng.uniform(-dd, dd), *table.d_range))
        jump = abs(lookup(table, a, d).f_est - lookup(table, a2, d2).f_est)
        assert jump <= 2.0 * max_jump + 1e-9


def test_table_csv_export(table, tmp_path):
    path = tmp_path / "table.csv"
    export_table_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "a_mm,d_mm,force_uN,alpha_sum_rad"
    assert len(lines) == 1 + 100 * 100


def test_params_validation():
    for bad in [{"k_a": -1.0}, {"k_a": math.inf}, {"k_a": math.nan},
                {"total_length": math.inf}, {"total_length": math.nan}]:
        with pytest.raises(ValueError):
            SpringModelParams(**bad)
    with pytest.raises(ValueError):
        SpringModelParams(n_seg=1)
    with pytest.raises(ValueError):
        simulate_forward(SpringModelParams(), -5.0)
    with pytest.raises(ValueError):
        simulate_backward(SpringModelParams(), 2.0, 1.0, 3)
