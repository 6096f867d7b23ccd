"""Plant model tests: algebraic chain oracles, RK4 behaviour, invariants, and
bit-equality of the float kernel with the numpy reference in conftest.py."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaslift_twin import plant
from gaslift_twin.errors import (
    ClampedFlowWarning,
    DegenerateHoldup,
    GasLiftError,
    IntegrationUnstable,
    NegativeSqrtArgument,
)
from gaslift_twin.plant import (
    ALGEBRAIC_FIELDS,
    BAR_TO_PA,
    INTERNAL_DT,
    SL_PER_MIN_TO_KG_S,
    PlantInputs,
    PlantParams,
    PlantState,
    default_initial_state,
    simulate_experiment,
    simulate_schedule,
    solve_algebraic,
    step,
)

PARAMS = PlantParams()
MID = PlantInputs(Q_g=[3.0, 3.0, 3.0], v_o=[1.0, 1.0, 1.0], P_pump=2.65)


def state_with_gas_pressure(p_gas: float, fill: float = 0.6) -> PlantState:
    """State whose ideal-gas injection-point pressure equals p_gas exactly."""
    m_l = np.full(3, fill * PARAMS.V_total * PARAMS.rho_l)
    v_g = (1.0 - fill) * PARAMS.V_total
    m_g = np.full(3, p_gas * v_g * PARAMS.M_g / (PARAMS.R * PARAMS.T))
    return PlantState(m_g=m_g, m_l=m_l)


class TestAlgebraicChain:
    def test_ideal_gas_density_hand_value(self):
        # rho_g = P*M/(R*T) = 1.2e5 * 0.02897 / (8.314 * 298.15) = 1.4024 kg/m^3
        out = solve_algebraic(state_with_gas_pressure(1.2e5), MID, PARAMS)
        assert out.P_bi == pytest.approx(1.2e5, rel=1e-12)
        assert out.rho_g == pytest.approx(1.4024, abs=5e-4)

    def test_zero_valve_opening_kills_reservoir_inflow(self):
        inp = PlantInputs(Q_g=[3.0, 3.0, 3.0], v_o=[0.0, 1.0, 0.0], P_pump=2.65)
        out = solve_algebraic(state_with_gas_pressure(1.2e5), inp, PARAMS)
        assert out.w_l[0] == 0.0 and out.w_l[2] == 0.0
        assert out.w_l[1] > 0.0

    def test_split_and_volume_identities(self):
        out = solve_algebraic(state_with_gas_pressure(1.3e5), MID, PARAMS)
        assert np.all(out.w_l_out + out.w_g_out == out.w_total)
        assert np.all(out.V_g + out.V_l == PARAMS.V_total)
        st_ = state_with_gas_pressure(1.3e5)
        np.testing.assert_allclose(out.alpha_l * (st_.m_g + st_.m_l), st_.m_l, rtol=1e-14)
        assert np.all((out.alpha_l >= 0.0) & (out.alpha_l <= 1.0))

    def test_gas_injection_conversion(self):
        out = solve_algebraic(state_with_gas_pressure(1.2e5), MID, PARAMS)
        np.testing.assert_allclose(out.w_g, 3.0 * SL_PER_MIN_TO_KG_S)

    def test_pump_below_injection_pressure_raises(self):
        state = state_with_gas_pressure(3.0e5)
        inp = PlantInputs(Q_g=[3.0] * 3, v_o=[1.0] * 3, P_pump=1.3)
        with pytest.raises(NegativeSqrtArgument):
            solve_algebraic(state, inp, PARAMS)

    def test_clamp_mode_zeroes_flow_and_warns(self):
        state = state_with_gas_pressure(3.0e5)
        inp = PlantInputs(Q_g=[3.0] * 3, v_o=[1.0] * 3, P_pump=1.3)
        with pytest.warns(ClampedFlowWarning):
            out = solve_algebraic(state, inp, PARAMS, clamp=True)
        assert np.all(out.w_l == 0.0)

    def test_full_pipe_is_degenerate(self):
        m_l = np.full(3, PARAMS.V_total * PARAMS.rho_l * 1.0001)
        with pytest.raises(DegenerateHoldup):
            solve_algebraic(PlantState(m_g=[1e-4] * 3, m_l=m_l), MID, PARAMS)


class TestParamsAndStateValidation:
    def test_nonpositive_constant_rejected(self):
        with pytest.raises(ValueError):
            PlantParams(T=0.0)

    def test_volume_must_match_geometry(self):
        with pytest.raises(ValueError):
            PlantParams(V_total=2.0 * PARAMS.V_total)

    def test_valve_override(self):
        p = PARAMS.with_valve_coefficients(theta_res=9e-6)
        assert p.theta_res == (9e-6, 9e-6, 9e-6)
        assert p.theta_top == PARAMS.theta_top

    def test_state_requires_positive_masses(self):
        with pytest.raises(ValueError):
            PlantState(m_g=[0.0, 1e-4, 1e-4], m_l=[0.5] * 3)

    def test_opening_fraction_bounds(self):
        with pytest.raises(ValueError):
            PlantInputs(Q_g=[3.0] * 3, v_o=[1.2, 1.0, 1.0], P_pump=2.65)

    @pytest.mark.parametrize("field", ["m_g", "m_l"])
    def test_nan_holdup_rejected(self, field):
        masses = {"m_g": [1e-3] * 3, "m_l": [0.5] * 3}
        masses[field] = [math.nan, *masses[field][1:]]
        with pytest.raises(ValueError):
            PlantState(**masses)

    @pytest.mark.parametrize("inputs", [
        {"Q_g": [math.nan, 3.0, 3.0]},
        {"v_o": [1.0, math.nan, 1.0]},
        {"P_pump": math.nan},
    ])
    def test_nan_inputs_rejected(self, inputs):
        with pytest.raises(ValueError):
            PlantInputs(**{"Q_g": [3.0] * 3, "v_o": [1.0] * 3, "P_pump": 2.65, **inputs})


class TestStep:
    def test_exact_steady_point_is_fixed(self):
        # all four flows identically zero: closed top valve branch (P_rh < P_atm
        # under clamping), closed reservoir valve, no injection
        state = state_with_gas_pressure(1.02e5, fill=0.3)
        inp = PlantInputs(Q_g=[0.0] * 3, v_o=[0.0] * 3, P_pump=2.65)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClampedFlowWarning)
            out = solve_algebraic(state, inp, PARAMS, clamp=True)
            assert np.all(out.w_total == 0.0) and np.all(out.w_l == 0.0)
            nxt = step(state, inp, PARAMS, 1.0, clamp=True)
        np.testing.assert_array_equal(nxt.m_g, state.m_g)
        np.testing.assert_array_equal(nxt.m_l, state.m_l)

    def test_settled_state_barely_moves(self):
        traj = simulate_experiment(MID, 400.0, PARAMS, default_initial_state(PARAMS))
        settled = traj.final_state
        nxt = step(settled, MID, PARAMS, 1.0)
        assert np.max(np.abs(nxt.m_g - settled.m_g) / settled.m_g) < 1e-9
        assert np.max(np.abs(nxt.m_l - settled.m_l) / settled.m_l) < 1e-9

    def test_step_halving_convergence(self):
        init = default_initial_state(PARAMS)

        def integrate(dt, n):
            s = init
            for _ in range(n):
                s = step(s, MID, PARAMS, dt)
            return s

        coarse = integrate(0.2, 50)
        fine = integrate(0.1, 100)
        assert np.max(np.abs(fine.m_g - coarse.m_g) / fine.m_g) < 1e-6
        assert np.max(np.abs(fine.m_l - coarse.m_l) / fine.m_l) < 1e-6

    def test_unstable_step_detected(self):
        init = default_initial_state(PARAMS)
        inp = PlantInputs(Q_g=[5.0] * 3, v_o=[1.0] * 3, P_pump=4.0)
        with pytest.raises((IntegrationUnstable, NegativeSqrtArgument, DegenerateHoldup)):
            s = init
            for _ in range(40):
                s = step(s, inp, PARAMS, 60.0)

    def test_negative_total_mass_stage_raises(self):
        # a 200 s step drives an RK4 stage to a negative total mass, which
        # makes the top-valve root's argument negative: a typed error, not NaN
        inp = PlantInputs(Q_g=[2.5] * 3, v_o=[0.1] * 3, P_pump=2.2)
        with pytest.raises(IntegrationUnstable):
            step(default_initial_state(PARAMS), inp, PARAMS, 200.0)

    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError):
            step(default_initial_state(PARAMS), MID, PARAMS, 0.0)


class TestSimulateExperiment:
    def test_mid_range_reaches_steady_state_in_100s(self):
        traj = simulate_experiment(MID, 100.0, PARAMS, default_initial_state(PARAMS))
        assert traj.steady_state_reached
        assert len(traj) == 101
        assert traj.t[0] == 0.0 and traj.t[-1] == 100.0

    def test_zero_duration_single_sample(self):
        traj = simulate_experiment(MID, 0.0, PARAMS, default_initial_state(PARAMS))
        assert len(traj) == 1
        assert not traj.steady_state_reached  # startup transient, not settled

    def test_determinism_bitwise(self):
        a = simulate_experiment(MID, 30.0, PARAMS, default_initial_state(PARAMS))
        b = simulate_experiment(MID, 30.0, PARAMS, default_initial_state(PARAMS))
        np.testing.assert_array_equal(a.m_g, b.m_g)
        np.testing.assert_array_equal(a.m_l, b.m_l)
        np.testing.assert_array_equal(a.algebraic["P_rh"], b.algebraic["P_rh"])

    def test_pressure_ordering_every_sample(self):
        traj = simulate_experiment(MID, 120.0, PARAMS, default_initial_state(PARAMS))
        pp = MID.P_pump * BAR_TO_PA
        assert np.all(pp > traj.algebraic["P_bi"])
        assert np.all(traj.algebraic["P_bi"] > traj.algebraic["P_rh"])
        assert np.all(traj.algebraic["P_rh"] > PARAMS.P_atm)

    def test_mass_balance_quadrature(self):
        # 1 Hz trapezoid cannot resolve the sub-second startup spike, so the
        # conservation check uses the smooth window after it
        traj = simulate_experiment(MID, 80.0, PARAMS, default_initial_state(PARAMS))
        lo, hi = 15, 80
        net = traj.algebraic["w_g"] + traj.algebraic["w_l"] - traj.algebraic["w_total"]
        integral = np.trapezoid(net[lo:hi + 1].sum(axis=1), traj.t[lo:hi + 1])
        total_lo = traj.m_g[lo].sum() + traj.m_l[lo].sum()
        total_hi = traj.m_g[hi].sum() + traj.m_l[hi].sum()
        assert total_hi - total_lo == pytest.approx(integral, rel=1e-3, abs=1e-9)

    def test_monotone_liquid_inflow_in_opening(self):
        rates = []
        for vo in (0.6, 0.8, 1.0):
            inp = PlantInputs(Q_g=[3.0] * 3, v_o=[vo] * 3, P_pump=2.65)
            traj = simulate_experiment(inp, 200.0, PARAMS, default_initial_state(PARAMS))
            rates.append(traj.algebraic["w_l"][-1, 0])
        assert rates[0] < rates[1] < rates[2]

    def test_measurement_noise_applied_to_logs_only(self):
        clean = simulate_experiment(MID, 20.0, PARAMS, default_initial_state(PARAMS))
        noisy = simulate_experiment(MID, 20.0, PARAMS, default_initial_state(PARAMS),
                                    noise_std=1e-3, seed=7)
        assert not np.array_equal(clean.m_l, noisy.m_l)
        np.testing.assert_array_equal(clean.final_state.m_l, noisy.final_state.m_l)
        again = simulate_experiment(MID, 20.0, PARAMS, default_initial_state(PARAMS),
                                    noise_std=1e-3, seed=7)
        np.testing.assert_array_equal(noisy.m_l, again.m_l)


class TestSimulateSchedule:
    def test_row_count_and_boundaries(self):
        rng = np.random.Generator(np.random.PCG64(0))
        Qg = rng.uniform(1.0, 5.0, (4, 3))
        Pp = rng.uniform(1.3, 4.0, 4)
        start = simulate_experiment(MID, 150.0, PARAMS, default_initial_state(PARAMS)).final_state
        traj = simulate_schedule(Qg, np.ones((4, 3)), Pp, 25, PARAMS, start)
        assert len(traj) == 100
        # plateau k occupies rows [25k, 25(k+1)); inputs constant inside
        for k in range(4):
            block = traj.Q_g[25 * k:25 * (k + 1)]
            assert np.all(block == Qg[k])

    def test_nan_input_row_raises(self):
        # NaN fails every comparison, so only bounds written as "inside" catch it
        start = default_initial_state(PARAMS)
        with pytest.raises(IntegrationUnstable):
            simulate_schedule(np.array([[math.nan, 3.0, 3.0]]), np.ones((1, 3)),
                              np.array([2.65]), 5, PARAMS, start)
        with pytest.raises(IntegrationUnstable):
            plant._check_bounds([math.nan, 1e-3, 1e-3], [0.5] * 3, PARAMS)

    def test_state_carries_over(self):
        start = simulate_experiment(MID, 150.0, PARAMS, default_initial_state(PARAMS)).final_state
        one = simulate_schedule(np.array([[3.0, 3.0, 3.0]]), np.ones((1, 3)),
                                np.array([2.65]), 50, PARAMS, start)
        two = simulate_experiment(MID, 50.0, PARAMS, start)
        assert np.array_equal(one.m_l[-1], two.m_l[-1])


@st.composite
def feasible_case(draw):
    fill = draw(st.floats(0.35, 0.8))
    p_gas = draw(st.floats(1.05e5, 2.0e5))
    qg = draw(st.floats(0.0, 5.0))
    vo = draw(st.floats(0.1, 1.0))
    pp = draw(st.floats(2.2, 4.0))
    return fill, p_gas, qg, vo, pp


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(feasible_case())
    def test_chain_invariants_hold(self, case):
        fill, p_gas, qg, vo, pp = case
        state = state_with_gas_pressure(p_gas, fill)
        inp = PlantInputs(Q_g=[qg] * 3, v_o=[vo] * 3, P_pump=pp)
        try:
            out = solve_algebraic(state, inp, PARAMS)
        except NegativeSqrtArgument:
            return  # infeasible corner, policy covered elsewhere
        assert np.all((out.alpha_l >= 0.0) & (out.alpha_l <= 1.0))
        assert np.all(out.w_l_out + out.w_g_out == out.w_total)
        assert np.all(out.V_g + out.V_l == PARAMS.V_total)
        assert np.all(out.rho_g > 0.0) and np.all(out.rho_mix > 0.0)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(1.5, 4.5), st.floats(1.8, 3.8))
    def test_short_runs_stay_physical(self, qg, pp):
        inp = PlantInputs(Q_g=[qg] * 3, v_o=[1.0] * 3, P_pump=pp)
        traj = simulate_experiment(inp, 30.0, PARAMS, default_initial_state(PARAMS))
        assert np.all(traj.m_g > 0.0) and np.all(traj.m_l > 0.0)
        assert np.all(traj.m_l / PARAMS.rho_l < PARAMS.V_total)


def spread_case(case):
    """A feasible case with the holdups and inputs made to differ per well."""
    fill, p_gas, qg, vo, pp = case
    base = state_with_gas_pressure(p_gas, fill)
    state = PlantState(m_g=base.m_g * [1.0, 0.98, 1.02], m_l=base.m_l * [1.0, 1.01, 0.99])
    inputs = PlantInputs(Q_g=[qg, 0.5 * qg, 5.0 - qg], v_o=[vo, 1.0, 0.55 + 0.45 * vo],
                         P_pump=pp)
    return state, inputs


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type of the package error it raised."""
    try:
        return fn(*args, **kwargs)
    except GasLiftError as exc:
        return type(exc)


def assert_same_trajectory(traj, t, m_g, m_l, algebraic, final_t):
    np.testing.assert_array_equal(traj.t, t)
    np.testing.assert_array_equal(traj.m_g, m_g)
    np.testing.assert_array_equal(traj.m_l, m_l)
    for name in ALGEBRAIC_FIELDS:
        np.testing.assert_array_equal(traj.algebraic[name], algebraic[name], err_msg=name)
    np.testing.assert_array_equal(traj.final_state.m_g, m_g[-1])
    np.testing.assert_array_equal(traj.final_state.m_l, m_l[-1])
    assert traj.final_state.t == final_t


class TestKernelMatchesNumpyReference:
    """The per-well float kernel equals the numpy RK4 over the algebraic chain
    bit for bit, errors and clamping included."""

    @settings(max_examples=60, deadline=None)
    @given(feasible_case(), st.sampled_from([INTERNAL_DT, 1.0]), st.booleans())
    def test_step(self, numpy_plant, case, dt, clamp):
        state, inputs = spread_case(case)
        if clamp:
            # pump below the injection-point pressure: the clamp must act
            inputs = PlantInputs(Q_g=inputs.Q_g, v_o=inputs.v_o,
                                 P_pump=0.9 * case[1] / BAR_TO_PA)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClampedFlowWarning)
            want = outcome(numpy_plant.step, state, inputs, PARAMS, dt, clamp)
            got = outcome(step, state, inputs, PARAMS, dt, clamp=clamp)
        if isinstance(want, type):
            assert got is want
            return
        np.testing.assert_array_equal(got.m_g, want[0])
        np.testing.assert_array_equal(got.m_l, want[1])
        assert got.t == state.t + dt

    def check_experiment(self, numpy_plant, inputs, duration, state):
        got = outcome(simulate_experiment, inputs, duration, PARAMS, state)
        n = int(math.floor(duration))
        w_g, pp_pa = inputs.Q_g * SL_PER_MIN_TO_KG_S, inputs.P_pump * BAR_TO_PA
        ref = outcome(numpy_plant.log, state.m_g, state.m_l, np.tile(inputs.Q_g, (n, 1)),
                      np.tile(inputs.v_o, (n, 1)), np.full(n, inputs.P_pump), PARAMS)
        if isinstance(ref, type):
            assert got is ref
            return None
        m_g, m_l, algebraic = ref
        first = plant._chain(state.m_g, state.m_l, w_g, inputs.v_o, pp_pa, PARAMS, False)
        assert_same_trajectory(
            got, [state.t + i * 1.0 for i in range(n + 1)],
            np.vstack([state.m_g, m_g]), np.vstack([state.m_l, m_l]),
            {name: np.vstack([first[k], algebraic[name]])
             for k, name in enumerate(ALGEBRAIC_FIELDS)},
            state.t + n * 1.0)
        dm_g, dm_l = numpy_plant.rhs(m_g[-1], m_l[-1], w_g, inputs.v_o, pp_pa, PARAMS, False)
        rel = max(np.max(np.abs(dm_g) / np.abs(m_g[-1])),
                  np.max(np.abs(dm_l) / np.abs(m_l[-1])))
        assert got.steady_state_reached == (rel < 1.0e-4)
        return got

    @settings(max_examples=20, deadline=None)
    @given(feasible_case(), st.floats(1.0, 30.0))
    def test_simulate_experiment(self, numpy_plant, case, duration):
        state, inputs = spread_case(case)
        self.check_experiment(numpy_plant, inputs, duration, state)

    def test_simulate_experiment_to_steady_state(self, numpy_plant):
        traj = self.check_experiment(numpy_plant, MID, 100.0, default_initial_state(PARAMS))
        assert traj.steady_state_reached

    @settings(max_examples=20, deadline=None)
    @given(feasible_case(), st.integers(1, 8),
           st.lists(st.floats(2.2, 4.0), min_size=3, max_size=3))
    def test_multi_plateau_schedule(self, numpy_plant, case, hold, pumps):
        state, inputs = spread_case(case)
        Q_g = np.array([inputs.Q_g, inputs.Q_g[::-1], 5.0 - inputs.Q_g])
        v_o = np.array([inputs.v_o, inputs.v_o[::-1], np.ones(3)])
        got = outcome(simulate_schedule, Q_g, v_o, np.array(pumps), hold, PARAMS, state)
        ref = outcome(numpy_plant.log, state.m_g, state.m_l, np.repeat(Q_g, hold, axis=0),
                      np.repeat(v_o, hold, axis=0), np.repeat(pumps, hold), PARAMS)
        if isinstance(ref, type):
            assert got is ref
            return
        m_g, m_l, algebraic = ref
        n = 3 * hold
        assert_same_trajectory(got, [state.t + (i + 1) * 1.0 for i in range(n)],
                               m_g, m_l, algebraic, state.t + n * 1.0)


class TestInfeasiblePlateau:
    @pytest.fixture(scope="class")
    def settled(self):
        start = simulate_experiment(MID, 150.0, PARAMS, default_initial_state(PARAMS))
        low = 0.9 * solve_algebraic(start.final_state, MID, PARAMS).P_bi.min() / BAR_TO_PA
        return start.final_state, low

    def test_schedule_raises_typed_error(self, settled):
        start, low = settled
        # the second plateau's pump sits below every injection-point pressure
        with pytest.raises(NegativeSqrtArgument):
            simulate_schedule(np.full((2, 3), 3.0), np.ones((2, 3)), np.array([2.65, low]),
                              10, PARAMS, start)

    def test_clamped_step_warns_and_stays_finite(self, settled):
        start, low = settled
        inputs = PlantInputs(Q_g=[3.0] * 3, v_o=[1.0] * 3, P_pump=low)
        with pytest.warns(ClampedFlowWarning):
            nxt = step(start, inputs, PARAMS, INTERNAL_DT, clamp=True)
        assert np.all(np.isfinite(nxt.m_g)) and np.all(np.isfinite(nxt.m_l))
