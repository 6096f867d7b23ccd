"""Virtual three-well gas-lift plant.

Each well holds a gas mass and a liquid mass; the pressure/flow chain is
explicit (no nonlinear solve), so the model is a plain ODE in six states,
integrated with fixed-step RK4. SI units internally; boundary inputs use
engineering units (sL/min gas injection, bar pump pressure) and are
converted on entry. Wells share the pump pressure but are otherwise
hydraulically independent.

The plant's physics is one per-well kernel over plain Python floats:
``_well_derivatives`` gives a well's mass-balance derivatives and
``_advance`` runs RK4 steps with it, one well after the other. The 1 Hz loop
behind ``simulate_experiment`` and ``simulate_schedule`` (the SIL replay
included) integrates with it and logs the six measured holdups. ``step``
does too, but nothing in the package calls it any more: it stays only as a
wrap point of ``perfbench/layers.py``. The tests keep the same chain written
over numpy arrays as the kernel's reference (``tests/conftest.py``); the
kernel must equal it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateHoldup, IntegrationUnstable, NegativeSqrtArgument

N_WELLS = 3

# 1 standard litre per minute of air, 0 degC / 1 atm reference
SL_PER_MIN_TO_KG_S = 1.292e-3 / 60.0
BAR_TO_PA = 1.0e5

_DEFAULT_D = 0.02            # m
_DEFAULT_L = 3.7             # m, 1.5 m well + 2.2 m riser
_DEFAULT_V_TOTAL = math.pi * (_DEFAULT_D / 2.0) ** 2 * _DEFAULT_L


def _as_well_array(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape == ():
        arr = np.full(N_WELLS, float(arr))
    if arr.shape != (N_WELLS,):
        raise ValueError(f"{name} must be scalar or length {N_WELLS}, got shape {arr.shape}")
    return arr.copy()


@dataclass(frozen=True)
class PlantParams:
    """Physical constants and valve coefficients, one set shared by all wells.

    Defaults describe a water/air bench rig. The valve coefficients are
    calibrated so that every corner of the nominal input box keeps
    P_pump > P_bi and P_rh > P_atm through the whole transient.
    """

    rho_l: float = 1000.0          # kg/m^3
    mu_mix: float = 1.0e-3         # Pa s, liquid viscosity approximation
    M_g: float = 0.02897           # kg/mol, air
    R: float = 8.314               # J/(mol K)
    T: float = 298.15              # K
    g: float = 9.81                # m/s^2
    P_atm: float = 1.01325e5       # Pa
    D: float = _DEFAULT_D          # m
    L: float = _DEFAULT_L          # m
    delta_h: float = 2.2           # m
    V_total: float = _DEFAULT_V_TOTAL  # m^3 per well
    theta_res: tuple[float, float, float] = (6.0e-6, 6.0e-6, 6.0e-6)
    theta_top: tuple[float, float, float] = (4.0e-5, 4.0e-5, 4.0e-5)

    def __post_init__(self):
        for name in ("rho_l", "mu_mix", "M_g", "R", "T", "g", "P_atm", "D", "L",
                     "delta_h", "V_total"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"PlantParams.{name} must be strictly positive")
        for name in ("theta_res", "theta_top"):
            vals = getattr(self, name)
            if len(vals) != N_WELLS or any(not v > 0.0 for v in vals):
                raise ValueError(f"PlantParams.{name} needs {N_WELLS} positive entries")
        geometric = math.pi * (self.D / 2.0) ** 2 * self.L
        if abs(self.V_total - geometric) > 0.01 * geometric:
            raise ValueError(
                f"V_total {self.V_total:g} inconsistent with pipe geometry {geometric:g}")

    def with_valve_coefficients(self, theta_res=None, theta_top=None) -> "PlantParams":
        kwargs = {}
        if theta_res is not None:
            kwargs["theta_res"] = tuple(float(v) for v in _as_well_array(theta_res, "theta_res"))
        if theta_top is not None:
            kwargs["theta_top"] = tuple(float(v) for v in _as_well_array(theta_top, "theta_top"))
        from dataclasses import replace
        return replace(self, **kwargs)


@dataclass(frozen=True)
class PlantState:
    """Per-well mass holdups at a simulation time."""

    m_g: np.ndarray   # kg, shape (3,)
    m_l: np.ndarray   # kg, shape (3,)
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "m_g", _as_well_array(self.m_g, "m_g"))
        object.__setattr__(self, "m_l", _as_well_array(self.m_l, "m_l"))
        if not (np.all(self.m_g > 0.0) and np.all(self.m_l > 0.0)):
            raise ValueError("mass holdups must be strictly positive")

    def validate(self, params: PlantParams) -> None:
        if not np.all(self.m_l / params.rho_l < params.V_total):
            raise ValueError("liquid holdup exceeds pipe volume")

    @classmethod
    def _checked(cls, m_g: list[float], m_l: list[float], t: float) -> "PlantState":
        """A state from per-well holdups ``_check_bounds`` has already
        accepted, built without checking them again."""
        state = object.__new__(cls)
        object.__setattr__(state, "m_g", np.array(m_g))
        object.__setattr__(state, "m_l", np.array(m_l))
        object.__setattr__(state, "t", t)
        return state


@dataclass(frozen=True)
class PlantInputs:
    """Manipulated inputs and valve-opening disturbances."""

    Q_g: np.ndarray    # sL/min, shape (3,)
    v_o: np.ndarray    # opening fraction in [0,1], shape (3,)
    P_pump: float      # bar

    def __post_init__(self):
        object.__setattr__(self, "Q_g", _as_well_array(self.Q_g, "Q_g"))
        object.__setattr__(self, "v_o", _as_well_array(self.v_o, "v_o"))
        object.__setattr__(self, "P_pump", float(self.P_pump))
        if not np.all((0.0 <= self.v_o) & (self.v_o <= 1.0)):
            raise ValueError("v_o must lie in [0,1]")
        if not (np.isfinite(self.Q_g).all() and np.isfinite(self.P_pump)):
            raise ValueError("Q_g and P_pump must be finite")


def step(state: PlantState, inputs: PlantInputs, params: PlantParams, dt: float) -> PlantState:
    """Advance the mass balances one explicit RK4 step of size ``dt``."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    w_g, vo_theta, pp_pa = _well_inputs(inputs.Q_g, inputs.v_o, inputs.P_pump, params)
    m_g, m_l = _advance(_well_derivatives(params), state.m_g.tolist(), state.m_l.tolist(),
                        w_g, vo_theta, params.theta_top, pp_pa, dt, 1)
    _check_bounds(m_g, m_l, params)
    return PlantState._checked(m_g, m_l, state.t + dt)


def _well_inputs(Q_g, v_o, P_pump, params):
    """Gas injection (kg/s), v_o * theta_res and pump pressure (Pa) as Python
    floats, nested like the inputs; the unit conversions happen here once."""
    return ((Q_g * SL_PER_MIN_TO_KG_S).tolist(),
            (v_o * np.asarray(params.theta_res)).tolist(),
            (np.asarray(P_pump) * BAR_TO_PA).tolist())


def _well_derivatives(params: PlantParams):
    """One well's (dm_g/dt, dm_l/dt) over plain floats: the plant's physics.

    The returned ``derivs(m_g, m_l, w_g, vo_theta, theta_top, pp_pa)``
    evaluates, in this order: the gas volume, the injection-point pressure
    P_bi (ideal gas), the reservoir inflow through the production valve, the
    mixture density, the riser-head pressure P_rh (hydrostatic head and
    laminar friction), the top-valve outflow, and its split by liquid mass
    fraction. ``tests/conftest.py`` keeps the same chain over numpy arrays,
    with every pressure, density and flow named, as the kernel's reference;
    any change to the float operations here must be made there too, because
    the kernel must equal it bit for bit.

    A driving pressure difference below zero raises NegativeSqrtArgument and
    liquid filling the pipe raises DegenerateHoldup. A negative total mass,
    which only an unstable RK4 stage reaches, makes the top-valve root's
    argument negative; that raises IntegrationUnstable rather than giving NaN
    holdups.
    """
    rho_l, V_total, R, T, M_g = params.rho_l, params.V_total, params.R, params.T, params.M_g
    mu_128, L, D_4 = 128.0 * params.mu_mix, params.L, params.D ** 4
    g, delta_h, P_atm, pi, sqrt = params.g, params.delta_h, params.P_atm, math.pi, math.sqrt

    def derivs(m_g, m_l, w_g, vo_theta, theta_top, pp_pa):
        V_g = V_total - m_l / rho_l
        if V_g <= 0.0:
            raise DegenerateHoldup(f"gas volume non-positive: V_g={V_g}")
        P_bi = m_g / V_g * R * T / M_g
        dp = pp_pa - P_bi
        if dp < 0.0:
            raise NegativeSqrtArgument(
                f"pump pressure {pp_pa:.1f} Pa below injection-point pressure {P_bi}")
        w_l = vo_theta * sqrt(rho_l * dp)
        m = m_g + m_l
        rho_mix = m / V_total
        P_rh = P_bi - rho_mix * g * delta_h - mu_128 * (w_g + w_l) * L / (pi * rho_mix * D_4)
        dp = P_rh - P_atm
        if dp < 0.0:
            raise NegativeSqrtArgument(f"riser-head pressure below atmospheric: P_rh={P_rh}")
        arg = rho_mix * dp
        if arg < 0.0:
            raise IntegrationUnstable(f"total mass negative during integration: {m}")
        w_total = theta_top * sqrt(arg)
        w_l_out = m_l / m * w_total
        return w_g - (w_total - w_l_out), w_l - w_l_out

    return derivs


def _advance(derivs, m_g, m_l, w_g, vo_theta, theta_top, pp_pa, dt, n):
    """``n`` RK4 steps of size ``dt``, one well after the other.

    The wells share only the pump pressure, so each runs all its steps before
    the next starts. Per-well lists in, new lists out.
    """
    half, sixth = 0.5 * dt, dt / 6.0
    m_g, m_l = list(m_g), list(m_l)
    for w in range(N_WELLS):
        mg, ml, wg, vt, tt = m_g[w], m_l[w], w_g[w], vo_theta[w], theta_top[w]
        for _ in range(n):
            k1g, k1l = derivs(mg, ml, wg, vt, tt, pp_pa)
            k2g, k2l = derivs(mg + half * k1g, ml + half * k1l, wg, vt, tt, pp_pa)
            k3g, k3l = derivs(mg + half * k2g, ml + half * k2l, wg, vt, tt, pp_pa)
            k4g, k4l = derivs(mg + dt * k3g, ml + dt * k3l, wg, vt, tt, pp_pa)
            mg = mg + sixth * (k1g + 2.0 * k2g + 2.0 * k3g + k4g)
            ml = ml + sixth * (k1l + 2.0 * k2l + 2.0 * k3l + k4l)
        m_g[w], m_l[w] = mg, ml
    return m_g, m_l


def _check_bounds(m_g, m_l, params):
    upper = params.rho_l * params.V_total
    for name, values in (("m_g", m_g), ("m_l", m_l)):
        if not all(0.0 < v < upper for v in values):
            raise IntegrationUnstable(
                f"{name} left (0, rho_l*V_total) during integration: {values}")


_FILL_FRACTION = 0.6     # startup liquid fill of each well
_P_GAS = 1.2e5           # Pa, startup gas pressure


def default_initial_state(params: PlantParams) -> PlantState:
    """Feasible startup state: liquid fill plus gas pressurised above P_atm.

    A gas pocket at atmospheric pressure cannot lift the liquid column, so
    the gas is pressurised to 1.2 bar, which keeps both valve pressure
    differences positive at every corner of the nominal input box.
    """
    m_l = np.full(N_WELLS, _FILL_FRACTION * params.V_total * params.rho_l)
    V_g = (1.0 - _FILL_FRACTION) * params.V_total
    m_g = np.full(N_WELLS, _P_GAS * V_g * params.M_g / (params.R * params.T))
    return PlantState(m_g=m_g, m_l=m_l, t=0.0)


# the quiet operating point the plant settles at before gen-data's design
# and before every sil scenario
BASELINE_INPUTS = PlantInputs(Q_g=np.array([3.0, 3.0, 3.0]), v_o=np.ones(3), P_pump=2.65)


@dataclass
class Trajectory:
    """Uniformly sampled (1 s) record of a simulation run: the inputs and
    the six measured holdups at each logged second, as the per-well kernel
    integrated them. ``final_state`` is the integrator state at the last
    sample, for chaining runs.
    """

    t: np.ndarray               # (n,)
    Q_g: np.ndarray             # (n, 3)
    v_o: np.ndarray             # (n, 3)
    P_pump: np.ndarray          # (n,)
    m_g: np.ndarray             # (n, 3)
    m_l: np.ndarray             # (n, 3)
    final_state: PlantState

    def __len__(self) -> int:
        return self.t.shape[0]

    def states_matrix(self) -> np.ndarray:
        """Columns mg1, ml1, mg2, ml2, mg3, ml3 (the six output channels)."""
        return channel_values(self.m_g, self.m_l)

    def inputs_matrix(self) -> np.ndarray:
        """Columns Qg1, Qg2, Qg3, Ppump (the four exogenous inputs)."""
        return np.column_stack([self.Q_g, self.P_pump])


# order of the six measured channels everywhere in the package
CHANNEL_NAMES = ("well1_mg", "well1_ml", "well2_mg", "well2_ml", "well3_mg", "well3_ml")
INPUT_NAMES = ("Qg1", "Qg2", "Qg3", "Ppump")

INTERNAL_DT = 0.1    # s, RK4 substep
_LOG_DT = 1.0        # s, sampling cadence
SUBSTEPS = int(round(_LOG_DT / INTERNAL_DT))   # RK4 substeps per logged second


def channel_values(m_g: np.ndarray, m_l: np.ndarray) -> np.ndarray:
    """Per-well masses (..., 3) interleaved into CHANNEL_NAMES order (..., 6)."""
    return np.stack([m_g, m_l], axis=-1).reshape(*m_g.shape[:-1], 2 * N_WELLS)


def _integrate(initial: PlantState, Q_g, v_o, P_pump, params):
    """Hold input row i over the i-th logged second, rows (k, 3)/(k,).

    Returns the (k, 3) gas and liquid holdups at the end of each second.
    """
    derivs = _well_derivatives(params)
    w_g, vo_theta, pp_pa = _well_inputs(Q_g, v_o, P_pump, params)
    m_g, m_l = initial.m_g.tolist(), initial.m_l.tolist()
    log = np.empty((2, len(pp_pa), N_WELLS))
    for i, pp in enumerate(pp_pa):
        m_g, m_l = _advance(derivs, m_g, m_l, w_g[i], vo_theta[i], params.theta_top, pp,
                            INTERNAL_DT, SUBSTEPS)
        _check_bounds(m_g, m_l, params)
        log[0, i], log[1, i] = m_g, m_l
    return log[0], log[1]


def _trajectory(t, Q_g, v_o, P_pump, m_g, m_l):
    """Trajectory of logged holdups under their input rows, ending in the
    state of its last sample."""
    return Trajectory(t=t, Q_g=Q_g, v_o=v_o, P_pump=P_pump, m_g=m_g, m_l=m_l,
                      final_state=PlantState(m_g=m_g[-1], m_l=m_l[-1], t=t[-1]))


def simulate_experiment(inputs: PlantInputs, duration: float, params: PlantParams,
                        initial: PlantState) -> Trajectory:
    """Hold ``inputs`` constant for ``duration`` seconds and log at 1 Hz.

    Samples sit at t0, t0+1, ..., t0+floor(duration); duration 0 degenerates
    to the single initial sample.
    """
    if duration < 0.0:
        raise ValueError("duration must be non-negative")
    initial.validate(params)
    n = int(math.floor(duration)) + 1
    Q_g, v_o = np.tile(inputs.Q_g, (n, 1)), np.tile(inputs.v_o, (n, 1))
    P_pump = np.full(n, inputs.P_pump)
    m_g, m_l = _integrate(initial, Q_g[1:], v_o[1:], P_pump[1:], params)
    m_g, m_l = np.vstack([initial.m_g, m_g]), np.vstack([initial.m_l, m_l])
    return _trajectory(initial.t + np.arange(n) * _LOG_DT, Q_g, v_o, P_pump, m_g, m_l)


def simulate_schedule(Q_g: np.ndarray, v_o: np.ndarray, P_pump: np.ndarray,
                      hold: float, params: PlantParams,
                      initial: PlantState) -> Trajectory:
    """Run a piecewise-constant input schedule as one continuous simulation.

    Row k of the (k, 3)/(k,) input arrays is held for ``hold`` seconds;
    state carries over between plateaus. Logging starts one sample after
    the initial state, so the result has exactly n_plateaus*hold rows and
    plateau boundaries fall on multiples of ``hold``.
    """
    hold_s = int(round(hold))
    if hold_s < 1:
        raise ValueError("hold must be at least 1 s")
    initial.validate(params)
    Q_g = np.repeat(np.atleast_2d(np.asarray(Q_g, dtype=float)), hold_s, axis=0)
    v_o = np.repeat(np.atleast_2d(np.asarray(v_o, dtype=float)), hold_s, axis=0)
    P_pump = np.repeat(np.atleast_1d(np.asarray(P_pump, dtype=float)), hold_s)
    m_g, m_l = _integrate(initial, Q_g, v_o, P_pump, params)
    t = initial.t + np.arange(1, len(P_pump) + 1) * _LOG_DT
    return _trajectory(t, Q_g, v_o, P_pump, m_g, m_l)
