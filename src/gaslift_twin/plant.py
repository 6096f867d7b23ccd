"""Virtual three-well gas-lift plant.

Each well holds a gas mass and a liquid mass; the pressure/flow chain is
explicit (no nonlinear solve), so the model is a plain ODE in six states,
integrated with fixed-step RK4. SI units internally; boundary inputs use
engineering units (sL/min gas injection, bar pump pressure) and are
converted on entry. Wells share the pump pressure but are otherwise
hydraulically independent.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ClampedFlowWarning,
    DegenerateHoldup,
    IntegrationUnstable,
    NegativeSqrtArgument,
)

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
        if np.any(self.m_g <= 0.0) or np.any(self.m_l <= 0.0):
            raise ValueError("mass holdups must be strictly positive")

    def validate(self, params: PlantParams) -> None:
        if np.any(self.m_l / params.rho_l >= params.V_total):
            raise ValueError("liquid holdup exceeds pipe volume")


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
        if np.any(self.v_o < 0.0) or np.any(self.v_o > 1.0):
            raise ValueError("v_o must lie in [0,1]")


@dataclass(frozen=True)
class AlgebraicOutputs:
    """Pressures, densities and flows implied by one (state, inputs) pair."""

    w_l: np.ndarray
    w_g: np.ndarray
    P_bi: np.ndarray
    P_rh: np.ndarray
    rho_g: np.ndarray
    rho_mix: np.ndarray
    V_g: np.ndarray
    V_l: np.ndarray
    alpha_l: np.ndarray
    w_total: np.ndarray
    w_l_out: np.ndarray
    w_g_out: np.ndarray


ALGEBRAIC_FIELDS = (
    "w_l", "w_g", "P_bi", "P_rh", "rho_g", "rho_mix",
    "V_g", "V_l", "alpha_l", "w_total", "w_l_out", "w_g_out",
)


def _chain(m_g, m_l, w_g, v_o, pp_pa, params: PlantParams, clamp: bool):
    """Evaluate the algebraic chain for all wells at once.

    Returns the tuple of ALGEBRAIC_FIELDS arrays. With ``clamp`` the two
    square roots saturate at zero flow, with a ClampedFlowWarning, instead
    of raising NegativeSqrtArgument.
    """
    V_l = m_l / params.rho_l
    V_g = params.V_total - V_l
    if np.any(V_g <= 0.0):
        raise DegenerateHoldup(f"gas volume non-positive: V_g={V_g}")
    rho_g = m_g / V_g
    P_bi = rho_g * params.R * params.T / params.M_g

    dp_res = pp_pa - P_bi
    if np.any(dp_res < 0.0):
        if not clamp:
            raise NegativeSqrtArgument(
                f"pump pressure {pp_pa:.1f} Pa below injection-point pressure {P_bi}")
        warnings.warn("reservoir flow clamped to zero (P_pump < P_bi)",
                      ClampedFlowWarning, stacklevel=2)
        dp_res = np.maximum(dp_res, 0.0)
    theta_res = np.asarray(params.theta_res)
    w_l = v_o * theta_res * np.sqrt(params.rho_l * dp_res)

    rho_mix = (m_g + m_l) / params.V_total
    friction = 128.0 * params.mu_mix * (w_g + w_l) * params.L / (
        math.pi * rho_mix * params.D ** 4)
    P_rh = P_bi - rho_mix * params.g * params.delta_h - friction

    dp_top = P_rh - params.P_atm
    if np.any(dp_top < 0.0):
        if not clamp:
            raise NegativeSqrtArgument(
                f"riser-head pressure below atmospheric: P_rh={P_rh}")
        warnings.warn("top-valve flow clamped to zero (P_rh < P_atm)",
                      ClampedFlowWarning, stacklevel=2)
        dp_top = np.maximum(dp_top, 0.0)
    theta_top = np.asarray(params.theta_top)
    w_total = theta_top * np.sqrt(rho_mix * dp_top)

    alpha_l = m_l / (m_g + m_l)
    w_l_out = alpha_l * w_total
    w_g_out = w_total - w_l_out
    return w_l, w_g, P_bi, P_rh, rho_g, rho_mix, V_g, V_l, alpha_l, w_total, w_l_out, w_g_out


def solve_algebraic(state: PlantState, inputs: PlantInputs, params: PlantParams,
                    *, clamp: bool = False) -> AlgebraicOutputs:
    """Evaluate pressures, densities and flows for one state/input pair.

    Evaluation order: V_l, V_g, rho_g (ideal gas), P_bi, reservoir inflow,
    rho_mix, riser-head pressure (hydrostatic head + laminar friction),
    top-valve flow, then the outlet split by liquid mass fraction.

    Raises NegativeSqrtArgument when a driving pressure difference is
    negative (or clamps the flow to zero with a warning when ``clamp``),
    DegenerateHoldup when liquid fills the pipe.
    """
    w_g = inputs.Q_g * SL_PER_MIN_TO_KG_S
    pp_pa = inputs.P_pump * BAR_TO_PA
    values = _chain(state.m_g, state.m_l, w_g, inputs.v_o, pp_pa, params, clamp)
    return AlgebraicOutputs(**dict(zip(ALGEBRAIC_FIELDS, values)))


def _rhs(m_g, m_l, w_g, v_o, pp_pa, params, clamp):
    out = _chain(m_g, m_l, w_g, v_o, pp_pa, params, clamp)
    w_l, w_g_in = out[0], out[1]
    w_l_out, w_g_out = out[10], out[11]
    return w_g_in - w_g_out, w_l - w_l_out


def step(state: PlantState, inputs: PlantInputs, params: PlantParams, dt: float,
         *, clamp: bool = False) -> PlantState:
    """Advance the mass balances one explicit RK4 step of size ``dt``."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    w_g = inputs.Q_g * SL_PER_MIN_TO_KG_S
    pp_pa = inputs.P_pump * BAR_TO_PA
    m_g, m_l = _rk4(state.m_g, state.m_l, w_g, inputs.v_o, pp_pa, params, dt, clamp)
    _check_bounds(m_g, m_l, params)
    return PlantState(m_g=m_g, m_l=m_l, t=state.t + dt)


def _rk4(m_g, m_l, w_g, v_o, pp_pa, params, dt, clamp):
    k1g, k1l = _rhs(m_g, m_l, w_g, v_o, pp_pa, params, clamp)
    k2g, k2l = _rhs(m_g + 0.5 * dt * k1g, m_l + 0.5 * dt * k1l, w_g, v_o, pp_pa, params, clamp)
    k3g, k3l = _rhs(m_g + 0.5 * dt * k2g, m_l + 0.5 * dt * k2l, w_g, v_o, pp_pa, params, clamp)
    k4g, k4l = _rhs(m_g + dt * k3g, m_l + dt * k3l, w_g, v_o, pp_pa, params, clamp)
    new_g = m_g + dt / 6.0 * (k1g + 2.0 * k2g + 2.0 * k3g + k4g)
    new_l = m_l + dt / 6.0 * (k1l + 2.0 * k2l + 2.0 * k3l + k4l)
    return new_g, new_l


def _check_bounds(m_g, m_l, params):
    upper = params.rho_l * params.V_total
    for name, arr in (("m_g", m_g), ("m_l", m_l)):
        if np.any(arr <= 0.0) or np.any(arr >= upper):
            raise IntegrationUnstable(
                f"{name} left (0, rho_l*V_total) during integration: {arr}")


def default_initial_state(params: PlantParams, *, fill_fraction: float = 0.6,
                          p_gas: float = 1.2e5) -> PlantState:
    """Feasible startup state: liquid fill plus gas pressurised above P_atm.

    A gas pocket at atmospheric pressure cannot lift the liquid column, so
    the default pressurises it to 1.2 bar, which keeps both valve pressure
    differences positive at every corner of the nominal input box.
    """
    if not 0.0 < fill_fraction < 1.0:
        raise ValueError("fill_fraction must lie in (0,1)")
    m_l = np.full(N_WELLS, fill_fraction * params.V_total * params.rho_l)
    V_g = (1.0 - fill_fraction) * params.V_total
    m_g = np.full(N_WELLS, p_gas * V_g * params.M_g / (params.R * params.T))
    return PlantState(m_g=m_g, m_l=m_l, t=0.0)


@dataclass
class Trajectory:
    """Uniformly sampled (1 s) record of a simulation run.

    ``algebraic`` maps each ALGEBRAIC_FIELDS name to an (n, 3) array. The
    logged m_g/m_l carry the optional measurement noise; ``final_state``
    is the exact integrator state for chaining runs.
    """

    t: np.ndarray               # (n,)
    Q_g: np.ndarray             # (n, 3)
    v_o: np.ndarray             # (n, 3)
    P_pump: np.ndarray          # (n,)
    m_g: np.ndarray             # (n, 3)
    m_l: np.ndarray             # (n, 3)
    algebraic: dict = field(default_factory=dict)
    steady_state_reached: bool = False
    final_state: PlantState | None = None

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


def _log_sample(store, idx, t, m_g, m_l, Q_g, v_o, P_pump, outs):
    store["t"][idx] = t
    store["m_g"][idx] = m_g
    store["m_l"][idx] = m_l
    store["Q_g"][idx] = Q_g
    store["v_o"][idx] = v_o
    store["P_pump"][idx] = P_pump
    for name, value in zip(ALGEBRAIC_FIELDS, outs):
        store[name][idx] = value


def _alloc_store(n):
    store = {"t": np.empty(n), "P_pump": np.empty(n)}
    for name in ("m_g", "m_l", "Q_g", "v_o", *ALGEBRAIC_FIELDS):
        store[name] = np.empty((n, N_WELLS))
    return store


def _store_to_trajectory(store, final_state, steady, noise_std=0.0, seed=0):
    m_g = store["m_g"]
    m_l = store["m_l"]
    if noise_std > 0.0:
        rng = np.random.Generator(np.random.PCG64(seed))
        m_g = m_g + rng.normal(0.0, noise_std, m_g.shape)
        m_l = m_l + rng.normal(0.0, noise_std, m_l.shape)
    return Trajectory(
        t=store["t"], Q_g=store["Q_g"], v_o=store["v_o"], P_pump=store["P_pump"],
        m_g=m_g, m_l=m_l,
        algebraic={name: store[name] for name in ALGEBRAIC_FIELDS},
        steady_state_reached=steady, final_state=final_state,
    )


def _integrate(store, first, m_g, m_l, t0, Q_g, v_o, P_pump, params):
    """Integrate and log one second per input row from store row ``first`` on."""
    for i in range(len(P_pump)):
        w_g = Q_g[i] * SL_PER_MIN_TO_KG_S
        pp_pa = P_pump[i] * BAR_TO_PA
        for _ in range(SUBSTEPS):
            m_g, m_l = _rk4(m_g, m_l, w_g, v_o[i], pp_pa, params, INTERNAL_DT, False)
        _check_bounds(m_g, m_l, params)
        outs = _chain(m_g, m_l, w_g, v_o[i], pp_pa, params, False)
        _log_sample(store, first + i, t0 + (i + 1) * _LOG_DT, m_g, m_l,
                    Q_g[i], v_o[i], P_pump[i], outs)
    return m_g, m_l


def simulate_experiment(inputs: PlantInputs, duration: float, params: PlantParams,
                        initial: PlantState, *, noise_std: float = 0.0, seed: int = 0,
                        ss_rel_tol: float = 1.0e-4) -> Trajectory:
    """Hold ``inputs`` constant for ``duration`` seconds and log at 1 Hz.

    Samples sit at t0, t0+1, ..., t0+floor(duration); duration 0 degenerates
    to the single initial sample. ``steady_state_reached`` is true when the
    largest relative mass derivative at the final sample is below
    ``ss_rel_tol`` (1/s).
    """
    if duration < 0.0:
        raise ValueError("duration must be non-negative")
    initial.validate(params)
    n_seconds = int(math.floor(duration))
    store = _alloc_store(n_seconds + 1)

    w_g = inputs.Q_g * SL_PER_MIN_TO_KG_S
    pp_pa = inputs.P_pump * BAR_TO_PA
    outs = _chain(initial.m_g, initial.m_l, w_g, inputs.v_o, pp_pa, params, False)
    _log_sample(store, 0, initial.t, initial.m_g, initial.m_l,
                inputs.Q_g, inputs.v_o, inputs.P_pump, outs)
    m_g, m_l = _integrate(
        store, 1, initial.m_g, initial.m_l, initial.t,
        np.broadcast_to(inputs.Q_g, (n_seconds, N_WELLS)),
        np.broadcast_to(inputs.v_o, (n_seconds, N_WELLS)),
        np.full(n_seconds, inputs.P_pump), params,
    )

    dm_g, dm_l = _rhs(m_g, m_l, w_g, inputs.v_o, pp_pa, params, False)
    rel = max(np.max(np.abs(dm_g) / np.abs(m_g)), np.max(np.abs(dm_l) / np.abs(m_l)))
    final_state = PlantState(m_g=m_g, m_l=m_l, t=store["t"][-1])
    return _store_to_trajectory(store, final_state, rel < ss_rel_tol, noise_std, seed)


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
    store = _alloc_store(len(P_pump))
    m_g, m_l = _integrate(store, 0, initial.m_g, initial.m_l, initial.t,
                          Q_g, v_o, P_pump, params)
    final_state = PlantState(m_g=m_g, m_l=m_l, t=store["t"][-1])
    return _store_to_trajectory(store, final_state, False)
