"""Virtual three-well gas-lift plant.

Each well holds a gas mass and a liquid mass; the pressure/flow chain is
explicit (no nonlinear solve), so the model is a plain ODE in six states,
integrated with fixed-step RK4. SI units internally; boundary inputs use
engineering units (sL/min gas injection, bar pump pressure) and are
converted on entry. Wells share the pump pressure but are otherwise
hydraulically independent.

``step`` and the 1 Hz loop behind ``simulate_experiment`` and
``simulate_schedule`` integrate each well in turn with a kernel over plain
Python floats (``_well_derivatives``, ``_advance``) that runs the float
operations of the numpy chain ``_chain`` in the same order, so results are
bit-identical to integrating the chain itself. The algebraic outputs are
computed only at the logged samples, by one ``_chain`` call per run;
``_chain`` also serves ``solve_algebraic``.
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
    """Evaluate the algebraic chain for all wells at once, elementwise over
    arrays of any matching shape (one state or a run's logged samples).

    Serves ``solve_algebraic`` and the logged samples; the integrator runs
    ``_well_derivatives``, which repeats these float operations in this
    order, so any change here must be made there too. Returns the tuple of
    ALGEBRAIC_FIELDS arrays. With ``clamp`` the two square roots saturate at
    zero flow, with a ClampedFlowWarning, instead of raising
    NegativeSqrtArgument.
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
                f"pump pressure {pp_pa} Pa below injection-point pressure {P_bi}")
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


def step(state: PlantState, inputs: PlantInputs, params: PlantParams, dt: float,
         *, clamp: bool = False) -> PlantState:
    """Advance the mass balances one explicit RK4 step of size ``dt``."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    w_g, vo_theta, pp_pa = _well_inputs(inputs.Q_g, inputs.v_o, inputs.P_pump, params)
    m_g, m_l = _advance(_well_derivatives(params, clamp), state.m_g.tolist(),
                        state.m_l.tolist(), w_g, vo_theta, params.theta_top, pp_pa, dt, 1)
    _check_bounds(m_g, m_l, params)
    return PlantState._checked(m_g, m_l, state.t + dt)


def _well_inputs(Q_g, v_o, P_pump, params):
    """Gas injection (kg/s), v_o * theta_res and pump pressure (Pa) as Python
    floats, nested like the inputs; the same products ``_chain`` forms."""
    return ((Q_g * SL_PER_MIN_TO_KG_S).tolist(),
            (v_o * np.asarray(params.theta_res)).tolist(),
            (np.asarray(P_pump) * BAR_TO_PA).tolist())


def _well_derivatives(params: PlantParams, clamp: bool):
    """One well's (dm_g/dt, dm_l/dt) over plain floats.

    The returned ``derivs(m_g, m_l, w_g, vo_theta, theta_top, pp_pa)`` runs
    ``_chain``'s float operations in ``_chain``'s order, so it equals the
    numpy chain bit for bit, and skips the outputs the mass balance does not
    use. ``128.0 * mu_mix`` and ``D ** 4`` are evaluated first in ``_chain``
    too, so reading them once here changes no bit. Errors and clamping follow
    ``_chain``. A negative total mass, which only an unstable RK4 stage
    reaches, makes the top-valve root's argument negative; that raises
    IntegrationUnstable rather than giving NaN holdups.
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
            if not clamp:
                raise NegativeSqrtArgument(
                    f"pump pressure {pp_pa:.1f} Pa below injection-point pressure {P_bi}")
            warnings.warn("reservoir flow clamped to zero (P_pump < P_bi)",
                          ClampedFlowWarning, stacklevel=2)
            dp = 0.0
        w_l = vo_theta * sqrt(rho_l * dp)
        m = m_g + m_l
        rho_mix = m / V_total
        P_rh = P_bi - rho_mix * g * delta_h - mu_128 * (w_g + w_l) * L / (pi * rho_mix * D_4)
        dp = P_rh - P_atm
        if dp < 0.0:
            if not clamp:
                raise NegativeSqrtArgument(
                    f"riser-head pressure below atmospheric: P_rh={P_rh}")
            warnings.warn("top-valve flow clamped to zero (P_rh < P_atm)",
                          ClampedFlowWarning, stacklevel=2)
            dp = 0.0
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


def _integrate(initial: PlantState, Q_g, v_o, P_pump, params):
    """Hold input row i over the i-th logged second, rows (k, 3)/(k,).

    Returns the (k, 3) gas and liquid holdups at the end of each second.
    """
    derivs = _well_derivatives(params, clamp=False)
    w_g, vo_theta, pp_pa = _well_inputs(Q_g, v_o, P_pump, params)
    m_g, m_l = initial.m_g.tolist(), initial.m_l.tolist()
    log = np.empty((2, len(pp_pa), N_WELLS))
    for i, pp in enumerate(pp_pa):
        m_g, m_l = _advance(derivs, m_g, m_l, w_g[i], vo_theta[i], params.theta_top, pp,
                            INTERNAL_DT, SUBSTEPS)
        _check_bounds(m_g, m_l, params)
        log[0, i], log[1, i] = m_g, m_l
    return log[0], log[1]


def _trajectory(t, Q_g, v_o, P_pump, m_g, m_l, params, noise_std=0.0, seed=0):
    """Trajectory of logged holdups under their input rows; one ``_chain``
    call over all log points gives the algebraic outputs."""
    outs = _chain(m_g, m_l, Q_g * SL_PER_MIN_TO_KG_S, v_o, P_pump[:, None] * BAR_TO_PA,
                  params, False)
    final_state = PlantState(m_g=m_g[-1], m_l=m_l[-1], t=t[-1])
    if noise_std > 0.0:
        rng = np.random.Generator(np.random.PCG64(seed))
        m_g = m_g + rng.normal(0.0, noise_std, m_g.shape)
        m_l = m_l + rng.normal(0.0, noise_std, m_l.shape)
    return Trajectory(
        t=t, Q_g=Q_g, v_o=v_o, P_pump=P_pump, m_g=m_g, m_l=m_l,
        algebraic=dict(zip(ALGEBRAIC_FIELDS, outs)), final_state=final_state,
    )


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
    n = int(math.floor(duration)) + 1
    Q_g, v_o = np.tile(inputs.Q_g, (n, 1)), np.tile(inputs.v_o, (n, 1))
    P_pump = np.full(n, inputs.P_pump)
    m_g, m_l = _integrate(initial, Q_g[1:], v_o[1:], P_pump[1:], params)
    m_g, m_l = np.vstack([initial.m_g, m_g]), np.vstack([initial.m_l, m_l])
    traj = _trajectory(initial.t + np.arange(n) * _LOG_DT, Q_g, v_o, P_pump, m_g, m_l,
                       params, noise_std, seed)

    # the mass balance at the final sample, from the flows logged there
    alg = traj.algebraic
    dm_g = alg["w_g"][-1] - alg["w_g_out"][-1]
    dm_l = alg["w_l"][-1] - alg["w_l_out"][-1]
    rel = max(np.max(np.abs(dm_g) / np.abs(m_g[-1])), np.max(np.abs(dm_l) / np.abs(m_l[-1])))
    traj.steady_state_reached = rel < ss_rel_tol
    return traj


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
    return _trajectory(t, Q_g, v_o, P_pump, m_g, m_l, params)
