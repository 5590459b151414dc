"""Parameter sweeps, regime maps, asymptotics, validation, and emission.

Everything here orchestrates library operations; no physics lives in this
module.  Sweep outputs are in grid order and all file output uses fixed
formatting, so results are byte-identical across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .model import (FrameParams, SystemConfig, config_digest, derive_frame, frame_from_collective,
                    mode_frequencies)
from .effective import (
    _baths,
    _lorentzian_pair,
    _net_rate_denominator,
    bath_centers,
    coupling_nulls,
    effective_params,
    exchange_coupling,
    exchange_pathway_sum,
    interaction_regime,
    net_rate_closed,
    rate_pairs,
    total_noise,
)
from .elimination import build_coefficient_table, reduce_to_effective
from .fock import (
    FockSpace,
    TransferProtocol,
    excitation_transfer_experiment,
    fock_state,
    integrate,
)
from .gaussian import (
    VACUUM_CONVENTION,
    drift_diffusion_from_generator,
    evolve_covariance,
    fock_moments,
)
from .quadratic import effective_generator

FLOAT_FORMAT = ".16e"  # 17 significant digits: every double written reads back exactly


# -- deterministic emission --------------------------------------------------

@dataclass
class Dataset:
    """A column-table with header metadata, ready for deterministic output."""

    columns: list[str]
    rows: np.ndarray
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        rows = np.asarray(self.rows, float)
        # an empty row list is a table with no rows, not one row of no fields
        self.rows = rows.reshape(0, len(self.columns)) if rows.shape == (0,) else np.atleast_2d(rows)
        if self.rows.shape[1] != len(self.columns):
            raise ValueError("row width does not match column count")


def _fmt(x: float) -> str:
    return format(float(x), FLOAT_FORMAT)


def render(result: Dataset | dict, fmt: str) -> str:
    """Serialize a dataset as CSV or JSON, or a report dict as JSON, with
    byte-stable formatting; any other format raises ``ValueError``."""
    if isinstance(result, Dataset):
        if fmt == "csv":
            lines = [f"# {k} = {v}" for k, v in sorted(result.metadata.items())]
            lines.append(",".join(result.columns))
            row = ",".join(["%" + FLOAT_FORMAT] * len(result.columns)) + "\n"
            return "\n".join(lines) + "\n" + (row * len(result.rows)) % tuple(result.rows.ravel().tolist())
        if fmt != "json":
            raise ValueError(f"unknown format {fmt!r}")
        result = {
            "metadata": dict(sorted(result.metadata.items())),
            "columns": result.columns,
            "rows": result.rows.tolist(),
        }
    elif fmt != "json":
        raise ValueError(f"a report is written only as json, not {fmt!r}")
    return json.dumps(result, indent=2, sort_keys=True) + "\n"


def emit(result: Dataset | dict, fmt: str, path: str | Path) -> None:
    """Write ``render(result, fmt)`` to ``path``; a failed write raises
    ``OSError`` naming the path."""
    path = Path(path)
    text = render(result, fmt)
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def base_metadata(config: SystemConfig | None = None) -> dict[str, str]:
    md = {
        "version": __version__,
        "units": "angular frequencies in units of the average mechanical frequency",
        "convention": VACUUM_CONVENTION,
        "spring_convention": "dispersive two-sideband form; generator coefficient is its negative",
    }
    if config is not None:
        md["config_hash"] = config_digest(config)
    return md


# -- parameter report --------------------------------------------------------

def params_report(config: SystemConfig) -> dict:
    """Full frame + effective-parameter record for one configuration."""
    frame = derive_frame(config)
    p = effective_params(frame)
    xi = p.xi
    x1, x2 = bath_centers(frame)
    rec = {
        "metadata": base_metadata(config),
        "frame": {
            "delta_1": frame.delta_1,
            "delta_2": frame.delta_2,
            "delta_bar": frame.delta_bar,
            "omega_bar": frame.omega_bar,
            "delta_omega": frame.delta_omega,
            "G_1": frame.G_1,
            "G_2": frame.G_2,
            "eta_1": [frame.eta_1.real, frame.eta_1.imag],
            "eta_2": [frame.eta_2.real, frame.eta_2.imag],
            "spring_1": frame.spring_1,
            "spring_2": frame.spring_2,
        },
        "effective": {
            "exchange_coupling": p.exchange_coupling,
            "gamma_1": p.gamma_1,
            "gamma_2": p.gamma_2,
            "gamma_collective": p.gamma_collective,
            "nbar_1": _json_num(p.nbar_1),
            "nbar_2": _json_num(p.nbar_2),
            "nbar_collective": _json_num(p.nbar_collective),
            "gamma_total": p.gamma_total,
            "bath_centers": [x1, x2],
            "rate_table": {k: list(v) for k, v in p.rate_table.items()},
        },
        "classification": {
            "xi": _json_num(xi),
            "regime": interaction_regime(xi),
        },
    }
    return rec


def _json_num(x: float):
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return None
    return x


# -- normalized-coupling curves ---------------------------------------------

def _check_decays(kappas):
    if not len(kappas) or min(kappas) <= 0:
        raise ValueError(f"need one or more cavity decay values, all positive; got {list(kappas)}")


def coupling_curve_data(
    omega_bar: float,
    kappa_list: list[float],
    delta_range: tuple[float, float, int] = (-3.0, 3.0, 601),
) -> Dataset:
    """|J|/max|J| versus central detuning, one column per cavity decay.

    The couplings G cancel in the normalization, so the curves depend only
    on the decay and the average frequency; interior zeros are annotated
    in the metadata.
    """
    lo, hi, count = delta_range
    if count < 2:
        raise ValueError("need at least two grid points")
    _check_decays(kappa_list)
    deltas = np.linspace(lo, hi, int(count))
    columns = ["delta_bar"]
    md = base_metadata()
    md["omega_bar"] = _fmt(omega_bar)
    cols = [deltas]
    for kappa in kappa_list:
        j_vals = exchange_pathway_sum(deltas, omega_bar, kappa)
        peak = np.abs(j_vals).max()
        cols.append(np.abs(j_vals) / (peak if peak > 0 else 1.0))
        columns.append(f"absJ_norm_kappa_{kappa:g}")
        frame = frame_from_collective(omega_bar, omega_bar * 0.1, omega_bar, kappa, 0.1, 0.1)
        nulls = coupling_nulls(frame)
        md[f"nulls_kappa_{kappa:g}"] = "; ".join(_fmt(x) for x in nulls)
    return Dataset(columns=columns, rows=np.column_stack(cols), metadata=md)


# -- regime map ---------------------------------------------------------------

@dataclass(frozen=True)
class SweepGrid:
    """Axes of the classicality sweep: central detuning x cavity decay."""

    delta_min: float = -10.0
    delta_max: float = 10.0
    delta_count: int = 401
    kappa_values: tuple[float, ...] = (0.1, 0.3, 1.0, 3.0, 10.0)

    def __post_init__(self):
        if self.delta_count < 2:
            raise ValueError("need at least two detuning points")
        _check_decays(self.kappa_values)

    def delta_axis(self) -> np.ndarray:
        return np.linspace(self.delta_min, self.delta_max, self.delta_count)


@dataclass
class RegimeMap:
    """Classicality ratio over the sweep grid with labels and boundary."""

    delta_bar: np.ndarray
    kappa: np.ndarray
    xi: np.ndarray          # shape (len(kappa), len(delta_bar))
    labels: np.ndarray      # same shape, strings
    boundary: list[tuple[float, float]]  # (kappa, delta_bar) with xi = 1/2

    def quantum_onset(self, kappa: float) -> float | None:
        """Smallest positive detuning with xi = 1/2 at the given decay."""
        candidates = [d for k, d in self.boundary if k == kappa and d > 0]
        return min(candidates) if candidates else None


def _xi_row(delta_axis, omega_bar, delta_omega, kappa, G_1, G_2):
    """Vectorized classicality ratio along one decay row."""
    j = G_1 * G_2 * exchange_pathway_sum(delta_axis, omega_bar, kappa)
    table = rate_pairs(delta_axis, omega_bar, delta_omega, kappa, G_1, G_2)
    return np.abs(j) / total_noise(table)


def regime_map(
    delta_omega_over_omega_bar: float,
    grid: SweepGrid = SweepGrid(),
    omega_bar: float = 1.0,
    G_1: float = 0.1,
    G_2: float = 0.1,
) -> RegimeMap:
    """Classicality map over the grid; equal couplings by default.

    The xi = 1/2 boundary is extracted per decay row by linear
    interpolation of sign changes of xi - 1/2 along the detuning axis.
    Raises ``ConfigError`` where ``mode_frequencies`` rejects the splitting.
    """
    deltas = grid.delta_axis()
    dw = delta_omega_over_omega_bar * omega_bar
    mode_frequencies(omega_bar, dw)

    xi = np.vstack([_xi_row(deltas, omega_bar, dw, kappa, G_1, G_2)
                    for kappa in grid.kappa_values])

    labels = np.where(xi <= 0.5, "classical", "quantum")
    boundary: list[tuple[float, float]] = []
    for i, kappa in enumerate(grid.kappa_values):
        f = xi[i] - 0.5
        sign_change = np.nonzero(f[:-1] * f[1:] < 0)[0]
        for idx in sign_change:
            d0, d1 = deltas[idx], deltas[idx + 1]
            f0, f1 = f[idx], f[idx + 1]
            boundary.append((kappa, float(d0 - f0 * (d1 - d0) / (f1 - f0))))
        for idx in np.nonzero(f == 0)[0]:
            boundary.append((kappa, float(deltas[idx])))
    boundary.sort()
    return RegimeMap(delta_bar=deltas, kappa=np.array(grid.kappa_values), xi=xi,
                     labels=labels, boundary=boundary)


def regime_map_dataset(rmap: RegimeMap, delta_omega_over_omega_bar: float) -> Dataset:
    xi = rmap.xi.ravel()  # kappa-major, one row per grid point
    rows = np.column_stack([np.repeat(rmap.kappa, len(rmap.delta_bar)),
                            np.tile(rmap.delta_bar, len(rmap.kappa)), xi, xi <= 0.5])
    md = base_metadata()
    md["delta_omega_over_omega_bar"] = _fmt(delta_omega_over_omega_bar)
    md["boundary_points"] = "; ".join(f"({_fmt(k)}, {_fmt(d)})" for k, d in rmap.boundary)
    md["label_convention"] = "classical flag 1.0 means xi <= 1/2"
    return Dataset(columns=["kappa", "delta_bar", "xi", "classical"], rows=rows, metadata=md)


# -- asymptotic exponent ------------------------------------------------------

QUADRATIC_CLAIM_NOTE = (
    "a commonly quoted expectation is that this ratio grows approximately "
    "quadratically far from zero detuning; the closed forms implemented here "
    "give asymptotically linear growth (exponent 1), and the measured "
    "exponent is reported alongside both statements"
)


def xi_asymptote(
    omega_bar: float = 1.0,
    delta_omega: float = 0.2,
    kappa: float = 1.0,
    G_1: float = 0.1,
    G_2: float = 0.1,
    decades: tuple[float, float] = (2.0, 4.0),
    points: int = 60,
) -> dict:
    """Log-log slope of the classicality ratio far from zero detuning.

    Fits xi(delta_bar) over delta_bar in [10^a, 10^b] * max(omega_bar,
    kappa) and reports the measured exponent with a confidence width, the
    exponent predicted by the implemented closed forms (1.0), and the
    externally claimed quadratic growth for comparison.  Raises
    ``ValueError`` unless ``kappa > 0``, ``G_1 + G_2 != 0``, the window
    has finite positive end points and nonzero width, and xi is finite
    and positive on it; ``ConfigError`` where ``mode_frequencies``
    rejects the splitting.
    """
    if not kappa > 0:
        raise ValueError(f"cavity decay kappa must be positive, got {kappa}")
    if G_1 + G_2 == 0:
        raise ValueError("the couplings must not sum to zero")
    mode_frequencies(omega_bar, delta_omega)
    scale = max(omega_bar, kappa)
    # an overflow or underflow is reported by the checks below, not warned of
    with np.errstate(all="ignore"):
        lo, hi = (float(np.float64(10.0) ** d * scale) for d in decades)
        window = f"the fit window [{lo:g}, {hi:g}] (decades {decades[0]:g} to {decades[1]:g})"
        if not (0 < lo < math.inf and 0 < hi < math.inf):
            raise ValueError(f"{window} has an end point that is not finite and positive")
        if lo == hi:
            raise ValueError(f"{window} has zero width")
        deltas = np.geomspace(lo, hi, points)
        xi = _xi_row(deltas, omega_bar, delta_omega, kappa, G_1, G_2)
    if not (np.isfinite(xi) & (xi > 0)).all():
        raise ValueError(f"xi is not finite and positive on {window}")
    slope, intercept, stderr = _loglog_fit(deltas, xi)
    predicted_coeff = 2 * G_1 * G_2 / (kappa * (G_1 + G_2) ** 2)
    return {
        "metadata": base_metadata() | {"note": QUADRATIC_CLAIM_NOTE},
        "measured_slope": slope,
        "slope_stderr": stderr,
        "predicted_slope": 1.0,
        "claimed_quadratic_slope": 2.0,
        "predicted_prefactor": predicted_coeff,
        "fit_window": [float(deltas[0]), float(deltas[-1])],
        "points": points,
    }


def _loglog_fit(x: np.ndarray, y: np.ndarray):
    lx, ly = np.log(x), np.log(y)
    coeffs, cov = np.polyfit(lx, ly, 1, cov=True)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    stderr = float(np.sqrt(cov[0, 0]))
    return slope, intercept, stderr


# -- validation pipeline ------------------------------------------------------

def _stage(name, passed, measured, tolerance, detail="", skipped=False) -> dict:
    """One stage entry of the ``validate`` report."""
    return {"name": name, "passed": bool(passed), "measured": _json_num(measured),
            "tolerance": tolerance, "detail": detail, "skipped": skipped}


def _rel_err(a, b):
    """|a - b| / max(|a|, |b|) elementwise, and 0 where both are NaN."""
    err = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return np.where(np.isnan(a) & np.isnan(b), 0.0, err)


def _require_draws(n_draws: int) -> None:
    if n_draws < 1:
        raise ValueError(f"the number of random draws must be at least 1, got {n_draws}")


def check_reduction_agreement(n_draws: int = 1000, seed: int = 20240901) -> float:
    """Worst relative disagreement between the elimination reduction and
    the closed forms over random parameter draws; ``n_draws`` must be at least 1.

    The draws (log-uniform kappa and dressed couplings, uniform delta_bar
    and delta_omega, omega_bar = 1) form one frame of arrays, so the oracle
    enumerates and reduces its terms once for all of them.
    """
    _require_draws(n_draws)
    rng = np.random.default_rng(seed)
    low = [math.log(0.01), -10.0, 0.05, math.log(0.01), math.log(0.01)]
    high = [math.log(10.0), 10.0, 1.9, math.log(0.2), math.log(0.2)]
    log_kappa, db, dw, log_g1, log_g2 = rng.uniform(low, high, (n_draws, 5)).T
    frame = frame_from_collective(1.0, dw, db, np.exp(log_kappa), np.exp(log_g1), np.exp(log_g2))

    reduced = reduce_to_effective(build_coefficient_table(frame)).params
    table = rate_pairs(frame.delta_bar, frame.omega_bar, frame.delta_omega,
                       frame.kappa, frame.G_1, frame.G_2)
    errs = [
        _rel_err(exchange_coupling(frame), reduced.exchange_coupling),
        _rel_err(total_noise(table), reduced.gamma_total),
    ]
    for bath in ("1", "2", "collective"):
        errs.append(_rel_err(table[bath][0], reduced.rate_table[bath][0]))
        errs.append(_rel_err(table[bath][1], reduced.rate_table[bath][1]))
    return float(np.max(errs))


def check_rate_identities(n_draws: int = 10000, seed: int = 20240902) -> dict[str, float]:
    """Lorentzian product identities and positivity over vectorized draws.

    Checks (i) Gamma * nbar and Gamma * (nbar + 1) recombine to the
    (down, up) Lorentzian pairs, (ii) the rational denominator factorizes
    into the pair of shifted Lorentzians, (iii) every rate is nonnegative.
    ``n_draws`` must be at least 1.
    """
    _require_draws(n_draws)
    rng = np.random.default_rng(seed)
    kappa = np.exp(rng.uniform(np.log(0.01), np.log(10.0), n_draws))
    db = rng.uniform(-10.0, 10.0, n_draws)
    dw = rng.uniform(0.05, 1.9, n_draws)
    g = np.exp(rng.uniform(np.log(0.01), np.log(0.2), (2, n_draws)))
    k2 = kappa * kappa / 4

    # np.max/np.min, unlike max/min, carry a NaN through to the stage
    identity, factorization, rates = [], [], []
    for gg, x in _baths(1.0, dw, g[0], g[1]).values():
        down, up = _lorentzian_pair(gg, kappa, db, x)
        rates += [down.min(), up.min()]
        gamma_closed = net_rate_closed(gg, x, db, kappa)
        nbar_closed = (k2 + (db - x) ** 2) / (4 * db * x)
        # nbar + 1 in its own closed rational form: adding 1 to the float
        # nbar cancels catastrophically at blue resonance where nbar -> -1
        nbar_plus_1 = (k2 + (db + x) ** 2) / (4 * db * x)
        prod_up = gamma_closed * nbar_closed
        prod_down = gamma_closed * nbar_plus_1
        identity += [np.max(np.abs(prod_up - up) / np.maximum(np.abs(up), 1e-300)),
                     np.max(np.abs(prod_down - down) / np.maximum(np.abs(down), 1e-300))]
        den = _net_rate_denominator(x, db, kappa)
        factored = (k2 + (db - x) ** 2) * (k2 + (db + x) ** 2)
        factorization.append(np.max(np.abs(factored - den) / den))
    return {
        "worst_identity_rel": float(np.max(identity)),
        "worst_factorization_rel": float(np.max(factorization)),
        "min_rate": float(np.min(rates)),
    }


def validate(
    config: SystemConfig,
    transfer_protocol: TransferProtocol | None = None,
    n_reduction_draws: int = 1000,
    verbose: bool = False,
) -> dict:
    """Run the five-stage consistency pipeline and return a report dict.

    Stages: (1) elimination reduction vs closed forms, (2) rate-pair
    identities, (3) complete-positivity scan, (4) Fock vs Gaussian
    agreement on the effective model, (5) dynamically fitted exchange rate
    vs the closed form on the full model.
    """
    frame = derive_frame(config)
    stages: list[dict] = []

    err = check_reduction_agreement(n_reduction_draws)
    stages.append(_stage("reduction-vs-closed-forms", err < 1e-9, err, 1e-9))

    ids = check_rate_identities()
    stages.append(_stage(
        "rate-pair-identities",
        ids["worst_identity_rel"] < 1e-12 and ids["worst_factorization_rel"] < 1e-12,
        float(np.max([ids["worst_identity_rel"], ids["worst_factorization_rel"]])), 1e-12,
    ))
    stages.append(_stage(
        "complete-positivity", ids["min_rate"] >= 0.0, ids["min_rate"], 0.0,
        detail="smallest down/up rate over the scan",
    ))

    unitary = frame.kappa == 0
    stages.append(_stage_engine_agreement(frame, unitary))

    if unitary:
        stages.append(_stage(
            "transfer-rate-vs-closed-form", True, None, None,
            detail="skipped: lossless cavity, no mediated dissipation to validate against",
            skipped=True,
        ))
    else:
        stages.append(_stage_transfer(frame, transfer_protocol or TransferProtocol()))

    report = {
        "metadata": base_metadata(config),
        "stages": stages,
        "all_passed": all(s["passed"] for s in stages),
    }
    if verbose:
        table = build_coefficient_table(frame) if frame.kappa > 0 else None
        if table is not None:
            report["dropped_terms"] = [
                {
                    "source": term.source,
                    "frequency": term.frequency_value(frame),
                    "magnitude": abs(term.coefficient),
                }
                for term in table.dropped_terms
            ]
            reduction = reduce_to_effective(table)
            report["validity_ratios"] = reduction.validity_ratios
    return report


def _stage_engine_agreement(frame: FrameParams, unitary: bool) -> dict:
    spec = effective_generator(frame)
    p = spec.params
    if unitary or p.gamma_total == 0:
        horizon = 2.0 / max(abs(p.exchange_coupling), 1e-6)
        detail = "unitary mode: lossless comparison window"
    else:
        horizon = min(5.0 / p.gamma_total, 5000.0)
        detail = ""
    # eight levels per mode: headroom for warm effective baths over the
    # full relaxation horizon
    space = FockSpace((8, 8))
    rho0 = fock_state(space, (1, 0))
    dd = drift_diffusion_from_generator(spec)
    f_max = max(dd.f_max, 1e-9)
    dt = min(0.01 / f_max, horizon / 100)
    stride = max(1, int(round(horizon / dt / 200)))
    ftraj = integrate(spec, space, rho0, horizon, dt, stride=stride)
    gtraj = evolve_covariance(dd, fock_moments(2, (1, 0)), horizon, dt, stride=stride)
    err = float(np.abs(np.stack([ftraj.n1, ftraj.n2], axis=1) - gtraj.occupations).max())
    return _stage("fock-vs-gaussian-effective", err < 1e-3, err, 1e-3, detail=detail)


def _stage_transfer(frame: FrameParams, protocol: TransferProtocol) -> dict:
    closed = abs(exchange_coupling(frame))
    result = excitation_transfer_experiment(frame, protocol, model="full")
    err = abs(result.exchange_rate - closed) / closed
    return _stage(
        "transfer-rate-vs-closed-form", err < 0.10, err, 0.10,
        detail=f"fitted {result.exchange_rate:.6e} vs closed {closed:.6e}",
    )
