"""Physical configuration and frame derivation for two mechanical modes
coupled to a bichromatically pumped, lossy cavity.

All quantities are angular frequencies in program units (the natural scale
is the average mechanical frequency).  The second pump tone is always
derived from the resonance condition on the beat note, never set directly,
so the two detunings differ by the mechanical frequency difference exactly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ConfigError(ValueError):
    """Raised for invalid or inconsistent physical configurations."""


@dataclass(frozen=True)
class MechanicalMode:
    """One mechanical oscillator: frequency and single-photon coupling."""

    frequency: float
    coupling: float

    def __post_init__(self):
        if self.frequency <= 0:
            raise ConfigError(f"mode frequency must be positive, got {self.frequency}")
        if self.coupling <= 0:
            raise ConfigError(f"single-photon coupling must be positive, got {self.coupling}")


@dataclass(frozen=True)
class CavityPump:
    """Cavity mode plus the bichromatic drive.

    Only the first pump frequency is free; the second follows from the
    resonance condition once the mechanical frequencies are known.  The
    drive strength is specified through the common intracavity displacement
    ``alpha`` (real), from which the pump amplitudes are reconstructed.
    """

    cavity_frequency: float
    kappa: float
    pump_frequency_1: float
    alpha: float

    def __post_init__(self):
        if self.kappa < 0:
            raise ConfigError(f"cavity decay must be nonnegative, got {self.kappa}")
        if self.alpha == 0:
            raise ConfigError("displacement alpha must be nonzero")


@dataclass(frozen=True)
class SystemConfig:
    """Full tri-partite configuration: two mechanical modes, one cavity.

    ``thermal_baths`` optionally attaches an independent thermal reservoir
    (rate, occupation) to each mechanical mode, in mode order.
    """

    mode_1: MechanicalMode
    mode_2: MechanicalMode
    cavity: CavityPump
    thermal_baths: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.mode_1.frequency == self.mode_2.frequency:
            raise ConfigError("the two mechanical modes must have distinct frequencies")
        if self.thermal_baths is not None:
            if len(self.thermal_baths) != 2:
                raise ConfigError("thermal_baths needs one (rate, occupation) pair per mode")
            for rate, nth in self.thermal_baths:
                if rate < 0 or nth < 0:
                    raise ConfigError("thermal bath rates and occupations must be nonnegative")

    def pump_frequency_2(self) -> float:
        """Second pump tone from the beat-note resonance condition."""
        return self.cavity.pump_frequency_1 - (self.mode_2.frequency - self.mode_1.frequency)


@dataclass(frozen=True)
class FrameParams:
    """Rotating-frame quantities consumed by every other module.

    Only independent quantities are stored (``delta_1 - delta_2 ==
    delta_omega`` by construction); the pump amplitudes ``eta_1/2`` and the
    spring shifts ``spring_1/2`` are derived from them, elementwise for a
    frame of arrays.  The springs are reported, never folded into the mode
    frequencies.  A lossless cavity pumped on exact resonance, where the
    displacement is undefined, raises ``ConfigError``.
    """

    omega_1: float
    omega_2: float
    g_1: float
    g_2: float
    kappa: float
    alpha: float
    delta_1: float
    delta_2: float
    delta_bar: float
    omega_bar: float
    delta_omega: float
    G_1: float
    G_2: float
    thermal_baths: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if _anywhere((self.kappa == 0) & ((self.delta_1 == 0) | (self.delta_2 == 0))):
            raise ConfigError("pump on exact resonance of a lossless cavity: displacement undefined")

    # invert alpha = -i eta / (kappa/2 + i delta) with a common real alpha
    @property
    def eta_1(self) -> complex:
        return 1j * self.alpha * (self.kappa / 2 + 1j * self.delta_1)

    @property
    def eta_2(self) -> complex:
        return 1j * self.alpha * (self.kappa / 2 + 1j * self.delta_2)

    @property
    def spring_1(self) -> float:
        return (optical_spring(self.G_1, self.delta_1, self.omega_1, self.kappa)
                + optical_spring(self.G_1, self.delta_2, self.omega_1, self.kappa))

    @property
    def spring_2(self) -> float:
        return (optical_spring(self.G_2, self.delta_1, self.omega_2, self.kappa)
                + optical_spring(self.G_2, self.delta_2, self.omega_2, self.kappa))


def _anywhere(mask) -> bool:
    """Whether a comparison holds for a scalar, or for any element of an
    array (without ``np.any``'s cost of several microseconds on a scalar)."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def mode_frequencies(omega_bar, delta_omega):
    """``(omega_1, omega_2) = omega_bar +- delta_omega / 2`` elementwise; raises
    ``ConfigError`` unless both are positive and distinct, as ``SystemConfig`` does."""
    w1 = omega_bar + delta_omega / 2
    w2 = omega_bar - delta_omega / 2
    if _anywhere((w1 <= 0) | (w2 <= 0)):
        raise ConfigError("collective coordinates imply a nonpositive mode frequency")
    if _anywhere(delta_omega == 0):
        raise ConfigError("the two mechanical modes must have distinct frequencies")
    return w1, w2


def sideband_dispersion(delta, omega, kappa):
    """Dispersive cavity response at the two mechanical sidebands, elementwise:

        (delta-omega)/(kappa^2/4+(delta-omega)^2) + (delta+omega)/(kappa^2/4+(delta+omega)^2)

    NaN for a lossless cavity pumped exactly on a sideband, where it has no finite value.
    """
    k2 = kappa * kappa / 4
    total = 0.0
    for x in (delta - omega, delta + omega):
        den = k2 + x * x
        pole = den == 0.0
        if _anywhere(pole):
            den = np.where(pole, math.nan, den)
        total += x / den
    return total


def optical_spring(G: float, delta: float, omega: float, kappa: float) -> float:
    """Pump-induced mechanical frequency shift, one pump's contribution:
    ``G^2`` times :func:`sideband_dispersion`.

    Sign convention note: the coefficient of the number operator obtained
    by eliminating the cavity is the negative of this value; see
    ``cavmech.elimination``.  This is recorded in output metadata.

    NaN on a lossless sideband (the value is informational).  Elementwise.
    """
    return G * G * sideband_dispersion(delta, omega, kappa)


def derive_frame(config: SystemConfig) -> FrameParams:
    """Derive detunings and dressed couplings from a lab-frame config.

    Pure and deterministic.  Raises ``ConfigError`` for a lossless cavity
    pumped on exact resonance, where the displacement is undefined.
    """
    w1, w2 = config.mode_1.frequency, config.mode_2.frequency
    g1, g2 = config.mode_1.coupling, config.mode_2.coupling
    alpha = config.cavity.alpha
    d1 = config.cavity.cavity_frequency - config.cavity.pump_frequency_1
    d2 = config.cavity.cavity_frequency - config.pump_frequency_2()
    return FrameParams(
        omega_1=w1,
        omega_2=w2,
        g_1=g1,
        g_2=g2,
        kappa=config.cavity.kappa,
        alpha=alpha,
        delta_1=d1,
        delta_2=d2,
        delta_bar=(d1 + d2) / 2,
        omega_bar=(w1 + w2) / 2,
        delta_omega=w1 - w2,
        G_1=g1 * alpha,
        G_2=g2 * alpha,
        thermal_baths=config.thermal_baths,
    )


def displacement_from_pump(eta: complex, delta: float, kappa: float) -> complex:
    """Steady displacement of a driven lossy cavity, -i eta / (kappa/2 + i delta)."""
    den = kappa / 2 + 1j * delta
    if den == 0:
        raise ConfigError("displacement undefined for kappa = 0 on resonance")
    return -1j * eta / den


def frame_from_collective(
    omega_bar: float,
    delta_omega: float,
    delta_bar: float,
    kappa: float,
    G_1: float,
    G_2: float,
    alpha: float = 1.0,
    thermal_baths: tuple[tuple[float, float], ...] | None = None,
) -> FrameParams:
    """Build a frame directly from collective coordinates.

    Convenience for sweeps and random draws.  The detunings are formed
    from the collective values themselves rather than by differencing a
    large cavity frequency, so no precision is lost to cancellation;
    otherwise this is equivalent to ``derive_frame`` on a corresponding
    lab-frame config.  Any argument may be an array: every field is then
    the elementwise value, and one invalid element raises ``ConfigError``.
    The mode frequencies come from ``mode_frequencies``, so a splitting
    that leaves a mode at or below zero frequency, or one of zero, raises.
    """
    if not all(np.isfinite(v).all() for v in (omega_bar, delta_omega, delta_bar, kappa, G_1, G_2, alpha)):
        raise ConfigError("collective coordinates must be finite numbers")
    w1, w2 = mode_frequencies(omega_bar, delta_omega)
    if _anywhere((G_1 <= 0) | (G_2 <= 0) | (alpha == 0)):
        raise ConfigError("dressed couplings must be positive")
    d1 = delta_bar + delta_omega / 2
    d2 = delta_bar - delta_omega / 2
    if _anywhere(kappa < 0):
        raise ConfigError("cavity decay must be nonnegative")
    return FrameParams(
        omega_1=w1,
        omega_2=w2,
        g_1=G_1 / alpha,
        g_2=G_2 / alpha,
        kappa=kappa,
        alpha=alpha,
        delta_1=d1,
        delta_2=d2,
        delta_bar=delta_bar,
        omega_bar=omega_bar,
        delta_omega=delta_omega,
        G_1=G_1,
        G_2=G_2,
        thermal_baths=thermal_baths,
    )


# -- flat key-value config files ------------------------------------------

_REQUIRED_KEYS = ("omega1", "omega2", "omega_c", "kappa", "omega_L1", "alpha", "g1", "g2")
_THERMAL_KEYS = ("gamma_th_1", "n_th_1", "gamma_th_2", "n_th_2")


def parse_config_text(text: str) -> SystemConfig:
    """Parse a flat ``key = value`` config (``#`` comments allowed)."""
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, _, val = line.partition(sep)
                break
        else:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        try:
            values[key] = float(val.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad number for {key!r}: {val.strip()!r}") from exc
        if not math.isfinite(values[key]):
            raise ConfigError(f"line {lineno}: {key!r} must be a finite number, got {val.strip()!r}")

    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    unknown = [k for k in values if k not in _REQUIRED_KEYS and k not in _THERMAL_KEYS]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    thermal = None
    if any(k in values for k in _THERMAL_KEYS):
        thermal = (
            (values.get("gamma_th_1", 0.0), values.get("n_th_1", 0.0)),
            (values.get("gamma_th_2", 0.0), values.get("n_th_2", 0.0)),
        )
    return SystemConfig(
        mode_1=MechanicalMode(values["omega1"], values["g1"]),
        mode_2=MechanicalMode(values["omega2"], values["g2"]),
        cavity=CavityPump(values["omega_c"], values["kappa"], values["omega_L1"], values["alpha"]),
        thermal_baths=thermal,
    )


def load_config(path: str | Path) -> SystemConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def config_digest(config: SystemConfig) -> str:
    """Short stable hash of the physical configuration, for output headers."""
    parts = [
        f"omega1={config.mode_1.frequency!r}",
        f"omega2={config.mode_2.frequency!r}",
        f"g1={config.mode_1.coupling!r}",
        f"g2={config.mode_2.coupling!r}",
        f"omega_c={config.cavity.cavity_frequency!r}",
        f"kappa={config.cavity.kappa!r}",
        f"omega_L1={config.cavity.pump_frequency_1!r}",
        f"alpha={config.cavity.alpha!r}",
        f"thermal={config.thermal_baths!r}",
    ]
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]
