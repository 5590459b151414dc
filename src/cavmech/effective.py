"""Closed-form effective theory of the cavity-mediated interaction.

After eliminating the lossy cavity, the two mechanical modes exchange
excitations coherently at a rate ``J`` and couple to three effective
baths: one per mode and one shared bath acting on a collective mode.
Every bath is bookkept through its nonnegative (down, up) rate pair

    down = G^2 kappa / (kappa^2/4 + (delta_bar - x)^2)
    up   = G^2 kappa / (kappa^2/4 + (delta_bar + x)^2)

with ``x = omega_bar`` for the shared bath and ``x_j = 2 omega_j -
omega_bar`` for mode ``j``.  The conventional (rate, occupation) pairs
``Gamma = down - up`` and ``nbar = up / Gamma`` are derived quantities and
individually diverge when down == up; the rate pairs never do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FrameParams


class OutOfValidityError(ValueError):
    """Raised where the closed forms are singular (lossless cavity poles)."""


@dataclass(frozen=True)
class CollectiveMode:
    """Coefficients of the two mode operators in the shared-bath mode."""

    c_1: float
    c_2: float


@dataclass(frozen=True)
class EffectiveParams:
    """Effective two-mode generator parameters.

    ``nbar_1/2/collective`` are NaN where the corresponding net rate
    vanishes (the physical rate pairs in ``rate_table`` stay finite).
    ``rate_table`` maps bath name ("1", "2", "collective") to its
    (down, up) pair.
    """

    exchange_coupling: float
    gamma_1: float
    gamma_2: float
    gamma_collective: float
    nbar_1: float
    nbar_2: float
    nbar_collective: float
    gamma_total: float
    xi: float
    rate_table: dict[str, tuple[float, float]]


def bath_centers(frame: FrameParams) -> tuple[float, float]:
    """Lorentzian centers of the two single-mode baths, x_j = 2 omega_j - omega_bar."""
    return (
        frame.omega_bar + frame.delta_omega,
        frame.omega_bar - frame.delta_omega,
    )


def _lorentzian_pair(G_sq: float, kappa: float, delta_bar, x: float):
    """(down, up) Lorentzian rate pair; elementwise for an array of detunings."""
    if kappa == 0.0:
        return 0.0, 0.0
    down = G_sq * kappa / (kappa * kappa / 4 + (delta_bar - x) ** 2)
    up = G_sq * kappa / (kappa * kappa / 4 + (delta_bar + x) ** 2)
    return down, up


def exchange_coupling(frame: FrameParams) -> float:
    """Coherent excitation-exchange rate between the two modes.

    Evaluated as G1 G2 Im[(kappa + 2i delta_bar)/((kappa/2 + i delta_bar)^2
    + omega_bar^2)]; equal to the two-pathway partial-fraction sum.
    """
    kappa, db, ob = frame.kappa, frame.delta_bar, frame.omega_bar
    den = (kappa / 2 + 1j * db) ** 2 + ob * ob
    if den == 0:
        raise OutOfValidityError(
            "exchange coupling diverges for a lossless cavity at delta_bar = +-omega_bar"
        )
    return frame.G_1 * frame.G_2 * ((kappa + 2j * db) / den).imag


def exchange_coupling_pathways(frame: FrameParams) -> float:
    """Same coupling as the explicit sum of the two exchange pathways."""
    kappa, db, ob = frame.kappa, frame.delta_bar, frame.omega_bar
    if kappa == 0 and abs(db) == ob:
        raise OutOfValidityError(
            "exchange coupling diverges for a lossless cavity at delta_bar = +-omega_bar"
        )
    return frame.G_1 * frame.G_2 * exchange_pathway_sum(db, ob, kappa)


def exchange_pathway_sum(delta_bar, omega_bar: float, kappa: float):
    """Exchange coupling per unit G_1 G_2 as the sum of its two pathways.

    -[lo/(kappa^2/4 + lo^2) + hi/(kappa^2/4 + hi^2)] with lo, hi =
    delta_bar -+ omega_bar; elementwise for an array of detunings.
    """
    lo, hi = delta_bar - omega_bar, delta_bar + omega_bar
    k2 = kappa * kappa / 4
    return -(lo / (k2 + lo * lo) + hi / (k2 + hi * hi))


def single_mode_rates(frame: FrameParams, j: int) -> tuple[float, float]:
    """(Gamma_j, nbar_j) for mode j in {1, 2}; nbar_j is NaN when Gamma_j = 0."""
    down, up = single_mode_rate_pair(frame, j)
    gamma = down - up
    nbar = up / gamma if gamma != 0 else math.nan
    return gamma, nbar


def single_mode_rate_pair(frame: FrameParams, j: int) -> tuple[float, float]:
    """Nonnegative (down, up) rate pair of mode j's own bath."""
    if j not in (1, 2):
        raise ValueError(f"mode index must be 1 or 2, got {j}")
    x = bath_centers(frame)[j - 1]
    G = frame.G_1 if j == 1 else frame.G_2
    return _lorentzian_pair(G * G, frame.kappa, frame.delta_bar, x)


def collective_rates(frame: FrameParams) -> tuple[float, float]:
    """(Gamma, nbar) of the shared bath; nbar is NaN when Gamma = 0."""
    down, up = collective_rate_pair(frame)
    gamma = down - up
    nbar = up / gamma if gamma != 0 else math.nan
    return gamma, nbar


def collective_rate_pair(frame: FrameParams) -> tuple[float, float]:
    """Nonnegative (down, up) rate pair of the shared collective bath."""
    return _lorentzian_pair(
        frame.G_1 * frame.G_2, frame.kappa, frame.delta_bar, frame.omega_bar
    )


def total_decoherence(frame: FrameParams) -> float:
    """Total mediator-induced excess-noise rate, up_1 + up_2 + 2 up_collective.

    Equals Gamma_1 nbar_1 + Gamma_2 nbar_2 + 2 Gamma nbar wherever those
    factors are individually finite, but is well defined everywhere.
    """
    _, up1 = single_mode_rate_pair(frame, 1)
    _, up2 = single_mode_rate_pair(frame, 2)
    _, upc = collective_rate_pair(frame)
    return up1 + up2 + 2 * upc


def classicality_ratio(frame: FrameParams) -> float:
    """Coherent coupling over total excess noise, |J| / Gamma_total.

    Returns ``inf`` in the lossless (unitary) limit where no excess noise
    is generated; :func:`interaction_regime` labels that case separately.
    """
    gamma = total_decoherence(frame)
    if gamma == 0:
        return math.inf
    return abs(exchange_coupling(frame)) / gamma


def interaction_regime(xi: float) -> str:
    """Classify the mediated interaction; the boundary value counts as classical."""
    if math.isinf(xi):
        return "unitary-limit"
    return "classical" if xi <= 0.5 else "quantum"


def frequency_shifts(frame: FrameParams) -> tuple[float, float]:
    """Mode frequency shifts as they enter the effective generator.

    The eliminated-cavity frame shifts carry the opposite sign of the
    reported ``optical_spring`` values.
    """
    return (-frame.spring_1, -frame.spring_2)


def collective_mode_coeffs(g_1: float, g_2: float) -> CollectiveMode:
    """Shared-bath mode coefficients, (sqrt(g1/g2), sqrt(g2/g1))."""
    if g_1 <= 0 or g_2 <= 0:
        raise ValueError("couplings must be positive to define the collective mode")
    return CollectiveMode(c_1=math.sqrt(g_1 / g_2), c_2=math.sqrt(g_2 / g_1))


def effective_params(frame: FrameParams) -> EffectiveParams:
    """Assemble the full effective parameter set for one frame."""
    d1, u1 = single_mode_rate_pair(frame, 1)
    d2, u2 = single_mode_rate_pair(frame, 2)
    dc, uc = collective_rate_pair(frame)
    g1, g2 = d1 - u1, d2 - u2
    gc = dc - uc
    gamma_total = u1 + u2 + 2 * uc
    coupling = exchange_coupling(frame)
    return EffectiveParams(
        exchange_coupling=coupling,
        gamma_1=g1,
        gamma_2=g2,
        gamma_collective=gc,
        nbar_1=u1 / g1 if g1 != 0 else math.nan,
        nbar_2=u2 / g2 if g2 != 0 else math.nan,
        nbar_collective=uc / gc if gc != 0 else math.nan,
        gamma_total=gamma_total,
        xi=abs(coupling) / gamma_total if gamma_total > 0 else math.inf,
        rate_table={"1": (d1, u1), "2": (d2, u2), "collective": (dc, uc)},
    )


def coupling_nulls(frame: FrameParams, tol: float = 1e-12) -> list[float]:
    """All central detunings where the exchange coupling vanishes.

    Zero is always a root (returned analytically).  Interior roots at
    +-sqrt(omega_bar^2 - kappa^2/4) exist only for kappa < 2 omega_bar;
    they are located by sign-change bracketing on a log grid followed by
    bisection, and checked against the analytic values.
    """
    ob, kappa = frame.omega_bar, frame.kappa
    roots = [0.0]
    if kappa >= 2 * ob:
        return roots

    grid = np.geomspace(1e-6 * ob, 4.0 * ob, 400)
    vals = exchange_pathway_sum(grid, ob, kappa)
    positive_root = None
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            positive_root = a
            break
        if fa * fb < 0:
            while b - a > tol:
                m = 0.5 * (a + b)
                fm = exchange_pathway_sum(m, ob, kappa)
                if fm == 0.0:
                    a = b = m
                elif fa * fm < 0:
                    b, fb = m, fm
                else:
                    a, fa = m, fm
            positive_root = 0.5 * (a + b)
            break
    if positive_root is None:
        return roots

    analytic = math.sqrt(ob * ob - kappa * kappa / 4)
    if abs(positive_root - analytic) > 1e-9:
        raise RuntimeError(
            f"numeric null {positive_root!r} disagrees with analytic {analytic!r}"
        )
    return [-positive_root, 0.0, positive_root]


# -- rational closed forms, kept for cross-checking the rate pairs ---------

def gamma_single_closed(G: float, x: float, delta_bar: float, kappa: float) -> float:
    """Net single-mode rate as one rational expression in (delta_bar, x)."""
    den = (kappa * kappa / 4 + x * x - delta_bar * delta_bar) ** 2 + kappa * kappa * delta_bar * delta_bar
    return 4 * G * G * kappa * delta_bar * x / den


def gamma_collective_closed(G_1: float, G_2: float, omega_bar: float, delta_bar: float, kappa: float) -> float:
    """Net collective rate as one rational expression."""
    den = (kappa * kappa / 4 + omega_bar * omega_bar - delta_bar * delta_bar) ** 2 + kappa * kappa * delta_bar * delta_bar
    return 4 * G_1 * G_2 * kappa * delta_bar * omega_bar / den


def nbar_closed(x: float, delta_bar: float, kappa: float) -> float:
    """Effective occupation as the explicit four-term expression."""
    return (
        kappa * kappa / (16 * delta_bar * x)
        + delta_bar / (4 * x)
        + x / (4 * delta_bar)
        - 0.5
    )
