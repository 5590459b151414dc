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

One array-valued core holds these formulas: :func:`rate_pairs` returns
the three (down, up) pairs elementwise in ``delta_bar``, and
:func:`total_noise` sums them into Gamma_total.  :func:`effective_params`
and the sweeps in :mod:`cavmech.analysis` are both built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FrameParams, _anywhere


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


def _baths(omega_bar, delta_omega, G_1, G_2) -> dict[str, tuple]:
    """Coupling product G^2 and Lorentzian center x of each bath."""
    return {
        "1": (G_1 * G_1, omega_bar + delta_omega),
        "2": (G_2 * G_2, omega_bar - delta_omega),
        "collective": (G_1 * G_2, omega_bar),
    }


def bath_centers(frame: FrameParams) -> tuple[float, float]:
    """Lorentzian centers of the two single-mode baths, x_j = 2 omega_j - omega_bar."""
    baths = _baths(frame.omega_bar, frame.delta_omega, frame.G_1, frame.G_2)
    return baths["1"][1], baths["2"][1]


def _lorentzian_pair(G_sq, kappa, delta_bar, x):
    """(down, up) Lorentzian rate pair of a lossy cavity; elementwise."""
    # products, not ** 2: a Python float's ** is libm pow, which may round
    # differently from NumPy's square of the same number
    d_down, d_up = delta_bar - x, delta_bar + x
    down = G_sq * kappa / (kappa * kappa / 4 + d_down * d_down)
    up = G_sq * kappa / (kappa * kappa / 4 + d_up * d_up)
    return down, up


def rate_pairs(delta_bar, omega_bar, delta_omega, kappa, G_1, G_2) -> dict[str, tuple]:
    """(down, up) pair of each bath "1", "2", "collective"; elementwise.

    A lossless cavity gives every bath the pair (0, 0).  An array of
    decays must be lossless everywhere or nowhere.
    """
    baths = _baths(omega_bar, delta_omega, G_1, G_2)
    if _anywhere(kappa == 0.0):
        if _anywhere(kappa != 0.0):
            raise ValueError("rate_pairs needs kappa lossless everywhere or nowhere")
        return {name: (0.0, 0.0) for name in baths}
    return {name: _lorentzian_pair(G_sq, kappa, delta_bar, x) for name, (G_sq, x) in baths.items()}


def total_noise(table: dict[str, tuple]):
    """Total mediator-induced excess-noise rate, up_1 + up_2 + 2 up_collective.

    Equals Gamma_1 nbar_1 + Gamma_2 nbar_2 + 2 Gamma nbar wherever those
    factors are individually finite, but is well defined everywhere.
    """
    return table["1"][1] + table["2"][1] + 2 * table["collective"][1]


def exchange_coupling(frame: FrameParams) -> float:
    """Coherent excitation-exchange rate between the two modes.

    Evaluated as G1 G2 Im[(kappa + 2i delta_bar)/((kappa/2 + i delta_bar)^2
    + omega_bar^2)]; equal to G1 G2 times :func:`exchange_pathway_sum`.
    Elementwise for a frame of arrays.
    """
    kappa, db, ob = frame.kappa, frame.delta_bar, frame.omega_bar
    den = (kappa / 2 + 1j * db) ** 2 + ob * ob
    if _anywhere(den == 0):
        raise OutOfValidityError(
            "exchange coupling diverges for a lossless cavity at delta_bar = +-omega_bar"
        )
    return frame.G_1 * frame.G_2 * ((kappa + 2j * db) / den).imag


def exchange_pathway_sum(delta_bar, omega_bar: float, kappa: float):
    """Exchange coupling per unit G_1 G_2 as the sum of its two pathways.

    -[lo/(kappa^2/4 + lo^2) + hi/(kappa^2/4 + hi^2)] with lo, hi =
    delta_bar -+ omega_bar; elementwise for an array of detunings.
    """
    lo, hi = delta_bar - omega_bar, delta_bar + omega_bar
    k2 = kappa * kappa / 4
    return -(lo / (k2 + lo * lo) + hi / (k2 + hi * hi))


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
    table = rate_pairs(frame.delta_bar, frame.omega_bar, frame.delta_omega,
                       frame.kappa, frame.G_1, frame.G_2)
    gamma = {name: down - up for name, (down, up) in table.items()}
    nbar = {name: table[name][1] / g if g != 0 else math.nan for name, g in gamma.items()}
    gamma_total = total_noise(table)
    coupling = exchange_coupling(frame)
    return EffectiveParams(
        exchange_coupling=coupling,
        gamma_1=gamma["1"],
        gamma_2=gamma["2"],
        gamma_collective=gamma["collective"],
        nbar_1=nbar["1"],
        nbar_2=nbar["2"],
        nbar_collective=nbar["collective"],
        gamma_total=gamma_total,
        xi=abs(coupling) / gamma_total if gamma_total > 0 else math.inf,
        rate_table=table,
    )


def coupling_nulls(frame: FrameParams, tol: float = 1e-12) -> list[float]:
    """All central detunings where the exchange coupling vanishes.

    Zero is always a root (returned analytically).  Interior roots at
    +-sqrt(omega_bar^2 - kappa^2/4) exist only for 0 < kappa < 2 omega_bar:
    a lossless cavity has poles at +-omega_bar and no other zero.  They
    are located by sign-change bracketing on a log grid followed by
    bisection, and checked against the analytic values.
    """
    ob, kappa = frame.omega_bar, frame.kappa
    roots = [0.0]
    if not 0 < kappa < 2 * ob:
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

def _net_rate_denominator(x, delta_bar, kappa):
    """(kappa^2/4 + x^2 - delta_bar^2)^2 + kappa^2 delta_bar^2; elementwise."""
    d = kappa * kappa / 4 + x * x - delta_bar * delta_bar
    return d * d + kappa * kappa * delta_bar * delta_bar


def net_rate_closed(G_sq, x, delta_bar, kappa):
    """Net rate down - up of a bath as one rational expression; elementwise."""
    return 4 * G_sq * kappa * delta_bar * x / _net_rate_denominator(x, delta_bar, kappa)


def nbar_closed(x: float, delta_bar: float, kappa: float) -> float:
    """Effective occupation as the explicit four-term expression."""
    return (
        kappa * kappa / (16 * delta_bar * x)
        + delta_bar / (4 * x)
        + x / (4 * delta_bar)
        - 0.5
    )
