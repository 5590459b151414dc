"""One description of a quadratic open-system model, read by both engines.

The generator specs (the full linearized tri-partite model and the
effective two-mode model) are described as a :class:`QuadraticModel`:
Hamiltonian terms with exact frequency labels and linear jumps with
their rates.  :mod:`cavmech.fock` compiles it to a Fock-space generator
and :mod:`cavmech.gaussian` to moment equations.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .model import FrameParams
from .effective import (
    CollectiveMode,
    EffectiveParams,
    collective_mode_coeffs,
    effective_params,
    frequency_shifts,
)


@dataclass(frozen=True)
class FullLinearized:
    """Displaced-frame tri-partite generator; subsystem order (cavity, 1, 2)."""

    frame: FrameParams


@dataclass(frozen=True)
class EffectiveTwoMode:
    """Effective two-mode generator; subsystem order (mode 1, mode 2).

    ``freq_shifts`` are the coefficients of the two number operators; by
    default the frame shifts are taken as absorbed into the mode operators
    and set to zero.
    """

    params: EffectiveParams
    collective: CollectiveMode
    freq_shifts: tuple[float, float] = (0.0, 0.0)
    thermal_baths: tuple[tuple[float, float], ...] | None = None


def effective_generator(frame: FrameParams, include_shifts: bool = False) -> EffectiveTwoMode:
    """Assemble the effective generator for a frame."""
    return EffectiveTwoMode(
        params=effective_params(frame),
        collective=collective_mode_coeffs(frame.g_1, frame.g_2),
        freq_shifts=frequency_shifts(frame) if include_shifts else (0.0, 0.0),
        thermal_baths=frame.thermal_baths,
    )


@dataclass(frozen=True)
class QuadraticModel:
    """One quadratic open-system model, read by both engines.

    A Hamiltonian term ``(c, m, n, squeeze)`` is c b_m^dag X_n + h.c. with
    X_n = b_n^dag if ``squeeze`` else b_n; for m == n it is c b_m^dag b_m.
    ``static`` holds the constant terms and ``oscillating`` groups
    ``(nu, terms)`` whose coefficients carry a factor exp(i nu t), sorted
    by exact integer frequency label.  A jump ``(coeffs, dagger, rate)``
    is sqrt(rate) sum_m c_m b_m over the ``(m, c_m)`` pairs, with b_m^dag
    in place of b_m when ``dagger``; every rate is positive.
    """

    n_modes: int
    static: tuple
    oscillating: tuple
    jumps: tuple
    f_max: float


def quadratic_model(spec) -> QuadraticModel:
    """Describe a generator spec as a :class:`QuadraticModel`.

    A :class:`QuadraticModel` is returned as it is.  Raises ``ValueError``
    for a non-finite coefficient, frequency or rate, and for a negative
    Lindblad rate.
    """
    if isinstance(spec, QuadraticModel):
        return spec
    if isinstance(spec, FullLinearized):
        fr = spec.frame
        # a^dag b_j^dag and a^dag b_j terms grouped by the exact label
        # (n, m, p) of nu = n delta_bar + m omega_bar + p delta_omega/2
        delta_sym = {1: (1, 0, 1), 2: (1, 0, -1)}
        omega_sym = {1: (0, 1, 1), 2: (0, 1, -1)}
        by_freq: dict[tuple[int, int, int], list] = {}
        for j, G in ((1, fr.G_1), (2, fr.G_2)):
            for k in (1, 2):
                for sign, squeeze in ((1, True), (-1, False)):
                    key = tuple(d + sign * w for d, w in zip(delta_sym[k], omega_sym[j]))
                    by_freq.setdefault(key, []).append((G, 0, j, squeeze))
        n_modes, static = 3, ()
        oscillating = tuple(
            (n * fr.delta_bar + m * fr.omega_bar + p * (fr.delta_omega / 2), tuple(terms))
            for (n, m, p), terms in sorted(by_freq.items())
        )
        jumps = [(((0, 1.0),), False, fr.kappa)]
        mechanical, baths = (1, 2), fr.thermal_baths
    elif isinstance(spec, EffectiveTwoMode):
        p = spec.params
        s1, s2 = spec.freq_shifts
        n_modes, oscillating = 2, ()
        static = ((s1, 0, 0, False), (s2, 1, 1, False), (p.exchange_coupling, 0, 1, False))
        collective = ((0, spec.collective.c_1), (1, spec.collective.c_2))
        jumps = []
        for coeffs, name in ((((0, 1.0),), "1"), (((1, 1.0),), "2"), (collective, "collective")):
            down, up = p.rate_table[name]
            jumps += [(coeffs, False, down), (coeffs, True, up)]
        mechanical, baths = (0, 1), spec.thermal_baths
    else:
        raise TypeError(f"unknown generator spec {type(spec).__name__}")
    for (rate, nth), m in zip(baths or (), mechanical):
        jumps += [(((m, 1.0),), False, rate * (nth + 1)), (((m, 1.0),), True, rate * nth)]
    coefficients = [term[0] for _, terms in ((0.0, static), *oscillating) for term in terms]
    coefficients += [c for coeffs, _, _ in jumps for _, c in coeffs]
    for kind, values in (("coefficient", coefficients), ("frequency", [nu for nu, _ in oscillating]),
                         ("rate", [rate for *_, rate in jumps])):
        bad = [v for v in values if not cmath.isfinite(v)]
        if bad:
            raise ValueError(f"non-finite {kind} {bad[0]} in the model")
    for coeffs, dagger, rate in jumps:
        if rate < 0:
            kind = "raising" if dagger else "lowering"
            modes = [m for m, _ in coeffs]
            raise ValueError(f"negative Lindblad rate {rate} on the {kind} jump of modes {modes}")
    f_max = max([abs(term[0]) for term in static] + [abs(nu) for nu, _ in oscillating]
                + [rate for _, _, rate in jumps] + [0.0])
    # a zero-rate jump does nothing and is dropped
    return QuadraticModel(n_modes, static, oscillating,
                          tuple(jump for jump in jumps if jump[2] > 0), f_max)
