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
)


@dataclass(frozen=True)
class FullLinearized:
    """Displaced-frame tri-partite generator; subsystem order (cavity, 1, 2)."""

    frame: FrameParams


@dataclass(frozen=True)
class EffectiveTwoMode:
    """Effective two-mode generator; subsystem order (mode 1, mode 2).

    It has no number terms: the optical springs ``FrameParams.spring_1/2``
    are reported, never folded into the mode frequencies.  A model with
    shifted modes is built as a :class:`QuadraticModel`, with its number
    terms ``(c, m, m, False)`` in ``static``.
    """

    params: EffectiveParams
    collective: CollectiveMode
    thermal_baths: tuple[tuple[float, float], ...] | None = None


def effective_generator(frame: FrameParams) -> EffectiveTwoMode:
    """Assemble the effective generator for a frame."""
    return EffectiveTwoMode(
        params=effective_params(frame),
        collective=collective_mode_coeffs(frame.g_1, frame.g_2),
        thermal_baths=frame.thermal_baths,
    )


@dataclass(frozen=True)
class QuadraticModel:
    """One quadratic open-system model, read by both engines.

    The modes list any cavity modes first and the mechanical pair last:
    both engines read the last two modes as that pair, so a model needs
    at least two.

    A Hamiltonian term ``(c, m, n, squeeze)`` is c b_m^dag X_n + h.c. with
    X_n = b_n^dag if ``squeeze`` else b_n; for m == n it is c b_m^dag b_m.
    ``static`` holds the constant terms and ``oscillating`` groups
    ``(nu, terms)`` whose coefficients carry a factor exp(i nu t), sorted
    by exact integer frequency label.  A jump ``(coeffs, dagger, rate)``
    is sqrt(rate) sum_m c_m b_m over the ``(m, c_m)`` pairs, with b_m^dag
    in place of b_m when ``dagger``.  Construction rejects a non-finite
    term, a negative rate, a mode index outside the model or fewer than
    two modes; then it drops the jumps of zero rate, which do nothing.
    """

    n_modes: int
    static: tuple
    oscillating: tuple
    jumps: tuple

    def __post_init__(self):
        if self.n_modes < 2:
            raise ValueError(f"the model has {self.n_modes} modes; both engines read its last "
                             "two modes as the mechanical pair")
        terms = self.terms
        coefficients = [c for c, *_ in terms] + [c for coeffs, _, _ in self.jumps for _, c in coeffs]
        for kind, values in (("coefficient", coefficients), ("frequency", [nu for nu, _ in self.oscillating]),
                             ("rate", [rate for *_, rate in self.jumps])):
            bad = [v for v in values if not cmath.isfinite(v)]
            if bad:
                raise ValueError(f"non-finite {kind} {bad[0]} in the model")
        modes = [i for term in terms for i in term[1:3]] + [m for coeffs, *_ in self.jumps for m, _ in coeffs]
        bad = [m for m in modes if not 0 <= m < self.n_modes]
        if bad:
            raise ValueError(f"mode index {bad[0]} outside a {self.n_modes}-mode model")
        for coeffs, dagger, rate in self.jumps:
            if rate < 0:
                kind = "raising" if dagger else "lowering"
                raise ValueError(f"negative Lindblad rate {rate} on the {kind} jump of modes "
                                 f"{[m for m, _ in coeffs]}")
        object.__setattr__(self, "jumps", tuple(jump for jump in self.jumps if jump[2] > 0))

    @property
    def terms(self) -> list:
        """Every Hamiltonian term, the static ones first, then the oscillating ones."""
        return [term for _, group in ((0.0, self.static), *self.oscillating) for term in group]

    @property
    def f_max(self) -> float:
        """Fastest scale of the model: the largest |c| of any term, static or oscillating, |nu| and rate."""
        return max([abs(term[0]) for term in self.terms] + [abs(nu) for nu, _ in self.oscillating]
                   + [rate for _, _, rate in self.jumps] + [0.0])


def quadratic_model(spec) -> QuadraticModel:
    """Describe a generator spec as a :class:`QuadraticModel`.

    A :class:`QuadraticModel` is returned as it is; its construction
    checks the terms.  An :class:`EffectiveTwoMode` is described by its
    exchange term ``(J, 0, 1, False)`` alone, with no number term, and by
    the jumps of its three bath pairs and of any thermal baths.
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
        baths = fr.thermal_baths
    elif isinstance(spec, EffectiveTwoMode):
        p = spec.params
        n_modes, oscillating = 2, ()
        static = ((p.exchange_coupling, 0, 1, False),)
        collective = ((0, spec.collective.c_1), (1, spec.collective.c_2))
        jumps = []
        for coeffs, name in ((((0, 1.0),), "1"), (((1, 1.0),), "2"), (collective, "collective")):
            down, up = p.rate_table[name]
            jumps += [(coeffs, False, down), (coeffs, True, up)]
        baths = spec.thermal_baths
    else:
        raise TypeError(f"unknown generator spec {type(spec).__name__}")
    for (rate, nth), m in zip(baths or (), range(n_modes - 2, n_modes)):  # the mechanical pair
        jumps += [(((m, 1.0),), False, rate * (nth + 1)), (((m, 1.0),), True, rate * nth)]
    return QuadraticModel(n_modes, static, oscillating, tuple(jumps))


def named_model(frame: FrameParams, model: str) -> QuadraticModel:
    """The "full" (linearized tri-partite) or "effective" (two-mode) model on a frame."""
    if model not in ("full", "effective"):
        raise ValueError("model must be 'full' or 'effective'")
    return quadratic_model(FullLinearized(frame) if model == "full" else effective_generator(frame))
