"""Independent re-derivation of the effective two-mode generator.

Eliminating the cavity at second order in the coupling produces, before
any rotating-wave step, a sum of elementary superoperator terms

    c * (P rho Q),    c = +- G G' / (kappa/2 +- i (Delta_k +- omega_j)),

each oscillating at an exactly known residual frequency.  This module
enumerates every such term, filters the resonant ones symbolically (the
beat-note condition makes residual frequencies exact integer combinations
of the collective coordinates, so no numeric near-zero test is involved),
and reduces the surviving terms to Hamiltonian and bath parameters.  It
shares no code with the closed forms in :mod:`cavmech.effective`, which it
exists to check.

The terms, their frequency labels and their normal-ordered monomials do
not depend on the frame; only the coefficients do.  So a frame whose
numeric fields are equal-length 1-D arrays (one entry per parameter draw)
is enumerated and reduced once, with every coefficient, structure check
and result an array over the draws.  A frame of scalars gives scalar
results.

A coefficient depends only on its sign, the modes j and j', the pump k'
and the inner component, not on the pump k or the quadrature component
it is paired with.  Each distinct one (32, and their 32 negations) is
computed once, and the terms that use it share the object.  Shared arrays
are read-only: to change one term's coefficient, assign a new one to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import FrameParams
from .effective import EffectiveParams


class StructureError(RuntimeError):
    """The reduced generator contains terms outside the expected patterns."""


# An operator is (mode, dagger); a frequency is an exact integer triple
# (n, m, p) meaning n*delta_bar + m*omega_bar + p*(delta_omega/2).
Op = tuple[int, bool]
Freq = tuple[int, int, int]

_ZERO: Freq = (0, 0, 0)


def _fadd(a: Freq, b: Freq) -> Freq:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _fneg(a: Freq) -> Freq:
    return (-a[0], -a[1], -a[2])


@dataclass
class PreRwaTerm:
    """One elementary contribution c * (left rho right); ``c`` is an array
    over the draws of an array frame, read-only and shared with the other
    terms that have the same coefficient."""

    left: tuple[Op, ...]
    right: tuple[Op, ...]
    coefficient: complex | np.ndarray
    frequency: Freq
    source: str

    def frequency_value(self, frame: FrameParams) -> float:
        n, m, p = self.frequency
        return n * frame.delta_bar + m * frame.omega_bar + p * (frame.delta_omega / 2)


@dataclass
class CoefficientTable:
    """Resonant terms of the eliminated generator, plus the dropped ones."""

    frame: FrameParams
    single_mode_terms: list[PreRwaTerm] = field(default_factory=list)
    cross_terms: list[PreRwaTerm] = field(default_factory=list)
    dropped_terms: list[PreRwaTerm] = field(default_factory=list)

    @property
    def resonant_terms(self) -> list[PreRwaTerm]:
        return self.single_mode_terms + self.cross_terms


def build_coefficient_table(frame: FrameParams) -> CoefficientTable:
    """Enumerate all second-order terms and keep the resonant ones.

    The outer factor comes from the traced commutator, the inner one from
    the stationary solution of the coherence matrix element; every pairing
    of mode, pump, quadrature component, inner component, and operator
    placement is generated (256 terms), then filtered on exact residual
    frequency.  The numeric fields of ``frame`` may be scalars or
    equal-length 1-D arrays; each coefficient then has their shape.  Each
    distinct coefficient is computed once, before the enumeration.
    """
    if not np.all(frame.kappa > 0):
        raise ValueError("the elimination requires kappa > 0")

    G = {1: frame.G_1, 2: frame.G_2}
    delta_val = {1: frame.delta_1, 2: frame.delta_2}
    delta_sym: dict[int, Freq] = {1: (1, 0, 1), 2: (1, 0, -1)}
    omega_val = {1: frame.omega_1, 2: frame.omega_2}
    omega_sym: dict[int, Freq] = {1: (0, 1, 1), 2: (0, 1, -1)}
    half_kappa = frame.kappa / 2

    def shared(c):
        """``(c, -c)``, read-only if arrays: the terms that use either share it."""
        pair = (c, -c)
        for a in pair:
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        return pair

    # (M, b^dag), (M, b), (Md, b), (Md, b^dag) coefficients of (j, j2, k2)
    coefficients = {}
    for j in (1, 2):
        for j2 in (1, 2):
            for k2 in (1, 2):
                plus_val = delta_val[k2] + omega_val[j2]
                minus_val = delta_val[k2] - omega_val[j2]
                coefficients[j, j2, k2] = (
                    shared(-G[j] * G[j2] / (half_kappa + 1j * plus_val)),
                    shared(-G[j] * G[j2] / (half_kappa + 1j * minus_val)),
                    shared(G[j] * G[j2] / (half_kappa - 1j * plus_val)),
                    shared(G[j] * G[j2] / (half_kappa - 1j * minus_val)),
                )

    table = CoefficientTable(frame=frame)

    def emit(left, right, coeff, freq, tag, single):
        term = PreRwaTerm(tuple(left), tuple(right), coeff, freq, tag)
        if freq == _ZERO:
            (table.single_mode_terms if single else table.cross_terms).append(term)
        else:
            table.dropped_terms.append(term)

    for j in (1, 2):
        x_components = (((j, False), _fneg(omega_sym[j])), ((j, True), omega_sym[j]))
        for k in (1, 2):
            for j2 in (1, 2):
                single = j2 == j
                for k2 in (1, 2):
                    nu_plus = _fadd(delta_sym[k2], omega_sym[j2])
                    nu_minus = _fadd(delta_sym[k2], _fneg(omega_sym[j2]))
                    m_plus, m_minus, md_plus, md_minus = coefficients[j, j2, k2]
                    # inner components of the stationary coherence and its dagger
                    inner_m = (
                        ((j2, True), nu_plus, m_plus),
                        ((j2, False), nu_minus, m_minus),
                    )
                    inner_mdag = (
                        ((j2, False), _fneg(nu_plus), md_plus),
                        ((j2, True), _fneg(nu_minus), md_minus),
                    )
                    for x_op, x_freq in x_components:
                        for in_op, in_freq, (c, neg_c) in inner_m:
                            freq = _fadd(_fadd(_fneg(delta_sym[k]), x_freq), in_freq)
                            tag = f"j{j}k{k}:X{'+' if x_op[1] else '-'}.M(j{j2}k{k2})"
                            emit([x_op, in_op], [], c, freq, tag + ":XM", single)
                            emit([in_op], [x_op], neg_c, freq, tag + ":MX", single)
                        for in_op, in_freq, (c, neg_c) in inner_mdag:
                            freq = _fadd(_fadd(delta_sym[k], x_freq), in_freq)
                            tag = f"j{j}k{k}:X{'+' if x_op[1] else '-'}.Md(j{j2}k{k2})"
                            emit([x_op], [in_op], c, freq, tag + ":XMd", single)
                            emit([], [in_op, x_op], neg_c, freq, tag + ":MdX", single)
    return table


# -- minimal normal-ordered algebra over at-most-quadratic monomials -------

def _canonical(seq: tuple[Op, ...]) -> dict[tuple[Op, ...], complex]:
    """Normal-order a raw product of 0..2 mode operators.

    Different modes commute; within a mode, b b^dag rewrites to b^dag b + 1.
    Canonical monomials sort ops by (mode, annihilation-after-creation).
    """
    if len(seq) <= 1:
        return {tuple(seq): 1.0 + 0j}
    (m1, d1), (m2, d2) = seq
    if m1 != m2:
        ordered = tuple(sorted(seq, key=lambda op: op[0]))
        return {ordered: 1.0 + 0j}
    if d1 == d2:
        return {seq: 1.0 + 0j}
    if d1 and not d2:
        return {seq: 1.0 + 0j}
    # b b^dag = b^dag b + 1
    return {((m1, True), (m1, False)): 1.0 + 0j, (): 1.0 + 0j}


def _poly_add(poly: dict, seq: tuple[Op, ...], coeff: complex) -> None:
    for mono, w in _canonical(seq).items():
        poly[mono] = poly.get(mono, 0.0 + 0j) + coeff * w


def _poly_dagger(poly: dict) -> dict:
    out: dict[tuple[Op, ...], complex] = {}
    for mono, c in poly.items():
        flipped = tuple((m, not d) for (m, d) in reversed(mono))
        _poly_add(out, flipped, c.conjugate())
    return out


def _matrix_max(m: np.ndarray):
    """Largest |entry| of each draw's 2 x 2 matrix."""
    return np.abs(m).max(axis=(0, 1))


def _at_draws(bad) -> str:
    """The draws a structure check failed at; empty for a scalar frame."""
    if np.ndim(bad) == 0:
        return ""
    idx = np.flatnonzero(bad)
    shown = ", ".join(str(i) for i in idx[:10]) + (", ..." if idx.size > 10 else "")
    return f" at draws [{shown}] ({idx.size} of {np.size(bad)})"


def _where_defined(ok, num, den, fallback):
    """num / den where ``ok``, else ``fallback``; per draw.  ``[()]`` turns
    a scalar frame's 0-d result back into a scalar."""
    return np.where(ok, num / np.where(ok, den, 1.0), fallback)[()]


@dataclass
class ReductionResult:
    """Effective parameters recovered term-by-term from the table.

    Every number is an array over the draws of an array frame; the rate
    matrices then have shape (2, 2, draws).
    """

    params: EffectiveParams
    frequency_shifts: tuple[float, float]
    down_matrix: np.ndarray
    up_matrix: np.ndarray
    validity_ratios: dict[str, float]


# Largest residual a structure check forgives, relative to the largest coefficient.
_STRUCTURE_TOL = 1e-10


def reduce_to_effective(table: CoefficientTable) -> ReductionResult:
    """Group the resonant terms into Hamiltonian and bath contributions.

    The grouping is done once for all draws of an array frame, and every
    structure check is made per draw against that draw's own scale.
    Raises :class:`StructureError` if the term set is not closed under
    conjugation, contains sandwich terms outside the down/up patterns, or
    fails to conserve the trace, and identifies the offending monomials
    and the draws they fail at.
    """
    frame = table.frame
    shape = np.broadcast_shapes(*(np.shape(t.coefficient) for t in table.resonant_terms))
    left_poly: dict[tuple[Op, ...], complex] = {}
    right_poly: dict[tuple[Op, ...], complex] = {}
    down = np.zeros((2, 2) + shape, complex)
    up = np.zeros((2, 2) + shape, complex)
    residuals: list[str] = []

    def check(bad, what: str) -> None:
        if np.any(bad):
            residuals.append(what + _at_draws(bad))

    for term in table.resonant_terms:
        if len(term.left) == 2:
            _poly_add(left_poly, term.left, term.coefficient)
        elif len(term.right) == 2:
            _poly_add(right_poly, term.right, term.coefficient)
        else:
            (lm, ld), (rm, rd) = term.left[0], term.right[0]
            if not ld and rd:
                down[lm - 1, rm - 1] += term.coefficient
            elif ld and not rd:
                up[lm - 1, rm - 1] += term.coefficient
            else:
                residuals.append(f"sandwich {term.left} rho {term.right} from {term.source}")

    scale = np.max([*(np.abs(c) for c in left_poly.values()), _matrix_max(down), _matrix_max(up)],
                   axis=0)
    tol = _STRUCTURE_TOL * scale

    # the right-acting half must be the dagger of the left-acting half
    dag = _poly_dagger(left_poly)
    for mono in set(dag) | set(right_poly):
        check(np.abs(dag.get(mono, 0) - right_poly.get(mono, 0)) > tol,
              f"conjugation mismatch on monomial {mono}")

    # trace conservation: M + M^dag + sum_c (Q P) must cancel exactly
    balance: dict[tuple[Op, ...], complex] = dict(left_poly)
    for mono, c in dag.items():
        balance[mono] = balance.get(mono, 0) + c
    for i in range(2):
        for j in range(2):
            _poly_add(balance, ((j + 1, True), (i + 1, False)), down[i, j])
            _poly_add(balance, ((j + 1, False), (i + 1, True)), up[i, j])
    for mono, c in balance.items():
        remainder = np.abs(c)
        check(remainder > tol, f"trace-violating remainder up to {np.max(remainder):.3g} on {mono}")

    def adjoint(m):
        return m.swapaxes(0, 1).conj()

    check((_matrix_max(down - adjoint(down)) > tol) | (_matrix_max(up - adjoint(up)) > tol),
          "non-Hermitian rate matrix")
    check((_matrix_max(down.imag) > tol) | (_matrix_max(up.imag) > tol), "complex bath rates")

    if residuals:
        raise StructureError("; ".join(residuals))

    # Hamiltonian part: M = -iH - K/2  =>  H = (i/2)(M - M^dag)
    ham: dict[tuple[Op, ...], complex] = {}
    for mono in set(left_poly) | set(dag):
        h = 0.5j * (left_poly.get(mono, 0) - dag.get(mono, 0))
        ham[mono] = np.where(np.abs(h) > tol, h, 0)[()]

    def ham_coeff(mono):
        c = ham.get(mono, 0.0 + 0j)
        bad = np.abs(np.imag(c)) > tol
        if np.any(bad):
            raise StructureError(f"non-real Hamiltonian coefficient on {mono}{_at_draws(bad)}")
        return np.real(c)

    shift_1 = ham_coeff(((1, True), (1, False)))
    shift_2 = ham_coeff(((2, True), (2, False)))
    coupling = ham_coeff(((1, True), (2, False)))
    known = {((1, True), (1, False)), ((2, True), (2, False)),
             ((1, True), (2, False)), ((1, False), (2, True)), ()}
    extra = [f"{m}{_at_draws(h != 0)}" for m, h in ham.items() if m not in known and np.any(h != 0)]
    if extra:
        raise StructureError(f"unexpected Hamiltonian monomials {', '.join(extra)}")

    # split the rate matrices into per-mode baths and the shared bath
    # the shared bath couples through sqrt(g1/g2) b_1 + sqrt(g2/g1) b_2
    if np.any(frame.g_1 <= 0) or np.any(frame.g_2 <= 0):
        raise ValueError("couplings must be positive to define the collective mode")
    c_1, c_2 = np.sqrt(frame.g_1 / frame.g_2), np.sqrt(frame.g_2 / frame.g_1)
    c_sq = (c_1 ** 2, c_2 ** 2)
    down_r, up_r = down.real, up.real
    down_coll = down_r[0, 1] / (c_1 * c_2)
    up_coll = up_r[0, 1] / (c_1 * c_2)
    down_j = [down_r[i, i] - c_sq[i] * down_coll for i in range(2)]
    up_j = [up_r[i, i] - c_sq[i] * up_coll for i in range(2)]

    gammas = [down_j[i] - up_j[i] for i in range(2)]
    gamma_coll = down_coll - up_coll
    gamma_total = up_j[0] + up_j[1] + 2 * up_coll

    params = EffectiveParams(
        exchange_coupling=coupling,
        gamma_1=gammas[0],
        gamma_2=gammas[1],
        gamma_collective=gamma_coll,
        nbar_1=_where_defined(gammas[0] != 0, up_j[0], gammas[0], math.nan),
        nbar_2=_where_defined(gammas[1] != 0, up_j[1], gammas[1], math.nan),
        nbar_collective=_where_defined(gamma_coll != 0, up_coll, gamma_coll, math.nan),
        gamma_total=gamma_total,
        xi=_where_defined(gamma_total > 0, np.abs(coupling), gamma_total, math.inf),
        rate_table={
            "1": (down_j[0], up_j[0]),
            "2": (down_j[1], up_j[1]),
            "collective": (down_coll, up_coll),
        },
    )
    g_max = np.maximum(frame.G_1, frame.G_2)
    ratios = {
        "G_over_kappa": g_max / frame.kappa,
        "G_over_sideband_gap": g_max / np.minimum(
            np.abs(frame.delta_bar - frame.omega_bar) + frame.kappa / 2,
            np.abs(frame.delta_bar + frame.omega_bar) + frame.kappa / 2,
        ),
    }
    return ReductionResult(
        params=params,
        frequency_shifts=(shift_1, shift_2),
        down_matrix=down_r,
        up_matrix=up_r,
        validity_ratios=ratios,
    )


def apply_terms(terms: list[PreRwaTerm], rho: np.ndarray, b_ops: list[np.ndarray]) -> np.ndarray:
    """Apply the raw term list to a density matrix (for structural tests)."""
    def materialize(seq):
        out = np.eye(rho.shape[0], dtype=complex)
        for mode, dag in seq:
            op = b_ops[mode - 1]
            out = out @ (op.conj().T if dag else op)
        return out

    total = np.zeros_like(rho)
    for term in terms:
        total += term.coefficient * (materialize(term.left) @ rho @ materialize(term.right))
    return total
