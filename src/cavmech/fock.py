"""Truncated-Fock-space Lindblad integrator, and what both engines share.

Covers two generators: the full linearized tri-partite model (cavity plus
two mechanical modes, explicitly time-dependent in the displaced rotating
frame) and the time-independent effective two-mode model.  Each is
described once, as a :class:`QuadraticModel` (Hamiltonian terms with
exact frequency labels, linear jumps with their rates), from which this
module compiles the Fock-space generator and :mod:`cavmech.gaussian` the
moment equations.  A constant generator is propagated exactly from one
record to the next by the action of the exponential of its sparse
Lindblad superoperator; a time-dependent one by the RK4 kernel
:func:`propagate_rk4`, which the Gaussian engine uses too.  The kernel
takes steps of a multiple m dt of the record-grid step in pairs checked
by an enforced step-doubling estimate, and evaluates the drift at all the
stage times of a pair in one call (:meth:`CompiledGenerator.drift` takes
an array of times and sums the phase terms by one sparse product, so no
BLAS thread is woken).  Repeated runs are bit-identical, the trace is
never rescaled, and trace, Hermiticity, positivity, and top-level
population are monitored at every recorded step.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import curve_fit

from .model import FrameParams, SystemConfig, derive_frame
from .effective import (
    CollectiveMode,
    EffectiveParams,
    collective_mode_coeffs,
    effective_params,
    frequency_shifts,
)

DIMENSION_CAP = 4096


class TruncationError(RuntimeError):
    """Top Fock level acquired more population than the run allows."""


class StepControlError(RuntimeError):
    """The step-doubling estimate exceeded its tolerance at the finest step dt."""


class FitError(RuntimeError):
    """Rabi fit did not converge; carries the raw trajectory."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class FockSpace:
    """Per-subsystem truncation dimensions, product capped at 4096."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if any(d < 2 for d in self.dims):
            raise ValueError("every subsystem needs dimension >= 2")
        if self.total_dim > DIMENSION_CAP:
            raise ValueError(f"total dimension {self.total_dim} exceeds cap {DIMENSION_CAP}")

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)


@dataclass
class DensityState:
    """Dense density matrix with a time stamp."""

    matrix: np.ndarray
    time: float = 0.0

    def validate(self, trace_tol=1e-8, herm_tol=1e-10, eig_tol=1e-8):
        rho = self.matrix
        if abs(np.trace(rho).real - 1.0) > trace_tol or abs(np.trace(rho).imag) > trace_tol:
            raise ValueError("density matrix trace is not 1")
        if np.abs(rho - rho.conj().T).max() > herm_tol:
            raise ValueError("density matrix is not Hermitian")
        if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -eig_tol:
            raise ValueError("density matrix has a significantly negative eigenvalue")


def destroy(dim: int) -> np.ndarray:
    """Truncated annihilation operator, <n-1|b|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def build_operators(space: FockSpace) -> list[np.ndarray]:
    """Annihilation operators of every subsystem, identity-padded."""
    ops = []
    for i, d in enumerate(space.dims):
        mat = np.ones((1, 1), complex)
        for j, dj in enumerate(space.dims):
            mat = np.kron(mat, destroy(d) if j == i else np.eye(dj))
        ops.append(mat)
    return ops


def fock_state(space: FockSpace, occupations: tuple[int, ...]) -> np.ndarray:
    """Density matrix of a product Fock state |n_1, n_2, ...>."""
    if len(occupations) != len(space.dims):
        raise ValueError("one occupation per subsystem")
    idx = 0
    for n, d in zip(occupations, space.dims):
        if not 0 <= n < d:
            raise ValueError(f"occupation {n} outside dimension {d}")
        idx = idx * d + n
    rho = np.zeros((space.total_dim, space.total_dim), complex)
    rho[idx, idx] = 1.0
    return rho


# -- generator specifications ----------------------------------------------

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


# -- quadratic model ----------------------------------------------------------

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

    Raises ``ValueError`` for a negative Lindblad rate.
    """
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


# -- Fock-space compilation ---------------------------------------------------

class CompiledGenerator:
    """Matrices of one quadratic model on a concrete Fock space.

    The Hamiltonian is stored as a static part plus phase terms
    ``exp(i nu t) M + h.c.``.  A jump on one mode with coefficient 1 is a
    bare ladder operator, applied by index slicing (cheaper than two dense
    products); every other jump is a dense operator.
    """

    def __init__(self, space: FockSpace, model: QuadraticModel):
        if len(space.dims) != model.n_modes:
            raise ValueError(f"the model needs {model.n_modes} dims, one per mode")
        self.space = space
        dims = space.dims
        dim = space.total_dim
        ops = build_operators(space)

        def term(c, m, n, squeeze):
            return c * (ops[m].conj().T @ (ops[n].conj().T if squeeze else ops[n]))

        parts = []
        for c, m, n, squeeze in model.static:
            parts.append(term(c, m, n, squeeze))
            if m != n:  # the h.c. part
                parts.append(np.conj(c) * ((ops[n] if squeeze else ops[n].conj().T) @ ops[m]))
        self.static_h = sum(parts[1:], parts[0]) if parts else np.zeros((dim, dim), complex)
        phase_terms = []
        for nu, terms in model.oscillating:
            mat = np.zeros((dim, dim), complex)
            for t in terms:
                mat += term(*t)
            phase_terms.append((nu, mat))
        self.phase_nus = np.array([nu for nu, _ in phase_terms] + [-nu for nu, _ in phase_terms])
        stack = [-1j * m for _, m in phase_terms] + [-1j * m.conj().T for _, m in phase_terms]
        # column k is the row-major flattening of the k-th matrix; at dims
        # (4,3,3) 288 of its 15,552 entries are nonzero
        self._phase_columns = sparse.csr_matrix(np.array(stack, complex).reshape(-1, dim * dim).T)
        *cavity, b1, b2 = ops
        self.observables = {
            "n1": b1.conj().T @ b1,
            "n2": b2.conj().T @ b2,
            "n_cav": cavity[0].conj().T @ cavity[0] if cavity else None,
            "coh": b1.conj().T @ b2,
        }
        self.f_max = model.f_max

        self.dense_jumps = []
        self.ladder_jumps = []
        base = -1j * self.static_h
        for coeffs, dagger, rate in model.jumps:
            if len(coeffs) == 1 and coeffs[0][1] == 1:
                s = coeffs[0][0]
                L = ops[s].conj().T if dagger else ops[s]
                P = math.prod(dims[:s])
                d = dims[s]
                Q = math.prod(dims[s + 1:])
                # weights over the (P, d*Q, P, d*Q) view, repeated over Q
                w = np.repeat(np.sqrt(np.arange(1, d)), Q)
                wmat = (rate * np.outer(w, w)).reshape(1, (d - 1) * Q, 1, (d - 1) * Q)
                self.ladder_jumps.append((P, d, Q, "up" if dagger else "down", rate, wmat))
            else:
                terms = [c * (ops[m].conj().T if dagger else ops[m]) for m, c in coeffs]
                L = sum(terms[1:], terms[0])
                self.dense_jumps.append((np.sqrt(rate) * L, np.sqrt(rate) * L.conj().T))
            base = base - 0.5 * rate * (L.conj().T @ L)
        self.base_drift = base

        # boolean masks of the top Fock level of each subsystem
        idx = np.arange(dim)
        masks = []
        for i, d in enumerate(dims):
            stride = math.prod(dims[i + 1:])
            masks.append((idx // stride) % d == d - 1)
        self.top_level_masks = masks

    def drift(self, ts) -> np.ndarray:
        """Drift matrix at time ``ts``, or the stack of them over an array of times.

        The phase terms are summed by one sparse product, which never
        calls BLAS: a dense product of this size takes OpenBLAS's threaded
        path, and its worker threads then spin through the small
        single-threaded products of the RK4 stages that follow.
        """
        phases = np.exp(1j * np.multiply.outer(ts, self.phase_nus))
        dim = self.base_drift.shape[0]
        flat = self._phase_columns @ phases.reshape(np.size(ts), self.phase_nus.size).T
        out = flat.T.reshape(np.shape(ts) + (dim, dim))
        out += self.base_drift
        return out

    def add_jump_sandwiches(self, state: np.ndarray, out: np.ndarray) -> None:
        """Accumulate sum_i L_i state L_i^dag into ``out``."""
        for L, Ld in self.dense_jumps:
            out += L @ state @ Ld
        for P, d, Q, direction, _, wmat in self.ladder_jumps:
            # one level of subsystem s is a run of Q consecutive indices
            s4 = state.reshape(P, d * Q, P, d * Q)
            o4 = out.reshape(P, d * Q, P, d * Q)
            cut = (d - 1) * Q
            if direction == "down":
                o4[:, :cut, :, :cut] += wmat * s4[:, Q:, :, Q:]
            else:
                o4[:, Q:, :, Q:] += wmat * s4[:, :cut, :, :cut]

    def apply(self, t: float, rho: np.ndarray) -> np.ndarray:
        D = self.drift(t)
        out = D @ rho + rho @ D.conj().T
        self.add_jump_sandwiches(rho, out)
        return out

    def superoperator(self):
        """Sparse Lindblad superoperator of a constant generator.

        Acts on the row-major flattening of the density matrix, where
        vec(X rho Y) = (X kron Y^T) vec(rho); built from the same base
        drift and jumps that :meth:`apply` uses.
        """
        if self.phase_nus.size:
            raise ValueError("the superoperator needs a time-independent generator")
        dim = self.space.total_dim
        eye = sparse.identity(dim, format="csr")
        drift = sparse.csr_matrix(self.base_drift)
        terms = [sparse.kron(drift, eye), sparse.kron(eye, drift.conj())]
        for L, _ in self.dense_jumps:
            L = sparse.csr_matrix(L)
            terms.append(sparse.kron(L, L.conj()))
        for P, d, Q, direction, rate, _ in self.ladder_jumps:
            lower = sparse.diags(np.sqrt(rate * np.arange(1, d)), 1)
            op = sparse.kron(sparse.kron(sparse.identity(P), lower if direction == "down" else lower.T),
                             sparse.identity(Q))
            terms.append(sparse.kron(op, op))  # real operator: conj(op) == op
        return sum(terms[1:], terms[0]).tocsr()


def compile_generator(spec, space: FockSpace) -> CompiledGenerator:
    """Materialize a generator spec on a Fock space."""
    return CompiledGenerator(space, quadratic_model(spec))


# -- propagation ------------------------------------------------------------

@dataclass(frozen=True)
class RunStats:
    """How an integration was carried out; never part of any output body.

    ``rk4_steps`` counts every RK4 step taken (continuation, check and
    side steps; 0 on the exact path), ``step_multiple`` is the final
    internal step in units of ``dt`` (0 on the exact path), and
    ``max_step_estimate`` the largest step-doubling estimate of an
    accepted pair.
    """

    rk4_steps: int = 0
    step_multiple: int = 0
    max_step_estimate: float = 0.0


@dataclass
class Trajectory:
    """Recorded expectations and structural monitors of one integration."""

    t: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    n_cav: np.ndarray
    coh: np.ndarray
    trace: np.ndarray
    trunc_monitor: np.ndarray
    herm_dev: np.ndarray
    min_eig: np.ndarray
    final_state: DensityState
    stats: RunStats = RunStats()

    @property
    def max_trace_dev(self) -> float:
        return float(np.abs(self.trace - 1.0).max())

    @property
    def max_herm_dev(self) -> float:
        return float(self.herm_dev.max())

    @property
    def min_eigenvalue(self) -> float:
        return float(self.min_eig.min())


def _expect(op: np.ndarray, rho: np.ndarray) -> complex:
    return np.einsum("ij,ji->", op, rho)


def integrate(
    spec,
    space: FockSpace,
    rho0: np.ndarray,
    t_end: float,
    dt: float,
    stride: int = 100,
    truncation_tol: float = 1e-3,
) -> Trajectory:
    """Propagate ``round(t_end / dt)`` steps of ``dt``, recording every ``stride``.

    ``dt`` sets the record grid (every ``stride`` steps, plus the last
    step) and must satisfy ``dt <= 0.01 / f_max`` for the generator's
    fastest scale.  A constant generator jumps from record to record
    exactly (:func:`_propagate_exact`); a time-dependent one takes RK4
    steps of m ``dt`` under a step-doubling estimate, with records off
    that grid taken by side steps (:func:`propagate_rk4`, which raises
    :class:`StepControlError` if the estimate fails at m = 1).  The
    returned trajectory's ``stats`` say how.  Trace drift is compensated
    in the reported expectations only, never in the state.  Aborts when
    the top Fock level of any subsystem passes ``truncation_tol``.
    """
    gen = compile_generator(spec, space)
    n_steps = step_count(t_end, dt, stride, gen.f_max)
    rho = np.array(rho0, dtype=complex)
    DensityState(rho).validate()

    rec_t, rec = [], {k: [] for k in ("n1", "n2", "n_cav", "coh", "trace", "trunc", "herm", "eig")}

    def record(t, rho):
        tr = np.trace(rho).real
        tops = [rho.diagonal().real[mask].sum() for mask in gen.top_level_masks]
        top = max(tops)
        herm = float(np.abs(rho - rho.conj().T).max())
        eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
        rec_t.append(t)
        rec["trace"].append(tr)
        rec["trunc"].append(top)
        rec["herm"].append(herm)
        rec["eig"].append(eig)
        for key, name in (("n1", "n1"), ("n2", "n2"), ("coh", "coh")):
            rec[key].append(_expect(gen.observables[name], rho) / tr)
        ncav_op = gen.observables["n_cav"]
        rec["n_cav"].append(float(_expect(ncav_op, rho).real / tr) if ncav_op is not None else math.nan)
        if top > truncation_tol:
            s = tops.index(top)
            raise TruncationError(
                f"subsystem {s} holds population {top:.3e} in its top Fock level "
                f"n={space.dims[s] - 1} at t={t:.6g}, above {truncation_tol}: increase dimensions"
            )

    record(0.0, rho)
    stats = RunStats()
    if gen.phase_nus.size:
        rho, stats = propagate_rk4(gen.drift, gen.add_jump_sandwiches, rho, n_steps, dt, stride, record)
    else:
        rho = _propagate_exact(gen, rho, n_steps, dt, stride, record)

    return Trajectory(
        t=np.array(rec_t),
        n1=np.array(rec["n1"]).real,
        n2=np.array(rec["n2"]).real,
        n_cav=np.array(rec["n_cav"], dtype=float),
        coh=np.array(rec["coh"]),
        trace=np.array(rec["trace"]),
        trunc_monitor=np.array(rec["trunc"]),
        herm_dev=np.array(rec["herm"]),
        min_eig=np.array(rec["eig"]),
        final_state=DensityState(rho, time=n_steps * dt),
        stats=stats,
    )


def step_count(t_end: float, dt: float, stride: int, f_max: float) -> int:
    """Number of steps of ``dt`` in ``t_end``, after checking the run parameters.

    Both engines require ``dt <= 0.01 / f_max`` for the generator's fastest
    scale, a positive ``dt``, a nonnegative ``t_end`` and ``stride >= 1``.
    """
    if f_max > 0 and dt > 0.01 / f_max * (1 + 1e-9):
        raise ValueError(
            f"dt={dt} too coarse for the fastest scale {f_max}; need dt <= {0.01 / f_max}"
        )
    if not dt > 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if stride < 1:
        raise ValueError("stride must be a positive number of steps")
    return int(round(t_end / dt)) if t_end > 0 else 0


# Complex entries held at once by the density-matrix records of one
# expm_multiply call of the exact path (16 MiB).
_RECORD_BLOCK = 2**20

# Largest internal RK4 step of the time-dependent path, in units of the
# record-grid step dt (so h <= 0.1 / f_max at the coarsest dt allowed).
_STEP_CAP = 10

# Largest step-doubling estimate a pair of steps may have, relative to
# max(1, max |X|).  On the desk-frame transfer runs at dims (4,3,3) and
# dt = 0.01 / f_max, every pair passes at the cap (largest estimates
# 1.5e-10 Fock, 2.3e-10 Gaussian), and the recorded occupations move by
# at most 6.3e-9 (horizon 100) and 4.1e-8 (horizon 400) against m = 1.
_STEP_TOL = 1e-9


def propagate_rk4(drifts, add_noise, x, n_steps, dt, stride, record):
    """RK4 for X' = M(t) X + (M(t) X)^dag + N(X) on a Hermitian X, under step doubling.

    ``dt`` is the record-grid unit: ``record(s dt, x_s)`` is called at
    every step index s that is a multiple of ``stride``, and at
    ``n_steps``.  The state itself advances in pairs of RK4 steps of
    h = m dt; each pair is checked against one step of 2h from the same
    point (sharing its first stage) and accepted when the estimate
    |X_{2h} - X_{h,h}| / 15 (max entry; Hairer, Norsett & Wanner, Solving
    ODEs I, II.4) is at most ``_STEP_TOL`` max(1, max |X|).  The run
    continues from the pair, never from the check step.  A rejected pair
    is redone at m // 2, and m never grows back; a rejection at m = 1
    raises :class:`StepControlError`.  m starts at ``_STEP_CAP``.  The
    grid of m dt points does not depend on ``stride``; a record between
    grid points comes from one side step off the last grid point before
    it, which the run does not continue from.  At m = 1 every record is a
    grid point and the continuation is the plain fixed-step RK4 of dt.

    Every stage time is k dt/2, k a global half-step index.
    ``drifts(ts)`` is called once per attempted pair, on the sorted stage
    times of its two steps, its check step and its side steps: at most
    4m + 1 matrices, and at most 5 plus two per side step.
    ``add_noise(state, out)`` adds N(state) to ``out``.  Returns the state
    at ``n_steps`` and the :class:`RunStats` of the run.

    X is re-Hermitized once per step: the exact flow preserves
    Hermiticity, but for a density matrix the roundoff-seeded
    anti-Hermitian component obeys a sign-flipped dissipator in this split
    update and can grow exponentially if left in place.
    """
    # Preallocated work buffers.  Every stage input is Hermitian, so
    # X M^dag = (M X)^dag and each stage costs one drift product plus N.
    y, acc, tmp1, k, k1, x_start, x_mid, x_check = (np.empty_like(x) for _ in range(8))

    def stage(D, state, out):
        np.matmul(D, state, out=tmp1)
        np.add(tmp1, tmp1.conj().T, out=out)
        add_noise(state, out)

    def step(D, x0, k1, h, out):
        """One step of h from x0 into out, given the drifts at its three
        stage times and its first stage k1 = f(t0, x0)."""
        half = h / 2.0
        acc[:] = k1
        np.multiply(k1, half, out=y)
        np.add(y, x0, out=y)
        stage(D[1], y, k)                             # k2
        np.add(acc, 2.0 * k, out=acc)
        np.multiply(k, half, out=y)
        np.add(y, x0, out=y)
        stage(D[1], y, k)                             # k3
        np.add(acc, 2.0 * k, out=acc)
        np.multiply(k, h, out=y)
        np.add(y, x0, out=y)
        stage(D[2], y, k)                             # k4
        np.add(acc, k, out=acc)
        np.multiply(acc, h / 6.0, out=acc)
        np.add(x0, acc, out=out)
        np.add(out, out.conj().T, out=out)
        out *= 0.5
        return out

    def records_between(a, b):
        """Record step indices strictly between a and b."""
        found = list(range((a // stride + 1) * stride, min(b, n_steps), stride))
        return found + [n_steps] if a < n_steps < b else found

    def side_steps(at, a, records, x0):
        """Side steps off grid point a, from x0 with its first stage in k1,
        to each record in ``records``."""
        return {r: step((None, at[a + r], at[2 * r]), x0, k1, (r - a) * dt, np.empty_like(x))
                for r in records}

    m, g = _STEP_CAP, 0
    steps, max_est = 0, 0.0
    final = x
    while g < n_steps:
        h = m * dt
        grid = [2 * g + j * m for j in range(5)]
        sides = [(a, records_between(a, a + m)) for a in (g, g + m)]
        ks = set(grid)
        for a, records in sides:
            ks.update(k for r in records for k in (a + r, 2 * r))
        ks = sorted(ks)
        at = dict(zip(ks, drifts(np.array(ks) * (dt / 2.0))))
        D0, D1, D2, D3, D4 = (at[k] for k in grid)
        np.copyto(x_start, x)
        stage(D0, x_start, k1)
        done = side_steps(at, *sides[0], x_start)
        step((D0, D1, D2), x_start, k1, h, x_mid)
        step((None, D2, D4), x_start, k1, 2 * h, x_check)
        stage(D2, x_mid, k1)
        done.update(side_steps(at, *sides[1], x_mid))
        step((D2, D3, D4), x_mid, k1, h, x)
        steps += 3 + len(done)
        est = float(np.abs(x - x_check).max()) / 15.0
        if est > _STEP_TOL * max(1.0, float(np.abs(x).max())):
            if m == 1:
                raise StepControlError(
                    f"step-doubling estimate {est:.3e} at t={g * dt:.6g} exceeds "
                    f"{_STEP_TOL:g} at the finest step dt={dt}")
            m //= 2
            np.copyto(x, x_start)
            continue
        max_est = max(max_est, est)
        done[g + m], done[g + 2 * m] = x_mid, x
        for r in sorted(done):
            if r <= n_steps and (r % stride == 0 or r == n_steps):
                record(r * dt, done[r])
        final = done.get(n_steps, final)
        g += 2 * m
    if final is not x:
        x[...] = final
    return x, RunStats(steps, m if n_steps else 0, max_est)


def _propagate_exact(gen, rho, n_steps, dt, stride, record):
    """Exact record-to-record propagation of a constant generator.

    Records come from ``expm_multiply`` (Al-Mohy & Higham 2011) on the
    sparse superoperator over the uniform grid of ``stride`` steps, with
    one more call for a shorter final interval.  Each record is
    re-Hermitized.  Returns the final state.
    """
    from scipy.sparse.linalg import expm_multiply

    dim = rho.shape[0]
    superop = gen.superoperator()
    block = max(1, _RECORD_BLOCK // (dim * dim))
    n_full, rest = divmod(n_steps, stride)
    step = 0
    with _seeded_global_rng():
        for width, count in ((stride, n_full), (rest, int(rest > 0))):
            while count:
                k = min(count, block)
                vecs = expm_multiply(superop, rho.reshape(-1), start=0.0, stop=k * width * dt,
                                     num=k + 1, endpoint=True)
                for vec in vecs[1:]:
                    rho = vec.reshape(dim, dim)
                    rho = 0.5 * (rho + rho.conj().T)
                    step += width
                    record(step * dt, rho)
                count -= k
    return rho


@contextmanager
def _seeded_global_rng():
    """Run with NumPy's global RNG at a fixed seed, then restore the caller's state.

    ``expm_multiply`` estimates norms of matrix powers with ``onenormest``,
    which draws from the global RNG; the estimate steers the Taylor
    degree and so the last bits of the result.  Not safe against other
    threads drawing from the global RNG at the same time.
    """
    state = np.random.get_state()
    np.random.seed(0)
    try:
        yield
    finally:
        np.random.set_state(state)


# -- excitation-transfer experiment -----------------------------------------

@dataclass(frozen=True)
class TransferProtocol:
    """Run parameters of the excitation-transfer experiment.

    ``stride=None`` records a target of ~2000 points regardless of the
    step count.  The truncation allowance is looser than the integrator
    default because mediator heating parks a few 1e-3 of population in
    the top mechanical level over a full fit window.
    """

    dims: tuple[int, int, int] = (4, 3, 3)
    t_end: float = 400.0
    dt: float | None = None
    stride: int | None = None
    truncation_tol: float = 0.02


@dataclass
class TransferResult:
    exchange_rate: float
    decay_rate: float
    amplitude: float
    offset: float
    trajectory: Trajectory
    regime_ratios: dict[str, float]


def _rabi_model(t, amplitude, omega, gamma, offset, slope):
    return amplitude * np.sin(omega * t) ** 2 * np.exp(-gamma * t) + offset + slope * t


def fit_damped_rabi(t: np.ndarray, n2: np.ndarray):
    """Fit n2(t) to A sin^2(w t) exp(-g t) + c + h t; returns (A, w, g, c).

    On a window short of the first full swap the parameters are nearly
    degenerate (a large amplitude at low frequency with extra damping
    shadows the true arc), so the frequency is first pinned by the
    linearized phase asin(sqrt(n2)) = w t, which holds for a
    unit-amplitude swap from |1, 0>, and the nonlinear refinement is
    confined to its neighborhood.  The amplitude is capped at 1 (the
    initial state holds one excitation) and the bounded linear term
    absorbs the slow mediator-heating drift.  The refinement runs to
    convergence (tolerances 1e-15): at ``curve_fit``'s default stopping
    rule a roundoff-level change in n2 moves the fitted rate by ~1e-7
    relative, and the rate can stop over 1 % short of the optimum.
    """
    peak = float(n2.max())
    if peak < 1e-9:
        raise FitError("no transfer signal to fit")

    phase = np.arcsin(np.sqrt(np.clip(n2, 0.0, 1.0)))
    # keep the monotonic first rise only: beyond the first peak the
    # inverse branch folds over
    i_peak = int(np.argmax(n2))
    rising = slice(0, max(i_peak + 1, 3))
    tt, yy = t[rising], phase[rising]
    denom = float(tt @ tt)
    if denom == 0.0:
        raise FitError("degenerate time grid")
    omega_lin = float(tt @ yy) / denom
    if omega_lin <= 0:
        raise FitError("no rising transfer signal")

    window = float(t[-1])
    gamma_max = max(6.0 / window, 1e-12)
    slope_max = 0.2 * max(peak, 1e-3) / window
    p0 = (min(1.0, max(peak, 1e-3)), omega_lin, 1e-3 * gamma_max, 0.0, 0.0)
    bounds = (
        [1e-6, 0.75 * omega_lin, 0.0, -0.05, 0.0],
        [1.005, 1.3 * omega_lin, gamma_max, 0.05, slope_max],
    )
    try:
        popt, _ = curve_fit(_rabi_model, t, n2, p0=p0, bounds=bounds, maxfev=20000,
                            ftol=1e-15, xtol=1e-15, gtol=1e-15)
    except (RuntimeError, ValueError) as exc:
        raise FitError(f"Rabi fit failed: {exc}") from exc
    amplitude, omega, gamma, offset, _slope = popt
    return amplitude, omega, gamma, offset


def excitation_transfer_experiment(
    config: SystemConfig | FrameParams,
    protocol: TransferProtocol = TransferProtocol(),
    model: str = "full",
) -> TransferResult:
    """Measure the exchange rate dynamically from |0>_c |1, 0>.

    Runs the requested generator ("full" tri-partite or "effective"
    two-mode), fits the mode-2 occupation to a damped Rabi form, and
    returns the fitted rate for comparison against the closed form.
    """
    frame = config if isinstance(config, FrameParams) else derive_frame(config)
    if model == "full":
        spec = FullLinearized(frame)
        space = FockSpace(protocol.dims)
        rho0 = fock_state(space, (0, 1, 0))
    elif model == "effective":
        spec = effective_generator(frame)
        space = FockSpace(protocol.dims[1:])
        rho0 = fock_state(space, (1, 0))
    else:
        raise ValueError("model must be 'full' or 'effective'")

    f_max = quadratic_model(spec).f_max
    dt = protocol.dt if protocol.dt is not None else (0.01 / f_max if f_max > 0 else protocol.t_end / 1000)
    stride = protocol.stride
    if stride is None:
        stride = max(1, int(round(protocol.t_end / dt)) // 2000)
    traj = integrate(
        spec, space, rho0, protocol.t_end, dt,
        stride=stride, truncation_tol=protocol.truncation_tol,
    )
    try:
        amplitude, omega, gamma, offset = fit_damped_rabi(traj.t, traj.n2)
    except FitError as exc:
        raise FitError(str(exc), trajectory=traj) from exc

    g_max = max(frame.G_1, frame.G_2)
    ratios = {
        "G_over_kappa": g_max / frame.kappa if frame.kappa > 0 else math.inf,
        "G_over_sideband_gap": g_max / min(
            abs(frame.delta_bar - frame.omega_bar) + frame.kappa / 2,
            abs(frame.delta_bar + frame.omega_bar) + frame.kappa / 2,
        ),
    }
    return TransferResult(
        exchange_rate=float(omega),
        decay_rate=float(gamma),
        amplitude=float(amplitude),
        offset=float(offset),
        trajectory=traj,
        regime_ratios=ratios,
    )
