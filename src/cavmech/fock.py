"""Truncated-Fock-space Lindblad integrator.

Covers two generators: the full linearized tri-partite model (cavity plus
two mechanical modes, explicitly time-dependent in the displaced rotating
frame) and the time-independent effective two-mode model.  A constant
generator is propagated exactly from one record to the next by the action
of the exponential of its sparse Lindblad superoperator; a time-dependent
one by fixed-step RK4.  Repeated runs are bit-identical, the trace is
never rescaled, and trace, Hermiticity, positivity, and top-level
population are monitored at every recorded step.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from .model import FrameParams, SystemConfig, derive_frame
from .effective import (
    CollectiveMode,
    EffectiveParams,
    collective_mode_coeffs,
    effective_params,
)

DIMENSION_CAP = 4096


class TruncationError(RuntimeError):
    """Top Fock level acquired more population than the run allows."""


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

    @property
    def n_subsystems(self):
        return 3


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

    @property
    def n_subsystems(self):
        return 2


def effective_generator(frame: FrameParams, include_shifts: bool = False) -> EffectiveTwoMode:
    """Assemble the effective generator for a frame."""
    shifts = (-frame.spring_1, -frame.spring_2) if include_shifts else (0.0, 0.0)
    return EffectiveTwoMode(
        params=effective_params(frame),
        collective=collective_mode_coeffs(frame.g_1, frame.g_2),
        freq_shifts=shifts,
        thermal_baths=frame.thermal_baths,
    )


class CompiledGenerator:
    """Matrices of one generator on a concrete Fock space.

    The Hamiltonian is stored as a static part plus phase terms
    ``exp(i nu t) M + h.c.``.  Jumps come as descriptors: ``("ladder", s,
    "down"|"up", rate)`` for a bare ladder operator of subsystem ``s``
    (applied by index slicing, cheaper than two dense products) or
    ``("dense", L, rate)`` for anything else.
    """

    def __init__(self, space, static_h, phase_terms, jumps, observables, f_max):
        self.space = space
        dim = space.total_dim
        self.static_h = static_h
        self.phase_nus = np.array([nu for nu, _ in phase_terms] + [-nu for nu, _ in phase_terms])
        stack = [-1j * m for _, m in phase_terms] + [-1j * m.conj().T for _, m in phase_terms]
        self.phase_stack = np.array(stack) if stack else np.zeros((0, dim, dim), complex)
        self._stack_flat = self.phase_stack.reshape(self.phase_stack.shape[0], dim * dim)
        self.observables = observables
        self.f_max = f_max

        dims = space.dims
        ladder_ops = build_operators(space)
        self.dense_jumps = []
        self.ladder_jumps = []
        base = -1j * static_h
        for desc in jumps:
            kind = desc[0]
            if kind == "dense":
                _, L, rate = desc
            else:
                _, s, direction, rate = desc
                L = ladder_ops[s] if direction == "down" else ladder_ops[s].conj().T
            if rate <= 0:
                continue
            base = base - 0.5 * rate * (L.conj().T @ L)
            if kind == "dense":
                self.dense_jumps.append((np.sqrt(rate) * L, np.sqrt(rate) * L.conj().T))
            else:
                P = math.prod(dims[:s])
                d = dims[s]
                Q = math.prod(dims[s + 1:])
                w = np.sqrt(np.arange(1, d))
                wmat = (rate * np.outer(w, w)).reshape(1, d - 1, 1, 1, d - 1, 1)
                self.ladder_jumps.append((P, d, Q, direction, rate, wmat))
        self.base_drift = base
        self._shape6 = None

        # boolean masks of the top Fock level of each subsystem
        idx = np.arange(dim)
        masks = []
        for i, d in enumerate(dims):
            stride = math.prod(dims[i + 1:])
            masks.append((idx // stride) % d == d - 1)
        self.top_level_masks = masks

    def drift(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        phases = np.exp(1j * self.phase_nus * t)
        if out is None:
            out = np.empty_like(self.base_drift)
        dim = out.shape[0]
        np.matmul(phases, self._stack_flat, out=out.reshape(dim * dim))
        out += self.base_drift
        return out

    def add_jump_sandwiches(self, state: np.ndarray, out: np.ndarray) -> None:
        """Accumulate sum_i L_i state L_i^dag into ``out``."""
        for L, Ld in self.dense_jumps:
            out += L @ state @ Ld
        for P, d, Q, direction, _, wmat in self.ladder_jumps:
            s6 = state.reshape(P, d, Q, P, d, Q)
            o6 = out.reshape(P, d, Q, P, d, Q)
            if direction == "down":
                o6[:, : d - 1, :, :, : d - 1, :] += wmat * s6[:, 1:, :, :, 1:, :]
            else:
                o6[:, 1:, :, :, 1:, :] += wmat * s6[:, : d - 1, :, :, : d - 1, :]

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
        from scipy import sparse

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
    if isinstance(spec, FullLinearized):
        return _compile_full(spec, space)
    if isinstance(spec, EffectiveTwoMode):
        return _compile_effective(spec, space)
    raise TypeError(f"unknown generator spec {type(spec).__name__}")


def _thermal_jumps(baths, subsystems):
    jumps = []
    if baths is not None:
        for (rate, nth), s in zip(baths, subsystems):
            jumps.append(("ladder", s, "down", rate * (nth + 1)))
            jumps.append(("ladder", s, "up", rate * nth))
    return jumps


def _compile_full(spec: FullLinearized, space: FockSpace) -> CompiledGenerator:
    if len(space.dims) != 3:
        raise ValueError("the tri-partite model needs dims (cavity, mode 1, mode 2)")
    fr = spec.frame
    a, b1, b2 = build_operators(space)
    ad = a.conj().T
    dim = space.total_dim

    # collect a^dag b_j^dag and a^dag b_j terms by exact frequency label
    by_freq: dict[tuple[int, int, int], np.ndarray] = {}
    delta_sym = {1: (1, 0, 1), 2: (1, 0, -1)}
    for j, (wj_sym, bj, G) in enumerate(
        (((0, 1, 1), b1, fr.G_1), ((0, 1, -1), b2, fr.G_2)), start=1
    ):
        for k in (1, 2):
            dk = delta_sym[k]
            for sign, op in ((1, bj.conj().T), (-1, bj)):
                key = (dk[0] + sign * wj_sym[0], dk[1] + sign * wj_sym[1], dk[2] + sign * wj_sym[2])
                mat = by_freq.setdefault(key, np.zeros((dim, dim), complex))
                mat += G * (ad @ op)
    phase_terms = []
    for (n, m, p), mat in sorted(by_freq.items()):
        nu = n * fr.delta_bar + m * fr.omega_bar + p * (fr.delta_omega / 2)
        phase_terms.append((nu, mat))

    jumps = [("ladder", 0, "down", fr.kappa)]
    jumps += _thermal_jumps(fr.thermal_baths, (1, 2))

    observables = {
        "n1": b1.conj().T @ b1,
        "n2": b2.conj().T @ b2,
        "n_cav": ad @ a,
        "coh": b1.conj().T @ b2,
    }
    freqs = [abs(nu) for nu, _ in phase_terms]
    rates = [desc[-1] for desc in jumps]
    f_max = max(freqs + rates + [0.0])
    return CompiledGenerator(space, np.zeros((dim, dim), complex), phase_terms, jumps, observables, f_max)


def _compile_effective(spec: EffectiveTwoMode, space: FockSpace) -> CompiledGenerator:
    if len(space.dims) != 2:
        raise ValueError("the effective model needs dims (mode 1, mode 2)")
    b1, b2 = build_operators(space)
    p = spec.params
    J = p.exchange_coupling
    s1, s2 = spec.freq_shifts
    H = (
        s1 * (b1.conj().T @ b1)
        + s2 * (b2.conj().T @ b2)
        + J * (b1.conj().T @ b2)
        + np.conj(J) * (b2.conj().T @ b1)
    )
    B = spec.collective.c_1 * b1 + spec.collective.c_2 * b2
    d1, u1 = p.rate_table["1"]
    d2, u2 = p.rate_table["2"]
    dc, uc = p.rate_table["collective"]
    for name, (dn, up) in p.rate_table.items():
        if dn < 0 or up < 0:
            raise ValueError(f"negative Lindblad rate in bath {name}")
    jumps = [
        ("ladder", 0, "down", d1), ("ladder", 0, "up", u1),
        ("ladder", 1, "down", d2), ("ladder", 1, "up", u2),
        ("dense", B, dc), ("dense", B.conj().T, uc),
    ]
    jumps += _thermal_jumps(spec.thermal_baths, (0, 1))

    observables = {
        "n1": b1.conj().T @ b1,
        "n2": b2.conj().T @ b2,
        "n_cav": None,
        "coh": b1.conj().T @ b2,
    }
    rates = [desc[-1] for desc in jumps]
    f_max = max([abs(J), abs(s1), abs(s2)] + rates + [0.0])
    return CompiledGenerator(space, H, [], jumps, observables, f_max)


def liouvillian_apply(spec, space: FockSpace, rho: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Time derivative of the density matrix under a generator spec."""
    return compile_generator(spec, space).apply(t, rho)


# -- propagation ------------------------------------------------------------

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
    exactly (:func:`_propagate_exact`); a time-dependent one takes
    fixed-step RK4 steps of ``dt`` (:func:`_propagate_rk4`).  Trace drift
    is compensated in the reported expectations only, never in the state.
    Aborts when the top Fock level of any subsystem passes
    ``truncation_tol``.
    """
    gen = compile_generator(spec, space)
    if gen.f_max > 0 and dt > 0.01 / gen.f_max * (1 + 1e-9):
        raise ValueError(
            f"dt={dt} too coarse for the fastest scale {gen.f_max}; need dt <= {0.01 / gen.f_max}"
        )
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if stride < 1:
        raise ValueError("stride must be a positive number of steps")
    rho = np.array(rho0, dtype=complex)
    DensityState(rho).validate()

    n_steps = int(round(t_end / dt)) if t_end > 0 else 0
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
    propagate = _propagate_rk4 if gen.phase_nus.size else _propagate_exact
    rho = propagate(gen, rho, n_steps, dt, stride, record)

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
    )


def _propagate_rk4(gen, rho, n_steps, dt, stride, record):
    """Fixed-step RK4 for a time-dependent generator; returns the final state.

    The state is re-Hermitized once per step: the exact flow preserves
    Hermiticity, but the roundoff-seeded anti-Hermitian component obeys a
    sign-flipped dissipator in this split update and can grow
    exponentially if left in place.
    """
    # Preallocated work buffers.  Every stage input is Hermitian (the
    # generator preserves Hermiticity), so rho D^dag = (D rho)^dag and
    # each stage costs one drift product plus the jump sandwiches.
    dim = rho.shape[0]
    D_cur, D_half, D_next = (np.empty((dim, dim), complex) for _ in range(3))
    y, acc, tmp1 = (np.empty((dim, dim), complex) for _ in range(3))

    def stage(D, state, out):
        np.matmul(D, state, out=tmp1)
        np.add(tmp1, tmp1.conj().T, out=out)
        gen.add_jump_sandwiches(state, out)

    k = np.empty((dim, dim), complex)
    gen.drift(0.0, out=D_cur)
    t = 0.0
    sixth = dt / 6.0
    half = dt / 2.0
    for step in range(1, n_steps + 1):
        gen.drift(t + half, out=D_half)
        gen.drift(t + dt, out=D_next)
        stage(D_cur, rho, k)                      # k1
        acc[:] = k
        np.multiply(k, half, out=y)
        y += rho
        stage(D_half, y, k)                       # k2
        acc += 2.0 * k
        np.multiply(k, half, out=y)
        y += rho
        stage(D_half, y, k)                       # k3
        acc += 2.0 * k
        np.multiply(k, dt, out=y)
        y += rho
        stage(D_next, y, k)                       # k4
        acc += k
        acc *= sixth
        rho += acc
        np.add(rho, rho.conj().T, out=rho)
        rho *= 0.5
        D_cur, D_next = D_next, D_cur
        t = step * dt
        if step % stride == 0 or step == n_steps:
            record(t, rho)
    return rho


# Complex entries of density-matrix records held at once by the exact path
# (16 MiB): one expm_multiply call covers at most this many records' worth.
_RECORD_BLOCK = 2**20


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
    absorbs the slow mediator-heating drift.
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
        popt, _ = curve_fit(_rabi_model, t, n2, p0=p0, bounds=bounds, maxfev=20000)
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

    gen_fmax = compile_generator(spec, space).f_max
    dt = protocol.dt if protocol.dt is not None else (0.01 / gen_fmax if gen_fmax > 0 else protocol.t_end / 1000)
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
