"""Truncated-Fock-space Lindblad integrator, and what both engines share.

Covers two generators: the full linearized tri-partite model (cavity plus
two mechanical modes, explicitly time-dependent in the displaced rotating
frame) and the time-independent effective two-mode model.  Each is
described once, as a :class:`QuadraticModel` (Hamiltonian terms with
exact frequency labels, linear jumps with their rates), from which this
module compiles the Fock-space generator and :mod:`cavmech.gaussian` the
moment equations.  The Lindbladian of such a model conserves the parity
of N - N' for the total excitation number N, so the density matrix is
carried as the stack of its two parity blocks (or as one block of the
whole matrix when the initial state has coherence between the sectors;
:func:`density_blocks`), and every stage and record works on the stack.
A constant generator is propagated exactly from one record to the next
(:func:`propagate_exact`) by the action of the exponential of its sparse
Lindblad superoperator on the block entries, summed as a truncated
Taylor series (:func:`exponential_map`, Al-Mohy & Higham 2011); a
time-dependent one by the adaptive Runge-Kutta kernel
:func:`propagate_rk4` (the Dormand-Prince 5(4) pair with its continuous
extension for the records).  The Gaussian engine uses the same walk,
map (halved and squared over a long interval, :func:`matrix_exponential`)
and kernel.  Each engine supplies the kernel its operator at the new
stage times of a step, from one call (:meth:`CompiledGenerator.drift`
takes an array of times and sums the phase terms by one sparse
product), and its stage, which writes the right-hand side for one
operator; every combination of stages is one product with a row of
coefficients, which OpenBLAS keeps on one thread up to about 47,000
reals of state.  Repeated runs are bit-identical, the trace is never
rescaled, and trace, Hermiticity, positivity, and top-level population
are monitored at every recorded step, over buffered stacks of records
(:class:`RecordBuffer`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import FrameParams
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
    """The adaptive step would have to fall below the finest step dt."""


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

    def validate(self, blocks=None):
        """Require trace 1 and Hermiticity to 1e-8 and 1e-10, and no eigenvalue below -1e-8.

        ``blocks`` are the basis indices of diagonal blocks outside which
        the matrix is 0 (:func:`density_blocks`); the eigenvalues are then
        taken block by block.  They are the same eigenvalues, and a
        32 x 32 block keeps ``eigvalsh`` off OpenBLAS's threaded path,
        which a whole 64 x 64 matrix takes.
        """
        rho = self.matrix
        if abs(np.trace(rho).real - 1.0) > 1e-8 or abs(np.trace(rho).imag) > 1e-8:
            raise ValueError("density matrix trace is not 1")
        if np.abs(rho - rho.conj().T).max() > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        sym = (rho + rho.conj().T) / 2
        parts = [sym] if blocks is None else [sym[np.ix_(rows, rows)] for rows in blocks]
        if min(np.linalg.eigvalsh(part).min() for part in parts) < -1e-8:
            raise ValueError("density matrix has a significantly negative eigenvalue")


def destroy(dim: int) -> np.ndarray:
    """Truncated annihilation operator, <n-1|b|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def build_operators(space: FockSpace) -> list[np.ndarray]:
    """Annihilation operators of every subsystem, identity-padded."""
    return [_operator(space.dims, (m, destroy(d))) for m, d in enumerate(space.dims)]


def _operator(dims, *factors) -> np.ndarray:
    """The product of single-mode matrices ``(mode, matrix)``, in order, on the whole space.

    A Kronecker product of one factor per subsystem (the identity where
    no matrix acts), the factors of one mode multiplied by einsum: no BLAS
    call, where a dense product of whole-space operators takes OpenBLAS's
    threaded path from dims (8, 8) up.
    """
    local = {}
    for m, matrix in factors:
        local[m] = np.einsum("ij,jk->ik", local[m], matrix) if m in local else matrix
    out = np.ones(())
    for m, d in enumerate(dims):
        out = np.multiply.outer(out, local.get(m, np.eye(d)))
    # axes (row_0, col_0, row_1, col_1, ...) -> rows, then columns
    axes = list(range(0, 2 * len(dims), 2)) + list(range(1, 2 * len(dims), 2))
    dim = math.prod(dims)
    return out.transpose(axes).reshape(dim, dim)


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

    A :class:`QuadraticModel` is returned as it is.  Raises ``ValueError``
    for a negative Lindblad rate.
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

def _occupation_numbers(space: FockSpace) -> np.ndarray:
    """Occupation of every subsystem in every basis state, shape (subsystems, total_dim)."""
    idx = np.arange(space.total_dim)
    return np.array([(idx // math.prod(space.dims[i + 1:])) % d for i, d in enumerate(space.dims)])


def density_blocks(space: FockSpace, rho: np.ndarray | None = None) -> list[np.ndarray]:
    """Basis indices of the diagonal blocks a density matrix is carried in.

    Every Hamiltonian term of a :class:`QuadraticModel` is quadratic and
    every jump linear, so the Lindbladian conserves the parity of N - N'
    for the total excitation number N (Buca & Prosen, New J. Phys. 14,
    073007 (2012)): a state with no coherence between the two parity
    sectors of N stays block-diagonal in them.  Returns the two sectors,
    or one block of the whole space when ``rho`` has such a coherence.
    """
    parity = _occupation_numbers(space).sum(axis=0) % 2
    if rho is not None and np.any(rho[parity[:, None] != parity]):
        return [np.arange(space.total_dim)]
    return [np.flatnonzero(parity == p) for p in (0, 1)]


class CompiledGenerator:
    """Matrices of one quadratic model on a concrete Fock space, in block form.

    A density matrix is carried as the stack of its diagonal blocks over
    the basis indices of ``blocks`` (default: the two parity sectors of
    :func:`density_blocks`), shape (blocks, h, h) with h the largest block
    size; a smaller block is padded at its end with ghost rows and columns
    that the drift, the jumps and the monitors never touch, so they hold 0.
    The drift is the stack of its diagonal blocks: a static part plus
    phase terms ``exp(i nu t) M + h.c.``.  A jump L = sum_m c_m X_m is a
    sum of ladder operators, each of which sends every basis row to at
    most one row, so each term X_m rho X_n^dag of L rho L^dag is one
    precomputed gather from the flat stack times a weight (one term for a
    bare ladder jump).
    """

    def __init__(self, space: FockSpace, model: QuadraticModel, blocks=None):
        from scipy import sparse

        if len(space.dims) != model.n_modes:
            raise ValueError(f"the model needs {model.n_modes} dims, one per mode")
        self.space = space
        dims = space.dims
        dim = space.total_dim

        blocks = density_blocks(space) if blocks is None else blocks
        self.block_sizes = tuple(len(rows) for rows in blocks)
        h = max(self.block_sizes)
        # a ghost row points at index dim, the zero row and column that
        # pack() appends to every operator
        index = np.full((len(blocks), h), dim)
        for b, rows in enumerate(blocks):
            index[b, :len(rows)] = rows
        self.index = index

        lowering = [destroy(d) for d in dims]

        def ladder(m, dagger):
            """The ``(mode, matrix)`` factor of b_m, or of b_m^dag."""
            return m, lowering[m].conj().T if dagger else lowering[m]

        def term(c, m, n, squeeze):
            return c * _operator(dims, ladder(m, True), ladder(n, squeeze))

        parts = []
        for c, m, n, squeeze in model.static:
            parts.append(term(c, m, n, squeeze))
            if m != n:  # the h.c. part
                parts.append(np.conj(c) * _operator(dims, ladder(n, not squeeze), ladder(m, False)))
        static_h = sum(parts[1:], parts[0]) if parts else np.zeros((dim, dim), complex)
        phase_terms = []
        for nu, terms in model.oscillating:
            mat = np.zeros((dim, dim), complex)
            for t in terms:
                mat += term(*t)
            phase_terms.append((nu, mat))
        self.phase_nus = np.array([nu for nu, _ in phase_terms] + [-nu for nu, _ in phase_terms])
        phase_mats = [-1j * m for _, m in phase_terms] + [-1j * m.conj().T for _, m in phase_terms]
        # column k is the flat block stack of the k-th matrix; at dims
        # (4,3,3) 288 of its 7,776 entries are nonzero
        packed = np.array([self.pack(m) for m in phase_mats], complex)
        self._phase_columns = sparse.csr_matrix(packed.reshape(len(phase_mats), index.size * h).T)
        *cavity, b1, b2 = range(len(dims))

        def observable(m, n):
            return self.pack(_operator(dims, ladder(m, True), ladder(n, False)))

        self.observables = {
            "n1": observable(b1, b1),
            "n2": observable(b2, b2),
            "n_cav": observable(0, 0) if cavity else None,
            "coh": observable(b1, b2),
        }
        self.f_max = model.f_max

        # block and row of every basis index; the ghost index dim has none
        real = index < dim
        block_of = np.full(dim + 1, -1)
        row_of = np.zeros(dim + 1, int)
        block_of[index[real]], row_of[index[real]] = np.nonzero(real)
        rows, cols = index[:, :, None], index[:, None, :]
        self._jump_gathers = []
        base = -1j * static_h
        for coeffs, dagger, rate in model.jumps:
            terms = [(c, _operator(dims, ladder(m, dagger))) for m, c in coeffs]
            ladders = []
            for c, op in terms:
                # the one source column of each row, and its amplitude
                src = np.append(np.abs(op).argmax(axis=1), dim)
                ladders.append((c, src, np.append(op[np.arange(dim), src[:dim]], 0.0)))
            for c_m, src_m, amp_m in ladders:
                for c_n, src_n, amp_n in ladders:
                    w = rate * c_m * np.conj(c_n) * amp_m[rows] * np.conj(amp_n[cols])
                    k, l = src_m[rows], src_n[cols]
                    if np.any((w != 0) & (block_of[k] != block_of[l])):
                        raise ValueError("the density blocks are not closed under the generator")
                    src = np.where(w != 0, (block_of[k] * h + row_of[k]) * h + row_of[l], 0)
                    self._jump_gathers.append((w.real if not w.imag.any() else w, src))
            # L^dag L = sum_mn (c_m X_m)^dag (c_n X_n)
            scaled = [(m, c * ladder(m, dagger)[1]) for m, c in coeffs]
            base = base - 0.5 * rate * sum(_operator(dims, (m, f.conj().T), (n, g))
                                           for m, f in scaled for n, g in scaled)
        self.base_drift = self.pack(base)
        if any(not np.array_equal(self.unpack(self.pack(m)), m) for m in [base] + phase_mats):
            raise ValueError("the density blocks are not closed under the generator")

        levels = _occupation_numbers(space)
        self.top_level_masks = [np.append(level == d - 1, False)[index] for level, d in zip(levels, dims)]
        self.ghosts = np.nonzero(~real)

    def pack(self, matrix: np.ndarray) -> np.ndarray:
        """The diagonal blocks of a (dim, dim) matrix, as a (blocks, h, h) stack."""
        padded = np.zeros((matrix.shape[0] + 1,) * 2, matrix.dtype)
        padded[:-1, :-1] = matrix
        return padded[self.index[:, :, None], self.index[:, None, :]]

    def unpack(self, stack: np.ndarray) -> np.ndarray:
        """The (dim, dim) matrix holding the blocks of ``stack``, 0 elsewhere."""
        dim = self.space.total_dim
        out = np.zeros((dim + 1, dim + 1), stack.dtype)
        out[self.index[:, :, None], self.index[:, None, :]] = stack
        return out[:dim, :dim].copy()

    def drift(self, ts) -> np.ndarray:
        """Drift blocks at time ``ts``, or the stack of them over an array of times.

        The phase terms are summed by one sparse product, which never
        calls BLAS: a dense product of this size takes OpenBLAS's threaded
        path, and its worker threads then spin through the small
        single-threaded products of the Runge-Kutta stages that follow.
        """
        phases = np.exp(1j * np.multiply.outer(ts, self.phase_nus))
        flat = self._phase_columns @ phases.reshape(np.size(ts), self.phase_nus.size).T
        out = flat.T.reshape(np.shape(ts) + self.base_drift.shape)
        out += self.base_drift
        return out

    def add_jump_sandwiches(self, state: np.ndarray, out: np.ndarray) -> None:
        """Accumulate sum_i L_i state L_i^dag into ``out`` (block stacks)."""
        flat = state.reshape(-1)
        for weight, source in self._jump_gathers:
            gathered = flat.take(source)
            gathered *= weight
            out += gathered

    def apply(self, t: float, rho: np.ndarray) -> np.ndarray:
        """The Lindbladian at time ``t`` applied to the block stack ``rho``."""
        D = self.drift(t)
        out = D @ rho + rho @ D.conj().swapaxes(-1, -2)
        self.add_jump_sandwiches(rho, out)
        return out

    def superoperator(self):
        """Sparse Lindblad superoperator of a constant generator.

        Acts on the row-major flattening of the block stack, where
        vec(X rho Y) = (X kron Y^T) vec(rho) within each block; built from
        the same drift blocks and jump gathers that :meth:`apply` uses.
        Assembled in one pass, with no sparse Kronecker product and no
        sparse addition: the entries of kron(D, I) and kron(I, D*) of
        every drift block D and of every jump gather, stably sorted by
        position, so that ``sum_duplicates`` finds the entries of each
        position already in order (it sorts no row) and sums them in the
        order that adding one CSR matrix per part does, to the last bit.
        """
        from scipy import sparse

        if self.phase_nus.size:
            raise ValueError("the superoperator needs a time-independent generator")
        n_blocks, h, _ = self.base_drift.shape
        size = n_blocks * h * h
        j = np.arange(h)
        parts = []  # (rows, columns, values), in the order a position's entries are summed
        for b, D in enumerate(self.base_drift):
            i, k = np.nonzero(D)
            start = b * h * h
            # D rho: ((i, j), (k, j)) -> D[i, k]; rho D^dag: ((j, i), (j, k)) -> D*[i, k]
            parts.append((start + np.add.outer(i * h, j), start + np.add.outer(k * h, j),
                          np.repeat(D[i, k], h)))
            parts.append((start + np.add.outer(j * h, i), start + np.add.outer(j * h, k),
                          np.tile(D[i, k].conj(), h)))
        for weight, source in self._jump_gathers:
            targets = np.flatnonzero(weight)
            parts.append((targets, source.reshape(-1)[targets], weight.reshape(-1)[targets]))
        rows, cols, vals = (np.concatenate([a.reshape(-1) for a in arrays]) for arrays in zip(*parts))
        order = np.argsort(rows * size + cols, kind="stable")
        out = sparse.csr_matrix((vals[order], (rows[order], cols[order])), shape=(size, size))
        out.sum_duplicates()
        # adding one CSR matrix per part stored no entry that summed to 0
        out.eliminate_zeros()
        return out


def compile_generator(spec, space: FockSpace, blocks=None) -> CompiledGenerator:
    """Materialize a generator spec on a Fock space, in the given density blocks."""
    return CompiledGenerator(space, quadratic_model(spec), blocks)


# -- propagation ------------------------------------------------------------

@dataclass(frozen=True)
class RunStats:
    """How an integration was carried out; never part of any output body.

    On the time-dependent path (:func:`propagate_rk4`) ``accepted_steps``
    and ``rejected_steps`` count the steps, ``stage_evaluations`` the
    right-hand-side evaluations, ``last_step`` is the step size the
    controller held at the end, before the last step was clipped to land
    on the end time, in units of ``dt``, and ``max_error_estimate`` is the
    largest error estimate of an accepted step; all are 0 on the exact
    path.  ``records`` counts the recorded points on either path, and
    ``blocks`` are the sizes of the diagonal blocks the Fock engine
    carried the density matrix in (empty for the moment engine).
    """

    accepted_steps: int = 0
    rejected_steps: int = 0
    stage_evaluations: int = 0
    last_step: float = 0.0
    max_error_estimate: float = 0.0
    records: int = 0
    blocks: tuple[int, ...] = ()


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


class RecordBuffer:
    """The ``record(t, x)`` callback of a run, buffered for a monitor over stacks.

    :meth:`record` copies ``t`` and ``x`` into a preallocated stack of
    ``_MONITOR_BLOCK`` entries (at least one record); when the stack is
    full, and when the ``with`` block exits, ``monitor(ts, xs)`` runs over
    the filled part.  The exit flush runs before any exception from the
    block propagates, so a monitor abort on an earlier record wins.
    """

    def __init__(self, shape, dtype, monitor):
        self.ts = np.empty(max(1, _MONITOR_BLOCK // math.prod(shape)))
        self.xs = np.empty(self.ts.shape + shape, dtype)
        self.count = 0
        self.monitor = monitor

    def record(self, t, x):
        self.ts[self.count] = t
        self.xs[self.count] = x
        self.count += 1
        if self.count == self.ts.size:
            self.flush()

    def flush(self):
        k, self.count = self.count, 0
        if k:
            self.monitor(self.ts[:k], self.xs[:k])

    def __enter__(self):
        return self.record

    def __exit__(self, *exc):
        self.flush()


def integrate(
    spec,
    space: FockSpace,
    rho0: np.ndarray,
    t_end: float,
    dt: float,
    stride: int = 100,
    truncation_tol: float = 1e-3,
) -> Trajectory:
    """Propagate to ``round(t_end / dt) * dt``, recording every ``stride`` steps of ``dt``.

    ``dt`` sets the record grid (every ``stride`` steps, plus the last
    step) and must satisfy ``dt <= 0.01 / f_max`` for the generator's
    fastest scale.  A constant generator jumps from record to record
    exactly (:func:`propagate_exact`): the action of exp(L h) of its
    superoperator L over each record interval h, summed as a truncated
    Taylor series (:func:`exponential_map`, Al-Mohy & Higham, SIAM J.
    Sci. Comput. 33, 488 (2011)); a time-dependent one takes
    adaptive Dormand-Prince 5(4) steps, with the records between steps
    taken from the pair's continuous extension (:func:`propagate_rk4`,
    which raises :class:`StepControlError` if the step would fall below
    ``dt``).  The returned trajectory's ``stats`` say how.  Trace drift
    is compensated in the reported expectations only, never in the
    state.  Aborts when the top Fock level of any subsystem passes
    ``truncation_tol``.  The monitors run over stacks of records
    (:class:`RecordBuffer`), so a run may propagate up to one stack past
    the offending record before it aborts; the error names that record.

    The state is carried as the stack of its diagonal blocks
    (:func:`density_blocks`): the two parity sectors of the total
    excitation number, or one block of the whole matrix when ``rho0`` has
    coherence between them.  Every stage, record and monitor works on the
    blocks; ``stats.blocks`` gives their sizes, and the final state is
    returned as the dense matrix in the Fock basis.
    """
    rho0 = np.array(rho0, dtype=complex)
    if rho0.shape != (space.total_dim,) * 2:
        raise ValueError(f"rho0 has shape {rho0.shape}, the space needs {(space.total_dim,) * 2}")
    blocks = density_blocks(space, rho0)
    DensityState(rho0).validate(blocks)
    gen = compile_generator(spec, space, blocks)
    n_steps = step_count(t_end, dt, stride, gen.f_max)
    rho = gen.pack(rho0)

    rec = {k: [] for k in ("t", "n1", "n2", "n_cav", "coh", "trace", "trunc_monitor", "herm_dev", "min_eig")}
    ghosts = (slice(None),) + gen.ghosts + gen.ghosts[1:]
    # tr(O rho) of every observable by one product with the flat record
    # stack: column q holds O_q transposed block by block
    names = [name for name, op in gen.observables.items() if op is not None]
    observables = np.array([gen.observables[name].swapaxes(-1, -2).reshape(-1) for name in names]).T

    def monitor(ts, rhos):
        """The monitors of a (records, blocks, h, h) stack of states."""
        diag = rhos.diagonal(0, -2, -1).real
        tr = diag.sum((-2, -1))
        # the boolean gather comes out column-major; each contiguous row
        # then sums in the order one record's gather did
        tops = np.stack([np.ascontiguousarray(diag[:, mask]).sum(-1)
                         for mask in gen.top_level_masks], axis=-1)
        top = tops.max(-1)
        sym = rhos.conj().swapaxes(-1, -2)
        rec["herm_dev"].append(np.abs(rhos - sym).max((-3, -2, -1)))
        sym += rhos
        sym /= 2
        # a ghost's eigenvalue is its diagonal entry: give it one that is
        # never below the smallest eigenvalue of the blocks
        sym[ghosts] = diag.max((-2, -1))[:, None]
        rec["min_eig"].append(np.linalg.eigvalsh(sym).min((-2, -1)))
        rec["t"].append(ts.copy())
        rec["trace"].append(tr)
        rec["trunc_monitor"].append(top)
        values = rhos.reshape(ts.size, -1) @ observables / tr[:, None]
        for name, column in zip(names, values.T):
            rec[name].append(column)
        if gen.observables["n_cav"] is None:
            rec["n_cav"].append(np.full(ts.size, math.nan))
        over = np.flatnonzero(top > truncation_tol)
        if over.size:
            i = over[0]
            s = int(tops[i].argmax())
            raise TruncationError(
                f"subsystem {s} holds population {top[i]:.3e} in its top Fock level "
                f"n={space.dims[s] - 1} at t={ts[i]:.6g}, above {truncation_tol}: increase dimensions"
            )

    tmp = np.empty_like(rho)

    def stage(D, state, out):
        """D state + (D state)^dag plus the jump sandwiches: every stage input
        is Hermitian, so state D^dag = (D state)^dag."""
        np.matmul(D, state, out=tmp)
        np.add(tmp, tmp.conj().swapaxes(-1, -2), out=out)
        gen.add_jump_sandwiches(state, out)

    stats = RunStats()
    with RecordBuffer(rho.shape, rho.dtype, monitor) as record:
        record(0.0, rho)
        if gen.phase_nus.size:
            rho, stats = propagate_rk4(gen.drift, stage, rho, n_steps, dt, stride, record)
        else:
            superop = gen.superoperator()
            rho = propagate_exact(lambda h: exponential_map(superop * h), rho, n_steps, dt, stride, record)
    rec = {k: np.concatenate(v) for k, v in rec.items()}
    rec["n1"], rec["n2"], rec["n_cav"] = rec["n1"].real, rec["n2"].real, rec["n_cav"].real

    return Trajectory(
        **rec,
        final_state=DensityState(gen.unpack(rho), time=n_steps * dt),
        stats=replace(stats, records=rec["t"].size, blocks=gen.block_sizes),
    )


def step_count(t_end: float, dt: float, stride: int, f_max: float) -> int:
    """Number of steps of ``dt`` in ``t_end``, after checking the run parameters.

    Both engines require a finite ``t_end``, ``dt <= 0.01 / f_max`` for the
    generator's fastest scale, a positive ``dt``, a nonnegative ``t_end``
    and ``stride >= 1``.
    """
    _require_finite_t_end(t_end)
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


def _require_finite_t_end(t_end: float) -> None:
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")


def fewest_steps_dt(t_end: float, f_max: float) -> float:
    """The ``dt`` of the fewest steps within the guard ``dt <= 0.01 / f_max``
    that divide ``t_end``, so the last record lands on ``t_end``."""
    _require_finite_t_end(t_end)
    steps = math.ceil(t_end * f_max / 0.01) if f_max > 0 else 1000
    return t_end / steps if steps > 0 else 0.01 / f_max


# theta_m of the degree-m Taylor polynomial in double precision: at
# |A|_1 / s <= theta_m, T_m(A / s)^s = exp(A + E) with |E|_1 <= 2^-53 |A|_1
# (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011), Table 3.1).
_TAYLOR_THETA = {5: 2.4e-3, 10: 1.4e-1, 15: 6.4e-1, 20: 1.4, 25: 2.4, 30: 3.5,
                 35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9}

# Entries held at once by the stack of a RecordBuffer (256 KiB complex):
# 25 density-block records at dims (4,3,3), 334 augmented 7x7 moment matrices.
_MONITOR_BLOCK = 2**14

# Largest error estimate a step may have, relative to max(1, max |X|).
# On the desk-frame transfer runs at dims (4,3,3) and dt = 0.01 / f_max
# no step is rejected, and the recorded occupations lie within 1.2e-9
# (horizon 100) and 6.1e-9 (horizon 400) of fixed-step RK4 at dt.
_STEP_TOL = 1e-9

# The Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math.
# 6, 19 (1980)): the nodes c of stages 2..6 (stage 7 sits at t + h), and
# the rows weighing the earlier stages into the inputs of stages 2..7.
# The last row holds the 5th-order weights b, so stage 7 is taken on the
# new state and is the next step's first (FSAL).  _DP_ERROR weighs the
# stages into the embedded error estimate, and _DP_DENSE into the last
# term of the 4th-order continuous extension (Hairer, Norsett & Wanner,
# Solving ODEs I, II.5-II.6).
_DP_NODES = np.array([1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_DP_ROWS = tuple(np.array(row) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
_DP_ERROR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_DP_DENSE = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                      -10690763975 / 1880347072, 701980252875 / 199316789632,
                      -1453857185 / 822651844, 69997945 / 29380423])
# One row per combination of a step: the inputs of stages 2..6, the
# 5th-order update and the error estimate.  Column 0 weighs the state at
# the start of the step, column 1 + i stage 1 + i in units of the step.
_DP_TABLE = np.array([[1.0, *row, *[0.0] * (7 - row.size)] for row in _DP_ROWS] + [[0.0, *_DP_ERROR]])
_DP_B = np.append(_DP_ROWS[-1], 0.0)
_DP_SPLINE = np.eye(7)[0] - _DP_B
_DP_CUBIC = _DP_B - _DP_SPLINE - np.eye(7)[6]


def _dense_weights(theta: float) -> np.ndarray:
    """Weights w of the continuous extension X(t + theta h) = X + h sum_i w_i k_i.

    Hairer's form X + theta (dX + (1 - theta) (h k1 - dX + theta (dX - h k7
    - (h k1 - dX) + (1 - theta) h sum d_i k_i))), dX = h sum b_i k_i.
    """
    return theta * (_DP_B + (1 - theta) * (_DP_SPLINE + theta * (_DP_CUBIC + (1 - theta) * _DP_DENSE)))


def _step_factor(error: float, bound: float) -> float:
    """Standard step-size controller: 0.9 (bound / error)^(1/5), clipped to [0.2, 5]."""
    return min(5.0, max(0.2, 0.9 * (bound / error) ** 0.2)) if error > 0 else 5.0


def propagate_rk4(operators, stage, x, n_steps, dt, stride, record):
    """Adaptive Runge-Kutta for X' = F(t, X) on a Hermitian X.

    X is a matrix or a stack of matrices (the Fock engine's density
    blocks).  ``operators(ts)`` returns the engine's operator at each of
    an array of times (the Fock drift blocks, the Gaussian moment
    superoperator), and ``stage(op, state, out)`` writes F(t, state) into
    ``out``, with ``op`` the operator at t.

    ``dt`` is the record-grid unit: ``record(s dt, x_s)`` is called at
    every step index s that is a multiple of ``stride``, and at
    ``n_steps``.  The state advances by the Dormand-Prince 5(4) pair, with
    one ``operators`` call per attempted step on its five new stage times.
    A step is accepted when the largest entry of its error estimate is at
    most ``_STEP_TOL`` max(1, max |X|), and :func:`_step_factor` sets the
    next step; a rejected step is redone shorter, and one that would fall
    below ``dt`` raises :class:`StepControlError`.  The first step is
    10 ``dt``, and the last is clipped to end at ``n_steps dt``.  The
    records before it come from the continuous extension, so the steps
    never depend on ``stride``.  Returns the final state and the
    :class:`RunStats` of the run.

    Every stage input, update, error estimate and record is one product
    of a row of step-scaled coefficients with the real view of the state
    and its stages (``np.dot``, one OpenBLAS dgemv).  OpenBLAS keeps it on
    one thread while X holds at most about 47,000 reals: 8 rows ran at
    cpu/wall 1.00 at 1,296 reals (the Fock blocks at dims (4,3,3)),
    20,000 and 46,656 (dims (6,6,6)), and at 1.99 at 100,000.

    X is re-Hermitized after each accepted step and each record: the
    exact flow preserves Hermiticity, but for a density matrix the
    roundoff-seeded anti-Hermitian component obeys a sign-flipped
    dissipator in this split update and can grow exponentially if left in
    place.
    """
    # stack[0] is the state at the start of the step, stack[1:] its seven
    # stages; a combination writes through the real view of x or y, and a
    # record's row weighs stack[0] by 1
    x = np.ascontiguousarray(x)
    stack = np.zeros((8,) + x.shape, x.dtype)
    flat = stack.view(x.real.dtype).reshape(8, -1)
    y = np.empty_like(x)
    x_flat, y_flat = (v.view(flat.dtype).reshape(-1) for v in (x, y))
    row = np.ones(8)

    def hermitize(state):
        np.add(state, state.conj().swapaxes(-1, -2), out=state)
        state *= 0.5

    t_end = n_steps * dt
    t, h, r = 0.0, 10.0 * dt, stride
    accepted = rejected = 0
    max_error = 0.0
    if n_steps:
        stack[0] = x
        stage(operators(np.zeros(1))[0], x, stack[1])
    while t < t_end:
        last = t + h >= t_end
        step = t_end - t if last else h
        ops = operators(t + step * _DP_NODES)
        C = step * _DP_TABLE
        C[:, 0] = _DP_TABLE[:, 0]
        for i in range(5):
            np.dot(C[i, :i + 2], flat[:i + 2], out=y_flat)
            stage(ops[i], y, stack[i + 2])
        np.dot(C[5, :7], flat[:7], out=x_flat)
        hermitize(x)
        stage(ops[4], x, stack[7])
        np.dot(C[6], flat, out=y_flat)
        error = float(np.abs(y).max())
        bound = _STEP_TOL * max(1.0, float(np.abs(x).max()))
        factor = _step_factor(error, bound)
        if error > bound:
            rejected += 1
            h = step * factor
            if h < dt:
                raise StepControlError(
                    f"error estimate {error:.3e} at t={t:.6g} exceeds {bound:.3g}, and the "
                    f"next step of {h / dt:.3g} dt would fall below the finest step dt={dt}")
            x[...] = stack[0]
            continue
        accepted += 1
        max_error = max(max_error, error)
        t_next = t_end if last else t + step
        while r < n_steps and r * dt < t_next:
            np.multiply(_dense_weights((r * dt - t) / step), step, out=row[1:])
            np.dot(row, flat, out=y_flat)
            hermitize(y)
            record(r * dt, y)
            r += stride
        t = t_next
        if not last:
            h = step * factor
        stack[0] = x
        stack[1] = stack[7]
    if n_steps:
        record(t_end, x)
    evaluations = 1 + 6 * (accepted + rejected) if n_steps else 0
    return x, RunStats(accepted, rejected, evaluations, h / dt if n_steps else 0.0, max_error)


def propagate_exact(interval_map, x, n_steps, dt, stride, record):
    """Exact record-to-record propagation of a constant flow on a Hermitian X.

    Walks the record grid of :func:`propagate_rk4` (``stride`` steps of
    ``dt`` at a time, then one shorter tail) by ``interval_map(h)``, the
    map of flat X over an interval h, built once per interval length.
    Each record is re-Hermitized.  Returns the final state.
    """
    maps = {}
    step = 0
    while step < n_steps:
        width = min(stride, n_steps - step)
        if width not in maps:
            maps[width] = interval_map(width * dt)
        x = maps[width](x.reshape(-1)).reshape(x.shape)
        x = 0.5 * (x + x.conj().swapaxes(-1, -2))
        step += width
        record(step * dt, x)
    return x


def exponential_map(A):
    """The map B -> exp(A) B of a square CSR or dense ``A``, by truncated Taylor series.

    Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 488 (2011)): exp(A) B =
    T_m(A / s)^s B, with the degree m and substeps s of ``_TAYLOR_THETA``
    that take the fewest products m ceil(|A|_1 / theta_m) at the exact
    1-norm.  A substep stops once the largest entries of its last two
    terms sum to at most 2^-53 max |F| of the partial sum F.  That test
    is taken only where it can pass: max |F| is at most the running bound
    U = max |B_0| + sum_j max |B_j| of the substep's terms B_j (widened
    by 2^-30 for rounding), so while c1 + c2 > 2^-53 U the sum goes on
    without reducing F, and every stop falls where the plain test puts it.
    Only products with A: no random norm estimate and no LAPACK call.
    The caller's B is never written to.
    """
    norm = float(abs(A).sum(axis=0).max())
    _, m, s = min((m * math.ceil(norm / theta), m, math.ceil(norm / theta))
                  for m, theta in _TAYLOR_THETA.items())
    tol = 2.0**-53
    widened = tol * (1 + 2.0**-30)

    def apply(B):
        F = B
        for _ in range(s):
            c1 = bound = np.abs(B).max()
            for j in range(1, m + 1):
                B = A @ B
                B *= 1.0 / (s * j)
                c2 = np.abs(B).max()
                bound += c2
                # in place from the second term: F starts as the caller's B
                F = F + B if j == 1 else np.add(F, B, out=F)
                if c1 + c2 <= widened * bound and c1 + c2 <= tol * np.abs(F).max():
                    break
                c1 = c2
            B = F
        return F

    return apply


def matrix_exponential(A: np.ndarray) -> np.ndarray:
    """exp(A) of a dense square ``A``, by halving and squaring.

    exp(A) = exp(A / 2^k)^(2^k) with the fewest halvings k that bring
    |A|_1 / 2^k within ``_TAYLOR_THETA[55]``, so that
    :func:`exponential_map` sums exp(A / 2^k) in one substep; k squarings
    follow.  At k = 0 this is ``exponential_map(A)(I)``.  A long interval
    (|A|_1 of a few hundred) then takes about 40 products instead of the
    several hundred of the substeps, and matches scipy's Pade ``expm``
    to a few ulps of the result.
    """
    norm = float(np.abs(A).sum(axis=0).max())
    k = 0
    while norm / 2**k > _TAYLOR_THETA[55]:
        k += 1
    X = exponential_map(A / 2**k)(np.eye(A.shape[0]))
    for _ in range(k):
        X = X @ X
    return X


# -- excitation-transfer experiment -----------------------------------------

@dataclass(frozen=True)
class TransferProtocol:
    """Run parameters of the excitation-transfer experiment.

    The truncation allowance is looser than the integrator default
    because mediator heating parks a few 1e-3 of population in the top
    mechanical level over a full fit window.
    """

    dims: tuple[int, int, int] = (4, 3, 3)
    t_end: float = 400.0
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
    from scipy.optimize import curve_fit

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
    frame: FrameParams,
    protocol: TransferProtocol = TransferProtocol(),
    model: str = "full",
) -> TransferResult:
    """Measure the exchange rate dynamically from |0>_c |1, 0>.

    Runs the requested generator ("full" tri-partite or "effective"
    two-mode) at dt = 0.01 / f_max (t_end / 1000 when f_max = 0),
    recording every max(1, steps // 2000) steps plus the last one: about
    2,000 records (2,001 to 3,000) from 4,000 steps up, and one per step
    below that (the effective model on the desk frame, f_max = 1.04e-3,
    takes 42 steps and records 43 points).  Fits the mode-2 occupation to
    a damped Rabi form and returns the fitted rate for comparison against
    the closed form.
    """
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
    dt = 0.01 / f_max if f_max > 0 else protocol.t_end / 1000
    stride = max(1, step_count(protocol.t_end, dt, 1, f_max) // 2000)
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
