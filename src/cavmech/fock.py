"""Truncated-Fock-space Lindblad engine, and the excitation-transfer experiment.

Compiles a :class:`~cavmech.quadratic.QuadraticModel` (the full
linearized tri-partite model, explicitly time-dependent in the displaced
rotating frame, or the time-independent effective two-mode model) to a
Fock-space generator, every operator from the row maps of the ladders
(:class:`CompiledGenerator`).  Its Lindbladian conserves the parity of N - N'
for the total excitation number N, so the density matrix is carried as
the stack of its two parity blocks (or as one block of the whole matrix
when the initial state has coherence between the sectors;
:func:`density_blocks`), and every stage and record works on the stack.
:func:`integrate` runs it by :func:`cavmech.propagate.run`: a constant
generator by its sparse real Lindblad superoperator on the real form
S = Re rho + Im rho of the blocks (:func:`s_form`), which the driver
exponentiates, a time-dependent one by its drift blocks at the stage
times of a step (:meth:`CompiledGenerator.drift` takes an array of times
and sums the phase terms at the few positions they touch) and
:meth:`CompiledGenerator.stage`, the one right-hand side.  Repeated
runs are bit-identical, the trace is never rescaled, and trace,
Hermiticity, positivity, and top-level population are monitored at
every record; the initial state is rejected by the same checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from . import propagate
from .model import FrameParams
from .propagate import RunStats, run, step_count
from .quadratic import FullLinearized, effective_generator, quadratic_model

DIMENSION_CAP = 4096


class TruncationError(RuntimeError):
    """Top Fock level acquired more population than the run allows."""


class FitError(RuntimeError):
    """Rabi fit did not converge."""


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
    """Dense density matrix with a time stamp: the final state of a run."""

    matrix: np.ndarray
    time: float = 0.0


def destroy(dim: int) -> np.ndarray:
    """Truncated annihilation operator, <n-1|b|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def build_operators(space: FockSpace) -> list[np.ndarray]:
    """Annihilation operators of every subsystem, as dense Kronecker products with identities."""
    return [reduce(np.kron, [destroy(d) if j == m else np.eye(d) for j, d in enumerate(space.dims)])
            for m in range(len(space.dims))]


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


# -- Fock-space compilation ---------------------------------------------------

def _occupation_numbers(space: FockSpace) -> np.ndarray:
    """Occupation of every subsystem in every basis state, shape (subsystems, total_dim)."""
    idx = np.arange(space.total_dim)
    return np.array([(idx // math.prod(space.dims[i + 1:])) % d for i, d in enumerate(space.dims)])


def density_blocks(space: FockSpace, rho: np.ndarray | None = None) -> list[np.ndarray]:
    """Basis indices of the diagonal blocks a density matrix is carried in.

    Every Hamiltonian term of a :class:`~cavmech.quadratic.QuadraticModel`
    is quadratic and every jump linear, so the Lindbladian conserves the
    parity of N - N' for the total excitation number N (Buca & Prosen,
    New J. Phys. 14, 073007 (2012)): a state with no coherence between the
    two parity sectors of N stays block-diagonal in them.  Returns the two
    sectors, or one block of the whole space when ``rho`` has such a
    coherence.
    """
    parity = _occupation_numbers(space).sum(axis=0) % 2
    if rho is not None and np.any(rho[parity[:, None] != parity]):
        return [np.arange(space.total_dim)]
    return [np.flatnonzero(parity == p) for p in (0, 1)]


class CompiledGenerator:
    """Matrices of a :class:`~cavmech.quadratic.QuadraticModel` on a Fock space, in block form.

    A density matrix is carried as the stack of its diagonal blocks over
    the basis indices of ``blocks``, which must partition the basis
    (default: the two parity sectors of :func:`density_blocks`), shape
    (blocks, h, h) with h the largest block size; a smaller block is
    padded at its end with ghost rows and columns that the drift, the
    jumps and the monitors never touch, so they hold 0.  Every operator
    is compiled from the row maps ``(src, amp)`` of the ladders b_m and
    b_m^dag (row i holds ``amp[i]`` at column ``src[i]`` alone; index dim
    is a zero row): a term, a product of at most two ladders, has their
    composition as its row map and is scattered into the block stack by
    one assignment per row, which rejects an entry outside the row's block.
    The drift is the stack of its diagonal blocks: a static part plus
    phase terms ``exp(i nu t) M + h.c.``.  For a jump L = sum_m c_m X_m,
    each term X_m rho X_n^dag of L rho L^dag is one precomputed gather
    from the flat stack by the row maps of X_m and X_n times a weight (one
    term for a bare ladder jump), stored complex so that a stage
    multiplies the complex gather without casting it.
    """

    def __init__(self, space: FockSpace, model, blocks=None):
        if len(space.dims) != model.n_modes:
            raise ValueError(f"the model needs {model.n_modes} dims, one per mode")
        self.space = space
        dims = space.dims
        dim = space.total_dim

        blocks = density_blocks(space) if blocks is None else blocks
        counts = np.bincount(np.concatenate(blocks), minlength=dim)
        if counts.size > dim:
            raise ValueError(f"the density blocks hold index {counts.size - 1}, outside a basis of {dim}")
        for problem, bad in (("repeats", counts > 1), ("is missing", counts == 0)):
            if bad.any():
                raise ValueError(f"the density blocks must partition the basis; index {bad.argmax()} "
                                 f"{problem}")
        self.block_sizes = tuple(len(rows) for rows in blocks)
        h = max(self.block_sizes)
        # a ghost row points at index dim, the zero row and column that
        # pack() appends to every operator
        index = np.full((len(blocks), h), dim)
        for b, rows in enumerate(blocks):
            index[b, :len(rows)] = rows
        self.index = index
        # block and row of every basis index; the ghost index dim has none
        real = index < dim
        block_of = np.full(dim + 1, -1)
        row_of = np.zeros(dim + 1, int)
        block_of[index[real]], row_of[index[real]] = np.nonzero(real)
        levels = _occupation_numbers(space)

        def ladder_map(m, dagger):
            """The row map of b_m, or of b_m^dag: <n-1|b|n> = sqrt(n)."""
            n = levels[m] if dagger else levels[m] + 1  # the upper level of each row's entry
            has = (n > 0) & (n < dims[m])
            step = math.prod(dims[m + 1:]) * (-1 if dagger else 1)
            return (np.append(np.where(has, np.arange(dim) + step, dim), dim),
                    np.append(np.where(has, np.sqrt(n), 0.0), 0.0).astype(complex))

        ladder = {(m, d): ladder_map(m, d) for m in range(len(dims)) for d in (False, True)}

        stack_rows = np.indices(index.shape)

        def stack(factors, c=1.0, closed=True):
            """The block stack of c times a product of row maps; ``closed`` rejects any entry off it."""
            src, amp = factors[0]
            for s, a in factors[1:]:
                src, amp = s[src], amp * a[src]
            cols, values = src[index], (c * amp)[index]
            inside = block_of[cols] == stack_rows[0]
            if closed and np.any((values != 0) & ~inside):
                raise ValueError("the density blocks are not closed under the generator")
            out = np.zeros(index.shape + (h,), complex)
            out[(*stack_rows, row_of[cols])] = np.where(inside, values, 0)
            return out

        def term(c, m, n, squeeze):
            return stack([ladder[m, True], ladder[n, squeeze]], c)

        parts = []
        for c, m, n, squeeze in model.static:
            parts.append(term(c, m, n, squeeze))
            if m != n:  # the h.c. part
                parts.append(stack([ladder[n, not squeeze], ladder[m, False]], np.conj(c)))
        zero = np.zeros(index.shape + (h,), complex)
        static_h = sum(parts, zero)
        phase_terms = [(nu, sum((term(*t) for t in terms), zero)) for nu, terms in model.oscillating]
        self.phase_nus = np.array([nu for nu, _ in phase_terms] + [-nu for nu, _ in phase_terms])
        phase_stacks = ([-1j * m for _, m in phase_terms]
                        + [-1j * m.conj().swapaxes(1, 2) for _, m in phase_terms])
        # the flat stack positions the phase terms touch (144 of 1,296 at
        # dims (4,3,3)), and at each the phases and weights of its terms in
        # ascending phase order, padded with weight 0 (2 terms each at (4,3,3))
        packed = np.array(phase_stacks, complex).reshape(len(phase_stacks), index.size * h)
        self._phase_positions = np.flatnonzero(packed.any(axis=0))
        touching = packed[:, self._phase_positions]
        depth = (touching != 0).sum(axis=0).max(initial=0)
        self._phase_sources = np.argsort(touching == 0, axis=0, kind="stable")[:depth]
        self._phase_weights = np.take_along_axis(touching, self._phase_sources, 0)
        *cavity, b1, b2 = range(len(dims))

        def observable(m, n):
            # unchecked: an entry between blocks meets only zeros of the state
            return stack([ladder[m, True], ladder[n, False]], closed=False)

        self.observables = {
            "n1": observable(b1, b1),
            "n2": observable(b2, b2),
            "n_cav": observable(0, 0) if cavity else None,
            "coh": observable(b1, b2),
        }
        self.f_max = model.f_max

        rows, cols = index[:, :, None], index[:, None, :]
        self._jump_gathers = []
        base = -1j * static_h
        for coeffs, dagger, rate in model.jumps:
            ladders = [(c, ladder[m, dagger]) for m, c in coeffs]
            for c_m, (src_m, amp_m) in ladders:
                for c_n, (src_n, amp_n) in ladders:
                    w = rate * c_m * np.conj(c_n) * amp_m[rows] * np.conj(amp_n[cols])
                    k, l = src_m[rows], src_n[cols]
                    if np.any((w != 0) & (block_of[k] != block_of[l])):
                        raise ValueError("the density blocks are not closed under the generator")
                    src = np.where(w != 0, (block_of[k] * h + row_of[k]) * h + row_of[l], 0)
                    self._jump_gathers.append((w, src))
            # L^dag L = sum_mn (c_m X_m)^dag (c_n X_n); (c X)^dag has the sources back
            # of X^dag, and in row i the conjugate of the amplitude of c X in row back[i]
            scaled = [(src, c * amp) for c, (src, amp) in ladders]
            backs = [ladder[m, not dagger][0] for m, _ in coeffs]
            base = base - 0.5 * rate * sum(stack([(back, np.conj(f_amp)[back]), g])
                                           for back, (_, f_amp) in zip(backs, scaled) for g in scaled)
        self.base_drift = base
        self._phase_base = base.reshape(-1)[self._phase_positions]
        self._product = np.empty_like(self.base_drift)  # D state, in every stage
        self.top_level_masks = [np.append(level == d - 1, False)[index] for level, d in zip(levels, dims)]

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

        Only the stack positions the phase terms touch are summed: each
        takes its few phases by one gather, times their weights, in
        ascending phase order, then adds its static entry, so a time gives
        the same bits alone or in a stack.  Nothing calls BLAS: a dense
        product over all the positions takes OpenBLAS's threaded path, and
        its worker threads then spin through the small single-threaded
        products of the Runge-Kutta stages that follow.
        """
        n = np.size(ts)
        phases = np.exp(1j * np.multiply.outer(ts, self.phase_nus)).reshape(n, -1)
        terms = phases.take(self._phase_sources, axis=1)
        terms *= self._phase_weights
        touched = terms.sum(axis=1)
        touched += self._phase_base
        flat = np.repeat(self.base_drift.reshape(1, -1), n, axis=0)
        for row, values in zip(flat, touched):  # faster than one 2-d scatter
            row[self._phase_positions] = values
        return flat.reshape(np.shape(ts) + self.base_drift.shape)

    def add_jump_sandwiches(self, state: np.ndarray, out: np.ndarray) -> None:
        """Accumulate sum_i L_i state L_i^dag into ``out`` (block stacks)."""
        flat = state.reshape(-1)
        for weight, source in self._jump_gathers:
            gathered = flat.take(source)
            gathered *= weight
            out += gathered

    def stage(self, D: np.ndarray, state: np.ndarray, out: np.ndarray) -> None:
        """Write D state + (D state)^dag plus the jump sandwiches into ``out``.

        This is the Lindbladian of drift blocks ``D`` only for a Hermitian
        ``state``, as every stage input of a run is: then state D^dag = (D state)^dag.
        """
        np.matmul(D, state, out=self._product)
        np.conjugate(self._product.swapaxes(-1, -2), out=out)
        out += self._product
        self.add_jump_sandwiches(state, out)

    def superoperator(self):
        """Sparse real Lindblad superoperator of a constant generator, on flat S.

        A Hermitian block stack rho is carried as the real stack
        S = Re rho + Im rho, whose symmetric part is Re rho and whose
        antisymmetric part is Im rho (:func:`hermitian_form`), so every real
        S is a Hermitian rho.  On the row-major flattening, where
        vec(X rho Y) = (X kron Y^T) vec(rho) within each block, an entry
        a + ib of the complex superoperator at (p, q) adds a at (p, q) and b
        at (p, q'), with q' the transposed position of q in its block.  The
        complex entries are those of kron(D, I) and kron(I, D*) of every
        drift block D and of every jump gather, the same ones :meth:`stage`
        uses; assembled in one pass, with no sparse Kronecker product and
        no sparse addition.
        """
        from scipy import sparse

        if self.phase_nus.size:
            raise ValueError("the superoperator needs a time-independent generator")
        n_blocks, h, _ = self.base_drift.shape
        size = n_blocks * h * h
        j = np.arange(h)
        parts = []  # (rows, columns, complex values)
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
        transposed = np.arange(size).reshape(n_blocks, h, h).swapaxes(1, 2).reshape(-1)
        rows = np.concatenate([rows, rows])
        cols = np.concatenate([cols, transposed[cols]])
        vals = np.concatenate([vals.real, vals.imag])
        kept = vals != 0
        # the constructor sums the entries of each position; a lossless
        # drift with frequency shifts has sums that cancel
        out = sparse.csr_matrix((vals[kept], (rows[kept], cols[kept])), shape=(size, size))
        out.eliminate_zeros()
        return out


def s_form(rho: np.ndarray) -> np.ndarray:
    """The real form S = Re H + Im H of the Hermitian part H of a block stack ``rho``.

    The exact path carries its blocks in this form
    (:meth:`CompiledGenerator.superoperator`); :func:`hermitian_form` is
    its inverse.
    """
    H = rho + rho.conj().swapaxes(-1, -2)
    H /= 2
    return H.real + H.imag


def hermitian_form(S: np.ndarray) -> np.ndarray:
    """The Hermitian blocks rho = (S + S^T)/2 + i (S - S^T)/2 of a real S, or of a stack of them."""
    St = S.swapaxes(-1, -2)
    rho = np.empty(S.shape, complex)
    np.add(S, St, out=rho.real)
    np.subtract(S, St, out=rho.imag)
    rho *= 0.5
    return rho


def sector_min_eig(real: np.ndarray, carried: np.ndarray):
    """The map from a stack of Hermitian block stacks to the smallest eigenvalue of each.

    ``real`` marks the rows of a (blocks, h) block layout that are not
    ghosts, and ``carried`` the flat indices of the entries of a
    (blocks, h, h) stack that may be nonzero.  Two real rows of a block are
    joined when a carried entry sits at their crossing, and the connected
    components, found once by label propagation to a fixed point, are the
    sectors every such stack is block-diagonal in: from a Fock state under
    the effective model, one per total excitation number N (Buca & Prosen,
    New J. Phys. 14, 073007 (2012)), and the whole blocks under a squeeze
    term.  The eigenvalues of a stack are those of its sector blocks, and
    0 for every real row that no carried entry touches; a ghost row has
    none.

    The map takes a (records, blocks, h, h) stack supported on ``carried``
    and returns the minimum over its sectors: a 1 x 1 sector is its
    diagonal entry, a 2 x 2 one [[a, c], [c*, d]] takes the closed form
    (a + d)/2 - hypot((a - d)/2, |c|), and the larger sectors of each size
    take one ``eigvalsh``, on their blocks gathered from the stack.  When
    the sectors are the whole blocks and no row is a ghost, that one
    ``eigvalsh`` reads the stack in place: a gather would copy all of it.
    """
    n_blocks, h = real.shape
    joined = np.zeros((n_blocks, h, h), bool)
    joined.reshape(-1)[carried] = True
    joined &= real[:, :, None] & real[:, None, :]
    joined |= joined.swapaxes(1, 2)
    # every row takes the lowest label of its own and its neighbours' until
    # none changes: then each sector is labelled by its first row
    label = np.broadcast_to(np.arange(h), real.shape)
    while True:
        lowest = np.minimum(label, np.where(joined, label[:, None, :], h).min(-1))
        if np.array_equal(lowest, label):
            break
        label = lowest
    touched = joined.any(-1)
    unreached = bool((real & ~touched).any())
    # rows and sectors by flat row index b h + r
    rows = np.flatnonzero(touched)
    sector = (label + h * np.arange(n_blocks)[:, None]).reshape(-1)[rows]
    sizes = np.bincount(sector, minlength=real.size)
    gathers = []  # (size, flat stack indices of the blocks of every sector of that size)
    for size in np.flatnonzero(np.bincount(sizes)[1:]) + 1:
        members = sector == np.flatnonzero(sizes == size)[:, None]
        members = np.broadcast_to(rows, members.shape)[members].reshape(-1, size)
        whole = size == h and len(members) == n_blocks
        gathers.append((size, None if whole else members[:, :, None] * h + members[:, None, :] % h))

    def smallest(rhos):
        flat = rhos.reshape(len(rhos), -1)
        out = np.full(len(rhos), 0.0 if unreached else np.inf)
        for size, index in gathers:
            B = rhos if index is None else flat[:, index]
            if size == 1:
                low = B[..., 0, 0].real
            elif size == 2:
                a, d = B[..., 0, 0].real, B[..., 1, 1].real
                low = (a + d) / 2 - np.hypot((a - d) / 2, np.abs(B[..., 0, 1]))
            else:
                low = np.linalg.eigvalsh(B).min(-1)
            out = np.minimum(out, low.min(-1))
        return out

    return smallest


def compile_generator(spec, space: FockSpace, blocks=None) -> CompiledGenerator:
    """Materialize a generator spec on a Fock space, in the given density blocks."""
    return CompiledGenerator(space, quadratic_model(spec), blocks)


# -- integration ------------------------------------------------------------

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
    fastest scale.  The run is carried out by :func:`cavmech.propagate.run`:
    for a constant generator, the map exp(L h) of its sparse real
    superoperator L over each record interval h, which the driver sums
    by sparse products only, on the real form S = Re rho + Im rho of the
    blocks (:func:`s_form`, taken of the Hermitian part of ``rho0``): every
    real S is a Hermitian state, so it is never projected, and each stack
    of records is turned back into Hermitian blocks for the monitors
    (:func:`hermitian_form`), Hermitian bitwise, so their Hermiticity
    defect is 0 and is not computed.  The driver carries only the entries
    of S the flow reaches from ``rho0``: every term of the effective model
    conserves N - N', so from a Fock state those with N = N' (44 of 128 at
    dims (4,4)).  Every record is then block-diagonal in the sectors these
    entries join, and its smallest eigenvalue is taken sector by sector
    (:func:`sector_min_eig`).  For a time-dependent generator, its drift
    blocks at the stage times and :meth:`CompiledGenerator.stage`; the
    monitors measure the Hermiticity defect of each record as the run
    gives it, then read everything else from its Hermitian part, in which
    every entry of the blocks may be nonzero: its sectors are the whole
    blocks.  The same map checks ``rho0``.  The returned trajectory's
    ``stats`` say how (``dense_maps`` counts the dense increments,
    ``carried`` the entries carried).
    Trace drift is compensated in the reported expectations only, never
    in the state.  Aborts when the top Fock level of any subsystem passes
    ``truncation_tol``, which must be a nonnegative number (a NaN would
    pass every record); the error names the first such record.

    The state is carried as the stack of its diagonal blocks
    (:func:`density_blocks`): the two parity sectors of the total
    excitation number, or one block of the whole matrix when ``rho0`` has
    coherence between them.  Every stage, record and monitor works on the
    blocks; ``stats.blocks`` gives their sizes, and the final state is
    returned as the dense matrix in the Fock basis.

    ``rho0`` must be finite and pass the checks every record is monitored
    by, on its own block stack: trace 1 to 1e-8, Hermitian to 1e-10 and
    no eigenvalue below -1e-8; otherwise a ``ValueError`` names the first
    check it fails.
    """
    if not truncation_tol >= 0:
        raise ValueError(f"truncation_tol must be a nonnegative number, got {truncation_tol}")
    rho0 = np.array(rho0, dtype=complex)
    if rho0.shape != (space.total_dim,) * 2:
        raise ValueError(f"rho0 has shape {rho0.shape}, the space needs {(space.total_dim,) * 2}")
    if not np.isfinite(rho0).all():
        raise ValueError("density matrix has non-finite entries")
    gen = compile_generator(spec, space, density_blocks(space, rho0))
    rho = gen.pack(rho0)
    if gen.phase_nus.size:
        carried = np.arange(rho.size)  # a time-dependent stage may fill every entry of the blocks
    else:
        L, S = gen.superoperator(), s_form(rho).reshape(-1)
        carried = propagate.reachable(L, S)
    smallest = sector_min_eig(gen.index < space.total_dim, carried)

    def hermitian_part(rhos):
        """Hermiticity defect and Hermitian part of a (records, blocks, h, h) stack."""
        sym = rhos.conj().swapaxes(-1, -2)
        herm_dev = np.abs(rhos - sym).max((-3, -2, -1))
        sym += rhos
        sym /= 2
        return herm_dev, sym

    # rho0 holds no entry outside the blocks, so the checks of every
    # record on its one-record stack are its own
    herm_dev, sym = hermitian_part(rho[None])
    trace = np.trace(rho0)
    if abs(trace.real - 1.0) > 1e-8 or abs(trace.imag) > 1e-8:
        raise ValueError("density matrix trace is not 1")
    if herm_dev[0] > 1e-10:
        raise ValueError("density matrix is not Hermitian")
    if smallest(sym)[0] < -1e-8:
        raise ValueError("density matrix has a significantly negative eigenvalue")
    n_steps = step_count(t_end, dt, stride, gen.f_max)

    # tr(O rho) of every observable by one product with the flat record
    # stack: column q holds O_q transposed block by block
    names = [name for name, op in gen.observables.items() if op is not None]
    observables = np.array([gen.observables[name].swapaxes(-1, -2).reshape(-1) for name in names]).T

    def monitor(ts, herm_dev, sym):
        """The monitors of the Hermitian part ``sym`` of a (records, blocks, h, h) stack of states.

        ``herm_dev`` is the stack's Hermiticity defect.
        """
        diag = sym.diagonal(0, -2, -1).real
        tr = diag.sum((-2, -1))
        # the boolean gather comes out column-major; each contiguous row
        # then sums in the order one record's gather did
        tops = np.stack([np.ascontiguousarray(diag[:, mask]).sum(-1)
                         for mask in gen.top_level_masks], axis=-1)
        top = tops.max(-1)
        values = dict(zip(names, (sym.reshape(ts.size, -1) @ observables / tr[:, None]).T))
        min_eig = smallest(sym)
        over = np.flatnonzero(top > truncation_tol)
        if over.size:
            i = over[0]
            s = int(tops[i].argmax())
            raise TruncationError(
                f"subsystem {s} holds population {top[i]:.3e} in its top Fock level "
                f"n={space.dims[s] - 1} at t={ts[i]:.6g}, above {truncation_tol}: increase dimensions"
            )
        n_cav = values["n_cav"].real if "n_cav" in values else np.full(ts.size, math.nan)
        return {"n1": values["n1"].real, "n2": values["n2"].real, "n_cav": n_cav, "coh": values["coh"],
                "trace": tr, "trunc_monitor": top, "herm_dev": herm_dev, "min_eig": min_eig}

    if gen.phase_nus.size:
        records, rho, stats = run(rho, lambda ts, rhos: monitor(ts, *hermitian_part(rhos)),
                                  n_steps, dt, stride, None, gen.drift, gen.stage)
    else:
        def s_monitor(ts, Ss):
            # the records of hermitian_form are Hermitian bitwise: their
            # defect is 0 and is not computed
            rhos = hermitian_form(Ss.reshape(ts.shape + rho.shape))
            return monitor(ts, np.zeros(ts.size), rhos)

        records, S, stats = run(S, s_monitor, n_steps, dt, stride, L)
        rho = hermitian_form(S.reshape(rho.shape))
    return Trajectory(
        **records,
        final_state=DensityState(gen.unpack(rho), time=n_steps * dt),
        stats=replace(stats, blocks=gen.block_sizes),
    )


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
    trajectory: Trajectory


def _rabi_model(t, amplitude, omega, gamma, offset, slope):
    return amplitude * np.sin(omega * t) ** 2 * np.exp(-gamma * t) + offset + slope * t


def _rabi_jacobian(t, amplitude, omega, gamma, offset, slope):
    """Derivatives of :func:`_rabi_model` by its five parameters, one column each."""
    decay = np.exp(-gamma * t)
    arc = np.sin(omega * t) ** 2 * decay
    return np.stack([arc, amplitude * t * np.sin(2 * omega * t) * decay, -amplitude * t * arc,
                     np.ones_like(t), t], axis=-1)


_FIT_EVALUATIONS = 20000  # model evaluations before a fit gives up


def _least_squares_in_box(model, jacobian, t, y, x0, lower, upper):
    """Minimize the sum of squares of r = model(t, *x) - y over lower <= x <= upper.

    A projected Levenberg-Marquardt iteration with Moré's column scaling
    (Moré, Lecture Notes in Mathematics 630, 105 (1978)): D holds the
    largest norm each column of the Jacobian J has had.  A variable at a
    bound that the gradient g = J^T r pushes outward is held there; the
    others take the damped Gauss-Newton step (J^T J + lam D^2) p = -g, and
    the trial x + p is projected onto the box.  J^T J and g come from one
    product with [J, r] of 6 columns, far under OpenBLAS's threaded size.
    A trial is taken when its actual reduction of the cost is at least
    1e-4 of the predicted one, and lam falls (Nielsen's rule); otherwise
    lam rises, doubling its factor on each further rejection.  Near the
    optimum the predicted reduction drops below the cost's roundoff,
    8 eps sum |r_i| |y_i| (each residual is off by a few eps |y_i|), and
    the comparison says nothing: such a trial is taken when the cost
    rises by no more than that roundoff.  The gradient, which stays
    accurate there, then steers the steps down to its own noise.

    Stops, at roundoff:
    - when a trial moves x by at most 1e-15 relative in the scaled norm
      |D p| / |D x|, returning x;
    - when a step taken within the cost's roundoff is no shorter than
      half the roundoff step before it: the iterates then only wander at
      the noise of the gradient, so the trial is returned.

    Raises :class:`FitError` after ``_FIT_EVALUATIONS`` model evaluations.
    """
    eps = np.finfo(float).eps
    x = np.array(x0, float)
    r = model(t, *x) - y
    cost = r @ r
    scale = np.zeros_like(x)
    damping, last = 1e-3, np.inf
    taken = True
    for _ in range(_FIT_EVALUATIONS):
        if taken:
            columns = np.column_stack([jacobian(t, *x), r])
            gram = columns.T @ columns
            JTJ, g = gram[:-1, :-1], gram[:-1, -1]
            scale = np.maximum(scale, np.sqrt(np.diag(JTJ)))
            free = ~(((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0)))
            d = scale[free]
            scaled = JTJ[np.ix_(free, free)] / np.outer(d, d)
            roundoff = 8 * eps * (np.abs(r) @ np.abs(y))
            growth = 2.0
        p = np.zeros_like(x)
        p[free] = np.linalg.solve(scaled + damping * np.eye(d.size), -g[free] / d) / d
        trial = np.clip(x + p, lower, upper)
        s = trial - x
        size = np.linalg.norm(scale * s) / np.linalg.norm(scale * x)
        if size <= 1e-15:
            return x
        r_trial = model(t, *trial) - y
        cost_trial = r_trial @ r_trial
        predicted = -(2 * g @ s + s @ JTJ @ s)
        reduction = cost - cost_trial
        taken = predicted > 0 and (reduction >= 1e-4 * predicted
                                   or (predicted <= roundoff and reduction >= -roundoff))
        if not taken:
            damping *= growth
            growth *= 2
            continue
        if predicted <= roundoff:
            if size >= last / 2:
                return trial
            last = size
            damping /= 3
        else:
            last = np.inf
            damping *= max(1 / 3, 1 - (2 * reduction / predicted - 1) ** 3)
        x, r, cost = trial, r_trial, cost_trial
    raise FitError(f"Rabi fit failed: no convergence in {_FIT_EVALUATIONS} model evaluations")


def fit_damped_rabi(t: np.ndarray, n2: np.ndarray):
    """Fit n2(t) to A sin^2(w t) exp(-g t) + c + h t; returns (A, w, g, c).

    On a window short of the first full swap the parameters are nearly
    degenerate (a large amplitude at low frequency with extra damping
    shadows the true arc), so the frequency is first pinned by the
    linearized phase asin(sqrt(n2)) = w t, which holds for a
    unit-amplitude swap from |1, 0>, and the nonlinear refinement is
    confined to its neighborhood.  The amplitude is capped at 1 (the
    initial state holds one excitation) and the bounded linear term
    absorbs the slow mediator-heating drift.  The refinement is the
    bounded least-squares problem, solved by a projected
    Levenberg-Marquardt iteration on the model's analytic Jacobian
    (:func:`_least_squares_in_box`) that runs to roundoff: it stops when a
    step moves the scaled parameters by at most 1e-15 relative, or when
    steps below the cost's roundoff stop shrinking.  A looser rule
    leaves the rate short of the optimum: at a relative cost change of
    1e-8 a roundoff-level change in n2 moves it by ~1e-7 relative.  The
    data must be finite; any failure raises :class:`FitError`.
    """
    if not (np.isfinite(t).all() and np.isfinite(n2).all()):
        raise FitError("the data to fit must be finite")
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
    lower = np.array([1e-6, 0.75 * omega_lin, 0.0, -0.05, 0.0])
    upper = np.array([1.005, 1.3 * omega_lin, gamma_max, 0.05, slope_max])
    amplitude, omega, gamma, offset, _slope = _least_squares_in_box(
        _rabi_model, _rabi_jacobian, t, n2, p0, lower, upper)
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
    if model not in ("full", "effective"):
        raise ValueError("model must be 'full' or 'effective'")
    quad = quadratic_model(FullLinearized(frame) if model == "full" else effective_generator(frame))
    space = FockSpace(protocol.dims[-quad.n_modes:])
    rho0 = fock_state(space, (0,) * (quad.n_modes - 2) + (1, 0))

    f_max = quad.f_max
    dt = 0.01 / f_max if f_max > 0 else protocol.t_end / 1000
    stride = max(1, step_count(protocol.t_end, dt, 1, f_max) // 2000)
    traj = integrate(
        quad, space, rho0, protocol.t_end, dt,
        stride=stride, truncation_tol=protocol.truncation_tol,
    )
    omega = fit_damped_rabi(traj.t, traj.n2)[1]
    return TransferResult(exchange_rate=float(omega), trajectory=traj)
