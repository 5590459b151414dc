"""Exact second-moment (Gaussian) dynamics for the linearized models.

Quadratic Hamiltonians with linear jump operators close on the first and
second moments for any state, so these engines track the mean vector and
the symmetric covariance matrix exactly, independent of Fock truncation.
Quadratures are ordered (x_1, p_1, ..., x_N, p_N) with vacuum variance 1/2
(hbar = 1); that convention is stamped on every emitted header.  Drift
and diffusion are compiled from the same
:class:`~cavmech.quadratic.QuadraticModel` as the Fock-space generator,
one formula per Hamiltonian term and per jump.  :func:`evolve_covariance`
carries the augmented moment matrix X = [[cov, mean], [mean^T, 1]] as its
packed upper triangle vech(X) through :func:`cavmech.propagate.run`, with
the moment superoperator L on vech(X)
(:meth:`DriftDiffusion.superoperator`, which takes an array of times) as
the generator of a constant drift and the operator of a time-dependent
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import FrameParams
from .propagate import RunStats, fewest_steps_dt, run, step_count
from .quadratic import effective_generator, quadratic_model

VACUUM_CONVENTION = "quadrature ordering (x1,p1,...); vacuum variance 1/2; hbar=1"


class StabilityError(RuntimeError):
    """The drift matrix is not Hurwitz: no stable steady state."""


class PhysicalityError(RuntimeError):
    """A covariance matrix violated the uncertainty bound."""


def symplectic_form(n_modes: int) -> np.ndarray:
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for m in range(n_modes):
        omega[2 * m, 2 * m + 1] = 1.0
        omega[2 * m + 1, 2 * m] = -1.0
    return omega


@dataclass
class CovarianceState:
    """First moments and symmetric covariance of N modes."""

    mean: np.ndarray
    cov: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.mean = np.asarray(self.mean, float)
        self.cov = np.asarray(self.cov, float)
        n = self.mean.size
        if self.cov.shape != (n, n) or n % 2:
            raise ValueError("covariance must be (2N, 2N) matching the mean vector")

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def symmetry_defect(self) -> float:
        return float(np.abs(self.cov - self.cov.T).max())

    def physicality_defect(self) -> float:
        """Most negative eigenvalue of cov + i Omega/2 (0 when physical)."""
        return float(uncertainty_defect(self.cov))

    def validate(self, sym_tol: float = 1e-12, phys_tol: float = 1e-8):
        if self.symmetry_defect() > sym_tol:
            raise ValueError("covariance matrix is not symmetric")
        if self.physicality_defect() < -phys_tol:
            raise PhysicalityError("covariance violates the uncertainty bound")

    def occupation(self, mode: int) -> float:
        """<n> of one mode (0-indexed), including the mean displacement."""
        return float(mode_occupations(self.cov, self.mean)[mode])

    def mode_coherence(self, m1: int, m2: int) -> complex:
        """<b_m1^dag b_m2> from the moments."""
        i, j = 2 * m1, 2 * m2
        c = self.cov
        re = c[i, j] + c[i + 1, j + 1] + self.mean[i] * self.mean[j] + self.mean[i + 1] * self.mean[j + 1]
        im = c[i, j + 1] - c[i + 1, j] + self.mean[i] * self.mean[j + 1] - self.mean[i + 1] * self.mean[j]
        return 0.5 * (re + 1j * im)


def mode_occupations(cov: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """<n> of every mode of a (..., 2N, 2N) covariance stack with its (..., 2N) means."""
    var, disp = cov.diagonal(0, -2, -1), mean * mean
    return 0.5 * (var[..., 0::2] + var[..., 1::2] + (disp[..., 0::2] + disp[..., 1::2]) - 1.0)


def uncertainty_defect(cov: np.ndarray) -> np.ndarray:
    """Most negative eigenvalue of cov + i Omega/2 of a (..., 2N, 2N) stack (0 where physical)."""
    bound = 0.5j * symplectic_form(cov.shape[-1] // 2)
    return np.minimum(np.linalg.eigvalsh(cov + bound).min(-1), 0.0)


def vacuum_state(n_modes: int) -> CovarianceState:
    return CovarianceState(np.zeros(2 * n_modes), 0.5 * np.eye(2 * n_modes))


def fock_moments(n_modes: int, occupations: tuple[int, ...]) -> CovarianceState:
    """Second moments of a product Fock state (not Gaussian, still exact)."""
    cov = np.zeros((2 * n_modes, 2 * n_modes))
    for m, n in enumerate(occupations):
        cov[2 * m, 2 * m] = cov[2 * m + 1, 2 * m + 1] = n + 0.5
    return CovarianceState(np.zeros(2 * n_modes), cov)


def squeezed_vacuum(n_modes: int, mode: int, r: float) -> CovarianceState:
    """Vacuum with mode ``mode`` squeezed by r (x variance e^{-2r}/2)."""
    state = vacuum_state(n_modes)
    state.cov[2 * mode, 2 * mode] = 0.5 * math.exp(-2 * r)
    state.cov[2 * mode + 1, 2 * mode + 1] = 0.5 * math.exp(2 * r)
    return state


def _packing(m: int):
    """Where vech(X), the upper triangle of a symmetric m x m X row by row, sits.

    Returns the positions of vech(X) in the row-major flattening of X, so
    that ``X.reshape(-1)[upper]`` packs X, and the (m, m) index of each
    entry of X in vech(X), so that ``v[..., index]`` unpacks a stack of
    them with one gather.
    """
    rows, cols = np.triu_indices(m)
    index = np.empty((m, m), int)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    return rows * m + cols, index


# -- drift/diffusion construction -------------------------------------------

@dataclass
class DriftDiffusion:
    """Moment dynamics d<r>/dt = A(t) <r>, dS/dt = A(t) S + S A(t)^T + D.

    ``drift`` is the constant part of A.  A time-dependent drift adds
    sum_k cos(nu_k t) C_k + sin(nu_k t) S_k over the frequencies
    ``phase_nus``; ``phase_basis`` stacks C_1..C_K, then S_1..S_K, shape
    (2K, 2N, 2N).  :meth:`superoperator` gives the moment equations'
    matrix at any time: the one right-hand side of both propagation paths.
    """

    drift: np.ndarray
    diffusion: np.ndarray
    phase_nus: np.ndarray = field(default_factory=lambda: np.zeros(0))
    phase_basis: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 0)))
    f_max: float = 0.0

    @property
    def time_dependent(self) -> bool:
        return bool(self.phase_nus.size)

    def _phase_coeffs(self, ts) -> np.ndarray:
        """cos(nu_k t), then sin(nu_k t), along a last axis over ``ts``."""
        phases = np.multiply.outer(ts, self.phase_nus)
        return np.concatenate([np.cos(phases), np.sin(phases)], axis=-1)

    def superoperator(self, ts=None) -> np.ndarray:
        """Matrix L of X -> M X + X M^T + N X[n, n] on vech(X) of a symmetric X.

        M = blockdiag(A, 0) and N = blockdiag(D, 0), and vech(X) is the
        upper triangle of X row by row (``np.triu_indices``): (n + 1)(n + 2)
        / 2 entries.  This is the right-hand side that
        :func:`evolve_covariance` integrates, and it keeps X[n, n] fixed.
        Without ``ts`` the drift must be constant; at a time ``ts``, or the
        stack of them over an array of times, the phase terms are added to
        the constant part by one product with their superoperators.
        """
        const, phase_terms = self._superoperator_parts
        if ts is None:
            if self.time_dependent:
                raise ValueError("the superoperator needs a time-independent drift")
            return const.copy()
        out = (self._phase_coeffs(ts) @ phase_terms).reshape(np.shape(ts) + const.shape)
        out += const
        return out

    @cached_property
    def _superoperator_parts(self):
        """L's constant part, and the flat superoperator of each ``phase_basis`` matrix as a row.

        The operator on vech(X) is the operator on the flattening of X at
        the rows of vech(X), times the duplication matrix that unpacks
        vech(X) into the flattening (Magnus & Neudecker, SIAM J. Algebraic
        Discrete Methods 1, 422 (1980)): an off-diagonal entry of vech(X)
        stands for two entries of X.
        """
        n = self.drift.shape[0]
        eye = np.eye(n + 1)
        upper, index = _packing(n + 1)
        duplication = np.equal.outer(index.reshape(-1), np.arange(upper.size)).astype(float)

        def lift(A):
            M = np.zeros((n + 1, n + 1))
            M[:n, :n] = A
            return (np.kron(M, eye) + np.kron(eye, M))[upper] @ duplication

        const = lift(self.drift)
        const[:, -1] += np.pad(self.diffusion, ((0, 1), (0, 1))).reshape(-1)[upper]
        phase_terms = np.array([lift(B).reshape(-1) for B in self.phase_basis])
        return const, phase_terms.reshape(len(self.phase_basis), const.size)


def _quad_form(T, terms, phase=1):
    """Quadrature matrix H of the Hamiltonian terms (H = r^T H r / 2 up to a constant).

    T holds the ladder rows, b_m = T_m . r / sqrt(2) with T[m, 2m] = 1 and
    T[m, 2m + 1] = i.  The term c b_m^dag X_n is r^T F r with F =
    (c/2) conj(T_m) (x) Y_n, Y_n = conj(T_n) for X_n = b_n^dag and T_n for
    b_n; adding its h.c. for m != n doubles the symmetric real part.  Each
    coefficient is multiplied by ``phase``.
    """
    H = np.zeros((T.shape[1], T.shape[1]))
    for c, m, n, squeeze in terms:
        F = (phase * complex(c) / 2) * np.outer(T[m].conj(), T[n].conj() if squeeze else T[n])
        F = F.real + F.real.T
        H += F if m == n else 2 * F
    return H


def drift_diffusion_from_generator(spec) -> DriftDiffusion:
    """Map a generator spec onto moment dynamics.

    Reads the spec's :class:`~cavmech.quadratic.QuadraticModel`.  An oscillating
    coefficient c e^{i nu t} contributes cos(nu t) times the drift of c and
    sin(nu t) times the drift of i c.  A jump L = sum_m c_m X_m is
    lambda^T r with lambda = sum_m c_m Y_m / sqrt(2), Y_m = T_m for
    X_m = b_m and conj(T_m) for b_m^dag.
    """
    model = quadratic_model(spec)
    n = model.n_modes
    T = np.kron(np.eye(n), [1.0, 1j])
    omega = symplectic_form(n)
    A = omega @ _quad_form(T, model.static)
    D = np.zeros((2 * n, 2 * n))
    for coeffs, dagger, rate in model.jumps:
        lam = np.zeros(2 * n, complex)
        for m, c in coeffs:
            lam += c * (T[m].conj() if dagger else T[m]) / math.sqrt(2)
        outer = np.outer(lam, lam.conj())
        A = A - rate * omega @ outer.imag
        D = D + rate * omega @ outer.real @ omega.T
    basis = [omega @ _quad_form(T, terms, phase)
             for phase in (1, 1j) for _, terms in model.oscillating]
    return DriftDiffusion(
        drift=A,
        diffusion=D,
        phase_nus=np.array([nu for nu, _ in model.oscillating]),
        phase_basis=np.array(basis).reshape(len(basis), 2 * n, 2 * n),
        f_max=model.f_max,
    )


# -- propagation and steady state -------------------------------------------

# Largest uncertainty-bound defect a recorded covariance may have.
_PHYSICALITY_TOL = 1e-6


@dataclass
class GaussTrajectory:
    """Recorded moments of one covariance integration."""

    t: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    log_negativity: np.ndarray
    min_symp_eig: np.ndarray
    physicality: np.ndarray
    final_state: CovarianceState
    occupations: np.ndarray
    stats: RunStats = RunStats()

    @property
    def max_physicality_defect(self) -> float:
        return float(-self.physicality.min())


def evolve_covariance(
    dd: DriftDiffusion,
    state0: CovarianceState,
    t_end: float,
    dt: float,
    stride: int = 100,
) -> GaussTrajectory:
    """Propagate the moments to ``round(t_end / dt) * dt``, recording every ``stride`` steps of ``dt``.

    The run carries the augmented moment matrix X = [[cov, mean],
    [mean^T, 1]] as vech(X), its packed upper triangle: with M =
    blockdiag(A, 0) and N = blockdiag(D, 0), X' = M X + (M X)^T + N holds
    the covariance and the mean equations, and a packed X is symmetric by
    construction.  Each stack of records is unpacked by one gather.
    ``dt`` sets the record grid (every ``stride`` steps, plus the last
    step) and must satisfy ``dt <= 0.01 / f_max``.  The run is carried
    out by :func:`cavmech.propagate.run` with L =
    :meth:`DriftDiffusion.superoperator`: for a constant drift, L itself,
    whose dense increment exp(L h) - I the driver takes once per
    record-interval length h, on the entries of vech(X) that L reaches
    (a zero mean stays 0, so 11 of 15 for two modes); for a
    time-dependent one, L at the stage times and a stage that is one
    product of L with vech(X).  The trajectory's ``stats`` say how.  The
    uncertainty-bound defect is monitored at every record; a defect beyond
    ``_PHYSICALITY_TOL`` aborts, naming the first such record.  ``n1``,
    ``n2`` and the entanglement columns (:func:`_log_negativity` of the
    4 x 4 block of the last two modes) read the mechanical pair, which a
    :class:`~cavmech.quadratic.QuadraticModel` lists last.  ``state0``
    must have the drift's mode count.
    """
    n_steps = step_count(t_end, dt, stride, dd.f_max)
    n = state0.mean.size
    if n != len(dd.drift):
        raise ValueError(f"state0 has {state0.n_modes} modes, the drift {len(dd.drift) // 2}")
    x = np.zeros((n + 1, n + 1))
    x[:n, :n] = 0.5 * (state0.cov + state0.cov.T)
    x[:n, n] = x[n, :n] = state0.mean
    x[n, n] = 1.0
    if not np.isfinite(x).all():
        raise ValueError("initial moments must be finite")
    upper, index = _packing(n + 1)

    def monitor(ts, packed):
        """The monitors of a (records, (n + 1)(n + 2) / 2) stack of packed moment matrices."""
        xs = packed[:, index]
        cov = xs[:, :n, :n]
        defect = uncertainty_defect(cov)
        over = np.flatnonzero(defect < -_PHYSICALITY_TOL)
        if over.size:
            i = over[0]
            raise PhysicalityError(
                f"covariance defect {defect[i]:.3e} at t={ts[i]:.6g} beyond {_PHYSICALITY_TOL}"
            )
        en, nu = _log_negativity(cov[:, -4:, -4:])
        return {"occupations": mode_occupations(cov, xs[:, :n, n]), "physicality": defect,
                "log_negativity": en, "min_symp_eig": nu}

    def stage(L, state, out):
        np.dot(L, state, out=out)

    generator = None if dd.time_dependent else dd.superoperator()
    records, x, stats = run(x.reshape(-1)[upper], monitor, n_steps, dt, stride, generator,
                            dd.superoperator, stage)
    x = x[index]
    occ = records["occupations"]
    return GaussTrajectory(
        **records,
        n1=occ[:, -2],
        n2=occ[:, -1],
        final_state=CovarianceState(x[:n, n], x[:n, :n], time=n_steps * dt),
        stats=stats,
    )


def steady_state(dd: DriftDiffusion) -> CovarianceState:
    """Stationary covariance from the continuous Lyapunov equation A S + S A^T + D = 0.

    Solved as the linear system (A kron I + I kron A) vec S = -vec D of
    the row-major vec, built from the drift A and the diffusion D
    themselves and not from :meth:`DriftDiffusion.superoperator`: the
    steady state is the oracle of the long run, which exponentiates that
    superoperator.  A drift with an eigenvalue of real part >= 0 raises
    :class:`StabilityError`; the solution is symmetrized, and a residual
    above 1e-10 |D| raises ``RuntimeError``.
    """
    if dd.time_dependent:
        raise ValueError("steady state requires a time-independent drift")
    A, D = dd.drift, dd.diffusion
    eigs = np.linalg.eigvals(A)
    if eigs.real.max() >= 0:
        raise StabilityError(
            f"no stable steady state: drift eigenvalue with Re = {eigs.real.max():.3e}"
        )
    eye = np.eye(A.shape[0])
    sigma = np.linalg.solve(np.kron(A, eye) + np.kron(eye, A), -D.reshape(-1)).reshape(A.shape)
    sigma = 0.5 * (sigma + sigma.T)
    residual = np.abs(A @ sigma + sigma @ A.T + D).max()
    scale = max(np.abs(D).max(), 1e-300)
    if residual > 1e-10 * scale:
        raise RuntimeError(f"Lyapunov residual {residual:.3e} exceeds 1e-10 * |D|")
    return CovarianceState(np.zeros(A.shape[0]), sigma)


# -- entanglement ------------------------------------------------------------

def log_negativity(state: CovarianceState):
    """Logarithmic negativity between the two modes of a validated two-mode state.

    Returns ``(E_N, min_symplectic_eig_of_partial_transpose)``; E_N is
    max(0, -ln 2 nu-).
    """
    state.validate(sym_tol=1e-10, phys_tol=1e-8)
    return tuple(map(float, _log_negativity(state.cov)))


def _log_negativity(cov: np.ndarray):
    """``(E_N, nu-)`` of a two-mode covariance or a (..., 4, 4) stack, without validating.

    With D = det A + det B - 2 det C over the blocks [[A, C], [C^T, B]],
    nu+^2 = (D + sqrt(D^2 - 4 det cov)) / 2 and nu-^2 = det cov / nu+^2
    (Serafini, Illuminati & De Siena, J. Phys. B 37, L21 (2004)); the
    difference form of nu-^2 cancels for strong squeezing.  Where nu+ and
    nu- nearly coincide (D^2 - 4 det cov <= 1e-6 D^2, as on a product of
    pure states), the square root of that difference is mostly roundoff
    (nu- read 0.4999999974 on a squeezed vacuum at r = 1.5), so nu- is
    taken there as the smallest |eigenvalue| of the Hermitian i L^T Omega L,
    with L L^T the Cholesky factorization of the partially transposed
    covariance.  E_N is exactly 0 where nu- >= 1/2.
    """
    if cov.shape[-2:] != (4, 4):
        raise ValueError("log negativity implemented for a 1|1 split of two modes")
    det = np.linalg.det
    delta = det(cov[..., :2, :2]) + det(cov[..., 2:, 2:]) - 2 * det(cov[..., :2, 2:])
    det_cov = det(cov)
    disc = delta * delta - 4 * det_cov
    nu = np.array(np.sqrt(det_cov / (0.5 * (delta + np.sqrt(np.maximum(disc, 0.0))))))
    close = disc <= 1e-6 * delta * delta
    if np.any(close):
        flip = np.array([1.0, 1.0, 1.0, -1.0])  # p_2 -> -p_2
        L = np.linalg.cholesky(cov[close] * flip[:, None] * flip)
        nu[close] = np.abs(np.linalg.eigvalsh(1j * L.swapaxes(-1, -2) @ symplectic_form(2) @ L)).min(-1)
    return np.where(nu < 0.5, -np.log(2 * nu), 0.0), nu


@dataclass
class EntanglementResult:
    max_log_negativity: float
    xi: float
    trajectory: GaussTrajectory


def entanglement_experiment(
    frame: FrameParams,
    r: float,
    t_end: float,
    stride: int = 1,
) -> EntanglementResult:
    """Evolve mode-1 squeezed vacuum under the effective model, track E_N.

    Reports the peak logarithmic negativity together with the coupling-
    to-noise ratio of the configuration; the two are reported side by
    side without asserting any particular boundary between them.  The
    step is :func:`~cavmech.propagate.fewest_steps_dt`, so the last
    record lands on ``t_end``.
    """
    spec = effective_generator(frame)
    dd = drift_diffusion_from_generator(spec)
    state0 = squeezed_vacuum(2, 0, r)
    traj = evolve_covariance(dd, state0, t_end, fewest_steps_dt(t_end, dd.f_max), stride=stride)
    return EntanglementResult(
        max_log_negativity=float(traj.log_negativity.max()),
        xi=spec.params.xi,
        trajectory=traj,
    )
