"""Exact second-moment (Gaussian) dynamics for the linearized models.

Quadratic Hamiltonians with linear jump operators close on the first and
second moments for any state, so these engines track the mean vector and
the symmetric covariance matrix exactly, independent of Fock truncation.
Quadratures are ordered (x_1, p_1, ..., x_N, p_N) with vacuum variance 1/2
(hbar = 1); that convention is stamped on every emitted header.  Drift
and diffusion are compiled from the same :class:`~cavmech.fock.QuadraticModel`
as the Fock-space generator.  A constant drift and diffusion are
propagated by the exact affine moment map of each record interval; a
time-dependent drift by the step-doubling RK4 kernel the Fock engine
uses, applied to the augmented moment matrix, with the drift of a whole
record interval of steps built in one call
(:meth:`DriftDiffusion.drift_at` takes an array of times).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

from .model import FrameParams
from .fock import RunStats, effective_generator, propagate_rk4, quadratic_model, step_count

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
        omega = symplectic_form(self.n_modes)
        eigs = np.linalg.eigvalsh(self.cov + 0.5j * omega)
        return float(min(eigs.min(), 0.0))

    def validate(self, sym_tol: float = 1e-12, phys_tol: float = 1e-8):
        if self.symmetry_defect() > sym_tol:
            raise ValueError("covariance matrix is not symmetric")
        if self.physicality_defect() < -phys_tol:
            raise PhysicalityError("covariance violates the uncertainty bound")

    def occupation(self, mode: int) -> float:
        """<n> of one mode (0-indexed), including the mean displacement."""
        i = 2 * mode
        var = self.cov[i, i] + self.cov[i + 1, i + 1]
        disp = self.mean[i] ** 2 + self.mean[i + 1] ** 2
        return 0.5 * (var + disp - 1.0)

    def mode_coherence(self, m1: int, m2: int) -> complex:
        """<b_m1^dag b_m2> from the moments."""
        i, j = 2 * m1, 2 * m2
        c = self.cov
        re = c[i, j] + c[i + 1, j + 1] + self.mean[i] * self.mean[j] + self.mean[i + 1] * self.mean[j + 1]
        im = c[i, j + 1] - c[i + 1, j] + self.mean[i] * self.mean[j + 1] - self.mean[i + 1] * self.mean[j]
        return 0.5 * (re + 1j * im)


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


# -- drift/diffusion construction -------------------------------------------

@dataclass
class DriftDiffusion:
    """Moment dynamics d<r>/dt = A <r>, dS/dt = A S + S A^T + D.

    ``drift`` is the constant part; for time-dependent generators the
    oscillating part is carried as cos/sin basis matrices and evaluated by
    :meth:`drift_at`.
    """

    drift: np.ndarray
    diffusion: np.ndarray
    cos_terms: tuple[tuple[float, np.ndarray], ...] = ()
    sin_terms: tuple[tuple[float, np.ndarray], ...] = ()
    f_max: float = 0.0

    @property
    def time_dependent(self) -> bool:
        return bool(self.cos_terms or self.sin_terms)

    def drift_at(self, ts) -> np.ndarray:
        """Drift matrix at time ``ts``, or the stack of them over an array of times."""
        terms = self.cos_terms + self.sin_terms
        n = self.drift.shape[0]
        basis = np.array([mat for _, mat in terms]).reshape(len(terms), n * n)
        coeffs = np.concatenate(
            [np.cos(np.multiply.outer(ts, [nu for nu, _ in self.cos_terms])),
             np.sin(np.multiply.outer(ts, [nu for nu, _ in self.sin_terms]))], axis=-1)
        out = (coeffs @ basis).reshape(np.shape(ts) + (n, n))
        out += self.drift
        return out


def _quad_form_number(n_modes, m, n, c):
    """Quadrature matrix of c b_m^dag b_n + conj(c) b_n^dag b_m."""
    H = np.zeros((2 * n_modes, 2 * n_modes))
    re, im = c.real, c.imag
    if m == n:
        # diagonal case c b^dag b (c real): c (x^2 + p^2)/2 up to a constant
        H[2 * m, 2 * m] = H[2 * m + 1, 2 * m + 1] = re
        return H
    for (i, j, v) in (
        (2 * m, 2 * n, re), (2 * m + 1, 2 * n + 1, re),
        (2 * m, 2 * n + 1, -im), (2 * m + 1, 2 * n, im),
    ):
        H[i, j] += v
        H[j, i] += v
    return H


def _quad_form_squeeze(n_modes, m, n, c):
    """Quadrature matrix of c b_m^dag b_n^dag + conj(c) b_m b_n (m != n)."""
    H = np.zeros((2 * n_modes, 2 * n_modes))
    re, im = c.real, c.imag
    for (i, j, v) in (
        (2 * m, 2 * n, re), (2 * m + 1, 2 * n + 1, -re),
        (2 * m, 2 * n + 1, im), (2 * m + 1, 2 * n, im),
    ):
        H[i, j] += v
        H[j, i] += v
    return H


def _jump_vector(n_modes, coeffs, dagger) -> np.ndarray:
    """Complex quadrature vector lambda with L = lambda^T r for a linear jump.

    Each ``(m, c)`` pair in ``coeffs`` adds c b_m (or c b_m^dag when
    ``dagger``), b = (x + i p)/sqrt(2).
    """
    lam = np.zeros(2 * n_modes, complex)
    for m, c in coeffs:
        if dagger:
            lam[2 * m] += c / math.sqrt(2)
            lam[2 * m + 1] += -1j * c / math.sqrt(2)
        else:
            lam[2 * m] += c / math.sqrt(2)
            lam[2 * m + 1] += 1j * c / math.sqrt(2)
    return lam


def _jump_drift_diffusion(omega, lam, rate):
    outer = np.outer(lam, lam.conj())
    A = -rate * omega @ outer.imag
    D = rate * omega @ outer.real @ omega.T
    return A, D


def _quad_form(n_modes, terms, phase=1):
    """Quadrature matrix of the Hamiltonian terms, each coefficient times ``phase``."""
    H = np.zeros((2 * n_modes, 2 * n_modes))
    for c, m, n, squeeze in terms:
        form = _quad_form_squeeze if squeeze else _quad_form_number
        H += form(n_modes, m, n, phase * complex(c))
    return H


def drift_diffusion_from_generator(spec) -> DriftDiffusion:
    """Map a generator spec onto moment dynamics.

    Reads the spec's :class:`~cavmech.fock.QuadraticModel`.  An oscillating
    coefficient c e^{i nu t} contributes cos(nu t) times the drift of c and
    sin(nu t) times the drift of i c, evaluated by
    :meth:`DriftDiffusion.drift_at`.
    """
    model = quadratic_model(spec)
    n = model.n_modes
    omega = symplectic_form(n)
    A = omega @ _quad_form(n, model.static)
    D = np.zeros((2 * n, 2 * n))
    for coeffs, dagger, rate in model.jumps:
        dA, dD = _jump_drift_diffusion(omega, _jump_vector(n, coeffs, dagger), rate)
        A = A + dA
        D = D + dD
    return DriftDiffusion(
        drift=A,
        diffusion=D,
        cos_terms=tuple((nu, omega @ _quad_form(n, terms)) for nu, terms in model.oscillating),
        sin_terms=tuple((nu, omega @ _quad_form(n, terms, 1j)) for nu, terms in model.oscillating),
        f_max=model.f_max,
    )


# -- propagation and steady state -------------------------------------------

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
    track_entanglement: bool = False,
    entangled_pair: tuple[int, int] = (0, 1),
    physicality_tol: float = 1e-6,
) -> GaussTrajectory:
    """Propagate the moment equations ``round(t_end / dt)`` steps of ``dt``.

    ``dt`` sets the record grid (every ``stride`` steps, plus the last
    step) and must satisfy ``dt <= 0.01 / f_max``.  A constant drift jumps
    from record to record by the exact moment map of
    :func:`_interval_map`; a time-dependent drift takes RK4 steps of
    m ``dt`` under a step-doubling estimate, with records off that grid
    taken by side steps (:func:`~cavmech.fock.propagate_rk4`; the
    trajectory's ``stats`` say how).  The covariance is re-symmetrized
    after every update (pure roundoff control) and the uncertainty-bound
    defect is monitored at every record; a defect beyond
    ``physicality_tol`` aborts.
    """
    n_steps = step_count(t_end, dt, stride, dd.f_max)
    mean = state0.mean.copy()
    cov = 0.5 * (state0.cov + state0.cov.T)
    n_modes = state0.n_modes

    rec_t, rec_n, rec_en, rec_nu, rec_phys = [], [], [], [], []

    def record(t, mean, cov):
        state = CovarianceState(mean, cov, time=t)
        rec_t.append(t)
        rec_n.append([state.occupation(m) for m in range(n_modes)])
        defect = state.physicality_defect()
        rec_phys.append(defect)
        if track_entanglement:
            en, nu = log_negativity(state, entangled_pair, _lenient=True)
            rec_en.append(en)
            rec_nu.append(nu)
        else:
            rec_en.append(math.nan)
            rec_nu.append(math.nan)
        if defect < -physicality_tol:
            raise PhysicalityError(
                f"covariance defect {defect:.3e} at t={t:.6g} beyond {physicality_tol}"
            )

    record(0.0, mean, cov)
    stats = RunStats()
    if dd.time_dependent:
        mean, cov, stats = _rk4_moments(dd, mean, cov, n_steps, dt, stride, record)
    else:
        mean, cov = _propagate_exact(dd, mean, cov, n_steps, dt, stride, record)

    occ = np.array(rec_n)
    return GaussTrajectory(
        t=np.array(rec_t),
        n1=occ[:, 0] if n_modes < 3 else occ[:, 1],
        n2=occ[:, 1] if n_modes < 3 else occ[:, 2],
        log_negativity=np.array(rec_en),
        min_symp_eig=np.array(rec_nu),
        physicality=np.array(rec_phys),
        final_state=CovarianceState(mean, cov, time=n_steps * dt),
        occupations=occ,
        stats=stats,
    )


def _rk4_moments(dd, mean, cov, n_steps, dt, stride, record):
    """RK4 for a time-dependent drift by the shared kernel; returns the final moments and run stats.

    The kernel steps the augmented moment matrix X = [[cov, mean],
    [mean^T, 1]] with M = blockdiag(A(t), 0) and N = blockdiag(D, 0):
    X' = M X + (M X)^T + N holds the covariance and the mean equations.
    """
    n = mean.size
    x = np.zeros((n + 1, n + 1))
    x[:n, :n] = cov
    x[:n, n] = x[n, :n] = mean
    x[n, n] = 1.0

    def drifts(ts):
        M = np.zeros((ts.size, n + 1, n + 1))
        M[:, :n, :n] = dd.drift_at(ts)
        return M

    def add_diffusion(state, out):
        out[:n, :n] += dd.diffusion

    x, stats = propagate_rk4(drifts, add_diffusion, x, n_steps, dt, stride,
                             lambda t, x: record(t, x[:n, n], x[:n, :n]))
    return x[:n, n].copy(), x[:n, :n].copy(), stats


def _propagate_exact(dd, mean, cov, n_steps, dt, stride, record):
    """Exact record-to-record moment maps of a constant drift and diffusion.

    The map of an interval is built once per distinct interval length:
    ``stride`` steps, and a shorter final interval if there is one.
    Returns the final moments.
    """
    maps = {}
    step = 0
    while step < n_steps:
        width = min(stride, n_steps - step)
        if width not in maps:
            maps[width] = _interval_map(dd.drift, dd.diffusion, width * dt)
        phi, q = maps[width]
        mean = phi @ mean
        cov = phi @ cov @ phi.T + q
        cov = 0.5 * (cov + cov.T)
        step += width
        record(step * dt, mean, cov)
    return mean, cov


def _interval_map(A: np.ndarray, D: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact moment map over time ``h``: mean -> Phi mean, S -> Phi S Phi^T + Q.

    Phi = e^{A h} and Q = int_0^h e^{A s} D e^{A^T s} ds, from Van Loan's
    block exponential (IEEE Trans. Autom. Control 23, 395 (1978)):
    expm([[-A, D], [0, A^T]] tau) = [[e^{-A tau}, e^{-A tau} Q(tau)],
    [0, e^{A^T tau}]].  Because e^{-A tau} grows, the block exponential
    covers at most tau with |A tau|_1 <= 1, and the map over h = 2^k tau
    follows by doubling: Q(2 tau) = Phi(tau) Q(tau) Phi(tau)^T + Q(tau).
    The doubling needs no stability of A, so lossless drifts work too.
    """
    n = A.shape[0]
    norm = float(np.abs(A).sum(axis=0).max()) * h
    halvings = math.ceil(math.log2(norm)) if norm > 1.0 else 0
    tau = h / 2**halvings
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -A
    block[:n, n:] = D
    block[n:, n:] = A.T
    E = expm(block * tau)
    phi = E[n:, n:].T
    q = phi @ E[:n, n:]
    for _ in range(halvings):
        q = phi @ q @ phi.T + q
        phi = phi @ phi
    return phi, 0.5 * (q + q.T)


def steady_state(dd: DriftDiffusion) -> CovarianceState:
    """Stationary covariance from the continuous Lyapunov equation."""
    if dd.time_dependent:
        raise ValueError("steady state requires a time-independent drift")
    A, D = dd.drift, dd.diffusion
    eigs = np.linalg.eigvals(A)
    if eigs.real.max() >= 0:
        raise StabilityError(
            f"no stable steady state: drift eigenvalue with Re = {eigs.real.max():.3e}"
        )
    sigma = solve_continuous_lyapunov(A, -D)
    sigma = 0.5 * (sigma + sigma.T)
    residual = np.abs(A @ sigma + sigma @ A.T + D).max()
    scale = max(np.abs(D).max(), 1e-300)
    if residual > 1e-10 * scale:
        raise RuntimeError(f"Lyapunov residual {residual:.3e} exceeds 1e-10 * |D|")
    return CovarianceState(np.zeros(A.shape[0]), sigma)


# -- entanglement ------------------------------------------------------------

def log_negativity(
    state: CovarianceState,
    partition: tuple[int, int] = (0, 1),
    _lenient: bool = False,
):
    """Logarithmic negativity of a two-mode state across ``partition``.

    Returns ``(E_N, min_symplectic_eig_of_partial_transpose)``; E_N is
    max(0, -ln 2 nu-).  Only the two-mode case is implemented.
    """
    if state.n_modes != 2 or set(partition) != {0, 1}:
        raise ValueError("log negativity implemented for a 1|1 split of two modes")
    if not _lenient:
        state.validate(sym_tol=1e-10, phys_tol=1e-8)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    sigma_pt = flip @ state.cov @ flip
    omega = symplectic_form(2)
    eigs = np.linalg.eigvals(omega @ sigma_pt)
    nu_min = float(np.sort(np.abs(eigs))[0])
    en = max(0.0, -math.log(2 * nu_min))
    return en, nu_min


@dataclass
class EntanglementResult:
    max_log_negativity: float
    xi: float
    trajectory: GaussTrajectory


def entanglement_experiment(
    frame: FrameParams,
    r: float,
    t_end: float,
    dt: float | None = None,
    stride: int = 1,
) -> EntanglementResult:
    """Evolve mode-1 squeezed vacuum under the effective model, track E_N.

    Reports the peak logarithmic negativity together with the coupling-
    to-noise ratio of the configuration; the two are reported side by
    side without asserting any particular boundary between them.
    """
    spec = effective_generator(frame)
    dd = drift_diffusion_from_generator(spec)
    state0 = squeezed_vacuum(2, 0, r)
    if dt is None:
        dt = 0.01 / dd.f_max if dd.f_max > 0 else t_end / 1000
    traj = evolve_covariance(dd, state0, t_end, dt, stride=stride, track_entanglement=True)
    return EntanglementResult(
        max_log_negativity=float(np.nanmax(traj.log_negativity)),
        xi=spec.params.xi,
        trajectory=traj,
    )
