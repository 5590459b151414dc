"""The run driver both engines propagate by, and the maps it steps with.

An engine hands :func:`run` its state X (the Fock engine's density
blocks, the packed upper triangle of the Gaussian engine's augmented
moment matrix), a monitor over stacks of records, and either the
generator L of a constant flow or the operator and stage of a
time-dependent one.  A constant flow runs on a real X: the Fock engine
then carries its blocks as S = Re rho + Im rho.  It carries only the
coordinates of flat X that L can reach from X (:func:`reachable`), and
the dense-map rule counts those.  The driver alone maps a
record interval h by exp(L h): a truncated Taylor series on X
(:func:`exponential_map`) or the dense increment exp(L h) - I
(:func:`exponential_increment`); the time-dependent flow is stepped by
the adaptive Dormand-Prince 5(4) kernel :func:`dopri5`.  Both walk the
same record grid, and both report how the run was carried out in a
:class:`RunStats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


class StepControlError(RuntimeError):
    """The adaptive step would have to fall below the finest step dt, or
    its error estimate is not finite."""


@dataclass(frozen=True)
class RunStats:
    """How an integration was carried out; never part of any output body.

    On the time-dependent path (:func:`dopri5`) ``accepted_steps``
    and ``rejected_steps`` count the steps, ``stage_evaluations`` the
    right-hand-side evaluations, ``last_step`` is the step size the
    controller held at the end, before the last step was clipped to land
    on the end time, in units of ``dt``, and ``max_error_estimate`` is the
    largest error estimate of an accepted step; all are 0 on the exact
    path.  ``records`` counts the recorded points on either path,
    ``dense_maps`` the record-interval maps of the exact path that were
    built as dense matrices (0 on the time-dependent path), ``carried``
    the coordinates of flat X the run propagated (the reachable ones on
    the exact path, all of them on the time-dependent path), and
    ``blocks`` are the sizes of the diagonal blocks the Fock engine
    carried the density matrix in (empty for the moment engine).
    """

    accepted_steps: int = 0
    rejected_steps: int = 0
    stage_evaluations: int = 0
    last_step: float = 0.0
    max_error_estimate: float = 0.0
    records: int = 0
    dense_maps: int = 0
    carried: int = 0
    blocks: tuple[int, ...] = ()


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
    that divide ``t_end``, so the last record lands on ``t_end``; 1000 steps
    with no guard (``f_max == 0``).  Positive also with no time to divide
    (``t_end <= 0``): the guard's bound, or 1 with no guard."""
    _require_finite_t_end(t_end)
    if f_max > 0:
        steps = math.ceil(t_end * f_max / 0.01)
        return t_end / steps if steps > 0 else 0.01 / f_max
    return t_end / 1000 if t_end > 0 else 1.0


# theta_m of the degree-m Taylor polynomial in double precision: at
# |A|_1 / s <= theta_m, T_m(A / s)^s = exp(A + E) with |E|_1 <= 2^-53 |A|_1
# (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011), Table 3.1).
_TAYLOR_THETA = {5: 2.4e-3, 10: 1.4e-1, 15: 6.4e-1, 20: 1.4, 25: 2.4, 30: 3.5,
                 35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9}

# Entries held at once by a run's stack of records (256 KiB complex, 128
# KiB real): 25 density-block records at dims (4,3,3) (two 18 x 18
# blocks), 128 S records at dims (4,4) (two 8 x 8), 585 packed moment
# records of three modes (28 entries each), 1,092 of two (15).  The
# stack is sized by the full record, also where the exact path carries
# fewer entries: sized by the 44 entries it carries at (4,4), it would
# hold 372 records, and the Fock monitors' observables product
# (records x 128) @ (128 x 4) takes OpenBLAS's threaded path from 256
# records (cpu/wall 1.01 at 128, 1.95 at 256 on 2 CPUs), which doubled
# the cpu time of the effective cross-checks.  A stack holds at least two
# records, from a full record of 8,193 entries up: the dense map writes
# each record from the row before it.
_MONITOR_BLOCK = 2**14

# Most rows of the real matrix an exact-path interval map may be built
# as: the carried entries of flat X.  From a Fock state the effective
# model reaches only the N = N' entries of S, 44 of its 128 at dims (4,4)
# and 344 of 2,048 at (8,8); a squeeze term reaches all of them.  A
# record is then one OpenBLAS dgemv, which stays on one thread up to
# here: 20,000 products after a 1 s settle ran at cpu/wall 1.00 at 128,
# 256 and 512 rows, and at 1.91 at 768 (2 CPUs).
_DENSE_MAP_ROWS = 512

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
# The continuous extension X(t + theta h) = X + h sum_i w_i(theta) k_i.
# Hairer's nested form X + theta (dX + (1 - theta) (h k1 - dX + theta (dX
# - h k7 - (h k1 - dX) + (1 - theta) h sum d_i k_i))), dX = h sum b_i k_i,
# expanded once in powers of theta: w(theta) = _DP_POLY (theta, theta^2,
# theta^3, theta^4), and w(1) = b.
_E1, _E7 = np.eye(7)[[0, 6]]
_DP_POLY = np.stack([_E1, 3 * _DP_B - 2 * _E1 - _E7 + _DP_DENSE,
                     _E1 + _E7 - 2 * _DP_B - 2 * _DP_DENSE, _DP_DENSE], axis=1)
_DP_POWERS = np.arange(1, 5)


def reachable(L, x) -> np.ndarray:
    """Indices of the coordinates of flat ``x`` that the flow x' = L x can make nonzero.

    The fixed point of reach <- reach | supp(|L| reach), from reach =
    supp(x), on the stored nonzeros of a square CSR or dense ``L``.  Every
    other coordinate has no stored entry of L from the reachable ones, so
    its derivative is 0, in floating point as in exact arithmetic, and it
    stays exactly 0 under exp(L h).
    """
    A = abs(L)
    reach = x != 0
    count = np.count_nonzero(reach)
    while True:
        reach |= A @ reach != 0
        count, last = np.count_nonzero(reach), count
        if count == last:
            return np.flatnonzero(reach)


def run(x, monitor, n_steps, dt, stride, generator=None, operators=None, stage=None):
    """Propagate a state X over ``n_steps`` steps of ``dt``, monitoring every record.

    X is a Hermitian matrix or a stack of them (the Fock engine's density
    blocks on the time-dependent path), re-Hermitized after every step of
    :func:`dopri5`, or a real vector that needs no projection: the packed
    upper triangle of a symmetric matrix (the Gaussian engine's moments), or the flat real form
    S = Re rho + Im rho of Hermitian blocks (the Fock engine's exact path),
    where every real S is a Hermitian rho.  The caller's array is never
    written to.

    X is recorded at t = 0, at every ``stride`` steps and at ``n_steps``.
    With a constant ``generator`` L of flat X (a square real CSR or dense
    matrix), X jumps exactly from record to record by exp(L h), one map
    per interval length h; this exact path takes a real X only, and a
    complex one raises ``ValueError``.  It carries only the coordinates
    of flat X that L can reach from X (:func:`reachable`), under L
    restricted to them; the others stay exactly 0, and every record and
    the final X are whole.  Otherwise :func:`dopri5` steps X with the
    engine's ``operators`` and ``stage``.

    An interval length takes the dense increment K = exp(L h) - I
    (:func:`exponential_increment`) when the run carries at most
    ``_DENSE_MAP_ROWS`` entries and either L is dense or the length serves
    at least as many records as the run carries entries (``n_steps //
    stride`` records for the stride, 1 for a shorter last interval):
    building K from a sparse L then costs no more than the records it
    serves, and K of a dense L takes a few dozen products even over a long
    interval, where the Taylor sum on X takes hundreds.  K is applied as
    X + K X, one real matrix-vector product written straight into the
    record's row of the stack, for a run of records up to the end of the
    stack, and is counted in ``dense_maps``.  Any other length takes the
    Taylor sum on the carried entries (:func:`exponential_map`).

    The records go into a stack of ``_MONITOR_BLOCK`` entries of whole
    records (at least two, so that a record's row is never the row of the
    record it is mapped from), and ``monitor(ts, xs)`` runs over each full
    stack and over the rest at the end, returning its columns by name; the
    stack is the driver's own, and a monitor must not write to it.  The
    records are passed on as the run makes them: a time-dependent run's
    are not re-Hermitized, so a monitor can measure their Hermiticity
    defect.  That last flush runs before any exception of the run
    propagates, so a monitor abort on an earlier record wins over a later
    kernel error; a run may propagate up to one stack past the record that
    aborts it.

    Returns the columns, each concatenated over the records and with the
    record times as ``t``, the final X, and the :class:`RunStats` of the
    run.
    """
    if generator is not None and np.iscomplexobj(x):
        raise ValueError("the exact path of a constant generator needs a real state; "
                         "carry Hermitian blocks as S = Re rho + Im rho")
    keep = slice(None) if generator is None else reachable(generator, x.reshape(-1))
    carried = x.reshape(-1)[keep]
    ts = np.empty(max(2, _MONITOR_BLOCK // x.size))
    xs = np.zeros(ts.shape + x.shape, x.dtype)
    rows = xs.reshape(ts.size, -1)
    # a record holds the carried entries; on the exact path a flush
    # scatters them into the whole records, whose other entries stay 0
    taken = rows if generator is None else np.empty((ts.size, carried.size))
    columns = {"t": []}
    count = 0

    def flush():
        nonlocal count
        k, count = count, 0
        if k:
            if taken is not rows:
                rows[:k, keep] = taken[:k]
            for name, values in monitor(ts[:k], xs[:k]).items():
                columns.setdefault(name, []).append(values)
            columns["t"].append(ts[:k].copy())

    def record(t, state):
        nonlocal count
        ts[count] = t
        taken[count] = state.reshape(-1)
        count += 1
        if count == ts.size:
            flush()

    stats = RunStats()
    maps = {}  # interval length -> dense increment K, or the Taylor map
    dense_maps = 0
    try:
        record(0.0, carried)
        if generator is None:
            x, stats = dopri5(operators, stage, x, n_steps, dt, stride, record)
        else:
            L = generator[np.ix_(keep, keep)]
            step = 0
            while step < n_steps:
                width = min(stride, n_steps - step)
                if width not in maps:
                    served = n_steps // stride if width == stride else 1
                    dense = isinstance(L, np.ndarray) or served >= carried.size
                    if carried.size <= _DENSE_MAP_ROWS and dense:
                        maps[width] = exponential_increment(L * (width * dt))
                        dense_maps += 1
                    else:
                        maps[width] = exponential_map(L * (width * dt))
                interval_map = maps[width]
                if isinstance(interval_map, np.ndarray):
                    # each record X + K X of the one before it, straight
                    # into the stack, up to its end; row -1 holds the last
                    # record of the stack flushed before
                    n = min(ts.size - count, (n_steps - step) // width)
                    for i in range(count, count + n):
                        row, prev = taken[i], taken[i - 1]
                        np.dot(interval_map, prev, out=row)
                        row += prev
                    ts[count:count + n] = np.arange(step + width, step + n * width + 1, width) * dt
                    step += n * width
                    count += n
                    if count == ts.size:
                        flush()
                else:
                    step += width
                    record(step * dt, interval_map(taken[count - 1]))
            x = np.zeros(x.shape)
            x.reshape(-1)[keep] = taken[count - 1]
    finally:
        flush()
    columns = {name: np.concatenate(parts) for name, parts in columns.items()}
    return columns, x, replace(stats, records=columns["t"].size, dense_maps=dense_maps,
                                   carried=carried.size)


def _step_factor(error: float, bound: float) -> float:
    """Standard step-size controller: 0.9 (bound / error)^(1/5), clipped to [0.2, 5]."""
    return min(5.0, max(0.2, 0.9 * (bound / error) ** 0.2)) if error > 0 else 5.0


def dopri5(operators, stage, x, n_steps, dt, stride, record):
    """Adaptive Dormand-Prince 5(4) steps for X' = F(t, X) on a Hermitian or packed symmetric X.

    X is a matrix or a stack of matrices (the Fock engine's density
    blocks), or a vector holding the packed upper triangle of a symmetric
    matrix (the Gaussian engine's moments).  The steps are taken on a
    private copy of X.  ``operators(ts)`` returns the engine's operator at
    each of an array of times (the Fock drift blocks, the Gaussian moment
    superoperator), and ``stage(op, state, out)`` writes F(t, state) into
    ``out``, with ``op`` the operator at t.

    ``dt`` is the record-grid unit: ``record(s dt, x_s)`` is called at
    every step index s that is a multiple of ``stride``, and at
    ``n_steps``.  The state advances by the Dormand-Prince 5(4) pair, with
    one ``operators`` call per attempted step on its five new stage times.
    A step is accepted when the largest entry of its error estimate is at
    most ``_STEP_TOL`` max(1, max |X|), and :func:`_step_factor` sets the
    next step; a rejected step is redone shorter, and one that would fall
    below ``dt``, or a non-finite error estimate, raises
    :class:`StepControlError`.  The first step is
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

    A matrix X is re-Hermitized after each step update: the exact flow
    preserves Hermiticity, but for a density matrix the roundoff-seeded
    anti-Hermitian component obeys a sign-flipped dissipator in this split
    update and can grow exponentially if left in place.  The records taken
    between steps are passed on as the continuous extension gives them,
    unprojected.  A packed symmetric X has no antisymmetric part to
    project.
    """
    # stack[0] is the state at the start of the step, stack[1:] its seven
    # stages; a combination writes through the real view of x or y, and a
    # record's row weighs stack[0] by 1
    x = np.array(x, order="C")
    matrix = x.ndim > 1
    stack = np.zeros((8,) + x.shape, x.dtype)
    flat = stack.view(x.real.dtype).reshape(8, -1)
    y = np.empty_like(x)
    x_flat, y_flat = (v.view(flat.dtype).reshape(-1) for v in (x, y))
    row = np.ones(8)
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
        if matrix:
            np.add(x, x.conj().swapaxes(-1, -2), out=x)
            x *= 0.5
        stage(ops[4], x, stack[7])
        np.dot(C[6], flat, out=y_flat)
        error = float(np.abs(y).max())
        if not math.isfinite(error):
            raise StepControlError(f"non-finite error estimate at t={t:.6g}")
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
            np.multiply(_DP_POLY @ ((r * dt - t) / step) ** _DP_POWERS, step, out=row[1:])
            np.dot(row, flat, out=y_flat)
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


def _taylor_substep(A):
    """The substeps s of exp(A) = T_m(A / s)^s, and the substep (B, F) -> F + (T_m(A / s) - I) B.

    Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 488 (2011)): the degree m
    and substeps s of ``_TAYLOR_THETA`` that take the fewest products
    m ceil(|A|_1 / theta_m) at the exact 1-norm of a square CSR or dense
    ``A``.  A substep adds the terms B_j = (A / s)^j B / j! to F and stops
    once the largest entries of its last two terms (B_0 = B first) sum to
    at most 2^-53 max |F| of the partial sum.  That test is taken only
    where it can pass: max |F| is at most the running bound U = max |F_0|
    + sum_j max |B_j| (widened by 2^-30 for rounding), so while c1 + c2 >
    2^-53 U the sum goes on without reducing F, and every stop falls where
    the plain test puts it.  Only products with A: no random norm estimate
    and no LAPACK call.  F is written to from the second term on, never B.
    """
    norm = float(abs(A).sum(axis=0).max())
    _, m, s = min((m * math.ceil(norm / theta), m, math.ceil(norm / theta))
                  for m, theta in _TAYLOR_THETA.items())
    tol = 2.0**-53
    widened = tol * (1 + 2.0**-30)

    def substep(B, F):
        c1 = np.abs(B).max()
        bound = c1 if F is B else np.abs(F).max()
        for j in range(1, m + 1):
            B = A @ B
            B *= 1.0 / (s * j)
            c2 = np.abs(B).max()
            bound += c2
            F = F + B if j == 1 else np.add(F, B, out=F)
            if c1 + c2 <= widened * bound and c1 + c2 <= tol * np.abs(F).max():
                break
            c1 = c2
        return F

    return s, substep


def exponential_map(A):
    """The map B -> exp(A) B of a square CSR or dense ``A``, by truncated Taylor series.

    s substeps of :func:`_taylor_substep`, each adding its terms to the
    last.  The caller's B is never written to.
    """
    s, substep = _taylor_substep(A)

    def apply(B):
        for _ in range(s):
            B = substep(B, B)
        return B

    return apply


def exponential_increment(A) -> np.ndarray:
    """exp(A) - I of a square CSR or dense ``A``, summed without the identity.

    The substeps of :func:`exponential_map` on the identity, whose partial
    sums K of exp(A) - I start at 0: exp(A) = I + K is never formed, so
    each entry of K is rounded to its own magnitude and not to that of
    the identity.  A map X -> X + K X applied over many record intervals
    then drifts from exact trace preservation by the rounding of each
    addition (a random walk), not by the same rounding of I + K at every
    interval.  With a CSR ``A`` no product is a BLAS one.

    A dense ``A`` is first halved k times, the fewest that bring
    |A|_1 / 2^k within ``_TAYLOR_THETA[55]``, so that one substep sums
    exp(A / 2^k) - I; k squarings K <- K K + 2 K = (I + K)^2 - I follow.
    A long interval (|A|_1 of a few hundred) then takes about 40 products
    instead of the several hundred of the substeps.  A CSR ``A`` is never
    halved: squaring would make K a dense BLAS product, whose threads
    cost more than the sparse substeps save.
    """
    k = 0
    if isinstance(A, np.ndarray):
        norm = float(np.abs(A).sum(axis=0).max())
        while norm / 2**k > _TAYLOR_THETA[55]:
            k += 1
    s, substep = _taylor_substep(A / 2**k)
    K = np.zeros(A.shape)
    for _ in range(s):
        K = substep(K + np.eye(A.shape[0]), K)
    for _ in range(k):
        K = K @ K + 2 * K
    return K
