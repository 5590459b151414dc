import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from cavmech import fock, frame_from_collective, gaussian, propagate
from cavmech.effective import EffectiveParams, CollectiveMode, exchange_coupling
from cavmech.fock import (
    FitError,
    FockSpace,
    TransferProtocol,
    TruncationError,
    build_operators,
    compile_generator,
    destroy,
    excitation_transfer_experiment,
    fit_damped_rabi,
    fock_state,
    integrate,
)
from cavmech.propagate import dopri5
from cavmech.quadratic import EffectiveTwoMode, FullLinearized, QuadraticModel, effective_generator, quadratic_model


def desk_frame():
    return frame_from_collective(1.0, 0.2, 5.0, 0.1, 0.05, 0.05)


def dag(x):
    return x.conj().T


def described_generator(spec, space):
    """The dense drift D(t) = -i H(t) - 1/2 sum L^dag L and the jumps
    sqrt(rate) L, term by term from the model description."""
    model = quadratic_model(spec)
    ops = build_operators(space)
    zero = np.zeros((space.total_dim, space.total_dim), complex)

    def hamiltonian_term(c, m, n, squeeze):
        x = c * dag(ops[m]) @ (dag(ops[n]) if squeeze else ops[n])
        return x if m == n else x + dag(x)

    jumps = [math.sqrt(rate) * sum(c * (dag(ops[m]) if dagger else ops[m]) for m, c in coeffs)
             for coeffs, dagger, rate in model.jumps]

    def drift(t):
        H = sum((hamiltonian_term(*term) for term in model.static), zero)
        for nu, terms in model.oscillating:
            for c, m, n, squeeze in terms:
                H = H + hamiltonian_term(c * np.exp(1j * nu * t), m, n, squeeze)
        return -1j * H - 0.5 * sum((dag(L) @ L for L in jumps), zero)

    return drift, jumps


def dense_compiled_arrays(spec, space, gen):
    """The arrays :class:`CompiledGenerator` compiles, built from the dense operators.

    The drift, the phase columns, the observables and the weight and source
    of every jump gather, in the order of the compiled ones, from the
    identity-padded operators of :func:`build_operators`.  Products are
    taken by einsum, which sums each entry in index order: every row of a
    ladder has one nonzero entry at most, so each entry of a product is
    the one product of two entries that the compile forms.
    """
    model = quadratic_model(spec)
    ops = build_operators(space)
    dim = space.total_dim
    zero = np.zeros((dim, dim), complex)

    def ladder(m, dagger):
        return dag(ops[m]) if dagger else ops[m]

    def product(a, b):
        return np.einsum("ij,jk->ik", a, b)

    def term(c, m, n, squeeze):
        return c * product(ladder(m, True), ladder(n, squeeze))

    H = zero
    for c, m, n, squeeze in model.static:
        H = H + term(c, m, n, squeeze)
        if m != n:
            H = H + np.conj(c) * product(ladder(n, not squeeze), ladder(m, False))
    phases = [sum((term(*t) for t in terms), zero) for _, terms in model.oscillating]
    phase_mats = [-1j * M for M in phases] + [-1j * dag(M) for M in phases]
    packed = np.array([gen.pack(M) for M in phase_mats], complex)
    phase_columns = packed.reshape(len(phase_mats), gen.base_drift.size).T
    *cavity, b1, b2 = range(len(space.dims))
    pairs = [(b1, b1), (b2, b2)] + [(0, 0)] * len(cavity) + [(b1, b2)]
    observables = [gen.pack(product(ladder(m, True), ladder(n, False))) for m, n in pairs]

    # flat stack position of every basis pair inside a block
    rows, cols = gen.index[:, :, None], gen.index[:, None, :]
    position = np.zeros((dim + 1, dim + 1), int)
    position[rows, cols] = np.arange(gen.base_drift.size).reshape(gen.base_drift.shape)
    gathers = []
    D = -1j * H
    for coeffs, dagger, rate in model.jumps:
        singles = []
        for m, c in coeffs:
            X = np.zeros((dim + 1, dim + 1), complex)
            X[:dim, :dim] = ladder(m, dagger)
            src = np.full(dim + 1, dim)  # the nonzero column of each row, dim for none
            i, k = np.nonzero(X)
            src[i] = k
            singles.append((c, src, X[np.arange(dim + 1), src]))
        for c_m, src_m, amp_m in singles:
            for c_n, src_n, amp_n in singles:
                w = rate * c_m * np.conj(c_n) * amp_m[rows] * np.conj(amp_n[cols])
                gathers += [w, np.where(w != 0, position[src_m[rows], src_n[cols]], 0)]
        LdL = sum(product(dag(c_m * ladder(m, dagger)), c_n * ladder(n, dagger))
                  for m, c_m in coeffs for n, c_n in coeffs)
        D = D - 0.5 * rate * LdL
    return [gen.pack(D), phase_columns] + observables + gathers


def phase_columns(gen):
    """The (stack size, phases) matrix of the phase terms, from the gathers :meth:`drift` sums.

    Column k is the flat block stack of the k-th phase matrix; a position
    names each phase once among its terms, so no two terms share an entry.
    """
    sources = gen._phase_sources
    assert np.all(np.diff(np.sort(sources, axis=0), axis=0) != 0)
    columns = np.zeros((gen.base_drift.size, gen.phase_nus.size), complex)
    columns[gen._phase_positions, sources] = gen._phase_weights
    return columns


def assert_compiled_arrays_match(spec, space, tol=0.0):
    """Every compiled array equals the dense construction in dtype and shape, and in value to ``tol``."""
    gen = compile_generator(spec, space)
    compiled = ([gen.base_drift, phase_columns(gen)]
                + [op for op in gen.observables.values() if op is not None]
                + [a for gather in gen._jump_gathers for a in gather])
    dense = dense_compiled_arrays(spec, space, gen)
    assert len(compiled) == len(dense)
    for got, want in zip(compiled, dense):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want) if tol == 0 else np.abs(got - want).max() <= tol
    # the gather weights stay complex
    assert all(weight.dtype == complex for weight, _ in gen._jump_gathers)


def engine_rhs(gen, t, rho):
    """The Lindbladian at time ``t`` on the Hermitian block stack ``rho``, by the
    stage every run steps with."""
    out = np.empty_like(rho)
    gen.stage(gen.drift(t), rho, out)
    return out


def s_coordinates(rho):
    """Flat S = Re rho + Im rho of a Hermitian block stack."""
    return (rho.real + rho.imag).reshape(-1)


def s_form_superoperator(gen):
    """The Lindblad superoperator on flat S = Re rho + Im rho, from the complex one.

    An independent route to :meth:`CompiledGenerator.superoperator`: the
    complex superoperator L on flat rho is the sum of one sparse matrix per
    part (the Kronecker products kron(D, I) + kron(I, D*) of every drift
    block D, block-diagonal, then each jump gather), and L_S = Re(L T) +
    Im(L T), with T the map from flat S to flat rho = (S + S^T)/2 +
    i (S - S^T)/2.  Returns L_S as a real CSR matrix.
    """
    from scipy import sparse

    n_blocks, h, _ = gen.base_drift.shape
    eye = sparse.identity(h, format="csr")
    L = sparse.block_diag([sparse.kron(D, eye) + sparse.kron(eye, D.conj())
                           for D in gen.base_drift]).tocsr()
    for weight, source in gen._jump_gathers:
        targets = np.flatnonzero(weight)
        entries = (weight.reshape(-1)[targets], (targets, source.reshape(-1)[targets]))
        L += sparse.csr_matrix(entries, shape=L.shape)
    size = L.shape[0]
    b, i, j = np.unravel_index(np.arange(size), (n_blocks, h, h))
    swap = sparse.csr_matrix((np.ones(size), (np.arange(size), np.ravel_multi_index((b, j, i), (n_blocks, h, h)))))
    one = sparse.identity(size, format="csr")
    LT = (L @ ((one + swap) * 0.5 + (one - swap) * 0.5j)).tocsr()
    return (LT.real + LT.imag).tocsr()


def as_csr(matrix):
    """A :class:`~cavmech.propagate.SparseMatrix` as a scipy CSR matrix, to
    compare with the references built by scipy."""
    from scipy import sparse

    assert isinstance(matrix, propagate.SparseMatrix) and matrix.vals.dtype == float
    return sparse.csr_matrix((matrix.vals, (matrix.rows, matrix.cols)), shape=matrix.shape)


def checked_superoperator(gen):
    """``gen.superoperator()``, checked against :func:`s_form_superoperator` to roundoff."""
    got = gen.superoperator()
    want = s_form_superoperator(gen)
    csr = as_csr(got)
    assert csr.shape == want.shape and csr.dtype == want.dtype == float
    assert abs(csr - want).max() <= 4 * np.finfo(float).eps * abs(want).max()
    return got


def zero_sparse(size):
    """The :class:`~cavmech.propagate.SparseMatrix` of ``size`` rows with no entry."""
    empty = np.zeros(0, int)
    return propagate.SparseMatrix.from_entries(empty, empty, np.zeros(0), size)


def drift_stage(D, state, out):
    """The kernel stage of X' = D X + (D X)^dag on a Hermitian X, with no jumps."""
    tmp = D @ state
    np.add(tmp, tmp.conj().swapaxes(-1, -2), out=out)


def coherent_state(space):
    """The pure state of equal amplitudes on every basis state: its coherence
    between the parity sectors makes the whole space one density block."""
    return np.full((space.total_dim,) * 2, 1 / space.total_dim, complex)


def shifted_effective_model(fr):
    """The effective model of ``fr`` with the number terms -spring_j b_j^dag b_j
    ahead of its exchange term, for the tests that cover number terms."""
    model = quadratic_model(effective_generator(fr))
    shifts = ((-fr.spring_1, 0, 0, False), (-fr.spring_2, 1, 1, False))
    return dataclasses.replace(model, static=shifts + model.static)


def manual_params(rates, J=0.0):
    """EffectiveParams with an explicit rate table, for engine-level tests."""
    table = {"1": rates.get("1", (0.0, 0.0)),
             "2": rates.get("2", (0.0, 0.0)),
             "collective": rates.get("collective", (0.0, 0.0))}
    gamma = {k: d - u for k, (d, u) in table.items()}
    total = table["1"][1] + table["2"][1] + 2 * table["collective"][1]
    return EffectiveParams(
        exchange_coupling=J,
        gamma_1=gamma["1"], gamma_2=gamma["2"], gamma_collective=gamma["collective"],
        nbar_1=math.nan, nbar_2=math.nan, nbar_collective=math.nan,
        gamma_total=total,
        xi=abs(J) / total if total > 0 else math.inf,
        rate_table=table,
    )


class TestOperators:
    def test_destroy_matrix_elements(self):
        b = destroy(3)
        assert b[0, 1] == pytest.approx(1.0)
        assert b[1, 2] == pytest.approx(math.sqrt(2))
        assert np.count_nonzero(b) == 2

    def test_commutator_truncation_artifact(self):
        d = 5
        b = destroy(d)
        comm = b @ b.conj().T - b.conj().T @ b
        diag = np.diagonal(comm).real
        assert diag[:-1] == pytest.approx(np.ones(d - 1))
        assert diag[-1] == pytest.approx(-(d - 1))

    def test_tensor_ordering_commutes(self):
        space = FockSpace((3, 4))
        b1, b2 = build_operators(space)
        n1 = b1.conj().T @ b1
        n2 = b2.conj().T @ b2
        assert np.abs(n1 @ n2 - n2 @ n1).max() == 0.0

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            FockSpace((17, 16, 16))
        with pytest.raises(ValueError, match=">= 2"):
            FockSpace((1, 4))

    def test_fock_state_placement(self):
        space = FockSpace((2, 3))
        rho = fock_state(space, (1, 2))
        assert rho[5, 5] == 1.0
        assert np.trace(rho) == 1.0
        with pytest.raises(ValueError):
            fock_state(space, (2, 0))


class TestLiouvillian:
    def test_maximally_mixed_is_stationary_without_dissipation(self):
        fr = frame_from_collective(1.0, 0.2, 0.7, 0.0, 0.1, 0.1)
        spec = effective_generator(fr)
        space = FockSpace((3, 3))
        gen = compile_generator(spec, space)
        drho = engine_rhs(gen, 0.0, gen.pack(np.eye(9, dtype=complex) / 9))
        assert np.abs(drho).max() < 1e-16

    def test_unitary_limit_is_pure_exchange(self):
        fr = frame_from_collective(1.0, 0.2, 0.7, 0.0, 0.1, 0.1)
        spec = effective_generator(fr)
        space = FockSpace((3, 3))
        b1, b2 = build_operators(space)
        J = spec.params.exchange_coupling
        H = J * (b1.conj().T @ b2 + b2.conj().T @ b1)
        rho = fock_state(space, (1, 0))
        gen = compile_generator(spec, space)
        drho = engine_rhs(gen, 0.0, gen.pack(rho))
        expected = gen.pack(-1j * (H @ rho - rho @ H))
        assert np.abs(drho - expected).max() < 1e-16

    @pytest.mark.parametrize("model", ["effective", "full"])
    def test_traceless_and_hermitian_on_random_states(self, model):
        fr = frame_from_collective(1.0, 0.3, 1.9, 0.5, 0.12, 0.08,
                                   thermal_baths=((0.01, 0.3), (0.0, 0.0)))
        if model == "effective":
            spec, space = effective_generator(fr), FockSpace((4, 4))
        else:
            spec, space = FullLinearized(fr), FockSpace((3, 4, 4))
        dim = space.total_dim
        # the parity blocks, and one block carrying a state with coherence between them
        for rho0 in (None, coherent_state(space)):
            gen = compile_generator(spec, space, rho0)
            rng = np.random.default_rng(8)
            for _ in range(100):
                v = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
                rho = gen.pack(v @ v.conj().T)
                rho /= np.trace(rho, axis1=1, axis2=2).sum()
                drho = engine_rhs(gen, 0.13, rho)
                assert abs(np.trace(drho, axis1=1, axis2=2).sum()) < 1e-12
                assert np.abs(drho - drho.conj().swapaxes(1, 2)).max() < 1e-13

    def test_drift_stack_matches_scalar_calls(self):
        gen = compile_generator(FullLinearized(desk_frame()), FockSpace((4, 3, 3)))
        ts = np.arange(63) * 0.0137
        scalar = np.array([gen.drift(t) for t in ts])
        # each position sums its phase terms in one order, however many times are asked
        assert np.array_equal(gen.drift(ts), scalar)

    def test_drift_matches_model_description(self):
        # -i H(t) - 1/2 sum rate L^dag L, term by term from the model
        fr = frame_from_collective(1.0, 0.2, 5.0, 0.1, 0.05, 0.05,
                                   thermal_baths=((0.01, 0.3), (0.02, 0.1)))
        spec, space = FullLinearized(fr), FockSpace((4, 3, 3))
        described, _ = described_generator(spec, space)
        gen = compile_generator(spec, space)
        ts = np.array([0.0, 0.37, 12.5, 101.3])
        for t, stacked in zip(ts, gen.drift(ts)):
            expected = described(t)
            # the parity blocks hold all of it: its off-parity blocks are exactly 0
            assert np.array_equal(gen.unpack(gen.pack(expected)), expected)
            tol = 1e-14 * np.abs(expected).max()
            assert np.abs(stacked - gen.pack(expected)).max() <= tol
            assert np.abs(gen.drift(t) - gen.pack(expected)).max() <= tol

    def test_stage_matches_the_described_lindbladian(self):
        # D(t) rho + rho D(t)^dag + sum L rho L^dag on a time-dependent
        # generator; one generator serves every call, so a stage that
        # read its product buffer's previous contents would show here
        fr = frame_from_collective(1.0, 0.2, 5.0, 0.1, 0.05, 0.05,
                                   thermal_baths=((0.01, 0.3), (0.02, 0.1)))
        spec, space = FullLinearized(fr), FockSpace((4, 3, 3))
        described, jumps = described_generator(spec, space)
        gen = compile_generator(spec, space)
        rng = np.random.default_rng(21)
        dim = space.total_dim
        for t in (0.0, 0.37, 12.5, 101.3):
            rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = gen.unpack(gen.pack(rho + dag(rho)))
            D = described(t)
            expected = D @ rho + rho @ dag(D) + sum(L @ rho @ dag(L) for L in jumps)
            drho = engine_rhs(gen, t, gen.pack(rho))
            assert np.abs(drho - gen.pack(expected)).max() <= 1e-13 * np.abs(expected).max()

    def test_superoperator_matches_stage(self):
        # thermal baths add "up" ladder jumps next to the two-mode collective
        # ones; at (3, 3) the odd block carries a ghost row
        fr = frame_from_collective(1.0, 0.3, 1.9, 0.5, 0.12, 0.08,
                                   thermal_baths=((0.01, 0.3), (0.02, 0.1)))
        for space in (FockSpace((3, 4)), FockSpace((3, 3))):
            gen = compile_generator(shifted_effective_model(fr), space)
            superop = gen.superoperator()
            rng = np.random.default_rng(3)
            dim = space.total_dim
            for _ in range(10):
                rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                rho = gen.pack(rho + rho.conj().T)
                expected = s_coordinates(engine_rhs(gen, 0.0, rho))
                assert np.abs(superop @ s_coordinates(rho) - expected).max() < 1e-14

    def test_s_form_round_trip(self):
        # integer entries make every sum and halving exact, so S -> rho -> S
        # must return S bit for bit, and rho is exactly Hermitian
        rng = np.random.default_rng(4)
        S = rng.integers(-2**20, 2**20, size=(3, 2, 5, 5)) * 2.0**-12
        rho = fock.hermitian_form(S)
        assert rho.dtype == complex
        assert np.array_equal(rho, rho.conj().swapaxes(-1, -2))
        assert np.array_equal(rho.real, (S + S.swapaxes(-1, -2)) / 2)
        assert np.array_equal(rho.imag, (S - S.swapaxes(-1, -2)) / 2)
        back = fock.s_form(rho)
        assert back.dtype == S.dtype and back.tobytes() == S.tobytes()
        # on general entries the halvings round, to within an ulp
        S = rng.normal(size=(3, 2, 5, 5))
        assert np.abs(fock.s_form(fock.hermitian_form(S)) - S).max() <= np.finfo(float).eps * np.abs(S).max()

    @pytest.mark.parametrize("dims", [(3, 3), (4, 4)])
    @pytest.mark.parametrize("one_block", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_superoperator_matches_scipy_csr(self, monkeypatch, dims, one_block, seed):
        # scipy is the reference only.  From the entries the assembly hands
        # to SparseMatrix.from_entries, each stored value is the sum of the
        # entries at its position in input order, and scipy's canonical CSR
        # matrix holds the same positions in the same order, each the sum
        # of the same entries: bit for bit where at most two meet (addition
        # commutes), and within the rounding of each further addition
        # elsewhere, as scipy's per-row sort (not a stable one) may take
        # them in another order than the input's.  The product with a
        # vector gives the bits of the CSR product of the same entries.  On
        # random constant models with squeeze terms and lowering and
        # raising jumps (thermal baths)
        from scipy import sparse

        entries = []
        build = propagate.SparseMatrix.from_entries

        def spy(rows, cols, vals, size):
            entries.append((rows, cols, vals, size))
            return build(rows, cols, vals, size)

        monkeypatch.setattr(propagate.SparseMatrix, "from_entries", spy)
        rng = np.random.default_rng(seed)
        model = dataclasses.replace(random_quadratic_model(rng, 2), oscillating=())
        space = FockSpace(dims)
        gen = compile_generator(model, space, coherent_state(space) if one_block else None)
        assert len(gen.block_sizes) == (1 if one_block else 2)
        got = gen.superoperator()
        (rows, cols, vals, size), = entries
        nonzero = vals != 0
        rows, cols, vals = rows[nonzero], cols[nonzero], vals[nonzero]
        want = sparse.csr_matrix((vals, (rows, cols)), shape=(size, size))
        want.eliminate_zeros()
        assert want.has_canonical_format
        assert np.array_equal(got.rows, np.repeat(np.arange(size), np.diff(want.indptr)))
        assert np.array_equal(got.cols, want.indices)
        # the entries meeting at each stored position, and the sum of their magnitudes
        keys, position = np.unique(rows * size + cols, return_inverse=True)
        stored = np.searchsorted(keys, got.rows * size + got.cols)
        meeting = np.bincount(position, minlength=keys.size)[stored]
        magnitude = np.bincount(position, weights=np.abs(vals), minlength=keys.size)[stored]
        assert meeting.max() >= 3
        # np.add.at adds the entries one by one, in input order
        in_order = np.zeros(keys.size)
        np.add.at(in_order, position, vals)
        assert got.vals.tobytes() == in_order[stored].tobytes()
        few = meeting <= 2
        assert got.vals[few].tobytes() == want.data[few].tobytes()
        eps = np.finfo(float).eps
        assert np.all(np.abs(got.vals - want.data) <= (meeting - 1) * eps * magnitude)
        same = as_csr(got)
        for x in rng.normal(size=(3, size)):
            assert (got @ x).tobytes() == (same @ x).tobytes()

    @pytest.mark.parametrize("dims", [(4, 4), (8, 8)])
    @pytest.mark.parametrize("kappa,thermal", [(0.5, None), (0.5, ((0.01, 0.3), (0.02, 0.1))), (0.0, None)])
    @pytest.mark.parametrize("one_block", [False, True])
    def test_superoperator_assembly_matches_the_kron_construction(self, dims, kappa, thermal, one_block):
        # the assembly must hold the entries of the Kronecker construction
        # taken to S coordinates (s_form_superoperator) to roundoff (up to
        # three gathers meet at one entry with thermal baths; worst
        # measured 0.63 eps of the largest entry), and store exactly the
        # positions the reference holds above roundoff: no zero (a
        # lossless drift with frequency shifts has entries
        # D[i, i] + D*[j, j] that cancel)
        fr = frame_from_collective(1.0, 0.3, 1.9, kappa, 0.12, 0.08, thermal_baths=thermal)
        space = FockSpace(dims)
        rho0 = coherent_state(space) if one_block else None
        gen = compile_generator(shifted_effective_model(fr), space, rho0)
        got = as_csr(gen.superoperator())
        want = s_form_superoperator(gen)
        tol = 4 * np.finfo(float).eps * abs(want).max()
        assert got.shape == want.shape and got.dtype == want.dtype == float
        assert abs(got - want).max() <= tol
        want.data[abs(want.data) <= tol] = 0
        want.eliminate_zeros()
        assert np.all(got.data != 0)
        assert (abs(got).sign() != abs(want).sign()).nnz == 0

    @pytest.mark.parametrize("model,dims", [("full", (4, 3, 3)), ("effective", (8, 8)),
                                            ("full", (3, 3, 3)), ("effective", (3, 3))])
    @pytest.mark.parametrize("thermal", [None, ((0.01, 0.3), (0.02, 0.1))])
    def test_compiled_arrays_match_the_dense_construction(self, model, dims, thermal):
        # the (3, 3, 3) and (3, 3) blocks are padded with ghost rows
        fr = frame_from_collective(1.0, 0.3, 1.9, 0.5, 0.12, 0.08, thermal_baths=thermal)
        spec = FullLinearized(fr) if model == "full" else shifted_effective_model(fr)
        assert_compiled_arrays_match(spec, FockSpace(dims))

    def test_compiled_arrays_of_a_complex_model_match_the_dense_construction(self):
        # complex coefficients on every kind of term and jump, which the
        # generator specs never give, so that a missing conjugate shows.
        # With complex factors numpy's complex multiply and einsum's may
        # round differently in the last bit (worst measured 2.8e-17)
        model = QuadraticModel(
            3,
            static=((0.7, 2, 2, False), (0.3 + 0.2j, 0, 1, False), (0.1 - 0.4j, 1, 2, True)),
            oscillating=((0.9, ((0.2 + 0.5j, 0, 2, False), (-0.3j, 1, 2, True))),),
            jumps=((((0, 0.6 + 0.3j), (2, -0.2 + 0.8j)), False, 0.4), (((1, 0.5j), (2, 0.3)), True, 0.1)),
        )
        assert_compiled_arrays_match(model, FockSpace((3, 2, 3)), tol=1e-15)

    def test_phase_terms_sharing_positions(self):
        # two phases with different complex coefficients on the same
        # entries, so that drift() sums distinct weights at a position
        space = FockSpace((3, 2, 3))
        model = QuadraticModel(
            3,
            static=((0.7, 2, 2, False),),
            oscillating=((0.9, ((0.2 + 0.5j, 0, 2, False),)),
                         (1.7, ((0.4 - 0.1j, 0, 2, False), (0.3j, 1, 2, True)))),
            jumps=((((0, 1.0),), False, 0.4),),
        )
        assert_compiled_arrays_match(model, space, tol=1e-15)
        gen = compile_generator(model, space)
        assert len(gen._phase_sources) == 2
        base, columns = dense_compiled_arrays(model, space, gen)[:2]
        ts = np.array([0.3, 2.9])
        want = base.reshape(-1) + np.exp(1j * np.multiply.outer(ts, gen.phase_nus)) @ columns.T
        assert np.abs(gen.drift(ts).reshape(ts.size, -1) - want).max() <= 1e-15

    def test_superoperator_rejects_time_dependent_generator(self):
        gen = compile_generator(FullLinearized(desk_frame()), FockSpace((2, 2, 2)))
        with pytest.raises(ValueError, match="time-independent"):
            gen.superoperator()


class TestIntegrate:
    def test_beam_splitter_oscillation(self):
        fr = frame_from_collective(1.0, 0.2, 0.5, 0.0, 0.1, 0.1)
        spec = effective_generator(fr)
        J = abs(spec.params.exchange_coupling)
        space = FockSpace((3, 3))
        dt = 0.01 / J
        traj = integrate(spec, space, fock_state(space, (1, 0)),
                         math.pi / (2 * J), dt, stride=20)
        # 157 steps: seven full record intervals and a final 17-step one
        assert list(traj.t) == [s * dt for s in range(0, 157, 20)] + [157 * dt]
        assert traj.final_state.time == 157 * dt
        # the exact path takes no steps; the stats count its records.  A
        # lossless exchange keeps the one excitation, so the run carries the
        # 4 entries of S in that sector: the seven 20-step intervals pay for
        # a dense increment, the final 17-step one serves one record and
        # takes the Taylor map
        assert traj.stats == propagate.RunStats(records=9, dense_maps=1, carried=4, blocks=(5, 4))
        assert np.abs(traj.n2 - np.sin(J * traj.t) ** 2).max() < 1e-8
        assert traj.n2[-1] == pytest.approx(1.0, abs=1e-6)

    def test_exact_path_ignores_and_keeps_global_rng(self):
        # the exact path's records must not depend on NumPy's global RNG,
        # and the run must leave its state as it found it
        fr = frame_from_collective(1.0, 0.2, 1.0, 0.3, 0.15, 0.15)
        spec = effective_generator(fr)
        space = FockSpace((4, 4))
        dt = 0.01 / quadratic_model(spec).f_max
        outputs = []
        for seed in (1, 2):
            np.random.seed(seed)
            before = np.random.get_state()
            traj = integrate(spec, space, fock_state(space, (1, 0)), 3000 * dt, dt, stride=10)
            after = np.random.get_state()
            assert after[0] == before[0] and np.array_equal(after[1], before[1])
            assert after[2:] == before[2:]
            outputs.append(b"".join(getattr(traj, f).tobytes()
                                    for f in ("t", "n1", "n2", "coh", "trace", "min_eig"))
                           + traj.final_state.matrix.tobytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("exact", [False, True])
    def test_run_leaves_the_callers_state_alone(self, exact):
        # the time-dependent path once stepped in place on the caller's
        # contiguous array and left the final state in it; the exact path
        # takes a real state, here under a real drift
        D = np.diag([-0.5, -0.2]) if exact else np.diag([-1j - 0.5, -0.2])
        x = np.full((2, 2), 0.5, float if exact else complex)
        kept = x.copy()
        generator = np.kron(D, np.eye(2)) + np.kron(np.eye(2), D.conj()) if exact else None
        _, final, _ = propagate.run(x, lambda ts, xs: {}, 100, 0.01, 10, generator,
                                    lambda ts: np.array([D] * ts.size), drift_stage)
        assert np.array_equal(x, kept)
        assert np.abs(final - kept).max() > 0.1

    def test_exact_path_needs_a_real_state(self):
        # the exact path's maps are real: a complex state is refused
        # before the first record is taken
        def monitor(ts, xs):
            raise AssertionError("a record was monitored")

        x = np.full((2, 2), 0.5, complex)
        with pytest.raises(ValueError, match="exact path of a constant generator needs a real state"):
            propagate.run(x, monitor, 10, 0.01, 10, -np.eye(4))

    def test_single_mode_decay(self):
        spec = EffectiveTwoMode(manual_params({"1": (0.4, 0.0)}), CollectiveMode(1.0, 1.0))
        space = FockSpace((3, 3))
        traj = integrate(spec, space, fock_state(space, (1, 0)), 8.0, 0.02, stride=40)
        assert np.abs(traj.n1 - np.exp(-0.4 * traj.t)).max() < 1e-9

    def test_thermal_bath_relaxation(self):
        spec = EffectiveTwoMode(manual_params({}), CollectiveMode(1.0, 1.0),
                                thermal_baths=((0.3, 0.15), (0.0, 0.0)))
        space = FockSpace((10, 2))
        traj = integrate(spec, space, fock_state(space, (1, 0)), 25.0, 0.02, stride=75)
        expected = 0.15 + (1.0 - 0.15) * np.exp(-0.3 * traj.t)
        assert np.abs(traj.n1 - expected).max() < 1e-6

    def test_zero_time_returns_initial_expectations(self):
        fr = desk_frame()
        spec = effective_generator(fr)
        space = FockSpace((3, 3))
        traj = integrate(spec, space, fock_state(space, (1, 0)), 0.0, 0.1)
        assert len(traj.t) == 1
        assert traj.n1[0] == pytest.approx(1.0)
        assert traj.n2[0] == pytest.approx(0.0)

    def test_step_size_precondition(self):
        fr = desk_frame()
        spec = FullLinearized(fr)
        space = FockSpace((3, 3, 3))
        f_max = quadratic_model(spec).f_max
        with pytest.raises(ValueError, match="too coarse"):
            integrate(spec, space, fock_state(space, (0, 0, 0)), 1.0, 0.02 / f_max)
        with pytest.raises(ValueError, match="stride"):
            integrate(spec, space, fock_state(space, (0, 0, 0)), 1.0, 0.01 / f_max, stride=0)

    def test_fourth_order_convergence(self, monkeypatch):
        # one step of h = 10 dt on X' = M X + (M X)^dag, M = diag(-i, 0), so
        # X_01 = exp(-i t) / 2: halving h divides the error of the record at
        # the step's midpoint (continuous extension, 4th order, local error
        # ~ h^5) by 2^5 and that of the step's end (5th order, ~ h^6) by 2^6
        monkeypatch.setattr(propagate, "_STEP_TOL", math.inf)
        drift = np.diag([-1j, 0.0])
        errors = []
        for dt in (0.02, 0.01, 0.005):
            recorded = {}
            _, stats = dopri5(lambda ts: np.array([drift] * ts.size), drift_stage,
                              np.full((2, 2), 0.5, complex), 10, dt, 5,
                              lambda t, x: recorded.update({t: x[0, 1]}))
            assert stats.accepted_steps == 1
            errors.append([abs(recorded[s * dt] - 0.5 * np.exp(-1j * s * dt)) for s in (5, 10)])
        errors = np.array(errors)
        for (mid, end) in errors[:-1] / errors[1:]:
            assert 26 < mid < 38
            assert 52 < end < 76

    def test_records_do_not_depend_on_stride(self):
        # records between steps come from the continuous extension; 7 does
        # not divide 200; the stride-1 run spans several monitor stacks
        fr = frame_from_collective(1.0, 0.3, 1.2, 0.4, 0.1, 0.1)
        spec = FullLinearized(fr)
        space = FockSpace((3, 3, 3))
        dt = 0.01 / quadratic_model(spec).f_max
        runs = {stride: integrate(spec, space, fock_state(space, (0, 1, 0)), 200 * dt, dt,
                                  stride=stride, truncation_tol=0.05)
                for stride in (1, 7, 10**9)}
        every = runs[1]
        for stride, traj in runs.items():
            steps = sorted(set(range(0, 201, stride)) | {200})
            assert list(traj.t) == [s * dt for s in steps]
            for field in ("n1", "n2", "n_cav", "coh", "trace", "trunc_monitor", "herm_dev", "min_eig"):
                assert np.abs(getattr(traj, field) - getattr(every, field)[steps]).max() <= 1e-14
            assert np.abs(traj.final_state.matrix - every.final_state.matrix).max() <= 1e-14

    @staticmethod
    def _drift_calls(n_steps, stride):
        """Run the kernel on a zero drift; return its operators(ts) calls,
        its record times and its RunStats."""
        calls, recorded = [], []

        def drifts(ts):
            calls.append(ts)
            return np.zeros((ts.size, 2, 2))

        _, stats = dopri5(drifts, drift_stage, np.eye(2), n_steps, 0.1,
                          stride, lambda t, x: recorded.append(t))
        return calls, recorded, stats

    @staticmethod
    def _stage_starts(calls):
        """Start time of every step, checked against its call's five new stage times."""
        assert np.array_equal(calls[0], [0.0])
        starts = [0.0] + [ts[-1] for ts in calls[1:]]
        for t, ts in zip(starts, calls[1:]):
            assert np.abs(ts - (t + (ts[-1] - t) * propagate._DP_NODES)).max() <= 1e-15
        return starts

    @pytest.mark.parametrize("stride,records", [(5, (5, 10, 15)), (10**9, (14,))])
    def test_one_drift_call_per_attempted_step(self, stride, records):
        # the first stage at t = 0, then the five new stage times t + c h of
        # each step (its seventh stage, at t + h, is the next step's first)
        calls, recorded, stats = self._drift_calls(records[-1], stride)
        starts = self._stage_starts(calls)
        assert starts[-1] == records[-1] * 0.1
        assert (stats.accepted_steps, stats.rejected_steps) == (len(calls) - 1, 0)
        assert stats.stage_evaluations == 1 + 6 * stats.accepted_steps
        assert recorded == [s * 0.1 for s in records]

    def test_drift_blocks_at_the_default_cap(self):
        # a zero drift has a zero error estimate, so h grows by the
        # controller's cap of 5 per step: 10 dt, then 50 dt to t = 60 dt; the
        # records at multiples of 7 come from the continuous extension
        calls, recorded, stats = self._drift_calls(60, 7)
        assert [ts.size for ts in calls] == [1, 5, 5]
        assert np.allclose(self._stage_starts(calls), [0.0, 1.0, 6.0], rtol=0, atol=1e-15)
        assert (stats.accepted_steps, stats.stage_evaluations, stats.max_error_estimate) == (2, 13, 0.0)
        assert stats.last_step == pytest.approx(50)
        assert recorded == [s * 0.1 for s in (7, 14, 21, 28, 35, 42, 49, 56, 60)]

    def test_truncation_monitor_aborts(self):
        # resonant up-conversion pumps cavity-mechanics pairs and overfills
        # the d=3 ladders quickly; the cavity's holds the most
        fr = frame_from_collective(1.0, 0.3, -(1.0 + 0.3), 0.4, 0.2, 0.2)
        spec = FullLinearized(fr)
        space = FockSpace((3, 3, 3))
        f_max = quadratic_model(spec).f_max
        with pytest.raises(TruncationError, match=r"subsystem 0 holds population .*increase dimensions"):
            integrate(spec, space, fock_state(space, (0, 0, 0)), 120.0,
                      0.01 / f_max, stride=500, truncation_tol=1e-3)

    def test_truncation_monitor_aborts_constant_generator(self):
        # a hot bath on mode 2 fills its d=3 ladder
        spec = EffectiveTwoMode(manual_params({}), CollectiveMode(1.0, 1.0),
                                thermal_baths=((0.0, 0.0), (0.3, 2.0)))
        space = FockSpace((3, 3))
        with pytest.raises(TruncationError, match=r"subsystem 1 holds population .*increase dimensions"):
            integrate(spec, space, fock_state(space, (0, 0)), 20.0, 0.01, stride=50)

    def test_truncation_abort_names_the_first_offending_record(self):
        # the monitors run over buffered stacks of records; the abort still
        # names the first record past the tolerance, here in a later stack
        fr = frame_from_collective(1.0, 0.3, -(1.0 + 0.3), 0.4, 0.2, 0.2)
        spec = FullLinearized(fr)
        space = FockSpace((3, 3, 3))
        dt = 0.01 / quadratic_model(spec).f_max

        def run(tol):
            return integrate(spec, space, fock_state(space, (0, 0, 0)), 300 * dt, dt,
                             stride=1, truncation_tol=tol)

        free = run(1.0)
        first = np.flatnonzero(free.trunc_monitor > 5e-3)[0]
        assert propagate._MONITOR_BLOCK // (2 * 14 * 14) < first < free.t.size - 1
        with pytest.raises(TruncationError) as abort:
            run(5e-3)
        assert f"population {free.trunc_monitor[first]:.3e} " in str(abort.value)
        assert f" at t={free.t[first]:.6g}, " in str(abort.value)

    def test_truncation_abort_wins_over_a_later_kernel_error(self, monkeypatch):
        # a record past the tolerance still sits in the buffer when the
        # kernel raises; the flush on the way out surfaces the earlier failure
        spec = FullLinearized(desk_frame())
        space = FockSpace((3, 3, 3))
        dt = 0.01 / quadratic_model(spec).f_max
        top = compile_generator(spec, space).pack(fock_state(space, (2, 0, 0)))

        def kernel(operators, stage, x, n_steps, dt, stride, record):
            record(dt, top)
            raise propagate.StepControlError("the step would fall below dt")

        monkeypatch.setattr(propagate, "dopri5", kernel)
        with pytest.raises(TruncationError) as abort:
            integrate(spec, space, fock_state(space, (0, 1, 0)), 100 * dt, dt, stride=1)
        assert str(abort.value).startswith(f"subsystem 0 holds population 1.000e+00 in its top Fock "
                                           f"level n=2 at t={dt:.6g}, ")
        assert isinstance(abort.value.__context__, propagate.StepControlError)

    @pytest.mark.parametrize("tol", [math.nan, -1e-3])
    def test_truncation_tolerance_must_be_a_nonnegative_number(self, tol):
        # a NaN tolerance would switch the monitor off: this run puts its
        # whole population in the top level, and the default tolerance
        # aborts it at t = 0
        spec, space = effective_generator(desk_frame()), FockSpace((2, 2))
        with pytest.raises(TruncationError, match="at t=0, "):
            integrate(spec, space, fock_state(space, (1, 0)), 1.0, 0.1)
        with pytest.raises(ValueError, match="truncation_tol"):
            integrate(spec, space, fock_state(space, (1, 0)), 1.0, 0.1, truncation_tol=tol)

    def test_state_validation_on_entry(self):
        fr = desk_frame()
        spec = effective_generator(fr)
        space = FockSpace((3, 3))
        bad = np.eye(9, dtype=complex)  # trace 9
        with pytest.raises(ValueError):
            integrate(spec, space, bad, 1.0, 0.1)

    @pytest.mark.parametrize("dims", [(3, 3), (8, 8)])
    def test_negative_state_rejected_before_propagation(self, monkeypatch, dims):
        # the eigenvalues are taken over the parity blocks; a negative one
        # in either block, or in the one block of a state with off-parity
        # coherence, still stops the run before it propagates
        def refuse(*args, **kwargs):
            raise AssertionError("an invalid state was propagated")

        monkeypatch.setattr(fock, "run", refuse)
        space = FockSpace(dims)
        spec = effective_generator(desk_frame())
        with pytest.raises(AssertionError, match="propagated"):   # the patch is live
            integrate(spec, space, fock_state(space, (1, 0)), 1.0, 0.1)
        for occupied, negative in (((0, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 0), (0, 0))):
            rho = 1.1 * fock_state(space, occupied) - 0.1 * fock_state(space, negative)
            with pytest.raises(ValueError, match="negative eigenvalue"):
                integrate(spec, space, rho, 1.0, 0.1)
        # |0,0> + |1,0> is carried as one block: its spectrum is {1, 0, ...}
        psi = fock_state(space, (0, 0)).diagonal() + fock_state(space, (1, 0)).diagonal()
        rho = 0.5 * np.outer(psi, psi) - 0.1 * fock_state(space, (0, 1)) + 0.1 * fock_state(space, (1, 1))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            integrate(spec, space, rho.astype(complex), 1.0, 0.1)
        with pytest.raises(ValueError, match="shape"):
            integrate(spec, space, np.eye(4, dtype=complex) / 4, 1.0, 0.1)

    @pytest.mark.parametrize("spec,dims", [
        (effective_generator(desk_frame()), (3, 4)),
        # time-dependent, and its odd block of 13 rows carries a ghost
        (FullLinearized(desk_frame()), (3, 3, 3)),
    ], ids=["effective", "full"])
    def test_block_spectrum_check_matches_the_whole_matrix(self, monkeypatch, spec, dims):
        # a state with the given smallest eigenvalue, in the last row of
        # the odd parity block: integrate's check on the parity blocks
        # against the spectrum of the whole matrix
        class Accepted(Exception):
            pass

        def accept(*args, **kwargs):
            raise Accepted

        monkeypatch.setattr(fock, "run", accept)
        space = FockSpace(dims)
        assert bool(compile_generator(spec, space).phase_nus.size) == (len(dims) == 3)
        dim = space.total_dim
        blocks = fock.density_blocks(space)
        dt = 0.01 / quadratic_model(spec).f_max
        rng = np.random.default_rng(4)
        for smallest in (0.0, -1e-9, -1e-3):
            p = rng.uniform(0.1, 1.0, dim)
            p[-1] = 0.0
            p *= (1 - smallest) / p.sum()
            p[-1] = smallest
            rho = np.zeros((dim, dim), complex)
            start = 0
            for rows in blocks:
                q = np.linalg.qr(rng.normal(size=(rows.size,) * 2) + 1j * rng.normal(size=(rows.size,) * 2))[0]
                rho[np.ix_(rows, rows)] = (q * p[start:start + rows.size]) @ q.conj().T
                start += rows.size
            assert len(fock.density_blocks(space, rho)) == 2
            try:
                integrate(spec, space, rho, 1.0, dt)
            except Accepted:
                verdict = "valid"
            except ValueError as exc:
                verdict = str(exc)
            negative = "density matrix has a significantly negative eigenvalue"
            whole = "valid" if np.linalg.eigvalsh(rho).min() >= -1e-8 else negative
            assert verdict == whole == ("valid" if smallest > -1e-8 else negative)

    def test_negative_rate_rejected(self):
        params = manual_params({"1": (-0.1, 0.0)})
        spec = EffectiveTwoMode(params, CollectiveMode(1.0, 1.0))
        with pytest.raises(ValueError, match="negative"):
            compile_generator(spec, FockSpace((3, 3)))

    @pytest.mark.parametrize("t_end", [math.nan, math.inf])
    def test_non_finite_t_end_rejected(self, t_end):
        space = FockSpace((3, 3))
        with pytest.raises(ValueError, match="t_end must be finite"):
            integrate(effective_generator(desk_frame()), space, fock_state(space, (1, 0)),
                      t_end, 0.1)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf])
    def test_fewest_steps_dt_rejects_non_finite_t_end(self, t_end):
        with pytest.raises(ValueError, match="t_end must be finite"):
            propagate.fewest_steps_dt(t_end, 1.0)

    def test_fewest_steps_dt_is_positive_with_no_time_and_no_fastest_scale(self):
        dt = propagate.fewest_steps_dt(0.0, 0.0)
        assert dt > 0
        assert propagate.step_count(0.0, dt, 1, 0.0) == 0


def fixed_step_rk4(operators, stage, x, n_steps, dt, stride, record):
    """The fixed-step RK4 kernel that preceded the adaptive ones, on the engine's own stage.

    The accuracy reference: one step of ``dt`` at a time, in blocks of one
    record interval (the memory budget never binds at these sizes).
    """
    y, acc, k = (np.empty_like(x) for _ in range(3))
    sixth = dt / 6.0
    half = dt / 2.0
    start = 0
    while start < n_steps:
        stop = min(n_steps, (start // stride + 1) * stride)
        D = operators(np.arange(2 * start, 2 * stop + 1) * half)
        for j in range(0, 2 * (stop - start), 2):
            stage(D[j], x, k)
            acc[:] = k
            np.multiply(k, half, out=y)
            y += x
            stage(D[j + 1], y, k)
            acc += 2.0 * k
            np.multiply(k, half, out=y)
            y += x
            stage(D[j + 1], y, k)
            acc += 2.0 * k
            np.multiply(k, dt, out=y)
            y += x
            stage(D[j + 2], y, k)
            acc += k
            acc *= sixth
            x += acc
            if x.ndim > 1:  # a packed symmetric state is never projected
                np.add(x, x.conj().swapaxes(-1, -2), out=x)
                x *= 0.5
        start = stop
        record(stop * dt, x)
    return x, propagate.RunStats()


def stride_test_runs(stride=7):
    """Both engines on the full model of the stride-independence tests, 200 steps of dt."""
    fr = frame_from_collective(1.0, 0.3, 1.2, 0.4, 0.1, 0.1)
    spec = FullLinearized(fr)
    space = FockSpace((3, 3, 3))
    dt = 0.01 / quadratic_model(spec).f_max
    ftraj = integrate(spec, space, fock_state(space, (0, 1, 0)), 200 * dt, dt,
                      stride=stride, truncation_tol=0.05)
    gtraj = gaussian.evolve_covariance(gaussian.drift_diffusion_from_generator(spec),
                                       gaussian.fock_moments(3, (0, 1, 0)), 200 * dt, dt, stride=stride)
    return ftraj, gtraj


class TestExponentialMap:
    """propagate.exponential_map against scipy's Pade expm of the dense matrix."""

    FRAME = frame_from_collective(1.0, 0.2, 1.0, 0.3, 0.15, 0.15)

    @pytest.mark.parametrize("steps,bound", [(10, 1e-14), (1000, 1e-13)])
    def test_fock_superoperator_matches_dense_expm(self, steps, bound):
        from scipy.linalg import expm

        spec = effective_generator(self.FRAME)
        space = FockSpace((4, 4))
        gen = compile_generator(spec, space)
        # the record interval of a run at dt = 0.01 / f_max and stride 10,
        # and one of 1000 steps, whose 1-norm 223 forces several substeps
        A = checked_superoperator(gen) * (steps * 0.01 / gen.f_max)
        # three S states: real, as the exact path carries them; the sparse
        # map acts on one vector at a time
        B = np.random.default_rng(5).normal(size=(A.shape[0], 3))
        ref = expm(A.toarray()) @ B
        for block, want in zip(B.T, ref.T):
            got = propagate.exponential_map(A)(block)
            assert got.shape == want.shape
            # worst measured, relative to max |ref|: 4.2e-16 (10 steps),
            # 1.2e-14 (1000 steps)
            assert np.abs(got - want).max() <= bound * np.abs(ref).max()

    @pytest.mark.parametrize("engine,steps,bound", [("fock", 10, 1e-14), ("fock", 1000, 2e-13),
                                                    ("gaussian", 10, 1e-14)])
    def test_increment_matches_dense_expm(self, engine, steps, bound):
        from scipy.linalg import expm

        spec = effective_generator(self.FRAME)
        if engine == "fock":
            # the restricted generator the exact path takes dense; over 1000
            # steps it is halved and squared
            gen = compile_generator(spec, FockSpace((4, 4)))
            A = dense = (checked_superoperator(gen) * (steps * 0.01 / gen.f_max)).toarray()
        else:
            # a dense A within one substep: summed from 0 without halving
            dd = gaussian.drift_diffusion_from_generator(spec)
            A = dense = dd.superoperator() * (steps * 0.01 / dd.f_max)
            assert np.abs(A).sum(axis=0).max() <= propagate._TAYLOR_THETA[55]
        want = expm(dense) - np.eye(A.shape[0])
        got = propagate.exponential_increment(A)
        # worst measured, relative to max |want|: 4.0e-16 (Fock, 10 steps),
        # 4.3e-15 (Fock, 1000 steps, halved and squared; 7.9e-15 by the
        # substeps), 5.6e-16 (Gaussian)
        assert np.abs(got - want).max() <= bound * np.abs(want).max()
        assert not propagate.exponential_increment(A * 0).any()

    @pytest.mark.parametrize("long_run", [False, True])
    def test_gaussian_superoperator_matches_dense_expm(self, long_run):
        from scipy.linalg import expm

        dd = gaussian.drift_diffusion_from_generator(effective_generator(self.FRAME))
        L = dd.superoperator()
        relax = -np.linalg.eigvals(dd.drift).real.max()
        # a record interval, and the criterion-5 long run of 10 relaxation
        # times in one interval
        h = 10 / relax if long_run else 10 * 0.01 / dd.f_max
        norm = np.abs(L * h).sum(axis=0).max()
        assert L.shape == (15, 15)  # the packed upper triangle of the 5 x 5 moment matrix
        assert (norm > propagate._TAYLOR_THETA[55]) == long_run  # more than one substep
        got = propagate.exponential_map(L * h)(np.eye(15))
        # worst measured: 2.2e-16 (record interval), 5.6e-16 (long run)
        assert np.abs(got - expm(L * h)).max() <= 1e-14

    @pytest.mark.parametrize("dense", [True, False])
    def test_zero_matrix_returns_the_input(self, dense):
        # a sparse matrix acts on a real vector, as on the exact path's S
        if dense:
            zero, B = np.zeros((6, 6)), np.arange(12.0).reshape(6, 2) + 1j
        else:
            zero, B = zero_sparse(6), np.arange(6.0)
        assert np.array_equal(propagate.exponential_map(zero)(B), B)

    @staticmethod
    def plain_stop_rule_substep(A):
        """The substeps s and the substep (B, F) -> F + (T_m(A / s) - I) B of
        exponential_map, with its stop test taken at every term, on max |F|
        of the partial sum."""
        norm = float(np.abs(A if isinstance(A, np.ndarray) else A.toarray()).sum(axis=0).max())
        _, m, s = min((m * math.ceil(norm / theta), m, math.ceil(norm / theta))
                      for m, theta in propagate._TAYLOR_THETA.items())

        def substep(B, F):
            c1 = np.abs(B).max()
            for j in range(1, m + 1):
                B = A @ B
                B *= 1.0 / (s * j)
                c2 = np.abs(B).max()
                F = F + B
                if c1 + c2 <= 2.0**-53 * np.abs(F).max():
                    break
                c1 = c2
            return F

        return s, substep

    @classmethod
    def plain_stop_rule_map(cls, A):
        s, substep = cls.plain_stop_rule_substep(A)

        def apply(B):
            for _ in range(s):
                B = substep(B, B)
            return B

        return apply

    def stop_rule_cases(self):
        # the cases of the two dense-expm tests above, and the zero matrix;
        # the sparse Fock generator on vectors, also taken dense on a block
        gen = compile_generator(effective_generator(self.FRAME), FockSpace((4, 4)))
        superop = checked_superoperator(gen)
        B = np.random.default_rng(5).normal(size=(superop.shape[0], 3))
        for steps in (10, 1000):
            A = superop * (steps * 0.01 / gen.f_max)
            yield A, B[:, 0]
            yield A, B[:, 2]
            yield A.toarray(), B
        dd = gaussian.drift_diffusion_from_generator(effective_generator(self.FRAME))
        L = dd.superoperator()
        relax = -np.linalg.eigvals(dd.drift).real.max()
        for h in (10 * 0.01 / dd.f_max, 10 / relax):
            yield L * h, np.eye(L.shape[0])
        yield np.zeros((6, 6)), np.arange(12.0).reshape(6, 2) + 1j
        yield zero_sparse(6), np.arange(6.0)

    def test_running_bound_stops_where_the_plain_rule_stops(self):
        # every stop decision is the same, so every sum is bit-identical,
        # and the caller's array is never written to
        for A, B in self.stop_rule_cases():
            kept = B.copy()
            got = propagate.exponential_map(A)(B)
            assert np.array_equal(B, kept)
            want = self.plain_stop_rule_map(A)(B)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_fock_increment_is_halved_and_squared(self):
        # the exact path builds the dense increment of the Fock generator
        # from the generator taken dense, as it does the moment
        # superoperator's: over 1000 steps it lies far beyond one substep,
        # and is halved to within it and squared back, each squaring a
        # matrix product as each Taylor term is
        gen = compile_generator(effective_generator(self.FRAME), FockSpace((4, 4)))
        A = (checked_superoperator(gen) * (1000 * 0.01 / gen.f_max)).toarray()
        norm = np.abs(A).sum(axis=0).max()
        k = math.ceil(math.log2(norm / propagate._TAYLOR_THETA[55]))
        assert norm / 2**k <= propagate._TAYLOR_THETA[55] < norm / 2**(k - 1) and k == 5
        s, substep = self.plain_stop_rule_substep(A / 2**k)
        want = np.zeros(A.shape)
        for _ in range(s):
            want = substep(want + np.eye(A.shape[0]), want)
        for _ in range(k):
            want = want @ want + 2 * want
        got = propagate.exponential_increment(A)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cfg", range(3))
    @pytest.mark.parametrize("relax_times", [10, 30])
    def test_increment_on_the_long_runs(self, cfg, relax_times):
        # the criterion-5 long runs: one interval of 10 (benchmark) or 30
        # (acceptance) relaxation times
        from scipy.linalg import expm

        class Counted(np.ndarray):
            products = 0

            def __matmul__(self, other):
                Counted.products += 1
                return super().__matmul__(other)

        delta_omega, delta_bar, kappa, G = [(0.2, 1.0, 0.3, 0.15), (0.3, 0.9, 0.5, 0.12),
                                            (0.15, 1.1, 0.2, 0.10)][cfg]
        fr = frame_from_collective(1.0, delta_omega, delta_bar, kappa, G, G)
        dd = gaussian.drift_diffusion_from_generator(effective_generator(fr))
        relax = -np.linalg.eigvals(dd.drift).real.max()
        A = dd.superoperator() * (relax_times / relax)
        got = propagate.exponential_increment(A.view(Counted))
        # worst measured: 1.8e-15
        assert np.abs(got - (expm(A) - np.eye(A.shape[0]))).max() <= 1e-14
        # Taylor terms plus squarings; worst measured: 40 (the substeps
        # took 351-482 at 10 relaxation times)
        assert Counted.products <= 45

    def test_engines_run_without_scipy_exponentials(self, monkeypatch):
        import scipy.linalg
        import scipy.sparse.linalg

        def refuse(*args, **kwargs):
            raise AssertionError("an engine called a scipy matrix exponential")

        # this catches an import inside a function; one at module level
        # would load scipy with cavmech.cli, which test_cli.TestStartup catches
        monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", refuse)
        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        spec = effective_generator(self.FRAME)
        space = FockSpace((4, 4))
        dt = 0.01 / quadratic_model(spec).f_max
        traj = integrate(spec, space, fock_state(space, (1, 0)), 105 * dt, dt, stride=10)
        assert traj.t.size == 12
        dd = gaussian.drift_diffusion_from_generator(spec)
        gtraj = gaussian.evolve_covariance(dd, gaussian.fock_moments(2, (1, 0)), 105 * dt, dt, stride=10)
        assert np.abs(traj.n2 - gtraj.n2).max() < 1e-3


class TestStepControl:
    def test_stride_config_runs_above_the_record_step(self):
        for traj in stride_test_runs():
            stats = traj.stats
            assert stats.last_step > 1
            assert 0 < stats.max_error_estimate <= propagate._STEP_TOL * 2
            assert stats.accepted_steps < 200 and stats.rejected_steps == 0
            assert stats.stage_evaluations == 1 + 6 * stats.accepted_steps
            assert stats.records == 30   # 0, every 7 steps to 196, and 200

    @staticmethod
    def _fixed_step_reference(monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(propagate, "dopri5", fixed_step_rk4)
            runs = stride_test_runs()
        # both engines took the reference kernel, which counts no steps
        assert all(traj.stats.accepted_steps == 0 for traj in runs)
        return runs

    @staticmethod
    def _gap(runs, reference):
        """Largest record deviation of both engines from the reference runs."""
        (ftraj, gtraj), (fref, gref) = runs, reference
        assert np.array_equal(ftraj.t, fref.t) and np.array_equal(gtraj.t, gref.t)
        gaps = [np.abs(getattr(ftraj, field) - getattr(fref, field)).max()
                for field in ("n1", "n2", "n_cav", "coh", "trace")]
        gaps.append(np.abs(ftraj.final_state.matrix - fref.final_state.matrix).max())
        gaps.append(np.abs(gtraj.occupations - gref.occupations).max())
        return np.max(gaps)  # the builtin max drops a NaN after the first item

    def test_records_stay_near_fixed_step_rk4(self, monkeypatch):
        # the step-doubling kernel this one replaced lay up to 1.1e-9 from
        # fixed-step RK4 at dt on this run
        assert self._gap(stride_test_runs(), self._fixed_step_reference(monkeypatch)) <= 1.1e-9

    def test_internal_step_is_fifth_order(self, monkeypatch):
        # with the controller switched off, h stays at its first value
        # 10 dt, and halving it divides the change in the final state by 2^5;
        # dt is a power of 2, so the steps land on 200 dt exactly
        monkeypatch.setattr(propagate, "_STEP_TOL", math.inf)
        monkeypatch.setattr(propagate, "_step_factor", lambda error, bound: 1.0)
        fr = frame_from_collective(1.0, 0.3, 1.2, 0.4, 0.1, 0.1)
        spec = FullLinearized(fr)
        space = FockSpace((3, 3, 3))
        dt = 2.0 ** math.floor(math.log2(0.01 / quadratic_model(spec).f_max))
        dd = gaussian.drift_diffusion_from_generator(spec)
        finals = []
        for k in (0, 1, 2):
            ftraj = integrate(spec, space, fock_state(space, (0, 1, 0)), 200 * dt, dt / 2**k,
                              stride=10**9, truncation_tol=0.05)
            gtraj = gaussian.evolve_covariance(dd, gaussian.fock_moments(3, (0, 1, 0)), 200 * dt,
                                               dt / 2**k, stride=10**9)
            assert ftraj.stats.accepted_steps == gtraj.stats.accepted_steps == 20 * 2**k
            finals.append((ftraj.final_state.matrix, gtraj.final_state.cov))
        for engine in (0, 1):
            coarse, mid, fine = (f[engine] for f in finals)
            ratio = np.abs(coarse - mid).max() / np.abs(mid - fine).max()
            assert 26 < ratio < 38

    def test_tight_tolerance_refines_then_raises_at_the_finest_step(self, monkeypatch):
        reference = self._fixed_step_reference(monkeypatch)
        coarse = stride_test_runs()
        monkeypatch.setattr(propagate, "_STEP_TOL", 1e-12)
        refined = stride_test_runs()
        for tight, loose in zip(refined, coarse):
            # the first step, at 10 dt, is rejected
            assert tight.stats.rejected_steps > 0
            assert tight.stats.last_step < loose.stats.last_step
        assert refined[0].stats.max_error_estimate <= 1e-12
        assert self._gap(refined, reference) < self._gap(coarse, reference) <= 1.1e-9
        monkeypatch.setattr(propagate, "_STEP_TOL", 0.0)
        with pytest.raises(propagate.StepControlError, match="below the finest step"):
            stride_test_runs()

    def test_dense_output_table_is_the_nested_form(self):
        # Hairer's nested continuous extension, weights w of the stages:
        # theta (b + (1 - theta) (e1 - b + theta (b - e7 - (e1 - b) + (1 - theta) d)))
        b, d = propagate._DP_B, propagate._DP_DENSE
        e1, e7 = np.eye(7)[[0, 6]]
        for theta in np.linspace(0.0, 1.0, 201):
            nested = theta * (b + (1 - theta) * (e1 - b + theta * (b - e7 - (e1 - b) + (1 - theta) * d)))
            table = propagate._DP_POLY @ (theta ** np.arange(1, 5))
            # the table's terms reach 10 in size, so the power form rounds
            # to a few eps of that; worst measured: 1.9e-15
            assert np.abs(table - nested).max() <= 4e-15
        assert np.abs(propagate._DP_POLY.sum(axis=1) - b).max() <= 1e-15  # w(1) = b

    def test_non_finite_error_estimate_raises(self):
        # NaN > bound is False: the kernel took such a step as accepted,
        # grew the next one fivefold and dropped the NaN from its estimate
        def stage(D, state, out):
            drift_stage(D, state, out)
            if D[0, 0].real < -1.5:
                out[0, 0] = math.nan

        recorded = []
        with pytest.raises(propagate.StepControlError, match="non-finite error estimate at t="):
            dopri5(lambda ts: np.array([np.diag([-1j - t, 0.0]) for t in ts]), stage,
                   np.full((2, 2), 0.5, complex), 400, 0.01, 10, lambda t, x: recorded.append(x.copy()))
        assert recorded and all(np.isfinite(x).all() for x in recorded)


RECORD_FIELDS = ("n1", "n2", "n_cav", "coh", "trace", "trunc_monitor", "herm_dev", "min_eig")


def dense_reference(spec, space, rho0, t_end, dt, stride):
    """Records and final state of the model description's dense Lindbladian.

    A time-dependent generator is stepped by the shared kernel (dopri5) on the
    dense matrix, a constant one by ``expm_multiply`` on its dense
    superoperator over the record grid (``t_end`` a whole number of
    record intervals).  Returns (records by field, final state).
    """
    from scipy.sparse.linalg import expm_multiply

    drift, jumps = described_generator(spec, space)
    dim = space.total_dim
    levels = np.unravel_index(np.arange(dim), space.dims)
    b = build_operators(space)
    observables = {"n1": dag(b[-2]) @ b[-2], "n2": dag(b[-1]) @ b[-1], "coh": dag(b[-2]) @ b[-1],
                   "n_cav": dag(b[0]) @ b[0] if len(b) == 3 else None}
    records = {field: [] for field in ("t",) + RECORD_FIELDS}

    def record(t, rho):
        rho = 0.5 * (rho + dag(rho))  # a run monitors its records projected
        tr = np.trace(rho).real
        for name, op in observables.items():
            records[name].append(np.trace(op @ rho) / tr if op is not None else math.nan)
        records["t"].append(t)
        records["trace"].append(tr)
        records["trunc_monitor"].append(max(rho.diagonal().real[level == d - 1].sum()
                                            for level, d in zip(levels, space.dims)))
        records["herm_dev"].append(np.abs(rho - dag(rho)).max())
        records["min_eig"].append(np.linalg.eigvalsh((rho + dag(rho)) / 2).min())

    def stage(D, state, out):
        drift_stage(D, state, out)
        for L in jumps:
            out += L @ state @ dag(L)

    n_steps = int(round(t_end / dt))
    rho = np.array(rho0, complex)
    record(0.0, rho)
    if quadratic_model(spec).oscillating:
        rho, _ = dopri5(lambda ts: np.array([drift(t) for t in ts]), stage,
                        rho, n_steps, dt, stride, record)
    else:
        eye = np.eye(dim)
        superop = np.kron(drift(0.0), eye) + np.kron(eye, drift(0.0).conj())
        superop += sum(np.kron(L, L.conj()) for L in jumps)
        count = n_steps // stride
        # expm_multiply estimates norms with onenormest, which draws from
        # NumPy's global RNG: seed it for the call, then restore it
        state = np.random.get_state()
        np.random.seed(0)
        try:
            vecs = expm_multiply(superop, rho.reshape(-1), start=0.0, stop=n_steps * dt,
                                 num=count + 1, endpoint=True)
        finally:
            np.random.set_state(state)
        for k, vec in enumerate(vecs[1:], start=1):
            rho = vec.reshape(dim, dim)
            record(k * stride * dt, rho)
    return {field: np.array(values) for field, values in records.items()}, rho


def warm_frame():
    """A full-model frame with both mechanical baths, so every jump kind runs."""
    return frame_from_collective(1.0, 0.3, 1.2, 0.4, 0.1, 0.1, thermal_baths=((0.01, 0.3), (0.02, 0.1)))


def squeeze_model():
    """Two modes with number, exchange and squeeze terms and a lowering jump on
    mode 1: from a Fock state the flow reaches every entry of both parity blocks."""
    return QuadraticModel(2, ((0.3, 0, 0, False), (0.2, 1, 1, False), (0.1, 0, 1, False), (0.05, 0, 1, True)),
                          (), ((((0, 1.0),), False, 0.1),))


def random_quadratic_model(rng, n_modes):
    """A model of random static, oscillating and squeeze terms with complex
    coefficients, and of random lowering, raising and collective jumps."""
    def coefficient():
        return complex(*rng.normal(size=2))

    def term(squeeze):
        m, n = (int(i) for i in rng.choice(n_modes, 2, replace=False))
        return (coefficient(), m, n, squeeze)

    number = tuple((float(rng.normal()), m, m, False) for m in range(n_modes))
    static = number + (term(False), term(True))
    oscillating = tuple((float(nu), (term(False), term(True))) for nu in np.sort(rng.uniform(0.5, 3.0, 2)))
    jumps = []
    for dagger in (False, True):
        for coeffs in (((int(rng.integers(n_modes)), coefficient()),),
                       tuple((m, coefficient()) for m in range(n_modes))):
            jumps.append((coeffs, dagger, float(rng.uniform(0.1, 1.0))))
    return QuadraticModel(n_modes, static, oscillating, tuple(jumps))


def excitation_sides(gen):
    """The total excitation number N of the row and N' of the column of every
    entry of the block stack of ``gen``, -1 on a ghost."""
    N = np.append(fock._occupation_numbers(gen.space).sum(axis=0), -1)[gen.index]
    return np.broadcast_arrays(N[:, :, None], N[:, None, :])


class TestReachability:
    """The exact path carries only the coordinates of flat S the flow can reach."""

    @staticmethod
    def problem(spec, dims):
        space = FockSpace(dims)
        gen = compile_generator(spec, space)
        return gen, gen.superoperator(), fock.s_form(gen.pack(fock_state(space, (1, 0)))).reshape(-1)

    @pytest.mark.parametrize("dims, carried", [((3, 3), 19), ((4, 4), 44), ((8, 8), 344)])
    def test_effective_model_carries_its_sector(self, dims, carried):
        # every term of the effective model conserves N - N', so from |1, 0>
        # the flow reaches exactly the entries of S with N = N'
        spec = effective_generator(frame_from_collective(1.0, 0.3, 1.9, 0.5, 0.12, 0.08))
        gen, L, s0 = self.problem(spec, dims)
        N, N_ = excitation_sides(gen)
        assert np.array_equal(propagate.reachable(L, s0), np.flatnonzero((N == N_) & (N >= 0)))
        space, dt = gen.space, 0.01 / gen.f_max
        traj = integrate(spec, space, fock_state(space, (1, 0)), 10 * dt, dt, stride=5, truncation_tol=0.5)
        assert traj.stats.carried == carried

    @pytest.mark.parametrize("dims, carried", [((3, 3), 41), ((4, 4), 128), ((8, 8), 2048)])
    def test_squeeze_term_carries_whole_blocks(self, dims, carried):
        # every real entry of both blocks; the ghosts at (3, 3) (blocks of 5
        # and 4 rows) stay out
        gen, L, s0 = self.problem(squeeze_model(), dims)
        N, N_ = excitation_sides(gen)
        keep = propagate.reachable(L, s0)
        assert keep.size == carried
        assert np.array_equal(keep, np.flatnonzero((N >= 0) & (N_ >= 0)))

    @pytest.mark.parametrize("stride", [3, 20])
    def test_carrying_every_coordinate_gives_the_same_records(self, monkeypatch, stride):
        # stride 3 serves 133 records by the dense increment, stride 20 its
        # 20 records by the Taylor map, with 44 entries carried and with all
        # 128
        fr = frame_from_collective(1.0, 0.3, 1.9, 0.5, 0.12, 0.08,
                                   thermal_baths=((0.01, 0.3), (0.02, 0.1)))
        spec, space = shifted_effective_model(fr), FockSpace((4, 4))
        dt = 0.01 / quadratic_model(spec).f_max

        def run():
            return integrate(spec, space, fock_state(space, (1, 0)), 400 * dt, dt, stride=stride,
                             truncation_tol=0.5)

        carried = run()
        with monkeypatch.context() as patch:
            patch.setattr(propagate, "reachable", lambda L, x: np.arange(x.size))
            whole = run()
        assert (carried.stats.carried, whole.stats.carried) == (44, 128)
        assert carried.stats.dense_maps == whole.stats.dense_maps == int(stride == 3)
        assert np.array_equal(carried.t, whole.t)
        for field in RECORD_FIELDS:
            if field != "n_cav":
                assert np.abs(getattr(carried, field) - getattr(whole, field)).max() <= 1e-15, field
        assert np.abs(carried.final_state.matrix - whole.final_state.matrix).max() <= 1e-15

    @pytest.mark.parametrize("whole", [False, True])
    @pytest.mark.parametrize("stride", [3, 20])
    def test_unreached_coordinates_stay_exactly_zero(self, monkeypatch, whole, stride):
        # in every record and in the final S, also when the run carries every
        # coordinate: no stored entry of L leads out of the reachable set, so
        # the others have derivative 0 in floating point too
        spec = effective_generator(frame_from_collective(1.0, 0.3, 1.9, 0.5, 0.12, 0.08))
        gen, L, s0 = self.problem(spec, (4, 4))
        keep = propagate.reachable(L, s0)
        out = np.setdiff1d(np.arange(s0.size), keep)
        if whole:
            monkeypatch.setattr(propagate, "reachable", lambda L, x: np.arange(x.size))
        stacks = []
        _, final, stats = propagate.run(s0, lambda ts, xs: stacks.append(xs.copy()) or {}, 400,
                                        0.01 / gen.f_max, stride, L)
        assert stats.carried == (128 if whole else 44)
        records = np.concatenate(stacks)
        assert records.shape == (stats.records, 128)
        assert not records[:, out].any() and not final[out].any()
        assert np.count_nonzero(final[keep]) > 30

    def test_monitor_stacks_hold_whole_records(self, monkeypatch):
        # the run carries 44 of the 128 entries of S at (4, 4), and its
        # monitor stacks still hold _MONITOR_BLOCK // 128 records: 372 (by
        # the 44) would put the monitors' observables product on OpenBLAS's
        # threaded path
        sizes = []

        def spy(x, monitor, *args):
            def counted(ts, xs):
                sizes.append(ts.size)
                return monitor(ts, xs)
            return propagate.run(x, counted, *args)

        monkeypatch.setattr(fock, "run", spy)
        spec = effective_generator(frame_from_collective(1.0, 0.3, 1.9, 0.5, 0.12, 0.08))
        space = FockSpace((4, 4))
        dt = 0.01 / quadratic_model(spec).f_max
        traj = integrate(spec, space, fock_state(space, (1, 0)), 400 * dt, dt, stride=1, truncation_tol=0.5)
        assert traj.stats.carried == 44
        assert propagate._MONITOR_BLOCK // 128 == 128
        assert sizes == [128, 128, 128, 17]


def whole_block_min_eig(rhos, real):
    """Smallest eigenvalue of each record of a (records, blocks, h, h) stack, by
    one eigvalsh of every block on its real rows."""
    return np.min([np.linalg.eigvalsh(rhos[:, b][:, rows][:, :, rows]).min(-1)
                   for b, rows in enumerate(real)], axis=0)


def random_records(gen, keep, count=6, seed=1):
    """Hermitian block stacks of ``gen``'s layout whose real form S is random on
    the carried entries ``keep`` and 0 elsewhere."""
    h = gen.index.shape[1]
    S = np.zeros((count, gen.index.size * h))
    S[:, keep] = np.random.default_rng(seed).normal(size=(count, keep.size)) / h
    return fock.hermitian_form(S.reshape((count,) + gen.index.shape + (h,)))


class TestSectorMinEig:
    """The exact path's min_eig, taken sector by sector, is the whole-block eigvalsh minimum."""

    @staticmethod
    def sectors(gen, keep, rhos):
        real = gen.index < gen.space.total_dim
        low = fock.sector_min_eig(real, keep)(rhos)
        assert np.abs(low - whole_block_min_eig(rhos, real)).max() <= 1e-15
        return low

    @staticmethod
    def carried(spec, dims, rho0=None):
        space = FockSpace(dims)
        rho0 = fock_state(space, (1, 0)) if rho0 is None else rho0
        gen = compile_generator(spec, space, rho0)
        return gen, propagate.reachable(gen.superoperator(), fock.s_form(gen.pack(rho0)).reshape(-1))

    @pytest.mark.parametrize("dims", [(3, 3), (4, 4), (8, 8)])
    def test_random_states_on_the_carried_support(self, dims):
        gen, keep = self.carried(effective_generator(frame_from_collective(1.0, 0.3, 1.9, 0.5, 0.12, 0.08)), dims)
        self.sectors(gen, keep, random_records(gen, keep))

    def test_one_eigvalsh_per_sector_size(self, monkeypatch):
        # at (4, 4) the sectors N = 0..6 have 1, 2, 3, 4, 3, 2, 1 rows: the
        # 1 x 1 and 2 x 2 ones take no eigvalsh; under a squeeze term each
        # parity block is one sector, of 5 and 4 rows at (3, 3), and of 8
        # and 8 at (4, 4), where no row is a ghost and the stack is read
        # in place
        args = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: args.append(a) or eigvalsh(a))
        spec = effective_generator(frame_from_collective(1.0, 0.3, 1.9, 0.5, 0.12, 0.08))
        gen, keep = self.carried(spec, (4, 4))
        fock.sector_min_eig(gen.index < 16, keep)(random_records(gen, keep))
        assert [a.shape for a in args] == [(6, 2, 3, 3), (6, 1, 4, 4)]
        args.clear()
        gen, keep = self.carried(squeeze_model(), (3, 3))
        fock.sector_min_eig(gen.index < 9, keep)(random_records(gen, keep))
        assert [a.shape for a in args] == [(6, 1, 4, 4), (6, 1, 5, 5)]
        args.clear()
        gen, keep = self.carried(squeeze_model(), (4, 4))
        rhos = random_records(gen, keep)
        fock.sector_min_eig(gen.index < 16, keep)(rhos)
        assert len(args) == 1 and args[0] is rhos

    def test_coherence_between_sectors_merges_them(self):
        # from (|0, 0> + |1, 1>)/sqrt(2) the flow carries N - N' = 0 and +-2,
        # which join the sectors of even N into one, and those of odd N
        space = FockSpace((4, 4))
        psi = fock_state(space, (0, 0)).diagonal() + fock_state(space, (1, 1)).diagonal()
        spec = effective_generator(frame_from_collective(1.0, 0.3, 1.9, 0.5, 0.12, 0.08))
        gen, keep = self.carried(spec, (4, 4), np.outer(psi, psi) / 2)
        N, N_ = excitation_sides(gen)
        assert set((N - N_).reshape(-1)[keep]) == {-2, 0, 2}
        self.sectors(gen, keep, random_records(gen, keep))

    @pytest.mark.parametrize("dims", [(3, 3), (4, 4)])
    def test_squeeze_model_random_states(self, dims):
        gen, keep = self.carried(squeeze_model(), dims)
        self.sectors(gen, keep, random_records(gen, keep))

    def test_ghosts_never_count(self):
        # at (3, 3) the odd block of 4 rows is padded by a ghost; a state
        # positive definite on every real row keeps min_eig above 0 whether
        # the ghost's entries are carried or not
        gen, keep = self.carried(squeeze_model(), (3, 3))
        assert gen.block_sizes == (5, 4)
        rhos = random_records(gen, keep)
        rhos = rhos @ rhos.conj().swapaxes(-1, -2)
        rhos[:, [0, 0, 0, 0, 0, 1, 1, 1, 1], [0, 1, 2, 3, 4, 0, 1, 2, 3], [0, 1, 2, 3, 4, 0, 1, 2, 3]] += 0.1
        for carried in (keep, np.arange(50)):
            assert self.sectors(gen, carried, rhos).min() > 0.09

    def test_an_unreached_row_counts_as_zero(self):
        # with no gain the flow from |1, 0> reaches the sectors N = 0 and 1
        # only; the rows of N = 2, 3, 4 at (3, 3) stay 0
        lossy = QuadraticModel(2, ((0.3, 0, 0, False), (0.2, 1, 1, False), (0.1, 0, 1, False)), (),
                               ((((0, 1.0),), False, 0.1),))
        gen, keep = self.carried(lossy, (3, 3))
        N, _ = excitation_sides(gen)
        assert set(N.reshape(-1)[keep]) == {0, 1}
        rhos = random_records(gen, keep)
        b, i = np.nonzero((N.diagonal(0, 1, 2) >= 0) & (N.diagonal(0, 1, 2) <= 1))
        rhos[:, b, i, i] += 1.0
        assert not self.sectors(gen, keep, rhos).any()

    @pytest.mark.parametrize("block", [
        [[0.3, 0.0], [0.0, 0.7]], [[0.7, 0.0], [0.0, -0.2]], [[0.0, 0.0], [0.0, 0.0]],
        [[0.4, 0.0], [0.0, 0.4]], [[0.4, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]], [[0.2, 0.4j], [-0.4j, 0.8]],
    ], ids=["diagonal", "diagonal-negative", "zero", "degenerate", "degenerate-diagonal", "rank-one"])
    def test_two_by_two_closed_form(self, block):
        rhos = np.array(block)[None, None]
        low = fock.sector_min_eig(np.ones((1, 2), bool), np.arange(4))(rhos)
        assert np.abs(low - np.linalg.eigvalsh(rhos[:, 0]).min(-1)).max() <= 1e-15

    def test_two_by_two_closed_form_on_random_blocks(self):
        rng = np.random.default_rng(3)
        G = rng.normal(size=(200, 1, 2, 2)) + 1j * rng.normal(size=(200, 1, 2, 2))
        rhos = (G + G.conj().swapaxes(-1, -2)) / 4
        low = fock.sector_min_eig(np.ones((1, 2), bool), np.arange(4))(rhos)
        assert np.abs(low - np.linalg.eigvalsh(rhos[:, 0]).min(-1)).max() <= 1e-15


class TestDensityBlocks:
    @pytest.mark.parametrize("dims,sizes", [
        ((4, 3, 3), (18, 18)), ((3, 3, 3), (14, 13)), ((3, 3), (5, 4)), ((4, 4), (8, 8)),
    ])
    def test_parity_sectors(self, dims, sizes):
        space = FockSpace(dims)
        blocks = fock.density_blocks(space, fock_state(space, (1,) + (0,) * (len(dims) - 1)))
        assert tuple(len(rows) for rows in blocks) == sizes
        spec = effective_generator(desk_frame()) if len(dims) == 2 else FullLinearized(desk_frame())
        gen = compile_generator(spec, space)
        assert gen.block_sizes == sizes
        # ghosts pad the smaller block at its end
        assert gen.index.shape == (2, max(sizes))
        assert np.array_equal(np.sort(gen.index[gen.index < space.total_dim]), np.arange(space.total_dim))

    @pytest.mark.parametrize("case", ["random-2", "random-3", "full", "effective"])
    def test_terms_keep_and_jumps_flip_the_parity_of_n(self, case):
        # the density blocks are the parity sectors of N, or the whole space,
        # and nothing checks at compile time that an entry stays inside its
        # block: it rests on this, for every kind of term and jump
        rng = np.random.default_rng(12)
        if case.startswith("random"):
            n_modes = int(case[-1])
            model = random_quadratic_model(rng, n_modes)
            space = FockSpace(tuple(int(d) for d in rng.integers(2, 5, n_modes)))
        else:
            fr = frame_from_collective(1.0, 0.3, 1.9, 0.5, 0.12, 0.08,
                                       thermal_baths=((0.01, 0.3), (0.02, 0.1)))
            spec = FullLinearized(fr) if case == "full" else shifted_effective_model(fr)
            model = quadratic_model(spec)
            space = FockSpace((3,) * model.n_modes)
        n = model.n_modes
        N = np.rint(sum(dag(b) @ b for b in build_operators(space)).diagonal().real)
        same = (N[:, None] - N) % 2 == 0
        # one model per term or jump: its drift is -i H or -L^dag L / 2
        parts = ([QuadraticModel(n, (term,), (), ()) for term in model.static]
                 + [QuadraticModel(n, (), ((nu, (term,)),), ()) for nu, terms in model.oscillating
                    for term in terms]
                 + [QuadraticModel(n, (), (), (jump,)) for jump in model.jumps])
        assert len(parts) == len(model.terms) + len(model.jumps)
        for part in parts:
            drift, jumps = described_generator(part, space)
            D = drift(0.37)
            assert D.any() and not D[~same].any()
            for L in jumps:
                assert L.any() and not L[same].any()

    @pytest.mark.parametrize("dims", [(4, 3, 3), (3, 3, 3)])
    def test_full_model_matches_dense_reference(self, dims):
        spec, space = FullLinearized(warm_frame()), FockSpace(dims)
        rho0 = fock_state(space, (0, 1, 0))
        dt = 0.01 / quadratic_model(spec).f_max
        traj = integrate(spec, space, rho0, 200 * dt, dt, stride=7, truncation_tol=0.05)
        assert traj.stats.blocks == {(4, 3, 3): (18, 18), (3, 3, 3): (14, 13)}[dims]
        # the time-dependent path carries every entry of the block stack
        assert traj.stats.carried == 2 * max(traj.stats.blocks) ** 2
        ref, final = dense_reference(spec, space, rho0, 200 * dt, dt, 7)
        assert np.array_equal(traj.t, ref["t"])
        for field in RECORD_FIELDS:
            assert np.abs(getattr(traj, field) - ref[field]).max() <= 1e-14, field
        assert np.abs(traj.final_state.matrix - final).max() <= 1e-14

    def test_hermiticity_monitor_sees_a_non_hermitian_stage(self, monkeypatch):
        # the time-dependent records reach the monitors unprojected: a jump
        # gather weight that is not conjugate-symmetric makes every stage
        # non-Hermitian, and the records the continuous extension gives
        # between steps carry the defect
        spec, space = FullLinearized(warm_frame()), FockSpace((3, 3, 3))
        dt = 0.01 / quadratic_model(spec).f_max

        def run():
            return integrate(spec, space, fock_state(space, (0, 1, 0)), 200 * dt, dt, stride=7,
                             truncation_tol=0.5)

        healthy = run()
        compile_ = fock.compile_generator

        def faulty(*args):
            gen = compile_(*args)
            weight, source = gen._jump_gathers[0]
            gen._jump_gathers[0] = (weight * (1 + 0.01j), source)
            return gen

        monkeypatch.setattr(fock, "compile_generator", faulty)
        broken = run()
        assert healthy.max_herm_dev <= 1e-15
        assert broken.max_herm_dev > 1e-10

    @pytest.mark.parametrize("dims", [(3, 3), (4, 4)])
    def test_exact_path_matches_dense_reference(self, dims):
        fr = frame_from_collective(1.0, 0.3, 1.9, 0.5, 0.12, 0.08,
                                   thermal_baths=((0.01, 0.3), (0.02, 0.1)))
        spec, space = shifted_effective_model(fr), FockSpace(dims)
        rho0 = fock_state(space, (1, 0))
        dt = 0.01 / quadratic_model(spec).f_max
        traj = integrate(spec, space, rho0, 400 * dt, dt, stride=20, truncation_tol=0.5)
        assert traj.stats.blocks == {(3, 3): (5, 4), (4, 4): (8, 8)}[dims]
        # the records come from hermitian_form, Hermitian bitwise
        assert not traj.herm_dev.any()
        ref, final = dense_reference(spec, space, rho0, 400 * dt, dt, 20)
        assert np.array_equal(traj.t, ref["t"])
        for field in RECORD_FIELDS:
            if field != "n_cav":
                assert np.abs(getattr(traj, field) - ref[field]).max() <= 1e-14, field
        assert np.abs(traj.final_state.matrix - final).max() <= 1e-14

    def test_dense_interval_map_matches_dense_reference(self):
        # 130 records of one interval length at dims (4, 4), whose flat
        # state has 128 entries: the run takes the dense increment
        fr = frame_from_collective(1.0, 0.3, 1.9, 0.5, 0.12, 0.08,
                                   thermal_baths=((0.01, 0.3), (0.02, 0.1)))
        spec, space = shifted_effective_model(fr), FockSpace((4, 4))
        rho0 = fock_state(space, (1, 0))
        dt = 0.01 / quadratic_model(spec).f_max
        traj = integrate(spec, space, rho0, 390 * dt, dt, stride=3, truncation_tol=0.5)
        assert traj.stats.dense_maps == 1 and traj.t.size == 131
        ref, final = dense_reference(spec, space, rho0, 390 * dt, dt, 3)
        assert np.array_equal(traj.t, ref["t"])
        # worst measured: 1.0e-15 (records), 1.4e-16 (final state)
        for field in RECORD_FIELDS:
            if field != "n_cav":
                assert np.abs(getattr(traj, field) - ref[field]).max() <= 1e-14, field
        assert np.abs(traj.final_state.matrix - final).max() <= 1e-14

    def test_dense_interval_map_only_where_it_pays(self, monkeypatch):
        built = []

        def spy(name, exponential):
            def wrapped(A):
                built.append(name)
                return exponential(A)
            return wrapped

        monkeypatch.setattr(propagate, "exponential_map", spy("taylor", propagate.exponential_map))
        monkeypatch.setattr(propagate, "exponential_increment", spy("dense", propagate.exponential_increment))
        fr = frame_from_collective(1.0, 0.3, 1.9, 0.5, 0.12, 0.08)
        spec = effective_generator(fr)
        space = FockSpace((4, 4))
        dt = 0.01 / quadratic_model(spec).f_max
        # 133 records of 3 steps pay for the dense increment of the 44
        # entries the run carries; the last interval of 1 step serves one
        # record and keeps the Taylor map
        traj = integrate(spec, space, fock_state(space, (1, 0)), 400 * dt, dt, stride=3, truncation_tol=0.5)
        assert built == ["dense", "taylor"]
        assert (traj.stats.dense_maps, traj.stats.carried) == (1, 44)

        # the Gaussian long run: one interval serves one record, but the
        # moment superoperator is dense, so its increment on the 11
        # carried entries is taken
        built.clear()
        dd = gaussian.drift_diffusion_from_generator(spec)
        relax = -np.linalg.eigvals(dd.drift).real.max()
        gtraj = gaussian.evolve_covariance(dd, gaussian.fock_moments(2, (1, 0)), 10 / relax,
                                           0.01 / dd.f_max, stride=10**9)
        assert built == ["dense"]
        assert gtraj.t.size == 2 and gtraj.stats.dense_maps == 1

        class Declined(Exception):
            pass

        def decline(name):
            def refuse(A):
                built.append(name)
                raise Declined
            return refuse

        # neither map is built from here on
        monkeypatch.setattr(propagate, "exponential_map", decline("taylor"))
        monkeypatch.setattr(propagate, "exponential_increment", decline("dense"))

        def first_map(spec, space, n_steps):
            built.clear()
            dt = 0.01 / quadratic_model(spec).f_max
            with pytest.raises(Declined):
                integrate(spec, space, fock_state(space, (1, 0)), n_steps * dt, dt, stride=1,
                          truncation_tol=0.5)
            return built

        # at dims (8, 8) the run carries 344 of the 2,048 entries of S, below
        # _DENSE_MAP_ROWS: 344 records pay for the dense map, 343 do not
        space = FockSpace((8, 8))
        assert first_map(spec, space, 344) == ["dense"]
        assert first_map(spec, space, 343) == ["taylor"]
        # a squeeze term reaches all 2,048: 2,048 records would pay for a
        # dense map, but it would have 2,048 rows, above _DENSE_MAP_ROWS (a
        # 32 MiB matrix), so the run asks for the Taylor map
        assert first_map(squeeze_model(), space, 2048) == ["taylor"]

    def test_ghost_rows_stay_out_of_the_monitors(self):
        # a full-rank state at (3, 3, 3), where the odd block carries a
        # ghost row: a ghost eigenvalue 0 would show in min_eig
        spec, space = FullLinearized(warm_frame()), FockSpace((3, 3, 3))
        rho0 = np.eye(27, dtype=complex) / 27
        dt = 0.01 / quadratic_model(spec).f_max
        traj = integrate(spec, space, rho0, 40 * dt, dt, stride=10, truncation_tol=0.5)
        ref, final = dense_reference(spec, space, rho0, 40 * dt, dt, 10)
        assert traj.stats.blocks == (14, 13)
        assert traj.min_eig.min() > 0.01
        for field in RECORD_FIELDS:
            assert np.abs(getattr(traj, field) - ref[field]).max() <= 1e-14, field
        assert np.abs(traj.final_state.matrix - final).max() <= 1e-14

    def test_off_parity_coherence_is_carried_as_one_block(self):
        spec, space = FullLinearized(warm_frame()), FockSpace((4, 3, 3))
        psi = (fock_state(space, (0, 1, 0)).diagonal() + fock_state(space, (0, 0, 0)).diagonal()) / math.sqrt(2)
        rho0 = np.outer(psi, psi.conj())
        dt = 0.01 / quadratic_model(spec).f_max
        traj = integrate(spec, space, rho0, 200 * dt, dt, stride=7, truncation_tol=0.05)
        assert traj.stats.blocks == (36,)
        ref, final = dense_reference(spec, space, rho0, 200 * dt, dt, 7)
        assert np.array_equal(traj.t, ref["t"])
        for field in RECORD_FIELDS:
            assert np.abs(getattr(traj, field) - ref[field]).max() <= 1e-13, field
        assert np.abs(traj.final_state.matrix - final).max() <= 1e-13
        # the coherence survives: the dense final state is not block-diagonal
        assert np.abs(traj.final_state.matrix[0, 1:]).max() > 1e-3


class TestHeatingRates:
    """Vacuum heating of the full model pins the bath assignment: the
    mode-1 bath sits at 2 omega_1 - omega_bar, with down/up rates
    G^2 kappa / (kappa^2/4 + (delta_bar -+ x)^2)."""

    def test_mode_resolved_heating_slopes(self):
        ob, dw, kappa, G = 1.0, 0.3, 0.4, 0.02
        db = -(ob + dw)  # resonant with the mode-1 up process
        fr = frame_from_collective(ob, dw, db, kappa, G, G)
        spec = FullLinearized(fr)
        space = FockSpace((3, 4, 4))
        f_max = quadratic_model(spec).f_max
        traj = integrate(spec, space, fock_state(space, (0, 0, 0)), 30.0,
                         0.01 / f_max, stride=200, truncation_tol=0.05)

        def lor(c):
            return 1.0 / (kappa**2 / 4 + c**2)

        up1 = G * G * kappa * (lor(db + ob) + lor(db + ob + dw))
        up2 = G * G * kappa * (lor(db + ob) + lor(db + ob - dw))
        win = traj.t > 8.0
        slope1 = np.polyfit(traj.t[win], traj.n1[win], 1)[0]
        slope2 = np.polyfit(traj.t[win], traj.n2[win], 1)[0]
        # mode 1 is the resonantly amplified one; window-averaged slopes
        # sit slightly above the instantaneous rates
        assert 1.0 < slope1 / up1 < 1.45
        assert 1.0 < slope2 / up2 < 1.45
        assert slope1 / slope2 == pytest.approx(up1 / up2, rel=0.25)


def _fit_fixture(t, n2):
    return lambda: (t.copy(), n2.copy())


_t700, _t100 = np.linspace(0, 700, 1500), np.linspace(0, 100, 2001)
# n2 fixtures of the Rabi fit: an exact model with its optimum inside the
# bounds; a 100-unit window short of the first swap with a fast sideband
# ripple and a heating drift, like the full-model transfer runs; and such a
# window whose bounded optimum holds the amplitude at its 1.005 cap and the
# decay at its floor 0, as the horizon-100 desk-frame run does
FIT_FIXTURES = {
    "interior optimum": _fit_fixture(_t700, 0.97 * np.sin(1.1e-3 * _t700) ** 2 * np.exp(-2e-4 * _t700) + 0.002),
    "short window": _fit_fixture(_t100, 0.9 * np.sin(1.05e-3 * _t100) ** 2 * np.exp(-2e-3 * _t100) + 8e-4
                                 + 2e-4 * np.sin(0.2 * _t100) ** 2 + 2e-6 * _t100),
    "held at the amplitude cap and the decay floor": _fit_fixture(
        _t100, 1.3 * np.sin(9.2e-4 * _t100) ** 2 * np.exp(1e-3 * _t100) + 8e-4
        + 2e-4 * np.sin(0.2 * _t100) ** 2 + 1.2e-5 * _t100),
}


class TestTransferExperiment:
    def test_effective_model_recovers_coupling(self):
        fr = desk_frame()
        J = abs(exchange_coupling(fr))
        protocol = TransferProtocol(dims=(4, 4, 4), t_end=1500.0)
        result = excitation_transfer_experiment(fr, protocol, model="effective")
        assert abs(result.exchange_rate - J) / J < 0.01

    def test_decoupled_mode_stays_empty(self):
        # weak probe coupling keeps even the virtual ripple below the bound
        fr = frame_from_collective(1.0, 0.2, 5.0, 0.1, 1e-12, 0.001)
        protocol = TransferProtocol(dims=(3, 3, 2), t_end=50.0)
        spec = FullLinearized(fr)
        space = FockSpace(protocol.dims)
        f_max = quadratic_model(spec).f_max
        traj = integrate(spec, space, fock_state(space, (0, 1, 0)), protocol.t_end,
                         0.01 / f_max, stride=200)
        assert traj.n2.max() < 1e-6

    def test_fit_failure_raises_fit_error(self):
        t = np.linspace(0, 10, 50)
        with pytest.raises(FitError):
            fit_damped_rabi(t, np.zeros_like(t))

    def test_fitter_on_synthetic_data(self):
        t = np.linspace(0, 700, 1500)
        omega, gamma = 1.1e-3, 2e-4
        n2 = 0.97 * np.sin(omega * t) ** 2 * np.exp(-gamma * t) + 0.002
        amp, w, g, c = fit_damped_rabi(t, n2)
        assert w == pytest.approx(omega, rel=2e-3)
        assert amp == pytest.approx(0.97, rel=0.05)

    def test_fit_jacobian_matches_central_differences(self):
        t = np.linspace(0, 100, 201)
        params = np.array([0.93, 1.05e-3, 2e-3, 8e-4, 2e-6])
        want = np.empty((t.size, params.size))
        for j in range(params.size):
            step = 1e-6 * abs(params[j])
            up, down = params.copy(), params.copy()
            up[j] += step
            down[j] -= step
            want[:, j] = (fock._rabi_model(t, *up) - fock._rabi_model(t, *down)) / (2 * step)
        got = fock._rabi_jacobian(t, *params)
        # worst measured, relative to the column's largest entry: 3.9e-9 (the slope)
        assert np.all(np.abs(got - want).max(axis=0) <= 1e-7 * np.abs(want).max(axis=0))

    def test_fit_is_reproducible_under_roundoff(self):
        # a 100-unit window short of the first swap, with a fast sideband
        # ripple and a heating drift, like the full-model transfer runs
        t = np.linspace(0, 100, 2001)
        n2 = (0.9 * np.sin(1.05e-3 * t) ** 2 * np.exp(-2e-3 * t) + 8e-4
              + 2e-4 * np.sin(0.2 * t) ** 2 + 2e-6 * t)
        noise = 1e-16 * np.random.default_rng(0).standard_normal(t.size)
        w = fit_damped_rabi(t, n2)[1]
        assert fit_damped_rabi(t, n2 + noise)[1] == pytest.approx(w, rel=1e-9, abs=0)

    @pytest.mark.parametrize("fixture", sorted(FIT_FIXTURES))
    def test_fit_matches_scipy_trf(self, fixture, monkeypatch):
        # scipy's trust-region reflective solver is the reference only: the
        # fit hands the same problem to it, and its rate must agree
        from scipy.optimize import least_squares

        t, n2 = FIT_FIXTURES[fixture]()
        problems = []
        solver = fock._least_squares_in_box

        def recorded(*problem):
            problems.append(problem)
            return solver(*problem)

        monkeypatch.setattr(fock, "_least_squares_in_box", recorded)
        amplitude, omega, gamma, _ = fit_damped_rabi(t, n2)
        model, jacobian, times, y, p0, lower, upper = problems[0]
        ref = least_squares(lambda p: model(times, *p) - y, p0, jac=lambda p: jacobian(times, *p),
                            bounds=(lower, upper), method="trf", ftol=1e-15, xtol=1e-15, gtol=1e-15,
                            max_nfev=20000)
        assert ref.success
        # worst measured: 4.3e-12 (the bound-held fixture)
        assert omega == pytest.approx(ref.x[1], rel=1e-9, abs=0)
        if fixture == "held at the amplitude cap and the decay floor":
            assert (amplitude, gamma) == (1.005, 0.0)

    @pytest.mark.parametrize("where", ["t", "n2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_fit_rejects_non_finite_data(self, where, value):
        t, n2 = FIT_FIXTURES["interior optimum"]()
        (t if where == "t" else n2)[700] = value
        with pytest.raises(FitError, match="finite"):
            fit_damped_rabi(t, n2)

    def test_fit_raises_at_its_evaluation_cap(self, monkeypatch):
        t, n2 = FIT_FIXTURES["interior optimum"]()
        monkeypatch.setattr(fock, "_FIT_EVALUATIONS", 5)
        with pytest.raises(FitError, match="no convergence in 5 model evaluations"):
            fit_damped_rabi(t, n2)

    def test_time_dependent_path_and_fit_load_no_scipy(self):
        # a short full-model run takes the time-dependent path.  Tier-1
        # cost: about 0.2 s, mostly the fresh interpreter's imports
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from cavmech import fock, frame_from_collective
            from cavmech.quadratic import FullLinearized, quadratic_model
            spec = FullLinearized(frame_from_collective(1.0, 0.2, 5.0, 0.1, 0.05, 0.05))
            space = fock.FockSpace((3, 2, 2))
            traj = fock.integrate(spec, space, fock.fock_state(space, (0, 1, 0)), 1.0,
                                  0.01 / quadratic_model(spec).f_max, truncation_tol=1.0)
            assert traj.stats.stage_evaluations > 0
            t = np.linspace(0, 700, 1500)
            fock.fit_damped_rabi(t, 0.97 * np.sin(1.1e-3 * t) ** 2 * np.exp(-2e-4 * t) + 0.002)
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """)
        src = str(Path(fock.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"

    def test_exact_paths_and_steady_state_load_no_scipy(self):
        # an effective-model run at dims (4, 4) takes the exact path: 52
        # records by the dense increment, the last by the sparse Taylor sum;
        # with a constant-drift moment run and the Lyapunov steady state, no
        # engine path imports scipy
        code = textwrap.dedent("""
            import sys
            from cavmech import fock, frame_from_collective, gaussian
            from cavmech.quadratic import effective_generator, quadratic_model
            spec = effective_generator(frame_from_collective(1.0, 0.2, 1.0, 0.3, 0.15, 0.15))
            space = fock.FockSpace((4, 4))
            dt = 0.01 / quadratic_model(spec).f_max
            traj = fock.integrate(spec, space, fock.fock_state(space, (1, 0)), 105 * dt, dt, stride=2)
            assert traj.stats.dense_maps == 1 and traj.stats.carried == 44
            dd = gaussian.drift_diffusion_from_generator(spec)
            gtraj = gaussian.evolve_covariance(dd, gaussian.fock_moments(2, (1, 0)), 105 * dt, dt, stride=2)
            assert gtraj.stats.dense_maps == 2
            gaussian.steady_state(dd)
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """)
        src = str(Path(fock.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="model must be 'full' or 'effective'"):
            excitation_transfer_experiment(desk_frame(), TransferProtocol(), model="hybrid")

    @pytest.mark.parametrize("dims", [(9, 4, 3, 3), (4, 3), ()])
    def test_protocol_needs_three_dims(self, dims):
        # a fourth leading dim would be dropped, not run
        with pytest.raises(ValueError, match=rf"need 3 entries \(cavity, mode 1, mode 2\), got {len(dims)}"):
            TransferProtocol(dims=dims)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf])
    def test_non_finite_t_end_rejected(self, t_end):
        protocol = TransferProtocol(t_end=t_end)
        with pytest.raises(ValueError, match="t_end must be finite"):
            excitation_transfer_experiment(desk_frame(), protocol, model="full")


class TestDensityState:
    @staticmethod
    def start(rho):
        """Integrate the effective desk model briefly from ``rho`` on dims (2, 2)."""
        return integrate(effective_generator(desk_frame()), FockSpace((2, 2)), rho, 1.0, 0.1,
                         truncation_tol=1.0)

    def test_validation_catches_defects(self):
        assert self.start(np.diag([0.6, 0.4, 0.0, 0.0]).astype(complex)).max_trace_dev < 1e-12
        with pytest.raises(ValueError, match="^density matrix trace is not 1$"):
            self.start(np.diag([0.9, 0.4, 0.0, 0.0]).astype(complex))
        with pytest.raises(ValueError, match="^density matrix trace is not 1$"):
            self.start(np.diag([0.6 + 1e-6j, 0.4, 0.0, 0.0]))
        bad = np.zeros((4, 4), complex)
        bad[:2, :2] = [[0.5, 0.3], [0.1, 0.5]]
        with pytest.raises(ValueError, match="^density matrix is not Hermitian$"):
            self.start(bad)
        neg = np.diag([1.4, -0.4, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="^density matrix has a significantly negative eigenvalue$"):
            self.start(neg)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_state_rejected(self, value):
        # a NaN entry passed the trace and Hermiticity checks and reached
        # eigvalsh, which raised LinAlgError
        space = FockSpace((2, 2))
        rho = fock_state(space, (1, 0))
        rho[0, 1] = rho[1, 0] = value
        with pytest.raises(ValueError, match="^density matrix has non-finite entries$"):
            self.start(rho)
