import inspect
import math
import re

import numpy as np
import pytest

from cavmech import elimination, frame_from_collective
from cavmech.effective import effective_params
from cavmech.elimination import (
    StructureError,
    apply_terms,
    build_coefficient_table,
    reduce_to_effective,
)
from cavmech.fock import FockSpace, build_operators


def frame(**kw):
    defaults = dict(omega_bar=1.0, delta_omega=0.2, delta_bar=1.7, kappa=0.4,
                    G_1=0.1, G_2=0.07)
    defaults.update(kw)
    return frame_from_collective(
        defaults["omega_bar"], defaults["delta_omega"], defaults["delta_bar"],
        defaults["kappa"], defaults["G_1"], defaults["G_2"])


def rel(a, b):
    if math.isnan(a) and math.isnan(b):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestTableConstruction:
    def test_term_census(self):
        table = build_coefficient_table(frame())
        total = len(table.resonant_terms) + len(table.dropped_terms)
        assert total == 256
        assert len(table.single_mode_terms) == 32
        assert len(table.cross_terms) == 16

    def test_requires_dissipative_cavity(self):
        with pytest.raises(ValueError):
            build_coefficient_table(frame(kappa=0.0))

    def test_reference_fraction(self):
        # arrange delta_1 = 1 and omega_1 = 1 so one denominator is 0.1 - 2i
        fr = frame(omega_bar=0.9, delta_omega=0.2, delta_bar=0.9, kappa=0.2,
                   G_1=1.0, G_2=1.0)
        assert fr.delta_1 == pytest.approx(1.0)
        assert fr.omega_1 == pytest.approx(1.0)
        expected = 1.0 / (0.1 - 2.0j)
        assert expected == pytest.approx(0.024937655860349127 + 0.49875311720698257j)
        table = build_coefficient_table(fr)
        matches = [t for t in table.resonant_terms
                   if abs(t.coefficient - expected) < 1e-12]
        assert matches, "expected the conjugate-denominator fraction among resonant terms"

    def test_cross_resonances_share_zero_frequency(self):
        # the two beamsplitter pathways land on exactly zero residual frequency
        table = build_coefficient_table(frame())
        cross_sources = {t.source for t in table.cross_terms}
        assert any("Md" in s for s in cross_sources)
        for term in table.resonant_terms:
            assert term.frequency == (0, 0, 0)
            assert term.frequency_value(table.frame) == pytest.approx(0.0, abs=1e-12)

    def test_dropped_terms_oscillate(self):
        fr = frame()
        table = build_coefficient_table(fr)
        assert len(table.dropped_terms) == 208
        for term in table.dropped_terms:
            assert term.frequency != (0, 0, 0)
            assert abs(term.frequency_value(fr)) > 1e-6


class TestReduction:
    def test_matches_closed_forms(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            fr = frame(
                delta_omega=float(rng.uniform(0.05, 1.9)),
                delta_bar=float(rng.uniform(-10, 10)),
                kappa=float(np.exp(rng.uniform(np.log(0.01), np.log(10)))),
                G_1=float(np.exp(rng.uniform(np.log(0.01), np.log(0.2)))),
                G_2=float(np.exp(rng.uniform(np.log(0.01), np.log(0.2)))),
            )
            closed = effective_params(fr)
            reduced = reduce_to_effective(build_coefficient_table(fr)).params
            assert rel(closed.exchange_coupling, reduced.exchange_coupling) < 1e-9
            assert rel(closed.gamma_total, reduced.gamma_total) < 1e-9
            for bath in ("1", "2", "collective"):
                assert rel(closed.rate_table[bath][0], reduced.rate_table[bath][0]) < 1e-9
                assert rel(closed.rate_table[bath][1], reduced.rate_table[bath][1]) < 1e-9

    def test_small_decay_coupling_extraction(self):
        fr = frame(kappa=1e-6, delta_bar=0.5, omega_bar=1.0)
        closed = effective_params(fr)
        reduced = reduce_to_effective(build_coefficient_table(fr)).params
        assert rel(closed.exchange_coupling, reduced.exchange_coupling) < 1e-9

    def test_decoupled_limit(self):
        fr = frame(G_1=1e-9, G_2=0.1)
        reduced = reduce_to_effective(build_coefficient_table(fr))
        p = reduced.params
        scale = p.rate_table["2"][0]
        assert abs(p.rate_table["collective"][0]) < 1e-7 * scale
        assert abs(p.exchange_coupling) < 1e-7 * scale
        closed = effective_params(fr)
        assert rel(closed.gamma_2, p.gamma_2) < 1e-9
        assert rel(closed.nbar_2, p.nbar_2) < 1e-9

    def test_frequency_shift_sign_relation(self):
        fr = frame()
        reduced = reduce_to_effective(build_coefficient_table(fr))
        assert reduced.frequency_shifts[0] == pytest.approx(-fr.spring_1, rel=1e-12)
        assert reduced.frequency_shifts[1] == pytest.approx(-fr.spring_2, rel=1e-12)

    def test_validity_ratios_recorded(self):
        reduced = reduce_to_effective(build_coefficient_table(frame()))
        assert set(reduced.validity_ratios) == {"G_over_kappa", "G_over_sideband_gap"}
        assert reduced.validity_ratios["G_over_kappa"] > 0

    def test_corrupted_term_is_detected(self):
        table = build_coefficient_table(frame())
        table.cross_terms[3].coefficient *= -1.0
        with pytest.raises(StructureError):
            reduce_to_effective(table)

    def test_oracle_splits_the_shared_bath_itself(self):
        # the oracle must not borrow the collective-mode closed form it checks
        assert "collective_mode_coeffs" not in inspect.getsource(elimination)

    def test_corrupted_single_mode_term_is_detected(self):
        table = build_coefficient_table(frame())
        table.single_mode_terms[0].coefficient *= 1.5
        with pytest.raises(StructureError):
            reduce_to_effective(table)


def draws(n, seed):
    """An array frame of ``n`` random draws, and the same draws as scalar frames."""
    rng = np.random.default_rng(seed)
    cols = dict(
        delta_omega=rng.uniform(0.05, 1.9, n),
        delta_bar=rng.uniform(-10, 10, n),
        kappa=np.exp(rng.uniform(np.log(0.01), np.log(10), n)),
        G_1=np.exp(rng.uniform(np.log(0.01), np.log(0.2), n)),
        G_2=np.exp(rng.uniform(np.log(0.01), np.log(0.2), n)),
    )
    scalars = [frame(**{k: float(v[i]) for k, v in cols.items()}) for i in range(n)]
    return frame(**cols), scalars


_TAG = re.compile(r"j(\d)k\d:X[+-]\.(M|Md)\(j(\d)k(\d)\):(XM|MX|XMd|MdX)")


def per_term_coefficient(fr, term):
    """The coefficient of one term, from its tag and inner operator alone."""
    j, kind, j2, k2, placement = _TAG.fullmatch(term.source).groups()
    j, j2, k2 = int(j), int(j2), int(k2)
    inner = term.left[-1] if kind == "M" else term.right[0]
    assert inner[0] == j2
    G = {1: fr.G_1, 2: fr.G_2}
    delta = {1: fr.delta_1, 2: fr.delta_2}[k2]
    omega = {1: fr.omega_1, 2: fr.omega_2}[j2]
    # the plus component pairs b^dag with M and b with Md
    detuning = delta + omega if inner[1] == (kind == "M") else delta - omega
    if kind == "M":
        c = -G[j] * G[j2] / (fr.kappa / 2 + 1j * detuning)
    else:
        c = G[j] * G[j2] / (fr.kappa / 2 - 1j * detuning)
    return c if placement in ("XM", "XMd") else -c


class TestSharedCoefficients:
    @pytest.mark.parametrize("array", [True, False])
    def test_every_coefficient_is_its_own_formula(self, array):
        fr = draws(40, 37)[0] if array else frame()
        table = build_coefficient_table(fr)
        terms = table.resonant_terms + table.dropped_terms
        assert len(terms) == 256
        for term in terms:
            want = per_term_coefficient(fr, term)
            assert np.shape(term.coefficient) == np.shape(want)
            assert np.asarray(term.coefficient).tobytes() == np.asarray(want).tobytes(), term.source

    def test_shared_coefficients_are_read_only(self):
        table = build_coefficient_table(draws(20, 31)[0])
        terms = table.resonant_terms + table.dropped_terms
        assert len({id(t.coefficient) for t in terms}) == 64
        before = [t.coefficient.copy() for t in terms]
        for term in terms:
            with pytest.raises(ValueError, match="read-only"):
                term.coefficient[0] *= 2.0
        assert all(np.array_equal(t.coefficient, b) for t, b in zip(terms, before))


class TestArrayFrames:
    def test_array_table_reduces_like_scalar_tables(self):
        array_frame, scalar_frames = draws(50, 29)
        reduced = reduce_to_effective(build_coefficient_table(array_frame))
        for i, fr in enumerate(scalar_frames):
            one = reduce_to_effective(build_coefficient_table(fr))
            assert rel(one.params.exchange_coupling, reduced.params.exchange_coupling[i]) < 1e-12
            assert rel(one.params.gamma_total, reduced.params.gamma_total[i]) < 1e-12
            for bath in ("1", "2", "collective"):
                for k in range(2):
                    assert rel(one.params.rate_table[bath][k],
                               reduced.params.rate_table[bath][k][i]) < 1e-12
            for k in range(2):
                assert rel(one.frequency_shifts[k], reduced.frequency_shifts[k][i]) < 1e-12
            assert np.abs(one.down_matrix - reduced.down_matrix[..., i]).max() < 1e-12 * np.abs(
                one.down_matrix).max()

    def test_scalar_frame_gives_scalars(self):
        reduced = reduce_to_effective(build_coefficient_table(frame()))
        p = reduced.params
        numbers = [p.exchange_coupling, p.gamma_total, p.xi, p.nbar_1, *reduced.frequency_shifts,
                   *reduced.validity_ratios.values(), *p.rate_table["collective"]]
        assert all(isinstance(x, float) for x in numbers)
        assert reduced.down_matrix.shape == (2, 2)

    @pytest.mark.parametrize("terms, index, factor", [("cross_terms", 3, -1.0),
                                                      ("single_mode_terms", 0, 1.5)])
    def test_corrupted_draw_is_named(self, terms, index, factor):
        table = build_coefficient_table(draws(20, 31)[0])
        term = getattr(table, terms)[index]
        term.coefficient = term.coefficient.copy()   # the table's own array is shared, read-only
        term.coefficient[13] *= factor
        with pytest.raises(StructureError, match=r"at draws \[13\] \(1 of 20\)"):
            reduce_to_effective(table)

    def test_every_draw_needs_a_dissipative_cavity(self):
        fr = frame(kappa=np.array([0.4, 0.0, 0.2]), delta_bar=np.array([1.7, 1.0, -2.0]))
        with pytest.raises(ValueError, match="kappa > 0"):
            build_coefficient_table(fr)


class TestGeneratorStructure:
    def test_trace_and_hermiticity_preservation(self):
        fr = frame()
        table = build_coefficient_table(fr)
        space = FockSpace((4, 4))
        b_ops = build_operators(space)
        rng = np.random.default_rng(23)
        for _ in range(20):
            v = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
            rho = v @ v.conj().T
            rho /= np.trace(rho)
            drho = apply_terms(table.resonant_terms, rho, b_ops)
            scale = np.abs(drho).max()
            assert abs(np.trace(drho)) < 1e-12 * max(scale, 1e-300) * 16
            assert np.abs(drho - drho.conj().T).max() < 1e-12 * max(scale, 1e-300)
