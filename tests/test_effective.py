import math

import numpy as np
import pytest

from cavmech import frame_from_collective
from cavmech.effective import (
    OutOfValidityError,
    bath_centers,
    collective_mode_coeffs,
    coupling_nulls,
    effective_params,
    exchange_coupling,
    exchange_pathway_sum,
    interaction_regime,
    net_rate_closed,
    rate_pairs,
    total_noise,
)


def frame(omega_bar=1.0, delta_omega=0.1, delta_bar=1.0, kappa=0.2, G_1=1.0, G_2=1.0):
    return frame_from_collective(omega_bar, delta_omega, delta_bar, kappa, G_1, G_2)


def nbar_closed(x, delta_bar, kappa):
    """Effective occupation as the explicit four-term expression, the reference form."""
    return kappa * kappa / (16 * delta_bar * x) + delta_bar / (4 * x) + x / (4 * delta_bar) - 0.5


def pairs(fr, delta_bar=None):
    """The frame's rate pairs, optionally at other detunings."""
    db = fr.delta_bar if delta_bar is None else delta_bar
    return rate_pairs(db, fr.omega_bar, fr.delta_omega, fr.kappa, fr.G_1, fr.G_2)


def pathway_coupling(fr):
    return fr.G_1 * fr.G_2 * exchange_pathway_sum(fr.delta_bar, fr.omega_bar, fr.kappa)


def random_frames(n, seed=42):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        out.append(frame(
            delta_omega=float(rng.uniform(0.05, 1.9)),
            delta_bar=float(rng.uniform(-10, 10)),
            kappa=float(np.exp(rng.uniform(np.log(0.01), np.log(10)))),
            G_1=float(np.exp(rng.uniform(np.log(0.01), np.log(0.2)))),
            G_2=float(np.exp(rng.uniform(np.log(0.01), np.log(0.2)))),
        ))
    return out


class TestExchangeCoupling:
    def test_vanishes_on_resonance(self):
        for kappa in (0.05, 0.5, 2.0, 10.0):
            assert exchange_coupling(frame(delta_bar=0.0, kappa=kappa)) == pytest.approx(0.0, abs=1e-15)

    def test_reference_value(self):
        # -[(0.5-1)/(0.01+0.25) + (0.5+1)/(0.01+2.25)] with unit couplings
        fr = frame(delta_bar=0.5, kappa=0.2)
        expected = 1.259360108917631
        assert exchange_coupling(fr) == pytest.approx(expected, rel=1e-12)
        assert pathway_coupling(fr) == pytest.approx(expected, rel=1e-12)

    def test_partial_fraction_identity(self):
        for fr in random_frames(500):
            a = exchange_coupling(fr)
            b = pathway_coupling(fr)
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-300)

    def test_odd_in_detuning(self):
        for db in (0.3, 1.7, 6.0):
            plus = exchange_coupling(frame(delta_bar=db))
            minus = exchange_coupling(frame(delta_bar=-db))
            assert minus == pytest.approx(-plus, rel=1e-12)

    def test_lossless_value_and_poles(self):
        fr = frame(delta_bar=0.5, kappa=0.0)
        assert exchange_coupling(fr) == pytest.approx(2 * 0.5 / (1 - 0.25), rel=1e-12)
        with pytest.raises(OutOfValidityError):
            exchange_coupling(frame(delta_bar=1.0, kappa=0.0))


class TestRatePairs:
    def test_lossless_cavity_gives_no_dissipation(self):
        # delta_bar = omega_bar here: effective_params raises at this pole
        # of J, but the rate pairs stay defined
        table = pairs(frame(kappa=0.0))
        for down, up in table.values():
            assert down - up == 0.0
        assert total_noise(table) == 0.0
        assert effective_params(frame(kappa=0.0, delta_bar=0.4)).gamma_total == 0.0

    def test_single_mode_up_rate_value(self):
        # mode 1 bath center x_1 = omega_bar + delta_omega = 1.1
        fr = frame()
        down, up = pairs(fr)["1"]
        assert up == pytest.approx(0.2 / (0.01 + 2.1**2), rel=1e-12)
        assert down == pytest.approx(0.2 / (0.01 + (1 - 1.1) ** 2), rel=1e-12)
        p = effective_params(fr)
        assert p.gamma_1 * p.nbar_1 == pytest.approx(up, rel=1e-12)
        assert p.gamma_1 * (p.nbar_1 + 1) == pytest.approx(down, rel=1e-12)

    def test_collective_product_value(self):
        fr = frame()
        down, up = pairs(fr)["collective"]
        assert up == pytest.approx(0.2 / (0.01 + 4.0), rel=1e-12)
        p = effective_params(fr)
        assert p.gamma_collective * p.nbar_collective == pytest.approx(up, rel=1e-12)

    def test_collective_rate_odd_in_detuning(self):
        assert effective_params(frame(delta_bar=0.0)).gamma_collective == pytest.approx(0.0, abs=1e-15)

    def test_undefined_occupation_at_zero_detuning(self):
        fr = frame(delta_bar=0.0)
        p = effective_params(fr)
        assert p.gamma_1 == pytest.approx(0.0, abs=1e-18)
        assert math.isnan(p.nbar_1)
        down, up = pairs(fr)["1"]
        assert down > 0 and up > 0

    def test_closed_form_cross_checks(self):
        for fr in random_frames(300, seed=7):
            p = effective_params(fr)
            x1, x2 = bath_centers(fr)
            single = ((p.gamma_1, p.nbar_1, x1, fr.G_1), (p.gamma_2, p.nbar_2, x2, fr.G_2))
            for gamma, nbar, x, G in single:
                closed = net_rate_closed(G * G, x, fr.delta_bar, fr.kappa)
                assert gamma == pytest.approx(closed, rel=1e-10, abs=1e-300)
                if not math.isnan(nbar):
                    assert nbar == pytest.approx(
                        nbar_closed(x, fr.delta_bar, fr.kappa), rel=1e-8)
            assert p.gamma_collective == pytest.approx(
                net_rate_closed(fr.G_1 * fr.G_2, fr.omega_bar, fr.delta_bar, fr.kappa),
                rel=1e-10, abs=1e-300)

    def test_occupation_expression_limits(self):
        # lossless, detuning on the bath center: occupation 1/4 + 1/4 - 1/2 = 0
        assert nbar_closed(1.1, 1.1, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert nbar_closed(1.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_elementwise_in_detuning(self):
        # an array of detunings gives, entry by entry, the scalar pairs
        # of each frame bit for bit
        fr = frame(delta_bar=0.0, kappa=0.3, G_1=0.07, G_2=0.12)
        deltas = np.linspace(-4.0, 4.0, 33)
        table = pairs(fr, deltas)
        for i, db in enumerate(deltas):
            scalar = pairs(fr, float(db))
            for name in ("1", "2", "collective"):
                assert (table[name][0][i], table[name][1][i]) == scalar[name]
            assert total_noise(table)[i] == total_noise(scalar)


    def test_elementwise_over_an_array_frame(self):
        # the oracle check compares a frame of arrays draw by draw; the
        # rate pairs square by products, so scalars and arrays agree bit for bit
        scalars = random_frames(20, seed=7)
        fr = frame(**{name: np.array([getattr(f, name) for f in scalars])
                      for name in ("delta_omega", "delta_bar", "kappa", "G_1", "G_2")})
        table, coupling = pairs(fr), exchange_coupling(fr)
        for i, one in enumerate(scalars):
            scalar = pairs(one)
            for name in ("1", "2", "collective"):
                assert (table[name][0][i], table[name][1][i]) == scalar[name]
            assert coupling[i] == pytest.approx(exchange_coupling(one), rel=1e-13)

    def test_array_of_decays_lossless_everywhere_or_nowhere(self):
        fr = frame(delta_bar=np.array([0.4, 0.6]), kappa=np.array([0.0, 0.0]))
        assert all(pair == (0.0, 0.0) for pair in pairs(fr).values())
        with pytest.raises(ValueError, match="everywhere or nowhere"):
            pairs(frame(delta_bar=np.array([0.4, 0.6]), kappa=np.array([0.0, 0.2])))
        with pytest.raises(OutOfValidityError):
            exchange_coupling(frame(delta_bar=np.array([0.5, 1.0]), kappa=0.0))


class TestTotalDecoherence:
    def test_reference_value_at_zero_detuning(self):
        fr = frame(delta_bar=0.0)
        expected = 0.2 * (1 / (0.01 + 0.81) + 1 / (0.01 + 1.21) + 2 / (0.01 + 1.0))
        assert effective_params(fr).gamma_total == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.8038764692142945, rel=1e-12)

    def test_far_detuned_asymptote(self):
        fr = frame(delta_bar=2.0e3, kappa=0.2)
        # equal couplings: Gamma -> 4 kappa G^2 / delta_bar^2
        assert effective_params(fr).gamma_total == pytest.approx(4 * 0.2 / 4.0e6, rel=2e-3)

    def test_positive_for_negative_detunings(self):
        for fr in random_frames(300, seed=12):
            assert effective_params(fr).gamma_total > 0


class TestClassicality:
    def test_zero_detuning_is_classical(self):
        fr = frame(delta_bar=0.0)
        xi = effective_params(fr).xi
        assert xi == pytest.approx(0.0, abs=1e-15)
        assert interaction_regime(xi) == "classical"

    def test_boundary_label(self):
        assert interaction_regime(0.5) == "classical"
        assert interaction_regime(0.5 + 1e-12) == "quantum"

    def test_unitary_limit(self):
        xi = effective_params(frame(kappa=0.0, delta_bar=0.4)).xi
        assert math.isinf(xi)
        assert interaction_regime(xi) == "unitary-limit"

    def test_far_detuned_ratio(self):
        # equal couplings: xi -> delta_bar / (2 kappa)
        fr = frame(delta_bar=1.0e4, kappa=0.5)
        assert effective_params(fr).xi == pytest.approx(1.0e4 / (2 * 0.5), rel=1e-3)

    def test_invariant_under_drive_rescaling(self):
        # doubling alpha doubles both couplings; J and all rates scale by
        # exactly 4 (a power of two), so the ratio is bitwise unchanged
        base = frame(delta_bar=2.7, kappa=0.7, G_1=0.05, G_2=0.09)
        scaled = frame(delta_bar=2.7, kappa=0.7, G_1=0.1, G_2=0.18)
        assert effective_params(base).xi == effective_params(scaled).xi


class TestNulls:
    def test_interior_nulls_below_threshold(self):
        nulls = coupling_nulls(frame(kappa=1.0))
        root = math.sqrt(3) / 2
        assert len(nulls) == 3
        assert nulls[0] == pytest.approx(-root, abs=1e-9)
        assert nulls[1] == 0.0
        assert nulls[2] == pytest.approx(root, abs=1e-9)

    @pytest.mark.parametrize("kappa", [2.0, 3.0, 10.0])
    def test_only_origin_at_large_decay(self, kappa):
        assert coupling_nulls(frame(kappa=kappa)) == [0.0]

    def test_only_origin_in_a_lossless_cavity(self):
        # at kappa = 0, J ~ -2 delta_bar / (delta_bar^2 - omega_bar^2): the
        # sign changes at +-omega_bar are poles, not nulls
        assert coupling_nulls(frame(kappa=0.0)) == [0.0]

    def test_sign_change_structure(self):
        # exactly one sign change for positive detunings when kappa < 2
        deltas = np.linspace(1e-3, 5.0, 2000)
        for kappa, expected in ((0.5, 1), (1.9, 1), (2.0, 0), (6.0, 0)):
            vals = np.array([exchange_coupling(frame(delta_bar=d, kappa=kappa)) for d in deltas])
            changes = int(np.sum(vals[:-1] * vals[1:] < 0))
            assert changes == expected


class TestCollectiveMode:
    def test_equal_couplings(self):
        mode = collective_mode_coeffs(0.3, 0.3)
        assert mode.c_1 == 1.0 and mode.c_2 == 1.0

    def test_ratio_values(self):
        mode = collective_mode_coeffs(4.0, 1.0)
        assert mode.c_1 == pytest.approx(2.0)
        assert mode.c_2 == pytest.approx(0.5)

    def test_product_is_unity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            g1, g2 = rng.uniform(0.01, 5.0, 2)
            mode = collective_mode_coeffs(g1, g2)
            assert mode.c_1 * mode.c_2 == pytest.approx(1.0, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            collective_mode_coeffs(0.0, 1.0)


class TestEffectiveParams:
    def test_rate_table_consistency(self):
        fr = frame(delta_bar=-3.2, kappa=0.7, G_1=0.11, G_2=0.06)
        p = effective_params(fr)
        d1, u1 = p.rate_table["1"]
        assert p.rate_table == pairs(fr)
        assert p.gamma_total == pytest.approx(
            u1 + p.rate_table["2"][1] + 2 * p.rate_table["collective"][1], rel=1e-15)
        assert p.gamma_total == pytest.approx(total_noise(pairs(fr)), rel=1e-15)
        assert p.xi == pytest.approx(abs(p.exchange_coupling) / p.gamma_total, rel=1e-15)
        gammas = (p.gamma_1, p.gamma_2, p.gamma_collective)
        nbars = (p.nbar_1, p.nbar_2, p.nbar_collective)
        for (down, up), gamma, nbar in zip(p.rate_table.values(), gammas, nbars):
            assert gamma == down - up
            assert nbar == up / gamma

    def test_all_rates_nonnegative_everywhere(self):
        for fr in random_frames(500, seed=99):
            p = effective_params(fr)
            for down, up in p.rate_table.values():
                assert down >= 0.0
                assert up >= 0.0
