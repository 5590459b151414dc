import math
from dataclasses import fields

import numpy as np
import pytest

from cavmech.model import (
    CavityPump,
    ConfigError,
    FrameParams,
    MechanicalMode,
    SystemConfig,
    config_digest,
    derive_frame,
    displacement_from_pump,
    frame_from_collective,
    load_config,
    mode_frequencies,
    optical_spring,
    parse_config_text,
)


def make_config(omega1=0.9, omega2=1.1, omega_c=100.0, kappa=0.2, omega_l1=99.0,
                alpha=1.0, g1=0.05, g2=0.05, thermal=None):
    return SystemConfig(
        mode_1=MechanicalMode(omega1, g1),
        mode_2=MechanicalMode(omega2, g2),
        cavity=CavityPump(omega_c, kappa, omega_l1, alpha),
        thermal_baths=thermal,
    )


class TestDeriveFrame:
    def test_second_pump_follows_beat_note(self):
        config = make_config()
        assert config.pump_frequency_2() == pytest.approx(98.8, abs=1e-12)
        frame = derive_frame(config)
        assert frame.delta_1 == pytest.approx(1.0, abs=1e-12)
        assert frame.delta_2 == pytest.approx(1.2, abs=1e-12)
        assert frame.delta_bar == pytest.approx(1.1, abs=1e-12)
        assert frame.delta_omega == pytest.approx(-0.2, abs=1e-12)

    def test_detuning_difference_equals_frequency_difference(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            w1, w2 = sorted(rng.uniform(0.3, 2.0, 2))
            if w1 == w2:
                continue
            config = make_config(omega1=w1, omega2=w2,
                                 omega_c=rng.uniform(50, 500),
                                 kappa=rng.uniform(0.01, 5),
                                 omega_l1=rng.uniform(40, 49))
            frame = derive_frame(config)
            assert frame.delta_1 - frame.delta_2 == pytest.approx(
                frame.delta_omega, abs=1e-12)

    def test_pump_amplitude_inversion(self):
        frame = derive_frame(make_config(kappa=0.2, omega_c=100.0, omega_l1=99.0, alpha=2.0))
        # delta_1 = 1: eta = i alpha (kappa/2 + i delta) = -2 + 0.2i
        assert frame.eta_1 == pytest.approx(-2.0 + 0.2j, abs=1e-12)

    def test_displacement_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            alpha = rng.uniform(0.1, 5.0)
            config = make_config(alpha=alpha, kappa=rng.uniform(0.0, 3.0) or 0.1,
                                 omega_l1=rng.uniform(90, 99))
            frame = derive_frame(config)
            for eta, delta in ((frame.eta_1, frame.delta_1), (frame.eta_2, frame.delta_2)):
                back = displacement_from_pump(eta, delta, frame.kappa)
                assert abs(back - alpha) / alpha < 1e-12
                modulus = abs(eta) / math.sqrt(frame.kappa**2 / 4 + delta**2)
                assert modulus == pytest.approx(alpha, rel=1e-12)

    def test_deterministic_and_pure(self):
        config = make_config()
        assert derive_frame(config) == derive_frame(config)

    def test_dressed_couplings(self):
        frame = derive_frame(make_config(alpha=3.0, g1=0.02, g2=0.07))
        assert frame.G_1 == pytest.approx(0.06)
        assert frame.G_2 == pytest.approx(0.21)

    def test_lossless_resonant_pump_rejected(self):
        config = make_config(kappa=0.0, omega_c=100.0, omega_l1=100.0)
        with pytest.raises(ConfigError, match="displacement undefined"):
            derive_frame(config)

    def test_frame_built_directly_rejects_lossless_resonant_pump(self):
        frame = derive_frame(make_config())
        values = {f.name: getattr(frame, f.name) for f in fields(frame)}
        with pytest.raises(ConfigError, match="displacement undefined"):
            FrameParams(**{**values, "kappa": 0.0, "delta_2": 0.0})


class TestInvariants:
    def test_equal_frequencies_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            make_config(omega1=1.0, omega2=1.0)

    @pytest.mark.parametrize("field,value", [("omega1", -1.0), ("omega1", 0.0), ("g1", 0.0), ("g1", -0.1)])
    def test_bad_mode_parameters(self, field, value):
        with pytest.raises(ConfigError):
            make_config(**{field: value})

    def test_negative_kappa_rejected(self):
        with pytest.raises(ConfigError):
            make_config(kappa=-0.1)

    def test_thermal_bath_validation(self):
        with pytest.raises(ConfigError):
            make_config(thermal=((-0.1, 0.0), (0.0, 0.0)))
        with pytest.raises(ConfigError):
            make_config(thermal=((0.1, 0.5),))
        config = make_config(thermal=((0.1, 0.5), (0.0, 0.0)))
        assert derive_frame(config).thermal_baths == ((0.1, 0.5), (0.0, 0.0))


class TestOpticalSpring:
    def test_zero_detuning_cancels(self):
        for omega in (0.5, 1.0, 2.3):
            assert optical_spring(1.0, 0.0, omega, 0.2) == pytest.approx(0.0, abs=1e-15)

    def test_zero_coupling(self):
        assert optical_spring(0.0, 1.0, 1.0, 0.2) == 0.0

    def test_reference_value(self):
        # (1-1)/(0.01+0) + (1+1)/(0.01+4) = 0.49875...
        assert optical_spring(1.0, 1.0, 1.0, 0.2) == pytest.approx(
            0.49875311720698254, rel=1e-12)


# the stored fields plus the values derived from them on access
DERIVED = ("eta_1", "eta_2", "spring_1", "spring_2")


def frame_values(frame):
    return [f.name for f in fields(frame) if f.name != "thermal_baths"] + list(DERIVED)


class TestCollectiveConstructor:
    def test_matches_lab_frame_derivation(self):
        frame = frame_from_collective(1.0, 0.2, 5.0, 0.1, 0.05, 0.07, alpha=2.0)
        config = make_config(omega1=1.1, omega2=0.9, omega_c=200.0, kappa=0.1,
                             omega_l1=200.0 - 5.1, alpha=2.0, g1=0.025, g2=0.035)
        lab = derive_frame(config)
        for field in ("delta_bar", "omega_bar", "delta_omega", "G_1", "G_2",
                      "spring_1", "spring_2"):
            assert getattr(frame, field) == pytest.approx(getattr(lab, field), rel=1e-9)

    def test_invalid_collective_inputs(self):
        with pytest.raises(ConfigError):
            frame_from_collective(1.0, 2.5, 1.0, 0.1, 0.1, 0.1)  # omega_2 < 0
        with pytest.raises(ConfigError):
            frame_from_collective(1.0, 0.2, 1.0, 0.1, -0.1, 0.1)

    def test_array_frame_equals_scalar_frames_bit_for_bit(self):
        rng = np.random.default_rng(3)
        n = 40
        args = [1.0, rng.uniform(0.05, 1.9, n), rng.uniform(-10, 10, n),
                np.exp(rng.uniform(np.log(0.01), np.log(10), n)),
                rng.uniform(0.01, 0.2, n), rng.uniform(0.01, 0.2, n)]
        # a lossless draw pumped on the mode-1 sideband, where spring_1 is NaN
        args[1][0], args[2][0], args[3][0] = 0.2, 1.0, 0.0
        array_frame = frame_from_collective(*args)
        assert math.isnan(array_frame.spring_1[0])
        for i in range(n):
            one = frame_from_collective(*(a if np.ndim(a) == 0 else float(a[i]) for a in args))
            for name in frame_values(one):
                got = np.broadcast_to(getattr(array_frame, name), (n,))[i]
                assert np.asarray(got).tobytes() == np.asarray(getattr(one, name)).tobytes(), name

    @pytest.mark.parametrize("bad", [
        dict(delta_omega=np.array([0.2, 2.5, 0.2])),  # omega_2 < 0 in one draw
        dict(G_2=np.array([0.1, 0.1, -0.1])),
        dict(kappa=np.array([0.1, -0.1, 0.1])),
        dict(kappa=np.array([0.1, 0.0, 0.1]), delta_bar=np.array([1.0, 0.1, 1.0])),  # delta_2 = 0
        dict(G_2=np.array([0.1, math.nan, 0.1])),
        dict(delta_bar=np.array([1.0, 1.0, -math.inf])),
    ])
    def test_one_invalid_element_raises(self, bad):
        args = dict(omega_bar=1.0, delta_omega=0.2, delta_bar=1.0, kappa=0.1, G_1=0.1, G_2=0.1)
        with pytest.raises(ConfigError):
            frame_from_collective(**{**args, **bad})

    @pytest.mark.parametrize("name", ["omega_bar", "delta_omega", "delta_bar", "kappa", "G_1", "G_2", "alpha"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_scalar_raises(self, name, value):
        # a NaN fails every comparison: without the check a NaN G_2 gave
        # xi = inf, a "unitary-limit" frame
        args = dict(omega_bar=1.0, delta_omega=0.2, delta_bar=1.0, kappa=0.1, G_1=0.1, G_2=0.1)
        with pytest.raises(ConfigError, match="finite"):
            frame_from_collective(**{**args, name: value})

    def test_mode_frequencies_checks_the_splitting(self):
        w1, w2 = mode_frequencies(1.0, np.array([0.2, -0.4]))
        assert w1.tolist() == [1.1, 0.8] and w2.tolist() == [0.9, 1.2]
        with pytest.raises(ConfigError, match="nonpositive mode frequency"):
            mode_frequencies(1.0, np.array([0.2, 3.0]))   # omega_2 = -0.5 in one element
        with pytest.raises(ConfigError, match="distinct frequencies"):
            mode_frequencies(1.0, np.array([0.2, 0.0]))
        with pytest.raises(ConfigError, match="distinct frequencies"):
            frame_from_collective(1.0, 0.0, 1.0, 0.1, 0.1, 0.1)

    def test_scalar_fields_keep_their_types(self):
        frame = frame_from_collective(1.0, 0.2, 5.0, 0.1, 0.05, 0.07)
        for name in frame_values(frame):
            want = complex if name.startswith("eta") else float
            assert type(getattr(frame, name)) is want, name


class TestConfigFile:
    GOOD = """
    # desk-scale point
    omega1 = 1.1
    omega2 = 0.9
    omega_c = 200
    kappa = 0.1
    omega_L1 = 194.9
    alpha = 1.0
    g1 = 0.05
    g2 = 0.05
    """

    def test_parse_and_derive(self):
        config = parse_config_text(self.GOOD)
        frame = derive_frame(config)
        assert frame.delta_bar == pytest.approx(5.0, abs=1e-9)
        assert frame.delta_omega == pytest.approx(0.2, abs=1e-12)

    def test_thermal_keys(self):
        text = self.GOOD + "\ngamma_th_1 = 0.01\nn_th_1 = 2.0\n"
        config = parse_config_text(text)
        assert config.thermal_baths == ((0.01, 2.0), (0.0, 0.0))

    def test_missing_key(self):
        with pytest.raises(ConfigError, match="missing"):
            parse_config_text("omega1 = 1.0")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config_text(self.GOOD + "\nbogus = 1\n")

    def test_repeated_key(self):
        # the second kappa used to override the first without a word
        with pytest.raises(ConfigError, match=r"^line 12: 'kappa' is already set on line 6$"):
            parse_config_text(self.GOOD + "\nkappa = 0.2\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="bad number"):
            parse_config_text(self.GOOD.replace("0.05", "five", 1))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.cfg")

    def test_digest_stable_and_sensitive(self):
        a = parse_config_text(self.GOOD)
        b = parse_config_text(self.GOOD)
        assert config_digest(a) == config_digest(b)
        c = parse_config_text(self.GOOD.replace("kappa = 0.1", "kappa = 0.2"))
        assert config_digest(a) != config_digest(c)
