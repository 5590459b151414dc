import time

import pytest

from cavmech import frame_from_collective
from cavmech.fock import TransferProtocol, excitation_transfer_experiment
from cavmech.gaussian import drift_diffusion_from_generator, evolve_covariance, fock_moments
from cavmech.quadratic import FullLinearized, quadratic_model


def assert_same_text(got, want):
    """``got == want``, reporting the first differing line: pytest's own
    diff of two long texts that differ on every line takes minutes."""
    pairs = zip(got.splitlines(keepends=True), want.splitlines(keepends=True))
    first = next((i for i, (a, b) in enumerate(pairs) if a != b), None)
    assert first is None, f"line {first}: {got.splitlines()[first]!r} != {want.splitlines()[first]!r}"
    assert len(got) == len(want) and got == want


def desk_scale_frame():
    """The standard validation point used across the dynamical tests."""
    return frame_from_collective(1.0, 0.2, 5.0, 0.1, 0.05, 0.05)


@pytest.fixture(scope="session")
def desk_frame():
    return desk_scale_frame()


@pytest.fixture(scope="session")
def full_model_runs(desk_frame):
    """Shared heavy runs: full-model transfer on both engines.

    Used by the dynamical-validation and structural-conservation tests so
    the expensive integration happens once per session.
    """
    protocol = TransferProtocol()
    t0 = time.time()
    fock_result = excitation_transfer_experiment(desk_frame, protocol, model="full")
    spec = FullLinearized(desk_frame)
    f_max = quadratic_model(spec).f_max
    dt = 0.01 / f_max
    stride = max(1, int(round(protocol.t_end / dt)) // 2000)
    dd = drift_diffusion_from_generator(spec)
    gauss_traj = evolve_covariance(dd, fock_moments(3, (0, 1, 0)), protocol.t_end, dt, stride=stride)
    elapsed = time.time() - t0
    return {
        "protocol": protocol,
        "fock": fock_result,
        "gauss": gauss_traj,
        "elapsed": elapsed,
    }
