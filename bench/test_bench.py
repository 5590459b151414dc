"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q bench

The workload tests start ``run.py`` at the tiny size, so they check the
same result line that any caller of the benchmark reads.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import layers
import speed
from tracer import Target, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(BENCH / "run.py"), "--seconds", "0", "--size", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", ["closed-forms", "effective-crosscheck"])
def test_tiny_workload_passes_its_gates(workload):
    result = last_json(run_bench("--workload", workload, "--seed", "0", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    check_metrics(result, SPEC["end_to_end"])
    assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_tiny_transfer_reports_its_failed_fit():
    # Below a horizon of about 100 the Rabi fit misses its 10 % gate; the
    # failure must be counted and reported with its reason, not dropped.
    proc = run_bench("--workload", "transfer-full", "--seed", "1", "--trace", "0")
    result = last_json(proc)
    check_metrics(result, SPEC["end_to_end"])
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (4, 1)
    failed = [line for line in proc.stdout.splitlines() if "FAILED" in line]
    assert len(failed) == 1 and "oracle.rabi_fit" in failed[0] and "fit.J_rel_err" in failed[0]


def test_traced_run_reports_every_layer_metric():
    result = last_json(run_bench("--workload", "effective-crosscheck", "--seed", "2", "--trace", "1"))
    assert result["correct"]
    check_metrics(result, SPEC["per_layer"])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["fock.integrate.steps"] > 0
    assert values["fock.CompiledGenerator.add_jump_sandwiches.calls"] == 4 * values["fock.integrate.steps"]
    assert values["fock.integrate.self_s"] < values["fock.integrate.s"]
    assert values["cli.main.calls"] == 0


def test_declared_names_match_the_code():
    import run

    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.METRICS) + ["trace_overhead_s"]
    assert SPEC["paths"] == ["bench"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "closed-forms", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- tracer ----------------------------------------------------------------

CORE = """
def leaf():
    clock.t += 1.0

def inner():
    clock.t += 2.0
    leaf()
    leaf()
    clock.t += 0.5

def outer(k):
    clock.t += 3.0
    inner()
    clock.t += 1.0
    inner()
    return k
"""


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def fake_package(monkeypatch):
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    core.clock = clock
    exec(CORE, core.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.inner = core.inner          # a second binding, as ``from .core import inner``
    for name, module in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return clock, core, user


def test_tracer_self_time_on_nested_calls(fake_package):
    clock, core, user = fake_package
    originals = (core.outer, core.inner, core.leaf)
    targets = [
        Target("core.outer", counters=(("k", lambda args, result: args["k"]),)),
        Target("core.inner"),
        Target("core.leaf", hot=True),
        Target("core.removed_in_a_refactor"),
    ]
    tracer = Tracer(targets, [core, user], package="fakepkg", clock=clock)
    tracer.trace_id = 1
    tracer.install()
    assert user.inner is core.inner and core.inner is not originals[1]
    assert core.outer(7) == 7
    user.inner()
    tracer.uninstall()
    assert (core.outer, core.inner, core.leaf) == originals and user.inner is originals[1]

    totals = tracer.pass_totals(1)
    # inner: 2 + 2 * 1 (leaf) + 0.5 = 4.5 s, of which 2.5 s outside leaf
    assert totals["core.inner"] == {"calls": 3, "s": 13.5, "self_s": 7.5}
    # outer: 3 + 4.5 + 1 + 4.5 = 13 s, of which 4 s outside inner
    assert totals["core.outer"] == {"calls": 1, "s": 13.0, "self_s": 4.0, "k": 7}
    assert totals["core.leaf"] == {"calls": 6, "s": 6.0, "self_s": 6.0}
    assert tracer.absent == ["core.removed_in_a_refactor"]

    # spans for coarse calls only, each with its parent
    spans = {span_id: (parent, name, start, end) for _, span_id, parent, name, start, end, _ in tracer.spans}
    assert sorted(name for _, name, _, _ in spans.values()) == ["core.inner"] * 3 + ["core.outer"]
    outer_id = next(i for i, s in spans.items() if s[1] == "core.outer")
    parents = sorted((s[0] or 0) for s in spans.values() if s[1] == "core.inner")
    assert parents == [0, outer_id, outer_id]
    assert spans[outer_id][2:] == (0.0, 13.0)


def test_pass_values_fill_missing_layers_with_zero():
    values = layers.pass_values({"fock.integrate": {"calls": 1, "s": 2.0, "self_s": 1.5, "steps": 10}})
    assert values["fock.integrate.self_s"] == 1.5 and values["fock.integrate.steps"] == 10
    assert values["cli.main.calls"] == 0
    assert list(values) == list(layers.METRICS)


# -- reference speed ---------------------------------------------------------

def test_normalise_removes_the_kernel_and_rescales():
    # four kernel runs at 1 ms CPU each: the machine ran at half the reference speed
    sp = speed.Speed(n=4, wall=0.005, cpu=0.004)
    wall, cpu = sp.normalise(1.0, 2.0)
    assert wall == pytest.approx((1.0 - 0.005) * speed.REFERENCE_S / 1e-3)
    assert cpu == pytest.approx((2.0 - 0.004) * speed.REFERENCE_S / 1e-3)


def test_sampler_ticks_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(interval=0.005) as sp:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert sp.n >= 5 and 0 < sp.cpu <= sp.wall * 1.5

    short = speed.settle(speed.Speed())
    assert short.n == 0 and short.after_cpu > 0
    assert short.normalise(1.0, 1.0)[0] > 0
