"""Command-line interface: one subcommand per analysis task.

Exit codes: 0 on success, 1 when a validation stage fails, 2 on bad input.
All outputs are deterministic for a fixed configuration; ``--seed`` and
``--threads`` are accepted for interface stability but unused: nothing is
stochastic, and every sweep runs in one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .model import SystemConfig, derive_frame, load_config
from .effective import coupling_nulls, interaction_regime
from .fock import (
    FitError,
    FockSpace,
    FullLinearized,
    StepControlError,
    TransferProtocol,
    TruncationError,
    effective_generator,
    fock_state,
    integrate,
    quadratic_model,
)
from .gaussian import entanglement_experiment
from .analysis import (
    Dataset,
    SweepGrid,
    base_metadata,
    coupling_curve_data,
    emit,
    params_report,
    regime_map,
    regime_map_dataset,
    render,
    validate,
    write_json,
    xi_asymptote,
    _fmt,
    _json_num,
)


class UsageError(ValueError):
    pass


def _add_common(sub):
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--out", help="output file path")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--threads", type=int, default=1,
                     help="accepted for interface stability; unused")
    sub.add_argument("--seed", type=int, default=None,
                     help="reserved; all computations are deterministic")


def _require_config(args) -> SystemConfig:
    if not args.config:
        raise UsageError("this subcommand requires --config")
    return load_config(args.config)


def _parse_range(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, count = text.split(":")
        return float(lo), float(hi), int(count)
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}, expected lo:hi:count") from exc


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"bad number list {text!r}") from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc


def _emit_or_print(dataset: Dataset, args):
    if args.out:
        emit(dataset, args.format, args.out)
    else:
        sys.stdout.write(render(dataset, args.format))


def _write_or_print_json(doc: dict, args):
    if args.out:
        write_json(doc, args.out)
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))


def _cmd_params(args) -> int:
    config = _require_config(args)
    _write_or_print_json(params_report(config), args)
    return 0


def _cmd_nulls(args) -> int:
    if args.config:
        frame = derive_frame(load_config(args.config))
    else:
        from .model import frame_from_collective
        frame = frame_from_collective(args.omega_bar, 0.1 * args.omega_bar, args.omega_bar,
                                      args.kappa, 0.1, 0.1)
    nulls = coupling_nulls(frame)
    doc = {
        "metadata": base_metadata(),
        "omega_bar": frame.omega_bar,
        "kappa": frame.kappa,
        "nulls": nulls,
        "interior_nulls_exist": len(nulls) > 1,
    }
    _write_or_print_json(doc, args)
    return 0


def _cmd_fig1(args) -> int:
    dataset = coupling_curve_data(args.omega_bar, _parse_floats(args.kappas),
                                  _parse_range(args.delta_range))
    _emit_or_print(dataset, args)
    return 0


def _cmd_fig2(args) -> int:
    lo, hi, count = _parse_range(args.delta_range)
    grid = SweepGrid(delta_min=lo, delta_max=hi, delta_count=count,
                     kappa_values=tuple(_parse_floats(args.kappas)))
    rmap = regime_map(args.delta_omega, grid)
    dataset = regime_map_dataset(rmap, args.delta_omega)
    _emit_or_print(dataset, args)
    return 0


def _cmd_xi_asymptote(args) -> int:
    doc = xi_asymptote(kappa=args.kappa, delta_omega=args.delta_omega,
                       decades=(args.decades[0], args.decades[1]))
    _write_or_print_json(doc, args)
    return 0


def _trajectory_dataset(traj, config) -> Dataset:
    rows = np.column_stack([
        traj.t, traj.n1, traj.n2, traj.n_cav,
        traj.coh.real, traj.coh.imag, traj.trace, traj.trunc_monitor,
    ])
    return Dataset(
        columns=["t", "n1", "n2", "n_cav", "re_coh", "im_coh", "trace", "trunc_monitor"],
        rows=rows,
        metadata=base_metadata(config),
    )


def _cmd_simulate(args, model: str) -> int:
    config = _require_config(args)
    frame = derive_frame(config)
    dims = _parse_ints(args.dims)
    if model == "full":
        spec = FullLinearized(frame)
        expected = 3
    else:
        spec = effective_generator(frame)
        expected = 2
    if len(dims) != expected:
        raise UsageError(f"--dims needs {expected} entries for the {model} model")
    space = FockSpace(dims)
    occupations = _parse_ints(args.initial)
    if len(occupations) != expected:
        raise UsageError(f"--initial needs {expected} occupations")
    rho0 = fock_state(space, occupations)
    f_max = quadratic_model(spec).f_max
    dt = args.dt
    if dt is None:
        # the fewest steps within the guard, so the last record lands on t_end
        steps = math.ceil(args.t_end * f_max / 0.01) if f_max > 0 else 1000
        dt = args.t_end / steps if steps > 0 else 0.01 / f_max
    traj = integrate(spec, space, rho0, args.t_end, dt, stride=args.stride,
                     truncation_tol=args.truncation_tol)
    dataset = _trajectory_dataset(traj, config)
    _emit_or_print(dataset, args)
    return 0


def _cmd_entangle(args) -> int:
    config = _require_config(args)
    frame = derive_frame(config)
    result = entanglement_experiment(frame, r=args.squeezing, t_end=args.t_end,
                                     stride=args.stride)
    traj = result.trajectory
    rows = np.column_stack([traj.t, traj.n1, traj.n2, traj.log_negativity, traj.min_symp_eig])
    md = base_metadata(config)
    md["squeezing"] = _fmt(args.squeezing)
    md["xi"] = _fmt(result.xi) if math.isfinite(result.xi) else "unitary-limit"
    md["max_log_negativity"] = _fmt(result.max_log_negativity)
    dataset = Dataset(columns=["t", "n1", "n2", "EN", "min_symp_eig"], rows=rows, metadata=md)
    _emit_or_print(dataset, args)
    summary = {
        "max_log_negativity": result.max_log_negativity,
        "xi": _json_num(result.xi),
        "regime": interaction_regime(result.xi),
    }
    print(json.dumps(summary, indent=2, sort_keys=True), file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    config = _require_config(args)
    protocol = TransferProtocol(
        dims=_parse_ints(args.dims),
        t_end=args.transfer_t_end,
        truncation_tol=args.truncation_tol,
    )
    report = validate(config, transfer_protocol=protocol,
                      n_reduction_draws=args.draws, verbose=args.verbose)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        write_json(report, args.out)
    print(text)
    return 0 if report["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavmech",
        description="Cavity-mediated coupling of two mechanical modes: "
                    "closed-form rates, regime maps, and simulation engines.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("params", help="derived frame and effective parameters as JSON")
    _add_common(p)

    p = subs.add_parser("nulls", help="detunings where the exchange coupling vanishes")
    _add_common(p)
    p.add_argument("--omega-bar", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=1.0)

    p = subs.add_parser("fig1", help="normalized exchange-coupling curves vs detuning")
    _add_common(p)
    p.add_argument("--omega-bar", type=float, default=1.0)
    p.add_argument("--kappas", default="0.5,1,1.5,3")
    p.add_argument("--delta-range", default="-3:3:601")

    p = subs.add_parser("fig2", help="classicality regime map over detuning and decay")
    _add_common(p)
    p.add_argument("--delta-omega", type=float, default=0.1,
                   help="mechanical frequency difference over the average frequency")
    p.add_argument("--kappas", default="0.1,0.3,1,3,10")
    p.add_argument("--delta-range", default="-10:10:401")

    p = subs.add_parser("xi-asymptote", help="log-log growth exponent of the "
                                             "coupling-to-noise ratio far from resonance")
    _add_common(p)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--delta-omega", type=float, default=0.2)
    p.add_argument("--decades", type=float, nargs=2, default=(2.0, 4.0))

    for name, model in (("simulate-full", "full"), ("simulate-effective", "effective")):
        p = subs.add_parser(name, help=f"integrate the {model} model, write a trajectory CSV")
        _add_common(p)
        p.add_argument("--t-end", type=float, default=100.0)
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--dims", default="4,4,4" if model == "full" else "4,4")
        p.add_argument("--initial", default="0,1,0" if model == "full" else "1,0")
        p.add_argument("--stride", type=int, default=100)
        p.add_argument("--truncation-tol", type=float, default=1e-3)
        p.set_defaults(model=model)

    p = subs.add_parser("entangle", help="effective-model run from squeezed vacuum, "
                                         "tracking logarithmic negativity")
    _add_common(p)
    p.add_argument("--squeezing", type=float, default=1.0)
    p.add_argument("--t-end", type=float, default=500.0)
    p.add_argument("--stride", type=int, default=1)

    p = subs.add_parser("validate", help="five-stage cross-module consistency pipeline")
    _add_common(p)
    p.add_argument("--draws", type=int, default=1000)
    p.add_argument("--dims", default="4,3,3")
    p.add_argument("--transfer-t-end", type=float, default=600.0)
    p.add_argument("--truncation-tol", type=float, default=0.02)
    p.add_argument("--verbose", action="store_true")

    return parser


_DISPATCH = {
    "params": _cmd_params,
    "nulls": _cmd_nulls,
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "xi-asymptote": _cmd_xi_asymptote,
    "entangle": _cmd_entangle,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("simulate-full", "simulate-effective"):
            return _cmd_simulate(args, args.model)
        return _DISPATCH[args.command](args)
    except (FitError, TruncationError, StepControlError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # ValueError covers UsageError, ConfigError and out-of-range numbers
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
