"""Command-line front end.

Subcommands: ``freqs`` (derived frequencies and regime report),
``couplings`` (pairwise coupling matrix), ``transfer`` (end-to-end transfer
fidelity curve), ``fidelity`` (thermal error budget), ``table1`` (benchmark
comparison table), ``sweep`` (design-space CSV), ``oracle`` (truncated-Fock
validation suite).

Exit codes: 0 success, 1 input error, 2 regime violation, 3 acceptance
failure.  Output is deterministic: floats are printed with 12 significant
digits and every file starts with '#' metadata lines recording the mode
flags, constants version, and unit conventions.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import sys
import warnings

import numpy as np

from . import __version__
from .benchmarks import (
    REFERENCE_ROWS,
    TARGET_FIDELITY,
    coupling_ratio,
    row_couplings,
    row_error_budget,
)
from .config import MAX_SWEEP_POINTS, ConfigError, GridTooLarge, RunConfig
from .constants import CODATA2018, CONSTANTS_VERSION, TWO_PI
from .couplings import (
    Orientation,
    RegimeError,
    ZeroCoupling,
    coupling_matrix,
    pair_coupling_strengths,
    swap_time,
    write_csv,
)
from .fidelity_model import total_fidelity
from .microscopic_oracle import FockTruncation, run_validation_suite
from .spin_chain import transfer_fidelity_curve_subspace
from .trap_model import (
    AnomalyMode,
    ComplexFrequency,
    HierarchyViolation,
    TrapParams,
    coulomb_scale,
    derive_quantities,
    validate_regime,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_REGIME_VIOLATION = 2
EXIT_ACCEPTANCE_FAILURE = 3


def _f12(x: float) -> str:
    return f"{x:.12g}"


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting, so the exit code
    stays under this module's control (argparse's own exit code collides
    with the regime-violation code)."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI run configuration")
    common.add_argument(
        "--mode",
        choices=("exact", "approx"),
        help="anomaly-frequency mode (overrides [run] mode)",
    )
    common.add_argument(
        "--orientation",
        choices=("z", "x"),
        help="array orientation (overrides [chain] orientation)",
    )
    common.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    common.add_argument(
        "--format", choices=("csv", "json"), default="csv", dest="fmt",
        help="output format (default csv)",
    )
    parser = _Parser(prog="penning-chain", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text in (
        ("freqs", "derived trap frequencies and regime report"),
        ("couplings", "pairwise spin-spin coupling matrix"),
        ("transfer", "end-to-end transfer fidelity curve"),
        ("fidelity", "thermal error budget and total fidelity"),
        ("table1", "benchmark comparison table with acceptance gates"),
        ("sweep", "design-space sweep as CSV"),
        ("oracle", "truncated-Fock validation suite"),
    ):
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def _min_spacing(geom) -> float:
    if geom.n_sites < 2:
        raise ConfigError("the chain needs at least two sites")
    d = geom.distances()
    return float(d[d > 0.0].min())


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta_lines(command: str, mode=None, orientation=None, extra: tuple[str, ...] = ()) -> list[str]:
    lines = [
        f"# penning-chain {command}",
        f"# constants: {CONSTANTS_VERSION}",
        "# units: frequencies and couplings rad/s; distances m; times s; temperatures K",
    ]
    if mode is not None:
        lines.append(f"# anomaly_mode: {mode.value}")
    if orientation is not None:
        lines.append(f"# orientation: {orientation.value}")
    lines.extend(extra)
    return lines


def _meta_dict(command: str, mode=None, orientation=None, **extra) -> dict:
    meta = {
        "command": f"penning-chain {command}",
        "constants": CONSTANTS_VERSION,
        "units": "frequencies and couplings rad/s; distances m; times s; temperatures K",
    }
    if mode is not None:
        meta["anomaly_mode"] = mode.value
    if orientation is not None:
        meta["orientation"] = orientation.value
    meta.update(extra)
    return meta


# -- freqs ---------------------------------------------------------------


def cmd_freqs(cfg: RunConfig, args) -> int:
    mode = cfg.anomaly_mode(args.mode)
    dq = derive_quantities(cfg.trap_params(mode))
    xi = 0.0
    if cfg.has("chain", "spacing") or cfg.has("chain", "positions"):
        geom = cfg.geometry(cfg.orientation(args.orientation))
        xi = coulomb_scale(dq, _min_spacing(geom))
    l_bar = cfg.get("thermal", "l_bar", default=0.0)
    report = validate_regime(dq, xi=xi, l_bar=l_bar)

    quantities = {
        "omega_c": dq.omega_c,
        "omega_z": dq.omega_z,
        "omega_m": dq.omega_m,
        "omega_s": dq.omega_s,
        "omega_a": dq.omega_a,
        "omega_c_tilde": dq.omega_c_tilde,
        "delta_z": dq.delta_z,
        "epsilon": dq.epsilon,
    }
    if args.fmt == "json":
        payload = {
            "meta": _meta_dict("freqs", mode),
            "quantities": quantities,
            "regime": [
                {"condition": c.name, "ratio": c.ratio, "ok": c.ok}
                for c in report.conditions
            ],
            "regime_ok": report.ok,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = _meta_lines("freqs", mode)
        lines.append("quantity,value")
        lines.extend(f"{name},{_f12(value)}" for name, value in quantities.items())
        lines.extend(
            f"regime:{c.name},{_f12(c.ratio)},{'ok' if c.ok else 'fail'}"
            for c in report.conditions
        )
        _emit("\n".join(lines), args.out)
    return EXIT_OK if report.ok else EXIT_REGIME_VIOLATION


# -- couplings -----------------------------------------------------------


def cmd_couplings(cfg: RunConfig, args) -> int:
    mode = cfg.anomaly_mode(args.mode)
    orientation = cfg.orientation(args.orientation)
    dq = derive_quantities(cfg.trap_params(mode))
    geom = cfg.geometry(orientation)
    l_bar = cfg.get("thermal", "l_bar", default=0.0)
    cm = coupling_matrix(dq, geom, l_bar=l_bar)

    if args.fmt == "json":
        pairs = [
            {
                "i": i,
                "j": j,
                "d": float(cm.distances[i, j]),
                "jz": float(cm.jz[i, j]),
                "jxy": float(cm.jxy[i, j]),
            }
            for i in range(cm.n_sites)
            for j in range(i + 1, cm.n_sites)
        ]
        payload = {"meta": _meta_dict("couplings", mode, orientation), "pairs": pairs}
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        buf = io.StringIO()
        write_csv(cm, buf)
        _emit(buf.getvalue(), args.out)
    return EXIT_OK


# -- transfer ------------------------------------------------------------


def cmd_transfer(cfg: RunConfig, args) -> int:
    mode = cfg.anomaly_mode(args.mode)
    orientation = cfg.orientation(args.orientation)
    dq = derive_quantities(cfg.trap_params(mode))
    geom = cfg.geometry(orientation)
    l_bar = cfg.get("thermal", "l_bar", default=0.0)
    cm = coupling_matrix(dq, geom, l_bar=l_bar)

    theta_raw = cfg.get("transfer", "theta", cast=str, default="average")
    if theta_raw == "average":
        bloch, theta = True, None
    else:
        bloch = False
        try:
            theta = float(theta_raw)
        except ValueError:
            raise ConfigError(
                f"[transfer] theta must be a number or 'average', got {theta_raw!r}"
            ) from None
    phi = cfg.get("transfer", "phi", default=0.0)

    jxy_nn = float(cm.jxy[0, 1])
    if jxy_nn <= 0.0:
        raise ZeroCoupling("nearest-neighbor flip-flop coupling is zero; no transfer")
    t_default = 2.0 * (geom.n_sites - 1) * swap_time(jxy_nn)
    t_max = cfg.get("transfer", "t_max", default=t_default)
    n_points = cfg.get("transfer", "n_points", cast=int, default=512)
    if n_points < 2:
        raise ConfigError("[transfer] n_points must be >= 2")
    t_grid = np.linspace(0.0, t_max, n_points)

    # A qubit sent from site 0 stays in the zero- and one-excitation
    # sectors, so the (N+1)-dimensional block is exact for every N.
    curve = transfer_fidelity_curve_subspace(
        cm, dq.omega_s, theta, phi, t_grid, bloch_average=bloch
    )

    theta_tag = "average" if bloch else _f12(theta)
    if args.fmt == "json":
        payload = {
            "meta": _meta_dict(
                "transfer", mode, orientation,
                theta=theta_tag, n_sites=geom.n_sites,
                path="subspace",
            ),
            "t": [float(v) for v in curve.t],
            "fidelity": [float(v) for v in curve.fidelity],
            "fidelity_raw": [float(v) for v in curve.fidelity_raw],
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = _meta_lines(
            "transfer", mode, orientation,
            extra=(
                f"# theta: {theta_tag}",
                f"# n_sites: {geom.n_sites}",
                "# path: subspace",
            ),
        )
        lines.append("t,fidelity,fidelity_raw")
        lines.extend(
            f"{_f12(t)},{_f12(f)},{_f12(r)}"
            for t, f, r in zip(curve.t, curve.fidelity, curve.fidelity_raw)
        )
        _emit("\n".join(lines), args.out)
    return EXIT_OK


# -- fidelity ------------------------------------------------------------


def cmd_fidelity(cfg: RunConfig, args) -> int:
    mode = cfg.anomaly_mode(args.mode)
    dq = derive_quantities(cfg.trap_params(mode))
    geom = cfg.geometry(cfg.orientation(args.orientation))
    occ = cfg.occupations(dq)
    _, jxy = pair_coupling_strengths(dq, _min_spacing(geom))
    report = total_fidelity(dq, occ, jxy, n_sites=geom.n_sites)

    if args.fmt == "json":
        payload = {"meta": _meta_dict("fidelity", mode), "report": report.as_dict()}
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = _meta_lines("fidelity", mode)
        lines.append("quantity,value")
        for name, value in report.as_dict().items():
            if name == "mode_tags":
                lines.append(f"mode_tags,{';'.join(value)}")
            elif name == "in_range":
                lines.append(f"in_range,{'yes' if value else 'no'}")
            elif name == "n_sites":
                lines.append(f"n_sites,{value}")
            else:
                lines.append(f"{name},{_f12(value)}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


# -- table1 --------------------------------------------------------------


def cmd_table1(cfg: RunConfig, args) -> int:
    del cfg  # the benchmark rows are built in
    records = []
    for row in REFERENCE_ROWS:
        with warnings.catch_warnings():
            # several rows sit deliberately at marginal frequency
            # hierarchies; the gates below are the actual verdict
            warnings.simplefilter("ignore", UserWarning)
            _, jxy_approx = row_couplings(row, AnomalyMode.APPROX_1E3)
            _, jxy_exact = row_couplings(row, AnomalyMode.EXACT_G)
            ratio_rad = coupling_ratio(row, AnomalyMode.APPROX_1E3)
            ratio_cyc = coupling_ratio(row, AnomalyMode.APPROX_1E3, cyclic_reading=True)
            misread_factor = max(ratio_cyc, 1.0 / ratio_cyc)
            f_exact = row_error_budget(row, AnomalyMode.EXACT_G).f_total
            f_approx = row_error_budget(row, AnomalyMode.APPROX_1E3).f_total
        records.append(
            {
                "row": row,
                "jxy_approx": jxy_approx,
                "jxy_exact": jxy_exact,
                "ratio_rad": ratio_rad,
                "misread_factor": misread_factor,
                "f_exact": f_exact,
                "f_approx": f_approx,
            }
        )

    gate_rad = all(0.5 <= rec["ratio_rad"] <= 2.0 for rec in records)
    gate_cyclic = sum(rec["misread_factor"] > 5.0 for rec in records) >= 4
    d10 = {
        rec["row"].case: rec
        for rec in records
        if abs(rec["row"].spacing - 10e-6) < 1e-12
    }
    err_ratios = {
        case: (1.0 - rec["f_exact"]) / (1.0 - TARGET_FIDELITY[case])
        for case, rec in d10.items()
    }
    gate_budget = all(1.0 / 3.0 <= r <= 3.0 for r in err_ratios.values())
    gate_order = (1.0 - d10["A"]["f_exact"]) > (1.0 - d10["B"]["f_exact"])
    passed = gate_rad and gate_cyclic and gate_budget and gate_order

    gates = (
        f"# gate quoted-column-read-as-1e3-rad/s within factor 2 (all rows): "
        f"{'pass' if gate_rad else 'FAIL'}",
        f"# gate cyclic-kHz misreading off by >5x (at least 4 rows): "
        f"{'pass' if gate_cyclic else 'FAIL'}",
        f"# gate d=10um error budgets within factor 3 of targets: "
        f"{'pass' if gate_budget else 'FAIL'}"
        + " ("
        + ", ".join(f"case {c}: {_f12(r)}" for c, r in sorted(err_ratios.items()))
        + ")",
        f"# gate case A errs more than case B: {'pass' if gate_order else 'FAIL'}",
        f"# overall: {'PASS' if passed else 'FAIL'}",
    )

    if args.fmt == "json":
        payload = {
            "meta": _meta_dict(
                "table1",
                quoted_unit="1e3 rad/s (resolved reading)",
                gates={
                    "rad_reading_within_2x": gate_rad,
                    "cyclic_misread_over_5x_on_4_rows": gate_cyclic,
                    "d10_error_within_3x": gate_budget,
                    "case_a_errs_more_than_b": gate_order,
                    "overall": passed,
                },
            ),
            "rows": [
                {
                    "case": rec["row"].case,
                    "d": rec["row"].spacing,
                    "f_z": rec["row"].f_z,
                    "gradient": rec["row"].gradient,
                    "l_bar": rec["row"].l_bar,
                    "quoted": rec["row"].jxy_printed,
                    "jxy_approx": rec["jxy_approx"],
                    "jxy_exact": rec["jxy_exact"],
                    "rad_reading_ratio": rec["ratio_rad"],
                    "cyclic_misread_factor": rec["misread_factor"],
                    "f_exact": rec["f_exact"],
                    "f_approx": rec["f_approx"],
                    "f_target": TARGET_FIDELITY[rec["row"].case],
                }
                for rec in records
            ],
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = _meta_lines(
            "table1", extra=("# quoted column resolved as 1e3 rad/s",) + gates
        )
        lines.append(
            "case,d,f_z,gradient,l_bar,quoted,jxy_approx,jxy_exact,"
            "rad_reading_ratio,cyclic_misread_factor,f_exact,f_approx,f_target"
        )
        for rec in records:
            row = rec["row"]
            lines.append(
                ",".join(
                    (
                        row.case,
                        _f12(row.spacing),
                        _f12(row.f_z),
                        _f12(row.gradient),
                        _f12(row.l_bar),
                        _f12(row.jxy_printed),
                        _f12(rec["jxy_approx"]),
                        _f12(rec["jxy_exact"]),
                        _f12(rec["ratio_rad"]),
                        _f12(rec["misread_factor"]),
                        _f12(rec["f_exact"]),
                        _f12(rec["f_approx"]),
                        _f12(TARGET_FIDELITY[row.case]),
                    )
                )
            )
        _emit("\n".join(lines), args.out)
    return EXIT_OK if passed else EXIT_ACCEPTANCE_FAILURE


# -- sweep ---------------------------------------------------------------

_SWEEP_AXES = ("gradient", "spacing", "f_z", "f_c")


def _sweep_axes(cfg: RunConfig) -> list[tuple[str, np.ndarray]]:
    raw = cfg.get("sweep", "axes", cast=str)
    names = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not names:
        raise ConfigError("[sweep] axes must name at least one axis")
    axes = []
    total = 1
    for name in names:
        if name not in _SWEEP_AXES:
            raise ConfigError(
                f"unsupported sweep axis {name!r}; choose from {', '.join(_SWEEP_AXES)}"
            )
        spec = cfg.get("sweep", name, cast=str)
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"[sweep] {name} must be start:stop:count, got {spec!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"cannot parse [sweep] {name} = {spec!r}") from None
        if count < 1:
            raise ConfigError(f"[sweep] {name} count must be >= 1")
        axes.append((name, np.linspace(start, stop, count)))
        total *= count
    if total > MAX_SWEEP_POINTS:
        raise GridTooLarge(f"sweep grid has {total} points; the budget is {MAX_SWEEP_POINTS}")
    return axes


def _point_params(cfg: RunConfig, values: dict, mode: AnomalyMode) -> TrapParams:
    consts = CODATA2018
    if "f_c" in values:
        b0 = TWO_PI * values["f_c"] * consts.m_e / consts.e
    else:
        has_b0, has_fc = cfg.has("trap", "b0"), cfg.has("trap", "f_c")
        if has_b0 == has_fc:
            raise ConfigError("specify exactly one of b0 or f_c in [trap]")
        b0 = (
            cfg.get("trap", "b0")
            if has_b0
            else TWO_PI * cfg.get("trap", "f_c") * consts.m_e / consts.e
        )
    if "f_z" in values:
        omega_z = TWO_PI * values["f_z"]
    elif cfg.has("trap", "f_z"):
        omega_z = TWO_PI * cfg.get("trap", "f_z")
    elif cfg.has("trap", "omega_z"):
        omega_z = cfg.get("trap", "omega_z")
    else:
        raise ConfigError("sweep needs [trap] f_z or omega_z unless f_z is an axis")
    gradient = values.get("gradient", cfg.get("trap", "gradient", default=0.0))
    return TrapParams(B0=b0, b=gradient, omega_z_in=omega_z, anomaly_mode=mode)


def cmd_sweep(cfg: RunConfig, args) -> int:
    mode = cfg.anomaly_mode(args.mode)
    axes = _sweep_axes(cfg)
    axis_names = [name for name, _ in axes]
    if "spacing" not in axis_names and not cfg.has("chain", "spacing"):
        raise ConfigError("sweep needs [chain] spacing unless spacing is an axis")

    nan = float("nan")
    out_rows = []
    for combo in itertools.product(*(vals for _, vals in axes)):
        values = dict(zip(axis_names, (float(v) for v in combo)))
        d = values.get("spacing", cfg.get("chain", "spacing", default=nan))
        gradient = values.get("gradient", cfg.get("trap", "gradient", default=0.0))
        with warnings.catch_warnings():
            # marginal grid points are expected; the regime_ok column is
            # the per-point verdict
            warnings.simplefilter("ignore", UserWarning)
            try:
                dq = derive_quantities(_point_params(cfg, values, mode), strict=False)
            except ComplexFrequency:
                out_rows.append((gradient, d, nan, nan, nan, nan, nan, nan, nan, 0))
                continue
            _, jxy = pair_coupling_strengths(dq, d)
            xi = coulomb_scale(dq, d)
            occ = cfg.occupations(dq)
            regime_ok = validate_regime(dq, xi=xi, l_bar=occ.l_bar).ok
            if jxy > 0.0:
                t_ex = swap_time(jxy)
                report = total_fidelity(dq, occ, jxy)
                f_total = report.f_total
                e_r = report.error_residual_value
                es2 = report.error_canonical_scaled
            else:
                t_ex = f_total = e_r = es2 = nan
        out_rows.append(
            (gradient, d, dq.omega_z, dq.omega_c, jxy, t_ex, f_total, e_r, es2,
             int(regime_ok))
        )

    header = "b,d,omega_z,omega_c,jxy,t_ex,f_total,e_r,eps2_e_s,regime_ok"
    if args.fmt == "json":
        payload = {
            "meta": _meta_dict("sweep", mode, axes=axis_names),
            "columns": header.split(","),
            "rows": [list(r) for r in out_rows],
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = _meta_lines("sweep", mode, extra=(f"# axes: {','.join(axis_names)}",))
        lines.append(header)
        lines.extend(
            ",".join(_f12(v) if isinstance(v, float) else str(v) for v in row)
            for row in out_rows
        )
        _emit("\n".join(lines), args.out)
    return EXIT_OK


# -- oracle --------------------------------------------------------------


def cmd_oracle(cfg: RunConfig, args) -> int:
    mode = cfg.anomaly_mode(args.mode)
    orientation = cfg.orientation(args.orientation)
    trunc = FockTruncation(
        n_max=cfg.get("oracle", "n_max", cast=int, default=3),
        k_max=cfg.get("oracle", "k_max", cast=int, default=3),
    )
    report = run_validation_suite(
        epsilon=cfg.get("oracle", "epsilon", default=0.025),
        freq_ratio=cfg.get("oracle", "freq_ratio", default=15.0),
        xi_over_omega_z=cfg.get("oracle", "xi_over_omega_z", default=0.01),
        trunc=trunc,
        orientation=orientation,
        anomaly_mode=mode,
        tolerance=cfg.get("oracle", "tolerance", default=0.15),
    )
    if args.fmt == "json":
        payload = {
            "meta": _meta_dict("oracle", mode, orientation),
            "checks": [
                {
                    "name": c.name,
                    "predicted": c.predicted,
                    "measured": c.measured,
                    "deviation": c.deviation,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                    "note": c.note,
                }
                for c in report.checks
            ],
            "convergence": [[k, j] for k, j in report.convergence],
            "convergence_monotone": report.convergence_monotone,
            "passed": report.passed,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(report.as_text(), args.out)
    return EXIT_OK if report.passed else EXIT_ACCEPTANCE_FAILURE


_HANDLERS = {
    "freqs": cmd_freqs,
    "couplings": cmd_couplings,
    "transfer": cmd_transfer,
    "fidelity": cmd_fidelity,
    "table1": cmd_table1,
    "sweep": cmd_sweep,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = RunConfig.load(args.config) if args.config else RunConfig.empty()
        return _HANDLERS[args.command](cfg, args)
    except (HierarchyViolation, ComplexFrequency, RegimeError) as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return EXIT_REGIME_VIOLATION
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
