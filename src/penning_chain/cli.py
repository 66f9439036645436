"""Command-line front end.

Subcommands: ``freqs`` (derived frequencies and regime report),
``couplings`` (pairwise coupling matrix), ``transfer`` (end-to-end transfer
fidelity curve), ``fidelity`` (thermal error budget), ``table1`` (benchmark
comparison table), ``sweep`` (design-space CSV), ``oracle`` (truncated-Fock
validation suite).

Exit codes: 0 success, 1 input error, 2 regime violation, 3 acceptance
failure.  Each command returns an ``_Output`` record, and ``_write`` alone
renders it as CSV or JSON and writes it to ``--out`` or stdout.  Output is
deterministic: floats are printed with 12 significant digits and every CSV
file starts with '#' metadata lines recording the mode flags, constants
version, and unit conventions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import sys
import warnings
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .benchmarks import (
    REFERENCE_ROWS,
    TARGET_FIDELITY,
    coupling_ratio,
    row_couplings,
    row_error_budget,
)
from .config import MAX_SWEEP_POINTS, ConfigError, GridTooLarge, RunConfig, require_finite
from .constants import CONSTANTS_VERSION
from .couplings import (
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


def _cell(value) -> str:
    return _f12(value) if isinstance(value, float) else str(value)


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


def _meta(command: str, mode=None, orientation=None, **extra) -> dict:
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


@dataclass(frozen=True)
class _Output:
    """What one command prints, before a format is chosen.

    ``payload`` builds the JSON fields that follow ``"meta"``; it may also
    return a ``"meta"`` of its own, a superset of ``meta`` (table1 does).
    ``table`` builds the CSV body: finished text from a library renderer, or
    a ``(header, rows)`` pair.  Only the requested rendering is built.
    """

    meta: dict
    payload: Callable[[], dict]
    table: Callable[[], str | tuple[str, Iterable]]
    code: int = EXIT_OK
    notes: tuple[str, ...] = ()  # CSV-only '#' lines after the metadata


def _csv_lines(out: _Output, header: str, rows: Iterable):
    yield f"# {out.meta['command']}\n"
    for key, value in out.meta.items():
        if key != "command":
            yield f"# {key}: {','.join(value) if isinstance(value, list) else value}\n"
    for note in out.notes:
        yield f"# {note}\n"
    yield header + "\n"
    for row in rows:
        yield ",".join(map(_cell, row)) + "\n"


def _null_nonfinite(value):
    """``value`` with every infinite or NaN float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {key: _null_nonfinite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_nonfinite(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write(out: _Output, args) -> None:
    """Render ``out`` as JSON or CSV, to ``--out`` or stdout, line by line.

    JSON is strict: a non-finite float is written as null.  CSV prints nan.
    """
    if args.fmt == "json":
        document = _null_nonfinite({"meta": out.meta, **out.payload()})
        chunks = [json.dumps(document, indent=2, allow_nan=False) + "\n"]
    else:
        table = out.table()
        if isinstance(table, str):
            chunks = [table if table.endswith("\n") else table + "\n"]
        else:
            chunks = _csv_lines(out, *table)
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(chunks)


# -- freqs ---------------------------------------------------------------


def cmd_freqs(cfg: RunConfig, args) -> _Output:
    mode = cfg.anomaly_mode(args.mode)
    dq = derive_quantities(cfg.trap_params(mode))
    xi = 0.0
    if cfg.has("chain", "spacing") or cfg.has("chain", "positions"):
        geom = cfg.geometry(cfg.orientation(args.orientation))
        xi = coulomb_scale(dq, geom.min_spacing)
    report = validate_regime(dq, xi=xi, l_bar=cfg.l_bar())

    quantities = {
        name: getattr(dq, name)
        for name in ("omega_c", "omega_z", "omega_m", "omega_s", "omega_a", "omega_c_tilde",
                     "delta_z", "epsilon")
    }
    return _Output(
        _meta("freqs", mode),
        payload=lambda: {
            "quantities": quantities,
            "regime": [
                {"condition": c.name, "ratio": c.ratio, "ok": c.ok}
                for c in report.conditions
            ],
            "regime_ok": report.ok,
        },
        table=lambda: (
            "quantity,value",
            [
                *quantities.items(),
                *(
                    (f"regime:{c.name}", c.ratio, "ok" if c.ok else "fail")
                    for c in report.conditions
                ),
            ],
        ),
        code=EXIT_OK if report.ok else EXIT_REGIME_VIOLATION,
    )


# -- couplings -----------------------------------------------------------


def cmd_couplings(cfg: RunConfig, args) -> _Output:
    mode = cfg.anomaly_mode(args.mode)
    orientation = cfg.orientation(args.orientation)
    dq = derive_quantities(cfg.trap_params(mode))
    geom = cfg.geometry(orientation)
    cm = coupling_matrix(dq, geom, l_bar=cfg.l_bar())

    def csv_text() -> str:
        buf = io.StringIO()
        write_csv(cm, buf)
        return buf.getvalue()

    return _Output(
        _meta("couplings", mode, orientation),
        payload=lambda: {
            "pairs": [
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
        },
        table=csv_text,
    )


# -- transfer ------------------------------------------------------------


def cmd_transfer(cfg: RunConfig, args) -> _Output:
    mode = cfg.anomaly_mode(args.mode)
    orientation = cfg.orientation(args.orientation)
    dq = derive_quantities(cfg.trap_params(mode))
    geom = cfg.geometry(orientation)
    cm = coupling_matrix(dq, geom, l_bar=cfg.l_bar())

    theta_raw = cfg.get("transfer", "theta", cast=str, default="average")
    bloch = theta_raw == "average"
    try:
        theta = None if bloch else float(theta_raw)
    except ValueError:
        raise ConfigError(
            f"[transfer] theta must be a number or 'average', got {theta_raw!r}"
        ) from None
    if not bloch:
        require_finite("[transfer] theta", theta_raw, theta)
    phi = cfg.get("transfer", "phi", default=0.0)

    jxy_nn = float(cm.jxy[0, 1])
    if jxy_nn <= 0.0:
        raise ZeroCoupling("nearest-neighbor flip-flop coupling is zero; no transfer")
    t_default = 2.0 * (geom.n_sites - 1) * swap_time(jxy_nn)
    t_max = cfg.get("transfer", "t_max", default=t_default)
    if t_max <= 0.0:
        raise ConfigError("[transfer] t_max must be > 0")
    n_points = cfg.get("transfer", "n_points", cast=int, default=512)
    if n_points < 2:
        raise ConfigError("[transfer] n_points must be >= 2")
    t_grid = np.linspace(0.0, t_max, n_points)

    # A qubit sent from site 0 stays in the zero- and one-excitation
    # sectors, so the (N+1)-dimensional block is exact for every N.
    curve = transfer_fidelity_curve_subspace(
        cm, dq.omega_s, theta, phi, t_grid, bloch_average=bloch
    )
    # Python floats format faster than numpy scalars, to the same digits
    columns = {
        "t": curve.t.tolist(),
        "fidelity": curve.fidelity.tolist(),
        "fidelity_raw": curve.fidelity_raw.tolist(),
    }
    return _Output(
        _meta(
            "transfer", mode, orientation,
            theta="average" if bloch else _f12(theta), n_sites=geom.n_sites,
            path="subspace",
        ),
        payload=lambda: columns,
        table=lambda: (",".join(columns), zip(*columns.values())),
    )


# -- fidelity ------------------------------------------------------------


def _budget_cell(name: str, value):
    if name == "mode_tags":
        return ";".join(value)
    if name == "in_range":
        return "yes" if value else "no"
    return value


def cmd_fidelity(cfg: RunConfig, args) -> _Output:
    mode = cfg.anomaly_mode(args.mode)
    dq = derive_quantities(cfg.trap_params(mode))
    geom = cfg.geometry(cfg.orientation(args.orientation))
    occ = cfg.occupations(dq)
    _, jxy = pair_coupling_strengths(dq, geom.min_spacing)
    budget = total_fidelity(dq, occ, jxy, n_sites=geom.n_sites).as_dict()
    return _Output(
        _meta("fidelity", mode),
        payload=lambda: {"report": budget},
        table=lambda: (
            "quantity,value",
            [(name, _budget_cell(name, value)) for name, value in budget.items()],
        ),
    )


# -- table1 --------------------------------------------------------------


def cmd_table1(cfg: RunConfig, args) -> _Output:
    del cfg, args  # the benchmark rows are built in
    records = []
    with warnings.catch_warnings():
        # several rows sit deliberately at marginal frequency hierarchies;
        # the gates below are the actual verdict
        warnings.simplefilter("ignore", UserWarning)
        for row in REFERENCE_ROWS:
            ratio_cyc = coupling_ratio(row, AnomalyMode.APPROX_1E3, cyclic_reading=True)
            records.append(
                {
                    "case": row.case,
                    "d": row.spacing,
                    "f_z": row.f_z,
                    "gradient": row.gradient,
                    "l_bar": row.l_bar,
                    "quoted": row.jxy_printed,
                    "jxy_approx": row_couplings(row, AnomalyMode.APPROX_1E3)[1],
                    "jxy_exact": row_couplings(row, AnomalyMode.EXACT_G)[1],
                    "rad_reading_ratio": coupling_ratio(row, AnomalyMode.APPROX_1E3),
                    "cyclic_misread_factor": max(ratio_cyc, 1.0 / ratio_cyc),
                    "f_exact": row_error_budget(row, AnomalyMode.EXACT_G).f_total,
                    "f_approx": row_error_budget(row, AnomalyMode.APPROX_1E3).f_total,
                    "f_target": TARGET_FIDELITY[row.case],
                }
            )

    d10 = {rec["case"]: rec for rec in records if abs(rec["d"] - 10e-6) < 1e-12}
    err_ratios = {
        case: (1.0 - rec["f_exact"]) / (1.0 - rec["f_target"]) for case, rec in d10.items()
    }
    gates = {
        "rad_reading_within_2x": all(0.5 <= rec["rad_reading_ratio"] <= 2.0 for rec in records),
        "cyclic_misread_over_5x_on_4_rows":
            sum(rec["cyclic_misread_factor"] > 5.0 for rec in records) >= 4,
        "d10_error_within_3x": all(1.0 / 3.0 <= r <= 3.0 for r in err_ratios.values()),
        "case_a_errs_more_than_b": (1.0 - d10["A"]["f_exact"]) > (1.0 - d10["B"]["f_exact"]),
    }
    gates["overall"] = all(gates.values())
    verdict = {key: "pass" if ok else "FAIL" for key, ok in gates.items()}
    ratios = ", ".join(f"case {c}: {_f12(r)}" for c, r in sorted(err_ratios.items()))

    meta = _meta("table1")
    return _Output(
        meta,
        payload=lambda: {
            "meta": {**meta, "quoted_unit": "1e3 rad/s (resolved reading)", "gates": gates},
            "rows": records,
        },
        table=lambda: (",".join(records[0]), (rec.values() for rec in records)),
        code=EXIT_OK if gates["overall"] else EXIT_ACCEPTANCE_FAILURE,
        notes=(
            "quoted column resolved as 1e3 rad/s",
            "gate quoted-column-read-as-1e3-rad/s within factor 2 (all rows): "
            f"{verdict['rad_reading_within_2x']}",
            "gate cyclic-kHz misreading off by >5x (at least 4 rows): "
            f"{verdict['cyclic_misread_over_5x_on_4_rows']}",
            "gate d=10um error budgets within factor 3 of targets: "
            f"{verdict['d10_error_within_3x']} ({ratios})",
            f"gate case A errs more than case B: {verdict['case_a_errs_more_than_b']}",
            f"overall: {verdict['overall'].upper()}",
        ),
    )


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
        require_finite(f"[sweep] {name} bounds", spec, start, stop)
        if count < 1:
            raise ConfigError(f"[sweep] {name} count must be >= 1")
        axes.append((name, np.linspace(start, stop, count)))
        total *= count
    if total > MAX_SWEEP_POINTS:
        raise GridTooLarge(f"sweep grid has {total} points; the budget is {MAX_SWEEP_POINTS}")
    return axes


def cmd_sweep(cfg: RunConfig, args) -> _Output:
    mode = cfg.anomaly_mode(args.mode)
    axes = _sweep_axes(cfg)
    axis_names = [name for name, _ in axes]
    if "spacing" not in axis_names and not cfg.has("chain", "spacing"):
        raise ConfigError("sweep needs [chain] spacing unless spacing is an axis")

    nan = float("nan")
    fixed_spacing = cfg.get("chain", "spacing", default=nan)
    out_rows = []
    with warnings.catch_warnings():
        # marginal grid points are expected; the regime_ok column is the
        # per-point verdict
        warnings.simplefilter("ignore", UserWarning)
        for combo in itertools.product(*(vals for _, vals in axes)):
            point = dict(zip(axis_names, (float(v) for v in combo)))
            d = point.get("spacing", fixed_spacing)
            params = cfg.trap_params(mode, point)
            try:
                dq = derive_quantities(params, strict=False)
            except ComplexFrequency:
                out_rows.append((params.b, d, nan, nan, nan, nan, nan, nan, nan, 0))
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
                (params.b, d, dq.omega_z, dq.omega_c, jxy, t_ex, f_total, e_r, es2,
                 int(regime_ok))
            )

    header = "b,d,omega_z,omega_c,jxy,t_ex,f_total,e_r,eps2_e_s,regime_ok"
    return _Output(
        _meta("sweep", mode, axes=axis_names),
        payload=lambda: {"columns": header.split(","), "rows": [list(r) for r in out_rows]},
        table=lambda: (header, out_rows),
    )


# -- oracle --------------------------------------------------------------


def cmd_oracle(cfg: RunConfig, args) -> _Output:
    mode = cfg.anomaly_mode(args.mode)
    orientation = cfg.orientation(args.orientation)

    def given(cast, *keys) -> dict:
        # only the keys the config sets: the suite owns every default
        return {key: cfg.get("oracle", key, cast=cast) for key in keys if cfg.has("oracle", key)}

    report = run_validation_suite(
        trunc=FockTruncation(**given(int, "n_max", "k_max")),
        orientation=orientation,
        anomaly_mode=mode,
        **given(float, "epsilon", "freq_ratio", "xi_over_omega_z", "tolerance"),
    )
    return _Output(
        _meta("oracle", mode, orientation),
        payload=lambda: asdict(report),
        table=report.as_text,
        code=EXIT_OK if report.passed else EXIT_ACCEPTANCE_FAILURE,
    )


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
        out = _HANDLERS[args.command](cfg, args)
        _write(out, args)
        return out.code
    except (HierarchyViolation, ComplexFrequency, RegimeError) as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return EXIT_REGIME_VIOLATION
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
