"""Golden corpus of CLI calls and demo runs: the call list, the runner and the comparison.

Every call runs in process, with ``configs/`` paths relative to this
directory.  The expected stdout of call ``name`` is ``expected/<name>.out``,
its stderr ``expected/<name>.err`` (absent when empty), and its exit code is
in ``expected/exit_codes.json``.  ``regen.py`` writes them for the
calls that are new or fail their check.

Outputs compare byte for byte, with three exceptions:

* Python warnings are recorded as ``<Category>: <message>``, without the
  ``path:line:`` prefix and the echoed source line, which move whenever a
  source file is edited.
* ``transfer`` values compare within the eigensolver's rounding scale,
  16 * eps * (N * omega_s / 2) * t_max, the bound the ``chain_transfer``
  benchmark check applies.
* The dense-vs-block difference printed by ``demos/state_transfer.py`` is
  rounding noise that depends on the BLAS thread count; it compares within
  1e-8.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import runpy
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from penning_chain.cli import main
from penning_chain.config import RunConfig
from penning_chain.trap_model import derive_quantities

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
EXIT_CODES = EXPECTED / "exit_codes.json"
DEMOS = HERE.parent.parent / "demos"

COMMANDS = ("freqs", "couplings", "transfer", "fidelity", "table1", "sweep", "oracle")
FORMATS = ("csv", "json")

DEMO_DIFF_LINE = "nine sites, dense vs single-excitation block: max |difference| = "
DEMO_DIFF_TOL = 1e-8


@dataclass(frozen=True)
class Call:
    """One corpus entry: a CLI argv, or a demo script when ``demo`` is set."""

    name: str
    argv: tuple[str, ...] = ()
    demo: str | None = None


def _cli(name: str, *argv: str) -> Call:
    return Call(name, tuple(argv))


def _product(config: str, commands, formats=FORMATS, orientations=(None,), modes=(None,)):
    """CLI calls over the given commands, formats, orientations and modes."""
    calls = []
    for command, fmt, orientation, mode in itertools.product(
        commands, formats, orientations, modes
    ):
        argv = [command, "--config", f"configs/{config}.ini", "--format", fmt]
        name = [command, config, fmt]
        if orientation:
            argv += ["--orientation", orientation]
            name.append(orientation)
        if mode:
            argv += ["--mode", mode]
            name.append(mode)
        calls.append(Call("-".join(name), tuple(argv)))
    return calls


def corpus() -> list[Call]:
    calls = _product("base", COMMANDS, orientations=("z", "x"), modes=("exact", "approx"))
    calls += _product("transfer5_theta", ("couplings", "transfer"))
    calls += _product("positions_x", ("freqs", "couplings", "transfer", "fidelity"))
    calls += _product("v0_ell", ("freqs", "couplings", "transfer", "fidelity"))
    calls += _product("weak_gradient", ("freqs", "couplings", "transfer", "fidelity", "sweep"))
    calls += _product("hierarchy_warn", ("freqs", "couplings", "fidelity"))
    calls += _product("hot", ("fidelity",))
    calls += _product("sweep_grid", ("sweep",), modes=("exact", "approx"))
    calls += _product("sweep_fc_nan", ("sweep",), modes=("exact", "approx"))
    calls += _product("sweep_fz_omegaz", ("sweep",), modes=("exact", "approx"))
    calls += _product("sweep_v0_ell", ("sweep",), modes=("exact", "approx"))
    calls += [
        _cli("table1-noconfig-csv", "table1"),
        _cli("table1-noconfig-json", "table1", "--format", "json"),
        # refusals: exit 1 (input), 2 (regime), 3 (acceptance)
        _cli("refuse1-missing-file", "freqs", "--config", "configs/missing.ini"),
        _cli("refuse1-unknown-key", "freqs", "--config", "configs/unknown_key.ini"),
        _cli("refuse1-bad-flag", "freqs", "--mode", "bogus"),
        _cli("refuse1-bad-theta", "transfer", "--config", "configs/bad_theta.ini"),
        _cli("refuse1-oversized-sweep", "sweep", "--config", "configs/sweep_oversized.ini"),
        # a number that is not finite, one call per place a config number is read
        _cli("refuse1-nonfinite-fc", "freqs", "--config", "configs/nonfinite_fc.ini"),
        _cli("refuse1-nonfinite-temperature", "fidelity", "--config",
             "configs/nonfinite_temperature.ini"),
        _cli("refuse1-nonfinite-lbar", "fidelity", "--config", "configs/nonfinite_lbar.ini"),
        _cli("refuse1-nonfinite-oracle", "oracle", "--config", "configs/nonfinite_oracle.ini"),
        _cli("refuse1-nonfinite-positions", "couplings", "--config",
             "configs/nonfinite_positions.ini"),
        _cli("refuse1-nonfinite-sweep", "sweep", "--config", "configs/nonfinite_sweep.ini"),
        _cli("refuse1-nonfinite-theta", "transfer", "--config", "configs/nonfinite_theta.ini"),
        # a magnetron occupation below zero, one call per command that reads it
        *(_cli(f"refuse1-negative-lbar-{command}", command, "--config",
               "configs/negative_lbar.ini") for command in ("freqs", "couplings", "transfer")),
        _cli("refuse1-nonpositive-tmax", "transfer", "--config", "configs/nonpositive_tmax.ini"),
        _cli("refuse2-hierarchy", "freqs", "--config", "configs/hierarchy_broken.ini"),
        _cli("refuse2-unstable", "couplings", "--config", "configs/unstable.ini"),
        _cli("refuse3-oracle", "oracle", "--config", "configs/oracle_fail.ini"),
        _cli("refuse3-oracle-json", "oracle", "--config", "configs/oracle_fail.ini",
             "--format", "json"),
    ]
    calls += [Call(f"demo-{path.stem}", demo=path.name) for path in sorted(DEMOS.glob("*.py"))]
    return calls


# -- running ---------------------------------------------------------------


def _record_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(f"{category.__name__}: {message}\n")


@contextlib.contextmanager
def _in_golden_dir():
    previous = os.getcwd()
    os.chdir(HERE)
    try:
        yield
    finally:
        os.chdir(previous)


def run(call: Call) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one call, as a fresh process would print them."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), _in_golden_dir(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # the interpreter's default filters; entering catch_warnings also
        # clears the once-per-location registries, so each call starts fresh
        warnings.resetwarnings()
        for category in (DeprecationWarning, PendingDeprecationWarning, ImportWarning,
                         ResourceWarning):
            warnings.simplefilter("ignore", category)
        warnings.showwarning = _record_warning
        if call.demo is None:
            rc = main(list(call.argv))
        else:
            runpy.run_path(str(DEMOS / call.demo), run_name="__main__")
            rc = 0
    return rc, out.getvalue(), err.getvalue()


# -- expected files --------------------------------------------------------


def load_expected(call: Call, exit_codes: dict) -> tuple[int, str, str] | None:
    out = EXPECTED / f"{call.name}.out"
    if call.name not in exit_codes or not out.exists():
        return None
    err = EXPECTED / f"{call.name}.err"
    return (
        exit_codes[call.name],
        out.read_text(),
        err.read_text() if err.exists() else "",
    )


def write_expected(call: Call, result: tuple[int, str, str]) -> None:
    _, stdout, stderr = result
    (EXPECTED / f"{call.name}.out").write_text(stdout)
    err = EXPECTED / f"{call.name}.err"
    if stderr:
        err.write_text(stderr)
    elif err.exists():
        err.unlink()


def read_exit_codes() -> dict:
    return json.loads(EXIT_CODES.read_text()) if EXIT_CODES.exists() else {}


# -- comparison ------------------------------------------------------------


def _argv_value(argv, flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _transfer_atol(call: Call, n_sites: int, t_max: float) -> float:
    cfg = RunConfig.load(HERE / _argv_value(call.argv, "--config"))
    mode = cfg.anomaly_mode(_argv_value(call.argv, "--mode"))
    omega_s = derive_quantities(cfg.trap_params(mode)).omega_s
    return 16.0 * np.finfo(float).eps * 0.5 * n_sites * omega_s * t_max


def _transfer_mismatch(call: Call, want: str, got: str) -> str | None:
    if _argv_value(call.argv, "--format") == "json":
        want_doc, got_doc = json.loads(want), json.loads(got)
        if want_doc["meta"] != got_doc["meta"] or want_doc["t"] != got_doc["t"]:
            return "meta or time grid differs"
        n_sites = want_doc["meta"]["n_sites"]
        want_cols = [want_doc["fidelity"], want_doc["fidelity_raw"]]
        got_cols = [got_doc["fidelity"], got_doc["fidelity_raw"]]
        t = want_doc["t"]
    else:
        want_lines, got_lines = want.splitlines(), got.splitlines()
        head = [ln for ln in want_lines if ln.startswith("#") or ln.startswith("t,")]
        if head != [ln for ln in got_lines if ln.startswith("#") or ln.startswith("t,")]:
            return "metadata or header differs"
        n_sites = int(next(ln for ln in head if ln.startswith("# n_sites:")).split(":")[1])
        want_rows = [ln.split(",") for ln in want_lines[len(head):]]
        got_rows = [ln.split(",") for ln in got_lines[len(head):]]
        if [r[0] for r in want_rows] != [r[0] for r in got_rows]:
            return "time grid differs"
        want_cols = [[float(r[i]) for r in want_rows] for i in (1, 2)]
        got_cols = [[float(r[i]) for r in got_rows] for i in (1, 2)]
        t = [float(r[0]) for r in want_rows]
    atol = _transfer_atol(call, n_sites, t[-1])
    for w, g in zip(want_cols, got_cols):
        w, g = np.asarray(w), np.asarray(g)
        if w.shape != g.shape:
            return "curve length differs"
        worst = float(np.max(np.abs(w - g))) if w.size else 0.0
        if not worst <= atol:
            return f"curve moved by {worst:.3g}, tolerance {atol:.3g}"
    return None


def _demo_mismatch(want: str, got: str) -> str | None:
    want_lines, got_lines = want.splitlines(), got.splitlines()
    if len(want_lines) != len(got_lines):
        return "line count differs"
    for w, g in zip(want_lines, got_lines):
        if w == g:
            continue
        if w.startswith(DEMO_DIFF_LINE) and g.startswith(DEMO_DIFF_LINE):
            w_val = float(w[len(DEMO_DIFF_LINE):])
            g_val = float(g[len(DEMO_DIFF_LINE):])
            if abs(w_val - g_val) <= DEMO_DIFF_TOL:
                continue
        return f"line differs: {g!r} (expected {w!r})"
    return None


def mismatch(call: Call, want: tuple[int, str, str], got: tuple[int, str, str]) -> str | None:
    """Why ``got`` does not match ``want``, or None when it does."""
    (want_rc, want_out, want_err), (got_rc, got_out, got_err) = want, got
    if want_rc != got_rc:
        return f"exit code {got_rc}, expected {want_rc}"
    if want_err != got_err:
        return f"stderr differs: {got_err!r} (expected {want_err!r})"
    if want_out == got_out:
        return None
    if call.demo is not None:
        return _demo_mismatch(want_out, got_out)
    if call.argv[0] == "transfer" and want_rc == 0:
        return _transfer_mismatch(call, want_out, got_out)
    return "stdout differs"
