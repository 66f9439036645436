"""Seeded workload inputs and output checks for the CLI benchmark.

A workload is a pool of ``POOL_SIZE`` seeded jobs of one fixed size; job
``i`` of a run is ``pool[i % POOL_SIZE]``, so every seed does the same amount
of work and only the physical parameters change.  A job is one or more
``penning_chain.cli.main`` calls.  Everything here runs outside the timed
window: ``make_pool`` during set-up, ``check`` after the jobs have run.

Importing this module imports ``penning_chain``; the caller puts the
package's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from penning_chain import (
    AnomalyMode,
    Orientation,
    ThermalOccupations,
    TrapParams,
    coulomb_scale,
    coupling_matrix,
    derive_quantities,
    pair_coupling_strengths,
    swap_time,
    total_fidelity,
    transfer_fidelity_curve_subspace,
    uniform_chain,
    validate_regime,
)
from penning_chain.constants import CODATA2018
from penning_chain.microscopic_oracle import predicted_couplings, synthetic_quantities

POOL_SIZE = 4
DEFAULT_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference_seed0.json")

# Seeded rows a sweep check recomputes through the public API.
SWEEP_SAMPLE_ROWS = 8
# Evenly spaced rows (and curve points) recorded for the default seed.
REFERENCE_SAMPLES = 16


@dataclass(frozen=True)
class Job:
    """One pool entry: the CLI calls of a job and the parameters behind them."""

    index: int
    argvs: tuple[tuple[str, ...], ...]
    params: dict


@dataclass(frozen=True)
class Call:
    """Outcome of one ``cli.main`` call: exit code (None if it raised) and output."""

    rc: int | None
    stdout: str
    error: str = ""


def _ini(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                     for key, value in keys.items())
    return "\n".join(lines) + "\n"


def _csv_rows(text: str) -> tuple[str, list[list[str]]]:
    """Header and data rows of a CLI CSV output, '#' metadata lines skipped."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return "", []
    return lines[0], [ln.split(",") for ln in lines[1:]]


def _meta(text: str, key: str) -> str | None:
    prefix = f"# {key}: "
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def _close(got, want, rtol: float, atol: float = 0.0) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if want.ndim == 0:
        want = np.full(got.shape, float(want))
    if got.shape != want.shape:
        return False
    nan_got, nan_want = np.isnan(got), np.isnan(want)
    if not np.array_equal(nan_got, nan_want):
        return False
    ok = ~nan_want
    return bool(np.all(np.abs(got[ok] - want[ok]) <= rtol * np.abs(want[ok]) + atol))


def _sample_indices(n: int, k: int = REFERENCE_SAMPLES) -> list[int]:
    return sorted({round(i * (n - 1) / (k - 1)) for i in range(k)}) if n > 1 else [0]


class Workload:
    """Base: seeded pool, per-job checks and the values recorded for seed 0."""

    name = ""
    job_size = ""
    # key -> (rtol, atol) for the default-seed reference comparison
    tolerances: dict[str, tuple[float, float]] = {}

    def make_pool(self, seed: int, directory: Path) -> list[Job]:
        directory.mkdir(parents=True, exist_ok=True)
        return [self.make_job(random.Random(f"{self.name}:{seed}:{i}"), i, directory)
                for i in range(POOL_SIZE)]

    def make_job(self, rng: random.Random, index: int, directory: Path) -> Job:
        raise NotImplementedError

    def cross_check(self, job: Job, calls: list[Call], rng: random.Random) -> list[str]:
        raise NotImplementedError

    def summary(self, job: Job, calls: list[Call]) -> dict[str, list[float]]:
        raise NotImplementedError

    def output_counts(self, calls: list[Call]) -> dict[str, float]:
        """Per-job counts read from the output, for the traced run."""
        return {"cli.out_bytes": float(sum(len(c.stdout.encode()) for c in calls))}

    def check(self, job: Job, calls: list[Call], seed: int, reference: dict | None) -> list[str]:
        """Problems found in one job's outputs; an empty list means it passed."""
        if len(calls) != len(job.argvs):
            last = calls[-1] if calls else Call(None, "", "no call ran")
            return [f"call {len(calls) - 1} stopped the job: rc={last.rc} {last.error}".strip()]
        for k, call in enumerate(calls):
            if call.rc != 0:
                return [f"call {k} exited {call.rc} {call.error}".strip()]
        try:
            problems = self.cross_check(job, calls, random.Random(f"check:{self.name}:{seed}:{job.index}"))
            if not problems and seed == DEFAULT_SEED:
                problems = self.compare_reference(job, calls, reference)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        return problems

    def compare_reference(self, job: Job, calls: list[Call], reference: dict | None) -> list[str]:
        if reference is None:
            return ["no reference values recorded for the default seed"]
        want = reference[self.name][job.index]
        got = self.summary(job, calls)
        if sorted(got) != sorted(want):
            return [f"reference keys differ: {sorted(set(got) ^ set(want))}"]
        problems = []
        for key, values in want.items():
            rtol, atol = self.tolerance(key, job, got)
            if not _close(got[key], values, rtol, atol):
                problems.append(f"{key} differs from the recorded values (rtol {rtol:g}, atol {atol:g})")
        return problems

    def tolerance(self, key: str, job: Job | None = None, got: dict | None = None
                  ) -> tuple[float, float]:
        """(rtol, atol) for one recorded key; ``job`` and ``got`` are the job and
        its summary, for tolerances that depend on them."""
        for suffix, tol in self.tolerances.items():
            if key.endswith(suffix):
                return tol
        return self.tolerances[""]


# -- sweeps --------------------------------------------------------------

SWEEP_HEADER = "b,d,omega_z,omega_c,jxy,t_ex,f_total,e_r,eps2_e_s,regime_ok"
SWEEP_COLUMNS = SWEEP_HEADER.split(",")
# f_total, e_r and eps2_e_s are differences from 1, so they carry an
# absolute error of a few ulp of 1.0 whatever their size.
_DIMENSIONLESS = ("f_total", "e_r", "eps2_e_s")


class Sweep(Workload):
    """``penning-chain sweep`` over a seeded gradient x spacing grid."""

    # (f_c Hz, f_z Hz, gradient T/m, spacing m) of the reference rows used
    families: tuple[tuple[float, float, float, float], ...] = ()
    temperature = 0.080
    l_bar = 0.0
    n_gradient = 0
    n_spacing = 0
    tolerances = {**{f"{c}.sample": (1e-9, 1e-14) for c in _DIMENSIONLESS},
                  **{f"{c}.sum": (1e-9, 1e-11) for c in _DIMENSIONLESS},
                  "nan_rows": (0.0, 0.0), "": (1e-9, 0.0)}

    def make_job(self, rng, index, directory):
        f_c, f_z, g0, d0 = self.families[index % len(self.families)]
        params = {
            "f_c": f_c, "f_z": f_z,
            "g_lo": g0 * rng.uniform(0.6, 0.85), "g_hi": g0 * rng.uniform(1.15, 1.4),
            "d_lo": d0 * rng.uniform(0.8, 0.9), "d_hi": d0 * rng.uniform(1.1, 1.3),
        }
        path = directory / f"{self.name}-{index}.ini"
        path.write_text(_ini({
            "trap": {"f_c": f_c, "f_z": f_z},
            "thermal": {"temperature": self.temperature, "l_bar": self.l_bar},
            "sweep": {
                "axes": "gradient,spacing",
                "gradient": f"{params['g_lo']!r}:{params['g_hi']!r}:{self.n_gradient}",
                "spacing": f"{params['d_lo']!r}:{params['d_hi']!r}:{self.n_spacing}",
            },
        }))
        return Job(index, (("sweep", "--config", str(path)),), params)

    def grid(self, job: Job) -> list[tuple[float, float]]:
        p = job.params
        grads = np.linspace(p["g_lo"], p["g_hi"], self.n_gradient)
        spacings = np.linspace(p["d_lo"], p["d_hi"], self.n_spacing)
        return [(float(g), float(d)) for g in grads for d in spacings]

    def table(self, calls: list[Call]) -> np.ndarray:
        header, rows = _csv_rows(calls[0].stdout)
        if header != SWEEP_HEADER:
            raise ValueError(f"sweep header is {header!r}")
        if any(len(r) != len(SWEEP_COLUMNS) for r in rows):
            raise ValueError("a sweep row has the wrong number of fields")
        return np.array([[float(v) for v in r] for r in rows]).reshape(-1, len(SWEEP_COLUMNS))

    def expected_row(self, job: Job, gradient: float, d: float) -> list[float]:
        """One sweep row recomputed as derive_quantities -> pair_coupling_strengths
        -> total_fidelity."""
        consts = CODATA2018
        params = TrapParams(
            B0=math.tau * job.params["f_c"] * consts.m_e / consts.e, b=gradient,
            omega_z_in=math.tau * job.params["f_z"], anomaly_mode=AnomalyMode.EXACT_G,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            dq = derive_quantities(params, strict=False)
            _, jxy = pair_coupling_strengths(dq, d)
            occ = ThermalOccupations.from_temperature(dq, self.temperature, l_bar=self.l_bar)
            regime_ok = validate_regime(dq, xi=coulomb_scale(dq, d), l_bar=occ.l_bar).ok
            report = total_fidelity(dq, occ, jxy)
        return [gradient, d, dq.omega_z, dq.omega_c, jxy, swap_time(jxy), report.f_total,
                report.error_residual_value, report.error_canonical_scaled, float(regime_ok)]

    def cross_check(self, job, calls, rng):
        table = self.table(calls)
        grid = self.grid(job)
        if table.shape[0] != len(grid):
            return [f"sweep has {table.shape[0]} rows, expected {len(grid)}"]
        if not _close(table[:, :2], np.array(grid), 1e-11):
            return ["sweep grid columns do not match the configured axes"]
        if not np.isin(table[:, -1], (0.0, 1.0)).all():
            return ["regime_ok column is not 0/1"]
        col = dict(zip(SWEEP_COLUMNS, table.T))
        # identities every row obeys, to the 12 printed digits
        problems = [
            f"{what} fails on some row"
            for what, ok in (
                ("omega_z = 2 pi f_z", _close(col["omega_z"], math.tau * job.params["f_z"], 1e-11)),
                ("omega_c = 2 pi f_c", _close(col["omega_c"], math.tau * job.params["f_c"], 1e-11)),
                ("t_ex = pi / (4 jxy)", _close(col["t_ex"] * col["jxy"], math.pi / 4.0, 1e-11)),
                ("f_total = 1 - e_r - eps2_e_s",
                 _close(col["f_total"], 1.0 - col["e_r"] - col["eps2_e_s"], 0.0, 2e-12)),
            )
            if not ok
        ]
        for row in rng.sample(range(len(grid)), SWEEP_SAMPLE_ROWS):
            want = self.expected_row(job, *grid[row])
            for col, got, exp in zip(SWEEP_COLUMNS, table[row], want):
                atol = 1e-14 if col in _DIMENSIONLESS else 0.0
                if not _close(got, exp, 1e-9, atol):
                    problems.append(f"row {row} {col}: printed {got!r}, recomputed {exp!r}")
        return problems

    def summary(self, job, calls):
        table = self.table(calls)
        rows = _sample_indices(table.shape[0])
        out = {"nan_rows": [float(i) for i in np.flatnonzero(np.isnan(table).any(axis=1))]}
        for k, col in enumerate(SWEEP_COLUMNS):
            out[f"{col}.sample"] = [float(v) for v in table[rows, k]]
            out[f"{col}.sum"] = [float(np.nansum(table[:, k]))]
        return out

    def output_counts(self, calls):
        counts = super().output_counts(calls)
        f_total = self.table(calls)[:, SWEEP_COLUMNS.index("f_total")]
        counts["cli.sweep.finite_frac"] = float(np.isfinite(f_total).mean()) if f_total.size else 0.0
        return counts


class SweepCold(Sweep):
    name = "sweep_cold"
    families = ((8e9, 490e6, 600.0, 30e-6), (11e9, 730e6, 1100.0, 10e-6))
    l_bar = 0.1
    n_gradient, n_spacing = 40, 50
    job_size = "one 2000-point gradient x spacing sweep (rows A/30um and B/10um)"


class SweepHot(Sweep):
    name = "sweep_hot"
    families = ((8e9, 1200e6, 1800.0, 3e-6),)
    l_bar = 50.0
    n_gradient, n_spacing = 12, 12
    job_size = "one 144-point gradient x spacing sweep (row A/3um)"


# -- chain transfer ------------------------------------------------------

SMALL_SITES = 8
LARGE_SITES = 300
LEGS = (("small", SMALL_SITES), ("large", LARGE_SITES))
CURVE_POINTS = 512
TRANSFER_HEADER = "t,fidelity,fidelity_raw"


class ChainTransfer(Workload):
    name = "chain_transfer"
    job_size = (f"two Bloch-averaged {CURVE_POINTS}-point transfer curves, N={SMALL_SITES} "
                f"(dense path at this commit) and N={LARGE_SITES} (subspace path)")
    tolerances = {"": (1e-8, 1e-10)}
    # Both paths diagonalise a matrix whose energies are ~N*omega_s/2, so the
    # phases, and the fidelities with them, carry a rounding error of about
    # eps * N*omega_s/2 * t.  Observed: up to 3x that at t_max over 400
    # seeded N=8 chains; a 1-ulp change of the couplings moves the N=300
    # curve by 2e-5.  Every curve check, the recorded values among them,
    # allows this factor times that error, whichever path the program took.
    rounding_factor = 16.0

    def make_job(self, rng, index, directory):
        params = {
            "f_c": 11e9, "f_z": 730e6, "l_bar": 0.15,
            "gradient": 1100.0 * rng.uniform(0.8, 1.2),
            "spacing": 10e-6 * rng.uniform(0.85, 1.25),
        }
        argvs = []
        for _, n_sites in LEGS:
            path = directory / f"{self.name}-{index}-n{n_sites}.ini"
            path.write_text(_ini({
                "trap": {"f_c": params["f_c"], "f_z": params["f_z"], "gradient": params["gradient"]},
                "chain": {"n_sites": n_sites, "spacing": params["spacing"]},
                "thermal": {"l_bar": params["l_bar"]},
                "transfer": {"n_points": CURVE_POINTS},
            }))
            argvs.append(("transfer", "--config", str(path)))
        return Job(index, tuple(argvs), params)

    def curve(self, call: Call, n_sites: int) -> np.ndarray:
        # the curve is checked, not the path the program chose to compute it
        if _meta(call.stdout, "n_sites") != str(n_sites):
            raise ValueError(f"expected a chain of N={n_sites}")
        header, rows = _csv_rows(call.stdout)
        if header != TRANSFER_HEADER or len(rows) != CURVE_POINTS:
            raise ValueError(f"transfer output has header {header!r} and {len(rows)} rows")
        return np.array([[float(v) for v in r] for r in rows])

    def trap(self, job: Job):
        p = job.params
        consts = CODATA2018
        return derive_quantities(TrapParams(
            B0=math.tau * p["f_c"] * consts.m_e / consts.e, b=p["gradient"],
            omega_z_in=math.tau * p["f_z"], anomaly_mode=AnomalyMode.EXACT_G))

    def curve_atol(self, job: Job, n_sites: int, t_max: float) -> float:
        """Absolute tolerance on the fidelities of an N-site curve up to t_max."""
        return self.rounding_factor * np.finfo(float).eps * 0.5 * n_sites * self.trap(job).omega_s * t_max

    def public_curve(self, job: Job, n_sites: int):
        """The transfer curve through the public subspace path."""
        dq = self.trap(job)
        cm = coupling_matrix(dq, uniform_chain(n_sites, job.params["spacing"], Orientation.AXIAL_Z),
                             l_bar=job.params["l_bar"])
        t_grid = np.linspace(0.0, 2.0 * (n_sites - 1) * swap_time(float(cm.jxy[0, 1])), CURVE_POINTS)
        return transfer_fidelity_curve_subspace(cm, dq.omega_s, None, None, t_grid, bloch_average=True)

    def cross_check(self, job, calls, rng):
        del rng
        problems = []
        for call, (_, n_sites) in zip(calls, LEGS):
            t, fid, raw = self.curve(call, n_sites).T
            if t[0] != 0.0 or abs(fid[0] - 0.5) > 1e-9:
                problems.append(f"N={n_sites}: the curve must start at t=0 with fidelity 1/2")
            if fid.min() < 0.0 or fid.max() > 1.0 + 1e-9 or np.any(raw > fid + 1e-9):
                problems.append(f"N={n_sites}: fidelities outside [0, 1] or raw above compensated")
            ref = self.public_curve(job, n_sites)
            atol = self.curve_atol(job, n_sites, ref.t[-1])
            if not (_close(t, ref.t, 1e-11) and _close(fid, ref.fidelity, 0.0, atol)
                    and _close(raw, ref.fidelity_raw, 0.0, atol)):
                problems.append(f"N={n_sites} curve differs from the public subspace path "
                                f"(atol {atol:g})")
        return problems

    def tolerance(self, key, job=None, got=None):
        rtol, atol = super().tolerance(key)
        leg, _, column = key.partition(".")
        if column.startswith("fidelity"):
            atol = self.curve_atol(job, dict(LEGS)[leg], got[f"{leg}.t"][-1])
        return rtol, atol

    def summary(self, job, calls):
        out = {}
        for call, (leg, n_sites) in zip(calls, LEGS):
            curve = self.curve(call, n_sites)
            rows = _sample_indices(len(curve))
            out[f"{leg}.t"] = [float(v) for v in curve[rows, 0]]
            out[f"{leg}.fidelity"] = [float(v) for v in curve[rows, 1]]
            out[f"{leg}.fidelity_raw"] = [float(v) for v in curve[rows, 2]]
        return out


# -- oracle --------------------------------------------------------------

EXACT_IDENTITIES = ("resonant swap fidelity", "detuned swap vs closed form")
ORACLE_FREQ_RATIO = 15.0


class OracleValidate(Workload):
    name = "oracle_validate"
    job_size = "one validation suite at truncation (3,3): five (3,k) builds, k = 1..4"
    # Spectra and fits of the oracle: an unchanged result reproduces to
    # ~1e-12, a reorganised but equivalent build to well within 1e-6.
    tolerances = {"passed": (0.0, 0.0), "": (1e-6, 0.0)}

    def make_job(self, rng, index, directory):
        params = {"epsilon": rng.uniform(0.022, 0.028), "xi_over_omega_z": rng.uniform(0.008, 0.012)}
        path = directory / f"{self.name}-{index}.ini"
        path.write_text(_ini({"oracle": params}))
        return Job(index, (("oracle", "--config", str(path), "--format", "json"),), params)

    def cross_check(self, job, calls, rng):
        del rng
        payload = json.loads(calls[0].stdout)
        checks = {c["name"]: c for c in payload["checks"]}
        problems = []
        for prefix in EXACT_IDENTITIES:
            found = [c for name, c in checks.items() if name.startswith(prefix)]
            if len(found) != 1 or not found[0]["passed"]:
                problems.append(f"exact identity {prefix!r} missing or failed")
        if not payload["passed"] or not all(c["passed"] for c in checks.values()):
            problems.append("the validation suite did not pass")
        dq = synthetic_quantities(job.params["epsilon"], ORACLE_FREQ_RATIO)
        jz, jxy = predicted_couplings(dq, job.params["xi_over_omega_z"] * dq.omega_z)
        for name, want in (("flip-flop coupling (level splitting)", jxy),
                           ("Ising coupling (dressed energies)", jz)):
            if name not in checks or not _close(checks[name]["predicted"], want, 1e-12):
                problems.append(f"{name}: predicted value is not the public formula's {want!r}")
        if [k for k, _ in payload["convergence"]] != [1, 2, 3, 4]:
            problems.append("convergence table does not cover k_max = 1..4")
        return problems

    def summary(self, job, calls):
        payload = json.loads(calls[0].stdout)
        out = {f"{c['name']}.measured": [float(c["measured"])] for c in payload["checks"]}
        out["convergence"] = [float(j) for _, j in payload["convergence"]]
        out["passed"] = [float(c["passed"]) for c in payload["checks"]]
        return out


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (SweepCold(), SweepHot(), ChainTransfer(), OracleValidate())
}


def load_reference() -> dict | None:
    return json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else None
