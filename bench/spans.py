"""Span tracing of ``penning_chain`` layer calls, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper at every
place it can be looked up: the defining module, every ``penning_chain``
module that imported it by name, and the class for methods.  Each call
becomes a span (name, job, parent span, start, end, self time) kept in
memory, or, for the names in ``COUNTED``, only a call count; ``uninstall``
puts the originals back, and the pair may be repeated.  Self time is a
span's duration minus the time its child spans cover.  A traced name that
the package no longer has is reported absent instead of failing the run.

Wrapping costs time, and most of it lands in the caller's self time: the
wrapper's bookkeeping around each child span or counted call, and the
observers.  ``calibrate`` times an empty wrapped call against a plain one,
observers are timed as they run, and ``per_job`` takes that cost off each
span's self time.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _add_build_bytes(tracer, result):
    tracer.add("spin_chain.build_effective_hamiltonian.bytes_computed", result.matrix.nbytes)
    tracer.max("spin_chain.build_effective_hamiltonian.dim", result.matrix.shape[0])


def _add_operator_bytes(tracer, result):
    # dense operators materialised while a chain Hamiltonian is assembled
    if tracer.inside("spin_chain.build_effective_hamiltonian"):
        tracer.add("spin_chain.build_effective_hamiltonian.bytes_computed", result.nbytes)


def _add_microscopic(tracer, result):
    arrays = [v for v in vars(result).values() if isinstance(v, np.ndarray)]
    tracer.add("microscopic_oracle.build_microscopic.bytes_computed", sum(a.nbytes for a in arrays))
    tracer.max("microscopic_oracle.build_microscopic.dim", result.hamiltonian.shape[0])


def _add_suite(tracer, result):
    checks = result.checks
    tracer.add("microscopic_oracle.checks_passed", sum(c.passed for c in checks))
    tracer.add("microscopic_oracle.checks", len(checks))


def _add_residual(tracer, result):
    tracer.add("fidelity_model.error_residual.terms",
               (2 * result.cutoff_cyclotron + 1) * (2 * result.cutoff_magnetron + 1))
    tracer.max("fidelity_model.error_residual.tail_mass_max", result.tail_mass)


def _add_total(tracer, result):
    tracer.add("fidelity_model.out_of_range_reports", not result.in_range)


def _add_pairs(tracer, result):
    n = result.n_sites
    tracer.add("couplings.coupling_matrix.pairs", n * (n - 1) // 2)


# (span name, module, attribute, observer).  Private names are traced where
# a layer's time would otherwise hide in its caller.  Names in COUNTED are
# called so often, or are so much a part of their caller's work, that they
# are only counted: their time stays in the calling span's self time.
TARGETS = (
    ("cli.main", "penning_chain.cli", "main", None),
    ("cli._point_params", "penning_chain.cli", "_point_params", None),
    ("config.load", "penning_chain.config", "RunConfig.load", None),
    ("config.get", "penning_chain.config", "RunConfig.get", None),
    ("config.trap_params", "penning_chain.config", "RunConfig.trap_params", None),
    ("config.geometry", "penning_chain.config", "RunConfig.geometry", None),
    ("config.occupations", "penning_chain.config", "RunConfig.occupations", None),
    ("trap_model.derive_quantities", "penning_chain.trap_model", "derive_quantities", None),
    ("trap_model.validate_regime", "penning_chain.trap_model", "validate_regime", None),
    ("couplings.coupling_matrix", "penning_chain.couplings", "coupling_matrix", _add_pairs),
    ("couplings.swap_time", "penning_chain.couplings", "swap_time", None),
    ("couplings.write_csv", "penning_chain.couplings", "write_csv", None),
    ("fidelity_model.total_fidelity", "penning_chain.fidelity_model", "total_fidelity", _add_total),
    ("fidelity_model.error_residual", "penning_chain.fidelity_model", "error_residual", _add_residual),
    ("fidelity_model.error_canonical", "penning_chain.fidelity_model", "error_canonical", None),
    ("fidelity_model.occupation_from_temperature", "penning_chain.fidelity_model",
     "occupation_from_temperature", None),
    ("fidelity_model.delta_s_spread", "penning_chain.fidelity_model", "delta_s_spread", None),
    ("spin_chain.build_effective_hamiltonian", "penning_chain.spin_chain",
     "build_effective_hamiltonian", _add_build_bytes),
    ("spin_chain.single_excitation_block", "penning_chain.spin_chain", "single_excitation_block", None),
    ("spin_chain.transfer_fidelity_curve", "penning_chain.spin_chain", "transfer_fidelity_curve", None),
    ("spin_chain.transfer_fidelity_curve_subspace", "penning_chain.spin_chain",
     "transfer_fidelity_curve_subspace", None),
    ("microscopic_oracle.run_validation_suite", "penning_chain.microscopic_oracle",
     "run_validation_suite", _add_suite),
    ("microscopic_oracle.build_microscopic", "penning_chain.microscopic_oracle",
     "build_microscopic", _add_microscopic),
    ("microscopic_oracle.extract_effective_jxy", "penning_chain.microscopic_oracle",
     "extract_effective_jxy", None),
    ("microscopic_oracle.extract_effective_jz", "penning_chain.microscopic_oracle",
     "extract_effective_jz", None),
    ("microscopic_oracle.hsd_fidelity", "penning_chain.microscopic_oracle", "hsd_fidelity", None),
    ("microscopic_oracle.synthetic_quantities", "penning_chain.microscopic_oracle",
     "synthetic_quantities", None),
)

COUNTED = (
    ("couplings.pair_coupling_strengths", "penning_chain.couplings", "pair_coupling_strengths", None),
    ("fidelity_model.fd", "penning_chain.fidelity_model", "fd", None),
    ("spin_chain.site_operator", "penning_chain.spin_chain", "site_operator", _add_operator_bytes),
    ("spin_chain.two_site_operator", "penning_chain.spin_chain", "two_site_operator",
     _add_operator_bytes),
)

LAYERS = ("cli", "config", "trap_model", "couplings", "fidelity_model", "spin_chain",
          "microscopic_oracle")


class Tracer:
    """In-memory span recorder for the traced calls of one process."""

    def __init__(self, targets=TARGETS, counted=COUNTED):
        self.targets = targets
        self.counted = counted
        self.span_names = [name for name, *_ in targets]
        self.job = 0
        self._name = array("H")
        self._parent = array("l")
        self._job = array("l")
        self._start = array("d")
        self._end = array("d")
        self._self = array("d")
        # per span: counted calls made directly inside it, and the observer
        # time of its children, both spent in its self time
        self._counted = array("l")
        self._observer_s = array("d")
        self._stack: list[list] = []
        # seconds per call, see ``calibrate``
        self.cost = {"span_outside": 0.0, "span_inside": 0.0, "counted": 0.0}
        self._cost_samples: dict[str, list[float]] = {}
        self.sums: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.absent: list[str] = []
        self.observer_errors: list[str] = []
        self._patches: list[tuple[object, str, object, object]] | None = None

    # -- counters used by observers --------------------------------------

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + float(value)

    def max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, float("-inf")), float(value))

    def inside(self, span_name: str) -> bool:
        nid = self.span_names.index(span_name)
        return any(self._name[frame[0]] == nid for frame in self._stack)

    def calibrate(self, calls: int = 5_000) -> dict[str, float]:
        """Time the wrappers on an empty function of three arguments: the
        per-call cost outside a span's interval (charged to the caller),
        inside it (charged to the span) and of a counted call.  Each call
        adds one sample; ``cost`` is the median of all samples so far, so
        calibrating all through a run follows the host's drift."""
        probe = Tracer(targets=(("probe", "", "", None),), counted=())
        probe._stack.append([-1, 0.0, 0, 0.0])  # a parent frame, as in a real call

        def empty(a, b, key=None):
            return None

        span = probe._wrap(empty, nid=0, observe=None)
        counted = probe._count(empty, key="probe", observe=None)
        clock = time.perf_counter

        def per_call(fn) -> float:
            t0 = clock()
            for _ in range(calls):
                fn(1, 2, key=3)
            return (clock() - t0) / calls

        plain, wrapped, count = per_call(empty), per_call(span), per_call(counted)
        recorded = (sum(probe._end) - sum(probe._start)) / calls
        sample = {"span_outside": wrapped - recorded, "span_inside": recorded - plain,
                  "counted": count - plain}
        for key, value in sample.items():
            self._cost_samples.setdefault(key, []).append(value)
        self.cost = {key: max(statistics.median(v), 0.0) for key, v in self._cost_samples.items()}
        return self.cost

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place; the first call finds every lookup site."""
        if self._patches is None:
            self._patches = self._find_patches()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._patches or ()):
            setattr(owner, key, original)

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every lookup site."""
        wrappers = [(name, module, attr, functools.partial(self._wrap, nid=nid, observe=observe))
                    for nid, (name, module, attr, observe) in enumerate(self.targets)]
        wrappers += [(name, module, attr, functools.partial(self._count, key=f"{name}.calls",
                                                            observe=observe))
                     for name, module, attr, observe in self.counted]
        patches = []
        for name, module_name, attr, wrap in wrappers:
            module = sys.modules.get(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(leaf) if owner is not None else None
            if raw is None:
                self.absent.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(wrap(raw.__func__))
            else:
                replacement = wrap(raw)
            if owner_name:
                patches.append((owner, leaf, raw, replacement))
                continue
            # a module function: patch every module that bound it by name
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "penning_chain" or mod_name.startswith("penning_chain."):
                    patches.extend((mod, key, raw, replacement)
                                   for key, value in vars(mod).items() if value is raw)
        return patches

    def _wrap(self, fn, nid: int, observe):
        names, parents, jobs = self._name, self._parent, self._job
        starts, ends, selfs = self._start, self._end, self._self
        counted, observer_s = self._counted, self._observer_s
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            jobs.append(tracer.job)
            ends.append(0.0)
            selfs.append(0.0)
            counted.append(0)
            observer_s.append(0.0)
            # [span index, time of child spans, counted calls, observer time]
            frame = [idx, 0.0, 0, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                selfs[idx] = (t1 - t0) - frame[1]
                counted[idx] = frame[2]
                observer_s[idx] = frame[3]
                if stack:
                    stack[-1][1] += t1 - t0
            if observe is not None:
                tracer._observe(observe, result)
            return result

        return span

    def _count(self, fn, key: str, observe):
        sums = self.sums
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            sums[key] = sums.get(key, 0.0) + 1.0
            if stack:
                stack[-1][2] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                tracer._observe(observe, result)
            return result

        return counted

    def _observe(self, observe, result) -> None:
        """Run an observer; its time is charged to the innermost open span."""
        t0 = time.perf_counter()
        try:
            observe(self, result)
        except Exception as exc:  # a changed result type must not stop the run
            self.observer_errors.append(f"{observe.__name__}: {type(exc).__name__}: {exc}")
        if self._stack:
            self._stack[-1][3] += time.perf_counter() - t0

    # -- results ---------------------------------------------------------

    @property
    def n_spans(self) -> int:
        return len(self._name)

    def wrapper_cost(self) -> np.ndarray:
        """Per span, the tracing cost in its self time: the bookkeeping around
        its child spans and counted calls, their observers, and its own
        inside share, from the calibrated costs."""
        n = self.n_spans
        children = np.bincount(np.array(self._parent, dtype=np.int64) + 1, minlength=n + 1)[1:]
        return (children * self.cost["span_outside"]
                + np.array(self._counted, dtype=np.float64) * self.cost["counted"]
                + np.array(self._observer_s, dtype=np.float64)
                + self.cost["span_inside"])

    def per_job(self, n_jobs: int, untraced_job_s: float) -> dict[str, float]:
        """Per-job calls, self time less tracing cost, and counts; layer
        shares of the mean untraced job time ``untraced_job_s``."""
        names = np.array(self._name, dtype=np.int64)
        cost = self.wrapper_cost()
        selfs = np.array(self._self, dtype=np.float64) - cost
        n_names = len(self.span_names)
        calls = np.bincount(names, minlength=n_names)
        self_s = np.bincount(names, weights=selfs, minlength=n_names)
        jobs = max(n_jobs, 1)
        out: dict[str, float] = {}
        layer_s = dict.fromkeys(LAYERS, 0.0)
        for nid, name in enumerate(self.span_names):
            out[f"{name}.calls"] = calls[nid] / jobs
            out[f"{name}.self_s"] = self_s[nid] / jobs
            layer = name.split(".", 1)[0]
            layer_s[layer] = layer_s.get(layer, 0.0) + self_s[nid]
        for layer, seconds in layer_s.items():
            out[f"layer.{layer}.self_frac"] = seconds / jobs / untraced_job_s if untraced_job_s > 0 else 0.0
        out["trace.cost_s"] = float(cost.sum()) / jobs
        out.update({key: value / jobs for key, value in self.sums.items()})
        out.update(self.maxima)
        out["trace.spans_per_job"] = self.n_spans / jobs
        out["trace.absent_names"] = float(len(self.absent))
        out["trace.observer_errors"] = float(len(self.observer_errors))
        return out

    def write(self, path: Path) -> None:
        """Write every span (names indexed by ``span_names``) to an .npz file."""
        np.savez(
            path,
            span_names=np.array(self.span_names),
            name=np.array(self._name, dtype=np.uint16),
            parent=np.array(self._parent, dtype=np.int64),
            job=np.array(self._job, dtype=np.int64),
            start=np.array(self._start, dtype=np.float64),
            end=np.array(self._end, dtype=np.float64),
            self_s=np.array(self._self, dtype=np.float64),
            wrapper_cost_s=self.wrapper_cost(),
        )
