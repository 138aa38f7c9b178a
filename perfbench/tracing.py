"""Spans and counts at the boundaries between csres modules.

The benchmark's traced run replaces, for its own process, the names
through which one csres module calls into another.  The modules import
each other's functions by name (``from .vqa import minimize_variance``),
so a wrapper has to replace the name in the namespace where the call
looks it up, not in the module that defines it.  Methods are looked up on
their class, so ``_CompiledSum`` gets its wrappers there.

Each wrapped call records one span ``[name, op, start, end, parent]``.
The spans stay in memory and are written out when the run ends.  A
layer's self time is the time of its spans minus the time of their child
spans.  Counts are taken in the same wrappers.  Recording is on only
while an op runs, so the benchmark's own checks, which also call csres,
leave no spans.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter

import csres.artifacts
import csres.cli
import csres.hamiltonian
import csres.simulator
import csres.trajectory
import csres.vqa

# Every per-layer metric, as the traced run prints it.  Counts and times
# are per op: the run's total divided by the ops it ran.
PER_LAYER = (
    "basis.calls", "basis.self_s",
    "hamiltonian.assemblies", "hamiltonian.self_s",
    "hamiltonian.eig_calls", "hamiltonian.eig_s",
    "encoding.encode_calls", "encoding.encode_s",
    "encoding.product_calls", "encoding.product_s",
    "simulator.compile_s", "simulator.expectation_calls",
    "simulator.expectation_s", "simulator.states",
    "vqa.minimize_calls", "vqa.converged", "vqa.useful_ratio",
    "vqa.bfgs_iterations", "vqa.states_evaluated", "vqa.self_s",
    "trajectory.theta_attempted", "trajectory.theta_accepted",
    "trajectory.warm_starts", "trajectory.restarts", "trajectory.self_s",
    "filtration.states", "filtration.self_s",
    "artifacts.files", "artifacts.bytes", "artifacts.self_s",
    "cli.commands", "cli.self_s",
)


def unit_of(metric):
    if metric == "vqa.useful_ratio":
        return "ratio"
    return "s/op" if metric.endswith("_s") else "count/op"


class Tracer:
    """Span recorder; :meth:`install` puts its wrappers in place."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None  # index of the running op; None while recording is off
        self._stack = []
        self._undo = []

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by a wrapper recording a span ``name``.

        ``after(counts, args, kwargs, result)`` runs once the call has
        returned, outside the span.
        """
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, self.op, perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def count(self, owner, attr, tally):
        """Replace ``owner.attr`` by a wrapper that only counts: ``tally(counts, args)``."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if self.op is not None:
                tally(self.counts, args)
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def install(self):
        ham, traj, vqa, cli = csres.hamiltonian, csres.trajectory, csres.vqa, csres.cli
        for attr in ("basis_matrix", "kinetic_applied", "quadrature_grid",
                     "overlap_matrix", "gram_schmidt_transform"):
            self.wrap(ham, attr, "basis")
        for owner in (traj, cli):
            self.wrap(owner, "build_raw_matrices", "hamiltonian")
            self.wrap(owner, "build_scaled_matrix", "hamiltonian")
            self.wrap(owner, "solve_spectrum", "hamiltonian.eig")
            self.wrap(owner, "encode_matrix", "vqa")
        self.wrap(vqa, "encode_gray", "encoding.encode")
        self.wrap(vqa, "encode_onehot_jw", "encoding.encode")
        self.wrap(vqa, "pauli_multiply", "encoding.product")
        self.wrap(vqa, "compiled", "simulator.compile")
        for attr in ("expectation", "term_expectations"):
            self.wrap(csres.simulator._CompiledSum, attr, "simulator.expectation",
                      after=_count_states)
        self.count(vqa, "_ansatz_states", _count_ansatz_rows)
        self.wrap(traj, "minimize_variance", "vqa", after=_count_trajectory_minimize)
        self.wrap(vqa, "minimize_variance", "vqa", after=_count_minimize)
        self.wrap(cli, "scan_spectrum", "vqa")
        self.wrap(cli, "aggregate_spectra", "vqa")
        self.wrap(traj, "run_trajectory", "trajectory", after=_count_thetas)
        self.wrap(traj, "extract_optimal", "trajectory")
        self.wrap(cli, "filtration_report", "filtration", after=_count_filtered)
        for attr in dir(csres.artifacts):
            if attr.startswith(("write_", "read_")):
                self.wrap(csres.artifacts, attr, "artifacts", after=_count_file)
        self.wrap(cli, "main", "cli", after=_count_command)

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def metrics(self, n_ops):
        """Per-layer metrics per op, from the spans and counts of the run."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time, calls = Counter(), Counter()
        for (name, _, start, end, _), inner in zip(self.spans, child):
            self_time[name] += end - start - inner
            calls[name] += 1
        layer_self = Counter()
        for name, t in self_time.items():
            layer_self[name.split(".")[0]] += t
        c = self.counts
        total = {
            "basis.calls": calls["basis"],
            "hamiltonian.assemblies": calls["hamiltonian"],
            "hamiltonian.eig_calls": calls["hamiltonian.eig"],
            "hamiltonian.eig_s": self_time["hamiltonian.eig"],
            "encoding.encode_calls": calls["encoding.encode"],
            "encoding.encode_s": self_time["encoding.encode"],
            "encoding.product_calls": calls["encoding.product"],
            "encoding.product_s": self_time["encoding.product"],
            "simulator.compile_s": self_time["simulator.compile"],
            "simulator.expectation_calls": calls["simulator.expectation"],
            "simulator.expectation_s": self_time["simulator.expectation"],
            "simulator.states": c["simulator.states"],
            "vqa.minimize_calls": c["vqa.minimize_calls"],
            "vqa.converged": c["vqa.converged"],
            "vqa.bfgs_iterations": c["vqa.bfgs_iterations"],
            "vqa.states_evaluated": c["vqa.states_evaluated"],
            "trajectory.theta_attempted": c["trajectory.theta_attempted"],
            "trajectory.theta_accepted": c["trajectory.theta_accepted"],
            "trajectory.warm_starts": c["trajectory.warm_starts"],
            "trajectory.restarts": c["trajectory.restarts"],
            "filtration.states": c["filtration.states"],
            "artifacts.files": c["artifacts.files"],
            "artifacts.bytes": c["artifacts.bytes"],
            "cli.commands": c["cli.commands"],
        }
        for layer in ("basis", "hamiltonian", "vqa", "trajectory",
                      "filtration", "artifacts", "cli"):
            total[f"{layer}.self_s"] = layer_self[layer]
        per_op = {name: value / n_ops for name, value in total.items()}
        calls_made = c["vqa.minimize_calls"]
        per_op["vqa.useful_ratio"] = c["vqa.converged"] / calls_made if calls_made else 0.0
        return {name: per_op[name] for name in PER_LAYER}

    def write(self, path):
        """Write the spans as JSON lines (times in seconds from the first span)."""
        t0 = self.spans[0][2] if self.spans else 0.0
        lines = [
            json.dumps({"id": i, "name": name, "op": op, "start": start - t0,
                        "end": end - t0, "parent": parent})
            for i, (name, op, start, end, parent) in enumerate(self.spans)
        ]
        Path(path).write_text("\n".join(lines) + "\n")


def _count_states(counts, args, kwargs, result):
    psi = args[1]
    counts["simulator.states"] += psi.shape[1] if psi.ndim == 2 else 1


def _count_ansatz_rows(counts, args):
    counts["vqa.states_evaluated"] += len(args[0]) if getattr(args[0], "ndim", 1) == 2 else 1


def _count_minimize(counts, args, kwargs, est):
    counts["vqa.minimize_calls"] += 1
    counts["vqa.converged"] += int(est.converged)
    counts["vqa.bfgs_iterations"] += est.iterations


def _count_trajectory_minimize(counts, args, kwargs, est):
    _count_minimize(counts, args, kwargs, est)
    warm = kwargs.get("init_params") is not None
    counts["trajectory.warm_starts" if warm else "trajectory.restarts"] += 1


def _count_thetas(counts, args, kwargs, traj):
    counts["trajectory.theta_attempted"] += len(traj.log)
    counts["trajectory.theta_accepted"] += len(traj.points)


def _count_filtered(counts, args, kwargs, report):
    counts["filtration.states"] += len(report.rows)


def _count_file(counts, args, kwargs, result):
    if isinstance(result, Path):  # the writers return the path they wrote
        counts["artifacts.files"] += 1
        counts["artifacts.bytes"] += result.stat().st_size


def _count_command(counts, args, kwargs, result):
    counts["cli.commands"] += 1
