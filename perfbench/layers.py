"""The layer -> metric -> workload map of the per-layer metrics.

Names, units and order of every metric come from ``BENCHMARK.json``; this
table adds what that file cannot hold: the module each per-layer metric
belongs to, the end-to-end metric a change to that module should move, and
on which workload. On the workloads not named, the prediction is no
change. ``run.py`` refuses to run when the metric names here and in
``BENCHMARK.json`` differ.

shift-64 re-calibrates on practically every operation (threshold 0.001), so
the re-calibration decision is saturated there: a maintenance or detector
change that would re-calibrate more often cannot show on it. Only
fleet-calm-4x64 (threshold 1.0 on calm clusters) leaves room for that.

The calm steady state - collectives, the session's own code, capsule
transport and per-batch checkpoints - moves no end-to-end metric of a kept
workload: it is under 1% of a shift-64 operation, and fleet-calm-4x64
measures a fleet's start-up, where the boot solves set the times (see
workloads.py). Its per-layer counts and busy times are still reported.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["LAYERS", "Layer"]


class Layer(NamedTuple):
    module: str
    metrics: tuple[str, ...]
    moves: str
    workloads: str


LAYERS = (
    Layer(
        "collectives",
        (
            "collectives.fnf_tree.calls",
            "collectives.fnf_tree.busy_s",
            "collectives.collective_time.busy_s",
            "collectives.weights_to_alphabeta.busy_s",
        ),
        "no end-to-end metric of a kept workload (calm steady state)",
        "fleet-calm-4x64, 64 operations per execution; no change on shift-64",
    ),
    Layer(
        "runtime.session",
        ("session.weight_matrix.busy_s", "session.self_s"),
        "no end-to-end metric of a kept workload (calm steady state)",
        "fleet-calm-4x64, 64 operations per execution",
    ),
    Layer(
        "core.engine",
        (
            "engine.calibrate.calls",
            "engine.calibrate.busy_s",
            "engine.solve.warm",
            "engine.solve.cold",
            "engine.window.hit",
            "engine.window.miss",
        ),
        "ops_per_s, op_p50_ms, op_tail_ms; setup_s everywhere",
        "shift-64 (warm re-calibrations), fleet-calm-4x64 (cold boot solves)",
    ),
    Layer(
        "core.kernels / solvers",
        ("kernel.svt_s", "solver.iterations_per_solve", "engine.non_svt_s"),
        "ops_per_s, op_p50_ms, op_tail_ms",
        "shift-64, fleet-calm-4x64",
    ),
    Layer(
        "core.detectors",
        (
            "detector.observe.calls",
            "detector.observe.busy_s",
            "detector.shifts",
            "detector.spikes",
        ),
        "op_p50_ms (its per-operation cost); sim_s_per_op on no kept "
        "workload: the decision is saturated on shift-64 and the fleet runs "
        "no detector",
        "shift-64",
    ),
    Layer(
        "core.maintenance",
        ("maintenance.recal_per_kop",),
        "ops_per_s, sim_s_per_op",
        "fleet-calm-4x64; saturated (~1000 per kop) on shift-64",
    ),
    Layer(
        "persistence",
        (
            "persistence.checkpoint.calls",
            "persistence.checkpoint.busy_s",
            "persistence.checkpoint.first_kib",
            "persistence.checkpoint.last_kib",
        ),
        "peak_rss_mb; ops_per_s and op_p50_ms only by their share (8 "
        "checkpoints per execution, under 1% of it)",
        "fleet-calm-4x64",
    ),
    Layer(
        "fleet",
        (
            "fleet.elapsed_s",
            "fleet.batches",
            "fleet.worker_solve_s",
            "fleet.capsule_kib",
            "fleet.retries",
            "fleet.restarts",
        ),
        "ops_per_s, op_p50_ms, op_tail_ms (dispatch order and queueing "
        "behind the boot solves), failed operations",
        "fleet-calm-4x64",
    ),
    Layer("cloudsim", ("cloudsim.generate_s",), "setup_s", "all"),
    Layer(
        "trace itself",
        ("trace.coverage", "trace.overhead_frac"),
        "-",
        "all",
    ),
)
