"""The benchmark's workloads, each driven through the public API.

Load shape: one caller, closed loop (the next operation is issued only
after the previous one returns), on the machine's own cores; nothing here
sets a BLAS thread count.

* ``shift-64`` - one session over 64 VMs on a default EC2-like trace with
  a scripted 3x step regime change, the ``drift`` detector on and
  threshold 0.001, so practically every operation re-calibrates:
  decomposition (engine, SVT kernels, elementwise steps) does the timed
  work, and the step at operation 10 drives the cold path. At the paper's
  threshold of 1.0 the share of operations that re-calibrate depends on
  how many interference spikes a seed draws, and a run holds too few
  re-calibrations to average that out.
* ``fleet-calm-4x64`` - a fleet's start-up: ``run_fleet`` over four calm
  64-VM clusters with one worker process and checkpointing, 16 operations
  per cluster, run four times. The boot solves inside the worker, and the
  batches queued behind them, set the latencies; capsule transport and
  per-batch checkpoints do the rest of the work. A long calm steady state
  is not measured: its per-batch latencies are bound by Python and by
  pipe transfers between two processes, and over ten runs on a 2-vCPU VM
  the interquartile range of their median reached 0.36 of it, against
  0.07-0.12 for times set by the boot solves.

Every run does a fixed amount of work, so the simulated-cost figure is
deterministic for a seed and each latency percentile is taken over the same
number and kind of samples on every commit. A traced run does its fixed
work twice - untraced, then traced - so per-layer figures compare across
commits, the two runs' counts must agree (determinism check), and their
ratio is the tracing overhead.

A workload is a function ``(seed, traced, workdir) -> RunResult``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Any, Callable

import numpy as np

import repro.runtime.session as session_module
from repro import ClusterSpec, FleetConfig, FleetScheduler, TraceSession
from repro.api import open_session, run_fleet
from repro.cloudsim import (
    DynamicsConfig,
    TraceConfig,
    apply_step_regime,
    generate_trace,
)
from repro.core.engine import DecompositionEngine
from repro.persistence import CheckpointStore

from tracer import Tracer, aggregate, attributed_seconds, merge_aggregates

__all__ = ["WORKLOADS", "RunResult", "tail"]

OPS = ("broadcast", "scatter", "reduce", "gather")
N_MACHINES = 64
SETUPS = 3  # set-up repetitions per run; setup_s is their median
CALM = DynamicsConfig(spike_probability=0.0, hotspot_probability=0.0)
TAIL_BEYOND = 10

# shift-64: 31 operations give op_tail_ms a 67.7th percentile with 10
# samples beyond it. A traced run does 16 per half, which still covers the
# step at snapshot 20 (operation 10, after the 10-snapshot boot window) and
# the shift it raises. Operation i runs on snapshot WINDOW + i, and the
# trace ends after the last one, so the session never wraps back to the
# pre-step snapshots.
WINDOW = 10  # open_session's default
SHIFT_OPS = 31
SHIFT_TRACED_OPS = 16
SHIFT_STEP = WINDOW + 10
SHIFT_SNAPSHOTS = WINDOW + SHIFT_OPS

# fleet-calm-4x64: operations per cluster and execution. Each cluster runs
# two batches. The one worker runs the four boot solves in turn: a cluster's
# first batch carries its own boot solve and its second queues behind the
# boot solves of the clusters after it, so seven of an execution's eight
# batches wait for one to four boot solves. Over four executions (32
# samples) the median falls among the eight batches that waited for two
# and the tail (10 samples beyond it) among the eight that waited for
# three, away from the edges of both groups.
FLEET_CLUSTERS = 4
FLEET_OPERATIONS = 16
FLEET_EXECUTIONS = 4


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    record: dict[str, Any] = field(default_factory=dict)
    tracer: Tracer | None = None

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with >= 10 samples beyond it.

    Returns ``(value, percentile, samples_beyond)``. Every workload takes
    at least 31 samples, so the percentile is above the median.
    """
    xs = sorted(samples)
    rank = len(xs) - TAIL_BEYOND  # 1-based
    return xs[rank - 1], 100.0 * rank / len(xs), TAIL_BEYOND


def _pd_ok(weights: np.ndarray) -> bool:
    """P_D is finite everywhere and positive off the diagonal."""
    off = ~np.eye(weights.shape[0], dtype=bool)
    return bool(np.isfinite(weights).all() and (weights[off] > 0).all())


def _checkpoint_array_bytes(directory: str) -> int:
    """Array payload of the newest checkpoint (its timing-free part)."""
    ckpt = CheckpointStore(directory).load_latest()
    return 0 if ckpt is None else sum(a.nbytes for a in ckpt.arrays.values())


def _newest_checkpoint_bytes(directory: str) -> int:
    names = sorted(n for n in os.listdir(directory) if n.endswith(".ckpt"))
    return os.path.getsize(os.path.join(directory, names[-1])) if names else 0


def _session_patches(tracer: Tracer, detector: Any) -> None:
    """Wrap the layer boundaries one Algorithm-1 operation crosses."""
    tracer.patch(TraceSession, "run_collective", "session.op")
    tracer.patch(TraceSession, "weight_matrix", "session.weight_matrix")
    tracer.patch(session_module, "fnf_tree", "collectives.fnf_tree")
    tracer.patch(
        session_module, "weights_to_alphabeta", "collectives.weights_to_alphabeta"
    )
    tracer.patch(session_module, "collective_time", "collectives.collective_time")
    tracer.patch(DecompositionEngine, "calibrate", "engine.calibrate")
    tracer.patch(DecompositionEngine, "snapshot_residual", "detector.residual")
    if detector is not None:
        tracer.patch(type(detector), "observe", "detector.observe")


def _layer_metrics(
    agg: dict[str, dict[str, float]], **values: float
) -> dict[str, float]:
    """Per-layer metrics from span aggregates, then *values*."""

    def span(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    out = dict(
        {
            "collectives.fnf_tree.calls": span("collectives.fnf_tree", "calls"),
            "collectives.fnf_tree.busy_s": span("collectives.fnf_tree", "busy_s"),
            "collectives.collective_time.busy_s": span(
                "collectives.collective_time", "busy_s"
            ),
            "collectives.weights_to_alphabeta.busy_s": span(
                "collectives.weights_to_alphabeta", "busy_s"
            ),
            "session.weight_matrix.busy_s": span("session.weight_matrix", "busy_s"),
            "session.self_s": span("session.op", "self_s"),
            "engine.calibrate.calls": span("engine.calibrate", "calls"),
            "engine.calibrate.busy_s": span("engine.calibrate", "busy_s"),
            "detector.observe.calls": span("detector.observe", "calls"),
            "detector.observe.busy_s": span("detector.observe", "busy_s")
            + span("detector.residual", "busy_s"),
            "persistence.checkpoint.calls": span("persistence.checkpoint", "calls"),
            "persistence.checkpoint.busy_s": span("persistence.checkpoint", "busy_s"),
        },
        **values,
    )
    out["engine.non_svt_s"] = out["engine.calibrate.busy_s"] - out["kernel.svt_s"]
    return out


# -- shift-64 -----------------------------------------------------------------


def _shift_trace(seed: int) -> Any:
    trace = generate_trace(
        TraceConfig(n_machines=N_MACHINES, n_snapshots=SHIFT_SNAPSHOTS), seed=seed
    )
    return apply_step_regime(trace, start=SHIFT_STEP, factor=3.0)


def run_shift(seed: int, traced: bool, workdir: str) -> RunResult:
    """shift-64; it writes nothing, so *workdir* is unused."""
    result = RunResult()
    sessions, gen_s, setup_s = [], [], []
    for _ in range(SETUPS):
        start = time.perf_counter()
        trace = _shift_trace(seed)
        gen_s.append(time.perf_counter() - start)
        sessions.append(open_session(trace, threshold=1e-3, regime_detector="drift"))
        setup_s.append(time.perf_counter() - start)
    boot = [(s.instrumentation.solve_iterations, s.weight_matrix()) for s in sessions]
    result.check(
        all(it == boot[0][0] and np.array_equal(w, boot[0][1]) for it, w in boot),
        "boot calibrations of one seed differ",
    )
    result.record["setup_samples_s"] = setup_s
    try:
        if traced:
            _traced_session(sessions, result)
            result.metrics["cloudsim.generate_s"] = statistics.median(gen_s)
        else:
            _untraced_session(sessions[-1], result)
            result.metrics["setup_s"] = statistics.median(setup_s)
    finally:
        for s in sessions:
            s.close()
    return result


def _drive(
    session: TraceSession,
    result: RunResult,
    ops: int,
    tracer: Tracer | None = None,
) -> dict[str, Any]:
    """Closed loop of *ops* operations; check every record."""
    n = session.trace.n_machines
    base = session.stats.total_seconds
    latencies: list[float] = []
    start = time.perf_counter()
    for i in range(ops):
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        rec = session.run_collective(OPS[i % len(OPS)], root=i % n)
        latencies.append(time.perf_counter() - t0)
        result.attempted += 1
        if not (math.isfinite(rec.expected) and math.isfinite(rec.elapsed)):
            result.failed += 1
    wall = time.perf_counter() - start
    if not _pd_ok(session.weight_matrix()):
        result.failed += 1
        result.problems.append("final P_D is not finite and positive")
    sim = (session.stats.total_seconds - base) / ops
    return {"latencies": latencies, "wall": wall, "ops": ops, "sim": sim}


def _untraced_session(session: TraceSession, result: RunResult) -> None:
    run = _drive(session, result, SHIFT_OPS)
    lat = run["latencies"]
    value, pct, beyond = tail(lat)
    result.metrics.update(
        ops_per_s=run["ops"] / run["wall"],
        op_p50_ms=1e3 * statistics.median(lat),
        op_tail_ms=1e3 * value,
        sim_s_per_op=run["sim"],
    )
    result.record.update(
        operations=run["ops"],
        timed_wall_s=run["wall"],
        tail={"percentile": pct, "samples_beyond": beyond, "samples": len(lat)},
        counts=_session_counts(session),
    )


def _traced_session(sessions: list[TraceSession], result: RunResult) -> None:
    plain, traced = sessions[0], sessions[1]
    before_plain = _session_counts(plain)
    run_a = _drive(plain, result, SHIFT_TRACED_OPS)

    before = _session_counts(traced)
    tracer = Tracer()
    _session_patches(tracer, traced.regime_detector)
    try:
        run_b = _drive(traced, result, SHIFT_TRACED_OPS, tracer)
    finally:
        tracer.restore()
    after = _session_counts(traced)
    delta = {k: after[k] - before[k] for k in after}
    delta_plain = {k: v - before_plain[k] for k, v in _session_counts(plain).items()}
    _compare_counts(delta_plain, delta, result)

    agg = aggregate(tracer.spans)
    attributed = attributed_seconds(tracer.spans)
    solves = delta["solves"]
    result.metrics.update(
        _layer_metrics(
            agg,
            **{
                "engine.solve.warm": delta["warm"],
                "engine.solve.cold": delta["cold"],
                "engine.window.hit": delta["hit"],
                "engine.window.miss": delta["miss"],
                "kernel.svt_s": delta["svt_s"],
                "solver.iterations_per_solve": (
                    delta["solver_iterations"] / solves if solves else 0.0
                ),
                "detector.shifts": delta["regime_shifts"],
                "detector.spikes": delta["regime_spikes"],
                "maintenance.recal_per_kop": 1e3 * delta["recalibrations"] / run_b["ops"],
                # No persistence and no fleet on this workload.
                "persistence.checkpoint.first_kib": 0.0,
                "persistence.checkpoint.last_kib": 0.0,
                "fleet.elapsed_s": 0.0,
                "fleet.batches": 0,
                "fleet.worker_solve_s": 0.0,
                "fleet.capsule_kib": 0.0,
                "fleet.retries": 0,
                "fleet.restarts": 0,
                "trace.coverage": attributed / run_b["wall"],
                "trace.overhead_frac": 1.0 - run_a["wall"] / run_b["wall"],
            },
        )
    )
    result.record.update(
        operations=run_b["ops"],
        timed_wall_s=run_b["wall"],
        unattributed_s=run_b["wall"] - attributed,
        counts=delta,
    )
    result.tracer = tracer


def _session_counts(session: TraceSession) -> dict[str, Any]:
    ins = session.instrumentation
    stats = session.stats
    counts: dict[str, Any] = {
        "operations": stats.operations,
        "recalibrations": stats.recalibrations,
        "regime_shifts": stats.regime_shifts,
        "regime_spikes": stats.regime_spikes,
        "solves": ins.solves,
        "solver_iterations": ins.solve_iterations,
        "warm": ins.counters.get("engine.solve.warm", 0),
        "cold": ins.counters.get("engine.solve.cold", 0),
        "hit": ins.counters.get("engine.window.hit", 0),
        "miss": ins.counters.get("engine.window.miss", 0),
        "svt_s": ins.timers.get("kernel.svt_seconds", 0.0),
    }
    return counts


#: Counts two runs of one seed must reproduce exactly.
DETERMINISTIC = (
    "operations",
    "recalibrations",
    "regime_shifts",
    "regime_spikes",
    "solves",
    "solver_iterations",
    "checkpoint_array_bytes",
    "fleet_batches",
    "cluster_recalibrations",
)


def _compare_counts(a: dict[str, Any], b: dict[str, Any], result: RunResult) -> None:
    keys = [k for k in DETERMINISTIC if k in a or k in b]
    differ = {k: (a.get(k), b.get(k)) for k in keys if a.get(k) != b.get(k)}
    result.record["determinism"] = {"compared": keys, "differ": differ}
    result.check(not differ, f"two runs of one seed differ in counts: {differ}")


# -- fleet-calm-4x64 ---------------------------------------------------------


def _fleet_specs(seed: int) -> list[ClusterSpec]:
    return [
        ClusterSpec(
            name=f"cluster-{i}",
            trace=generate_trace(
                TraceConfig(n_machines=N_MACHINES, n_snapshots=40, dynamics=CALM),
                seed=seed * FLEET_CLUSTERS + i,
            ),
        )
        for i in range(FLEET_CLUSTERS)
    ]


def _fleet_config(root: str) -> FleetConfig:
    # One worker: with two, the boot solves of two workers share the two
    # cores at two OpenBLAS threads each, and a 300-operation execution
    # took 19-36 s (11 s with one worker), a spread no affordable number of
    # repeats averages out.
    return FleetConfig(n_workers=1, checkpoint_root=root, operations=FLEET_OPERATIONS)


def run_fleet_calm(seed: int, traced: bool, workdir: str) -> RunResult:
    """fleet-calm-4x64; checkpoints and worker spans go under *workdir*."""
    result = RunResult()
    gen_s, setup_s = [], []
    for _ in range(SETUPS):
        start = time.perf_counter()
        specs = _fleet_specs(seed)
        gen_s.append(time.perf_counter() - start)
        FleetScheduler(specs, _fleet_config(os.path.join(workdir, "unused")))
        setup_s.append(time.perf_counter() - start)
    result.record["setup_samples_s"] = setup_s
    try:
        if traced:
            _traced_fleet(specs, result, workdir)
            result.metrics["cloudsim.generate_s"] = statistics.median(gen_s)
        else:
            _untraced_fleet(specs, result, workdir)
            result.metrics["setup_s"] = statistics.median(setup_s)
    finally:
        # run_fleet leaves multiprocessing's resource tracker running until
        # this process exits; stop and reap it so no child outlives us.
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()
    return result


def _execute_fleet(
    specs: list[ClusterSpec],
    root: str,
    result: RunResult,
    call: Callable[..., Any] = run_fleet,
) -> tuple[Any, float, float, dict[str, Any]]:
    """One ``run_fleet`` call plus its output checks and counts.

    Returns the report, the call's start on the ``perf_counter`` clock, its
    wall time and its counts.
    """
    start = time.perf_counter()
    report = call(specs, _fleet_config(root))
    wall = time.perf_counter() - start
    result.attempted += FLEET_CLUSTERS * FLEET_OPERATIONS
    result.failed += FLEET_CLUSTERS * FLEET_OPERATIONS - sum(
        c.operations if c.status == "ok" else 0 for c in report.clusters.values()
    )
    sim = ops = 0.0
    for name, cluster in report.clusters.items():
        result.check(
            cluster.status == "ok" and cluster.operations == FLEET_OPERATIONS,
            f"{name}: status {cluster.status}, {cluster.operations} operations",
        )
        row = np.asarray(cluster.constant_row)
        result.check(
            row.size == N_MACHINES**2 and _pd_ok(row.reshape(N_MACHINES, -1)),
            f"{name}: final P_D is not finite and positive",
        )
        ckpt = CheckpointStore(os.path.join(root, name)).load_latest()
        if ckpt is not None:
            stats = ckpt.meta["stats"]
            sim += stats["communication_seconds"] + stats["overhead_seconds"]
            ops += stats["operations"]
    ins = report.instrumentation
    counts = {
        "operations": report.total_operations,
        "fleet_batches": report.total_batches,
        "cluster_recalibrations": {
            n: c.recalibrations for n, c in sorted(report.clusters.items())
        },
        "solves": len(ins.get("spans", [])),
        "solver_iterations": sum(s["iterations"] for s in ins.get("spans", [])),
        "checkpoint_array_bytes": sum(
            _checkpoint_array_bytes(os.path.join(root, c.name)) for c in specs
        ),
        "sim_s_per_op": sim / ops if ops else float("nan"),
    }
    return report, start, wall, counts


def _op_latencies(
    delivered: list[tuple[str, int, float]], start: float
) -> list[float]:
    """Per-operation latency of each delivered batch, as its cluster sees it.

    *delivered* holds ``(cluster directory, cluster operations so far,
    delivery time)`` per batch, in delivery order. A batch's latency runs
    from its cluster's previous delivery (or the execution's start) to its
    own, so queueing behind other clusters' batches and the worker's boot
    solve count; it is divided by the operations the batch carried.
    """
    last: dict[str, tuple[int, float]] = {}
    out = []
    for directory, ops, at in delivered:
        prev_ops, prev_at = last.get(directory, (0, start))
        out.append((at - prev_at) / (ops - prev_ops))
        last[directory] = (ops, at)
    return out


def _untraced_fleet(specs: list[ClusterSpec], result: RunResult, workdir: str) -> None:
    # The parent writes each cluster's checkpoint as its batch arrives; one
    # clock reading after that write is the batch's delivery time. This is
    # the only hook of an untraced run, and it records no span.
    delivered: list[tuple[str, int, float]] = []
    save = CheckpointStore.save

    def timed_save(store: CheckpointStore, arrays: Any, meta: dict[str, Any]) -> str:
        path = save(store, arrays, meta)
        delivered.append(
            (store.directory, meta["stats"]["operations"], time.perf_counter())
        )
        return path

    walls, latencies, first = [], [], None
    CheckpointStore.save = timed_save
    try:
        for execution in range(FLEET_EXECUTIONS):
            root = os.path.join(workdir, f"fleet-{execution}")
            delivered.clear()
            _, start, wall, counts = _execute_fleet(specs, root, result)
            latencies += _op_latencies(delivered, start)
            shutil.rmtree(root)
            walls.append(wall)
            first = first or counts
    finally:
        CheckpointStore.save = save
    value, pct, beyond = tail(latencies)
    result.metrics.update(
        ops_per_s=len(walls) * FLEET_CLUSTERS * FLEET_OPERATIONS / sum(walls),
        op_p50_ms=1e3 * statistics.median(latencies),
        op_tail_ms=1e3 * value,
        sim_s_per_op=first["sim_s_per_op"],
    )
    result.record.update(
        executions=len(walls),
        execution_wall_s=walls,
        tail={"percentile": pct, "samples_beyond": beyond, "samples": len(latencies)},
        counts=first,
    )


def _traced_fleet(specs: list[ClusterSpec], result: RunResult, workdir: str) -> None:
    _, _, wall_a, counts_a = _execute_fleet(
        specs, os.path.join(workdir, "fleet-a"), result
    )

    # Workers are forked from this process after the patches go in, so
    # they trace too; each rewrites its span aggregate after every batch.
    span_dir = os.path.join(workdir, "worker-spans")
    os.makedirs(span_dir)
    parent = os.getpid()
    tracer = Tracer()
    os.register_at_fork(after_in_child=tracer.reset)

    def flush(_capsule: Any) -> None:
        if os.getpid() != parent:
            tracer.dump_aggregate(os.path.join(span_dir, f"{os.getpid()}.json"))

    saved_kib: list[float] = []
    _session_patches(tracer, None)
    tracer.patch(TraceSession, "capture_capsule", "session.capture", after=flush)
    tracer.patch(
        CheckpointStore,
        "save",
        "persistence.checkpoint",
        after=lambda path: saved_kib.append(os.path.getsize(path) / 1024),
    )
    root = os.path.join(workdir, "fleet-b")
    try:
        report, _, wall_b, counts_b = _execute_fleet(
            specs, root, result, call=tracer.wrap("fleet.run", run_fleet)
        )
    finally:
        tracer.restore()
    _compare_counts(counts_a, counts_b, result)

    workers = []
    for name in sorted(os.listdir(span_dir)):
        if name.endswith(".json"):
            with open(os.path.join(span_dir, name), encoding="utf-8") as fh:
                workers.append(json.load(fh))
    agg = merge_aggregates([aggregate(tracer.spans), *(w["spans"] for w in workers)])
    # Worker and parent spans are summed: where the parent writes a
    # checkpoint while the worker runs the next batch, both count.
    attributed = attributed_seconds(tracer.spans) + sum(
        w["attributed_s"] for w in workers
    )
    ins = report.instrumentation
    counters, timers = ins.get("counters", {}), ins.get("timers", {})
    solves = counts_b["solves"]
    ops = report.total_operations
    result.metrics.update(
        _layer_metrics(
            agg,
            **{
                "engine.solve.warm": counters.get("engine.solve.warm", 0),
                "engine.solve.cold": counters.get("engine.solve.cold", 0),
                "engine.window.hit": counters.get("engine.window.hit", 0),
                "engine.window.miss": counters.get("engine.window.miss", 0),
                "kernel.svt_s": timers.get("kernel.svt_seconds", 0.0),
                "solver.iterations_per_solve": (
                    counts_b["solver_iterations"] / solves if solves else 0.0
                ),
                "detector.shifts": counters.get("regime.shift", 0),
                "detector.spikes": counters.get("regime.spike", 0),
                "maintenance.recal_per_kop": 1e3
                * sum(counts_b["cluster_recalibrations"].values())
                / ops,
                "persistence.checkpoint.first_kib": saved_kib[0] if saved_kib else 0.0,
                "persistence.checkpoint.last_kib": saved_kib[-1] if saved_kib else 0.0,
                "fleet.elapsed_s": report.elapsed_s,
                "fleet.batches": report.total_batches,
                "fleet.worker_solve_s": timers.get("engine.solve_seconds", 0.0),
                "fleet.capsule_kib": statistics.mean(
                    _newest_checkpoint_bytes(os.path.join(root, c.name)) / 1024
                    for c in specs
                ),
                "fleet.retries": counters.get("fleet.task.retries", 0),
                "fleet.restarts": counters.get("fleet.worker.restarts", 0),
                "trace.coverage": attributed / wall_b,
                "trace.overhead_frac": 1.0 - wall_a / wall_b,
            },
        )
    )
    result.record.update(
        operations=ops,
        timed_wall_s=wall_b,
        unattributed_s=wall_b - attributed,
        worker_span_files=len(workers),
        counts=counts_b,
    )
    result.tracer = tracer


WORKLOADS = {"shift-64": run_shift, "fleet-calm-4x64": run_fleet_calm}
