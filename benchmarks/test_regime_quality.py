"""Detection quality across the regime-detector registry.

Every registered :mod:`repro.core.detectors` detector drives a live
session over the same scripted ground-truth regimes from
:mod:`repro.cloudsim.dynamics`:

* **step** — an abrupt sustained 3x band drop at a known snapshot (the
  change CUSUM is tuned for);
* **drift** — a slow linear ramp to 2.5x over ~30 snapshots (the regime a
  spike/shift dichotomy tuned for abrupt change under-serves);
* **burst** — heavy-tailed one-snapshot interference with *no* band
  change (every shift fired here is a false re-calibration).

The matrix is detectors x 3 seeds x 2 fault profiles (clean and 5% probe
loss) x the 3 scenarios; the run writes ``BENCH_regime.json`` at the repo
root with per-detector detection latency (snapshots from onset to the
forced cold re-calibration), false-fire counts, and post-shift ``P_D``
error, so future tuning PRs can track the quality trajectory next to
``BENCH_rpca.json``.

Quality gates are **unconditional** — the whole matrix is deterministic
(fixed seeds, pure-python detectors): every detector must catch the clean
step, nobody may fire on a calm trace, and the drift scenario must show a
non-CUSUM detector beating CUSUM on detection latency (the tentpole's
reason to exist). Wall time is recorded in the JSON but only *asserted*
under ``REPRO_PERF_STRICT=1``, like the other perf gates.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cloudsim.dynamics import (
    DynamicsConfig,
    apply_burst_noise,
    apply_ramp_regime,
    apply_step_regime,
)
from repro.cloudsim.tracegen import TraceConfig, generate_trace
from repro.core.decompose import decompose
from repro.core.detectors import detector_names
from repro.core.kernels import DEFAULT_SVD_BACKEND
from repro.observability.benchrecord import bench_record, write_bench_json
from repro.runtime.session import TraceSession

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_regime.json"

N_MACHINES = 6
N_SNAPSHOTS = 44
TIME_STEP = 8
OPERATIONS = 36  # walks snapshots [TIME_STEP, N_SNAPSHOTS) exactly once
SEEDS = (5, 6, 7)
FAULT_PROFILES = {"clean": None, "lossy": "probe_loss=0.05"}
# Onsets sit well past warmup (the slowest default warmup is 8 post-boot
# observations = snapshot 16) so every detector has a settled baseline.
STEP_START = 26
RAMP_START, RAMP_STOP = 16, N_SNAPSHOTS
WALL_BUDGET_S = 120.0


def _base_trace(seed):
    cfg = TraceConfig(
        n_machines=N_MACHINES,
        n_snapshots=N_SNAPSHOTS,
        dynamics=DynamicsConfig(
            volatility_sigma=0.02,
            spike_probability=0.0,
            hotspot_probability=0.0,
            migration_rate=0.0,
        ),
    )
    return generate_trace(cfg, seed=seed)


def _scenarios(seed):
    base = _base_trace(seed)
    return {
        # onset = first degraded snapshot; None = no true change anywhere.
        "step": (apply_step_regime(base, start=STEP_START, factor=3.0),
                 STEP_START),
        "drift": (apply_ramp_regime(base, start=RAMP_START, stop=RAMP_STOP,
                                    factor=2.5),
                  RAMP_START),
        "burst": (apply_burst_noise(base, probability=0.05, severity=8.0,
                                    seed=seed + 100),
                  None),
    }


def _run_session(trace, detector, faults, seed):
    # threshold=10 parks Algorithm 1's own maintenance loop, so every
    # re-calibration observed here is attributable to the regime detector.
    session = TraceSession(
        trace,
        time_step=TIME_STEP,
        threshold=10.0,
        regime=detector,
        faults=faults,
        fault_seed=seed,
    )
    for i in range(OPERATIONS):
        session.run_collective("broadcast", root=i % trace.n_machines)
    return session


def _post_shift_pd_error(session, trace):
    """Relative L1 error of the served ``P_D`` vs the end-of-trace oracle."""
    tp = trace.tp_matrix(
        session.nbytes, start=N_SNAPSHOTS - TIME_STEP, count=TIME_STEP
    )
    oracle = decompose(tp).constant.row
    served = session.decomposition.constant.row
    return float(np.abs(served - oracle).sum() / np.abs(oracle).sum())


def _grade(session, trace, onset):
    shift_snaps = [r.snapshot for r in session.stats.history
                   if r.regime == "shift"]
    cell = {
        "shifts": session.stats.regime_shifts,
        "spikes": session.stats.regime_spikes,
        "recalibrations": session.stats.recalibrations,
        "pd_error": _post_shift_pd_error(session, trace),
    }
    if onset is None:
        # No true change: every shift is a false re-calibration.
        cell["false_fires"] = len(shift_snaps)
        cell["latency"] = None
    else:
        detected = [s for s in shift_snaps if s >= onset]
        cell["false_fires"] = len(shift_snaps) - len(detected)
        cell["latency"] = detected[0] - onset if detected else None
    return cell


@pytest.fixture(scope="module")
def matrix():
    """The full grading matrix, shared by every assertion below.

    ``baselines`` holds the detector-free control per (scenario, profile,
    seed): the post-shift ``P_D`` error a session serves when nothing
    watches the regime — the number detection has to beat.
    """
    t0 = time.perf_counter()
    cells = {}
    baselines = {}
    for scenario_name in ("step", "drift", "burst"):
        for profile, faults in FAULT_PROFILES.items():
            for seed in SEEDS:
                trace, onset = _scenarios(seed)[scenario_name]
                control = _run_session(trace, None, faults, seed)
                baselines[(scenario_name, profile, seed)] = (
                    _post_shift_pd_error(control, trace)
                )
                for detector in detector_names():
                    session = _run_session(trace, detector, faults, seed)
                    cells[(detector, scenario_name, profile, seed)] = _grade(
                        session, trace, onset
                    )
    return cells, baselines, time.perf_counter() - t0


def _mean(values):
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


def _aggregate(cells, detector, scenario, key):
    return [v[key] for (d, s, _p, _seed), v in cells.items()
            if d == detector and s == scenario]


def _detector_summary(cells, detector):
    out = {}
    for scenario in ("step", "drift", "burst"):
        latencies = _aggregate(cells, detector, scenario, "latency")
        out[scenario] = {
            "detected": sum(1 for x in latencies if x is not None),
            "runs": len(latencies),
            "mean_latency_snapshots": _mean(latencies),
            "false_fires": sum(
                _aggregate(cells, detector, scenario, "false_fires")
            ),
            "mean_pd_error": _mean(
                _aggregate(cells, detector, scenario, "pd_error")
            ),
        }
    return out


class TestDetectionQuality:
    def test_every_detector_catches_the_clean_step(self, matrix):
        cells, _baselines, _ = matrix
        for detector in detector_names():
            for seed in SEEDS:
                cell = cells[(detector, "step", "clean", seed)]
                assert cell["latency"] is not None, (
                    f"{detector} missed the clean step change (seed {seed})"
                )
                assert cell["false_fires"] == 0

    def test_detection_repairs_the_served_constant(self, matrix):
        """Catching the step must leave a better ``P_D`` in service than
        the detector-free control: the forced cold re-calibration re-solves
        over a window that includes post-change snapshots, while the
        control keeps serving the dead regime's component to the end."""
        cells, baselines, _ = matrix
        for detector in detector_names():
            for seed in SEEDS:
                cell = cells[(detector, "step", "clean", seed)]
                stale = baselines[("step", "clean", seed)]
                assert cell["pd_error"] < stale, (
                    f"{detector} fired on the step but serves a P_D no "
                    f"better than the detector-free control "
                    f"({cell['pd_error']:.3f} vs stale {stale:.3f}, "
                    f"seed {seed})"
                )

    def test_drift_favors_a_non_cusum_detector(self, matrix):
        """The tentpole's acceptance scenario: on the slow ramp at least
        one non-CUSUM detector must beat CUSUM on mean detection latency
        while firing no earlier than the ramp onset."""
        cells, _baselines, _ = matrix

        def mean_latency(det):
            lat = _aggregate(cells, det, "drift", "latency")
            # An undetected run is graded as worst-case latency: the ramp
            # runs to the end of the trace unseen.
            horizon = N_SNAPSHOTS - RAMP_START
            return float(np.mean([horizon if x is None else x for x in lat]))

        cusum = mean_latency("cusum")
        rivals = {d: mean_latency(d) for d in detector_names() if d != "cusum"}
        best = min(rivals, key=rivals.get)
        assert rivals[best] < cusum, (
            f"no registered detector beats CUSUM on the drift ramp: "
            f"cusum={cusum:.1f} snapshots vs {rivals}"
        )
        assert all(
            f == 0
            for d in detector_names()
            for f in _aggregate(cells, d, "drift", "false_fires")
        )

    def test_burst_noise_false_fire_ordering(self, matrix):
        """Bursts carry no band change: the noise-robust detector must not
        fire more often than CUSUM on its own stress profile."""
        cells, _baselines, _ = matrix
        robust = sum(_aggregate(cells, "noise-robust", "burst", "false_fires"))
        cusum = sum(_aggregate(cells, "cusum", "burst", "false_fires"))
        assert robust <= cusum


def test_emit_bench_json(matrix, emit):
    cells, baselines, elapsed = matrix
    detectors = {d: _detector_summary(cells, d) for d in detector_names()}
    stale_pd = {
        scen: _mean([v for (s, _p, _seed), v in baselines.items()
                     if s == scen])
        for scen in ("step", "drift", "burst")
    }
    record = bench_record(
        "regime_detection_quality",
        seeds=SEEDS,
        backend=DEFAULT_SVD_BACKEND,  # detector sessions run the default kernel
        matrix={
            "detectors": list(detector_names()),
            "scenarios": ["step", "drift", "burst"],
            "fault_profiles": {k: v or "none"
                               for k, v in FAULT_PROFILES.items()},
            "n_machines": N_MACHINES,
            "n_snapshots": N_SNAPSHOTS,
            "time_step": TIME_STEP,
            "operations": OPERATIONS,
            "onsets": {"step": STEP_START, "drift": RAMP_START, "burst": None},
        },
        detectors=detectors,
        stale_pd_error=stale_pd,
        elapsed_seconds=elapsed,
        wall_budget_seconds=WALL_BUDGET_S,
    )
    write_bench_json(BENCH_JSON, record)

    rows = [f"{'detector':>13} {'scenario':>8} {'detected':>9} "
            f"{'latency':>8} {'false':>6} {'pd_err':>8}"]
    for det, summary in detectors.items():
        for scen, s in summary.items():
            lat = ("-" if s["mean_latency_snapshots"] is None
                   else f"{s['mean_latency_snapshots']:.1f}")
            err = ("-" if s["mean_pd_error"] is None
                   else f"{s['mean_pd_error']:.4f}")
            rows.append(
                f"{det:>13} {scen:>8} {s['detected']:>4}/{s['runs']:<4} "
                f"{lat:>8} {s['false_fires']:>6} {err:>8}"
            )
    emit(
        f"regime detection quality ({len(cells)} sessions, "
        f"{elapsed:.1f} s, wrote {BENCH_JSON.name}):\n" + "\n".join(rows)
    )

    if os.environ.get("REPRO_PERF_STRICT") == "1":
        assert elapsed < WALL_BUDGET_S, (
            f"detection-quality matrix took {elapsed:.1f} s "
            f"(budget {WALL_BUDGET_S:.0f} s)"
        )
