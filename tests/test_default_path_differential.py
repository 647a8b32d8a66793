"""Downstream differential: the ``auto`` default against the ``exact`` oracle.

The default SVD backend (``auto``, which runs the Gram kernel at every shape
a session builds) reorders floating point relative to the historical
full-``gesdd`` loop, so the two agree on ``P_D`` to solver tolerance, not bit
for bit. What must not move is anything downstream of ``P_D``: every
maintenance decision, every regime verdict and the session's accounting.
This module drives the same 64-VM sessions (the paper's Fig-7 shape, a
10×4096 TP-matrix) down both paths and compares them operation by operation.

Two scenarios:

* a 3× step regime change with the ``drift`` detector at threshold 1e-3, so
  every operation re-calibrates and the detector walks through stable,
  spike and shift verdicts (its warm-up and window are shortened, and its
  decision level raised to stay above ``spike_z / window``, so the shift
  lands two operations after the step);
* a default EC2-like trace at the paper's threshold of 1.0, where
  re-calibrations are rare and each one is a threshold decision (the seed
  draws six keeps, a re-calibration, then a keep).

The exact loop costs about 2 s per re-calibration at this shape on a 2-vCPU
machine, which is what bounds the operation counts.
"""

import numpy as np
import pytest

from repro.api import SessionConfig, open_session
from repro.cloudsim import TraceConfig, apply_step_regime, generate_trace
from repro.core.kernels import DEFAULT_SVD_BACKEND

N_MACHINES = 64
WINDOW = 10
OPS = ("broadcast", "scatter", "reduce", "gather")
RTOL_PD = 1e-8

SHIFT_SEED = 3
SHIFT_OPS = 5
SHIFT_STEP_OP = 3  # the step lands on the snapshot of this operation
EC2_SEED = 6
EC2_OPS = 8


def _shift_scenario():
    trace = generate_trace(
        TraceConfig(n_machines=N_MACHINES, n_snapshots=WINDOW + SHIFT_OPS),
        seed=SHIFT_SEED,
    )
    trace = apply_step_regime(trace, start=WINDOW + SHIFT_STEP_OP, factor=3.0)
    config = SessionConfig(
        threshold=1e-3,
        regime_detector="drift",
        regime_params={"warmup": 3, "window": 2, "decision": 2.5},
    )
    verdicts = ["stable"] * 3 + ["spike", "shift"]
    return trace, config, SHIFT_OPS, "r" * SHIFT_OPS, verdicts


def _ec2_scenario():
    trace = generate_trace(
        TraceConfig(n_machines=N_MACHINES, n_snapshots=WINDOW + EC2_OPS),
        seed=EC2_SEED,
    )
    config = SessionConfig(threshold=1.0)
    return trace, config, EC2_OPS, "kkkkkkrk", ["stable"] * EC2_OPS


def _run(trace, config, n_ops, svd_backend):
    session = open_session(trace, config, svd_backend=svd_backend)
    rows = [session.decomposition.constant.row.copy()]
    for i in range(n_ops):
        session.run_collective(OPS[i % len(OPS)], root=i % N_MACHINES)
        rows.append(session.decomposition.constant.row.copy())
    session.close()
    return session, rows


def _totals(stats):
    return {k: v for k, v in vars(stats).items() if k != "history"}


@pytest.mark.parametrize(
    "scenario", [_shift_scenario, _ec2_scenario], ids=["shift", "ec2"]
)
def test_default_path_makes_the_exact_oracles_decisions(scenario):
    assert DEFAULT_SVD_BACKEND != "exact"
    trace, config, n_ops, decisions, verdicts = scenario()
    fast, fast_rows = _run(trace, config, n_ops, DEFAULT_SVD_BACKEND)
    oracle, oracle_rows = _run(trace, config, n_ops, "exact")
    # The scenario is only a check if the oracle walks the intended path.
    history = oracle.stats.history
    assert "".join(rec.decision.value[0] for rec in history) == decisions
    assert [rec.regime for rec in history] == verdicts

    for got, want in zip(fast.stats.history, oracle.stats.history):
        assert (got.op, got.snapshot, got.root) == (want.op, want.snapshot, want.root)
        assert got.decision == want.decision
        assert got.regime == want.regime
        assert got.health == want.health
        # The collective runs on the same FNF tree, so the measured time is
        # the same; the predicted one is read off P_D.
        assert got.elapsed == want.elapsed
        assert got.expected == pytest.approx(want.expected, rel=RTOL_PD)
    assert _totals(fast.stats) == _totals(oracle.stats)
    assert len(fast.stats.history) == len(oracle.stats.history) == n_ops

    for got, want in zip(fast_rows, oracle_rows):
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= RTOL_PD * scale
