"""The elementwise kernel layer: parity contracts, routing, observability.

Mirrors the guarantees pinned for the SVD kernel layer in
``test_core_kernels.py``, one tier stricter where the design allows it:

* **Bit identity of fused** — ``elementwise_backend="fused"`` preserves the
  reference chain's per-element operation order (it only blocks the ufunc
  sweeps), so fused solves are bit-identical to reference solves on every
  solver × masked/unmasked × dtype × stacked combination. That is asserted
  with ``np.array_equal``, not a tolerance.
* **Certified jit** — the numba kernels follow the same parity contract as
  batch float32 mode: certified against reference within ``1e-6 × scale``.
  Without numba the kernel bodies still run as plain Python (the ``@_njit``
  decorator degrades to identity), so the certification is exercised here
  by routing a kernel to the jit bodies directly.
* **Routing and gating** — ``"jit"`` raises cleanly when numba is missing,
  configs stay constructible on machines without it (name-only
  validation), ``elementwise_backend != "reference"`` conflicts with the
  bit-pinned ``svd_backend="exact"`` loop, and non-contiguous buffers fall
  back to the reference ops with a counter instead of silently copying.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.apg import rpca_apg
from repro.core.batch import solve_rpca_batch
from repro.core.decompose import decompose
from repro.core.elementwise import (
    EW_BACKENDS,
    DEFAULT_EW_CHUNK,
    ElementwiseKernel,
    check_ew_svd_compatible,
    ensure_ew_backend_available,
    jit_available,
    validate_ew_backend,
)
from repro.core.engine import DecompositionEngine
from repro.core.ialm import rpca_ialm
from repro.core.matrices import TPMatrix
from repro.core.streaming import StreamingDecomposer
from repro.errors import ValidationError
from repro.observability import Instrumentation, instrumented

SOLVERS = {"apg": rpca_apg, "ialm": rpca_ialm}


class _FakeSource:
    """Minimal WindowSource over a synthetic near-constant network."""

    n_machines = 12
    n_snapshots = 30

    def __init__(self):
        rng = np.random.default_rng(21)
        base = rng.uniform(0.5, 2.0, size=(self.n_machines, self.n_machines))
        self._rows = [
            (base + 0.02 * rng.standard_normal(base.shape)).reshape(-1)
            for _ in range(self.n_snapshots)
        ]

    def snapshot_row(self, k, nbytes):
        return self._rows[k]

    def timestamp(self, k):
        return float(k)


def _rpca_problem(m=8, n=120, rank=1, sparsity=0.05, seed=0, dtype=np.float64):
    """A wide low-rank + sparse matrix shaped like the paper's TP-matrices."""
    rng = np.random.default_rng(seed)
    low = np.zeros((m, n))
    for _ in range(rank):
        low += np.outer(rng.standard_normal(m), rng.standard_normal(n))
    sparse = (rng.random((m, n)) < sparsity) * rng.standard_normal((m, n)) * 3.0
    return (low + sparse).astype(dtype)


def _mask(shape, missing=0.15, seed=3):
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) > missing
    mask[0] = True  # keep every column observed at least once
    return mask


class TestValidation:
    def test_backends_tuple(self):
        assert EW_BACKENDS == ("reference", "fused", "jit")

    @pytest.mark.parametrize("backend", EW_BACKENDS)
    def test_known_names_validate(self, backend):
        assert validate_ew_backend(backend) == backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError, match="unknown elementwise backend"):
            validate_ew_backend("simd")

    def test_exact_conflict_rejected(self):
        with pytest.raises(ValidationError, match="non-exact SVD backend"):
            check_ew_svd_compatible("exact", "fused")

    @pytest.mark.parametrize("svd", ["auto", "gram", "randomized"])
    def test_non_exact_svd_compatible(self, svd):
        check_ew_svd_compatible(svd, "fused")  # does not raise

    def test_reference_always_compatible(self):
        check_ew_svd_compatible("exact", "reference")  # does not raise

    def test_jit_gated_on_numba(self):
        if jit_available():
            assert ensure_ew_backend_available("jit") == "jit"
        else:
            with pytest.raises(ValidationError, match="requires numba"):
                ensure_ew_backend_available("jit")

    def test_name_validation_never_needs_numba(self):
        # Configs must stay constructible on machines without numba; only
        # building a kernel (or an engine) checks availability.
        assert validate_ew_backend("jit") == "jit"

    def test_solver_rejects_exact_conflict(self):
        a = _rpca_problem()
        for solver in SOLVERS.values():
            with pytest.raises(ValidationError, match="non-exact SVD backend"):
                solver(a, svd_backend="exact", elementwise_backend="fused")

    def test_engine_rejects_non_svt_solver(self):
        with pytest.raises(ValidationError, match="elementwise backend"):
            DecompositionEngine(
                _FakeSource(), nbytes=8.0, solver="row_constant",
                elementwise_backend="fused",
            )

    def test_engine_rejects_exact_conflict(self):
        with pytest.raises(ValidationError, match="non-exact SVD backend"):
            DecompositionEngine(
                _FakeSource(), nbytes=8.0, svd_backend="exact",
                elementwise_backend="fused",
            )

    def test_engine_calibrations_bit_identical(self):
        ref = DecompositionEngine(
            _FakeSource(), nbytes=8.0, time_step=10, svd_backend="auto"
        )
        fus = DecompositionEngine(
            _FakeSource(), nbytes=8.0, time_step=10, svd_backend="auto",
            elementwise_backend="fused",
        )
        for end in (10, 12):
            a = ref.calibrate(end)
            b = fus.calibrate(end)
            assert np.array_equal(a.constant.row, b.constant.row)


class TestImportGuard:
    def test_package_imports_with_numba_blocked(self):
        """The layer (and the package) must import when numba cannot."""
        code = (
            "import sys\n"
            "class _Block:\n"
            "    def find_module(self, name, path=None):\n"
            "        if name == 'numba' or name.startswith('numba.'):\n"
            "            return self\n"
            "    def load_module(self, name):\n"
            "        raise ImportError('numba blocked for test')\n"
            "sys.meta_path.insert(0, _Block())\n"
            "sys.modules.pop('numba', None)\n"
            "import repro\n"
            "from repro.core.elementwise import jit_available, ElementwiseKernel\n"
            "from repro.errors import ValidationError\n"
            "assert not jit_available()\n"
            "try:\n"
            "    ElementwiseKernel('jit')\n"
            "except ValidationError as e:\n"
            "    assert 'requires numba' in str(e)\n"
            "else:\n"
            "    raise SystemExit('jit kernel built without numba')\n"
            "ElementwiseKernel('fused')\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr or proc.stdout


def _solve_pair(solver, a, mask, ew, **kw):
    ref = SOLVERS[solver](a, mask=mask, svd_backend="auto", **kw)
    alt = SOLVERS[solver](
        a, mask=mask, svd_backend="auto", elementwise_backend=ew, **kw
    )
    return ref, alt


class TestFusedBitIdentity:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("solver", ["apg", "ialm"])
    def test_single_solve(self, solver, masked):
        a = _rpca_problem(seed=11)
        mask = _mask(a.shape) if masked else None
        ref, fus = _solve_pair(solver, a, mask, "fused")
        assert ref.iterations == fus.iterations
        assert np.array_equal(ref.low_rank, fus.low_rank)
        assert np.array_equal(ref.sparse, fus.sparse)

    @settings(max_examples=12, deadline=None)
    @given(
        solver=st.sampled_from(["apg", "ialm"]),
        seed=st.integers(min_value=0, max_value=2**16),
        m=st.integers(min_value=4, max_value=10),
        n=st.integers(min_value=20, max_value=90),
        masked=st.booleans(),
    )
    def test_property_single_solve(self, solver, seed, m, n, masked):
        a = _rpca_problem(m=m, n=n, seed=seed)
        mask = _mask(a.shape, seed=seed + 1) if masked else None
        ref, fus = _solve_pair(solver, a, mask, "fused", max_iter=40)
        assert ref.iterations == fus.iterations
        assert np.array_equal(ref.low_rank, fus.low_rank)
        assert np.array_equal(ref.sparse, fus.sparse)

    def test_chunking_is_invisible(self, monkeypatch):
        # A chunk smaller than a row exercises the block seams; results
        # must not depend on the chunk size at all.
        a = _rpca_problem(seed=5)
        ref = rpca_apg(a, svd_backend="auto")
        big = rpca_apg(a, svd_backend="auto", elementwise_backend="fused")
        real_init = ElementwiseKernel.__init__

        def tiny_chunks(self, backend="reference", *, chunk=DEFAULT_EW_CHUNK):
            real_init(self, backend, chunk=17)

        monkeypatch.setattr(ElementwiseKernel, "__init__", tiny_chunks)
        small = rpca_apg(a, svd_backend="auto", elementwise_backend="fused")
        assert np.array_equal(ref.low_rank, big.low_rank)
        assert np.array_equal(big.low_rank, small.low_rank)
        assert np.array_equal(big.sparse, small.sparse)

    @settings(max_examples=8, deadline=None)
    @given(
        solver=st.sampled_from(["apg", "ialm"]),
        dtype=st.sampled_from(["float64", "float32"]),
        seed=st.integers(min_value=0, max_value=2**16),
        b=st.integers(min_value=1, max_value=3),
        masked=st.booleans(),
    )
    def test_property_batch_stacks(self, solver, dtype, seed, b, masked):
        mats = [_rpca_problem(m=6, n=40, seed=seed + i) for i in range(b)]
        masks = (
            [_mask(m.shape, seed=seed + 10 + i) for i, m in enumerate(mats)]
            if masked
            else None
        )
        ref = solve_rpca_batch(mats, masks, solver=solver, dtype=dtype)
        fus = solve_rpca_batch(
            mats, masks, solver=solver, dtype=dtype, elementwise_backend="fused"
        )
        for r, f in zip(ref, fus):
            assert r.iterations == f.iterations
            assert np.array_equal(r.low_rank, f.low_rank)
            assert np.array_equal(r.sparse, f.sparse)


def _jit_bodied_kernel():
    """A kernel routed to the jit bodies regardless of numba's presence.

    Without numba the ``@_njit`` decorator is the identity, so the kernel
    bodies execute as plain Python — same arithmetic, certified the same.
    """
    kernel = ElementwiseKernel("fused")
    kernel.backend = "jit"
    return kernel


class TestJitCertification:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("solver", ["apg", "ialm"])
    def test_jit_bodies_within_tolerance(self, solver, masked, monkeypatch):
        a = _rpca_problem(seed=23)
        mask = _mask(a.shape) if masked else None
        ref = SOLVERS[solver](a, mask=mask, svd_backend="auto")

        real_init = ElementwiseKernel.__init__

        def jit_init(self, backend="reference", **kw):
            real_init(self, "fused", **kw)
            self.backend = "jit"

        monkeypatch.setattr(ElementwiseKernel, "__init__", jit_init)
        jit = SOLVERS[solver](
            a, mask=mask, svd_backend="auto", elementwise_backend="fused"
        )
        scale = max(float(np.abs(ref.low_rank).max()), 1.0)
        assert np.abs(jit.low_rank - ref.low_rank).max() <= 1e-6 * scale
        assert np.abs(jit.sparse - ref.sparse).max() <= 1e-6 * scale

    def test_shrink_jit_body_matches_reference(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(64)
        ref = ElementwiseKernel("reference").shrink(x, 0.3)
        jit = _jit_bodied_kernel().shrink(x, 0.3)
        assert np.abs(np.asarray(jit) - ref).max() <= 1e-12


class TestRoutingAndObservability:
    def test_step_counters_and_timers(self):
        a = _rpca_problem(seed=31)
        sink = Instrumentation("ew")
        with instrumented(sink):
            rpca_apg(a, svd_backend="auto", elementwise_backend="fused")
        assert sink.counters.get("kernel.ew.fused", 0) > 0
        assert sink.timers.get("kernel.ew_seconds", 0.0) > 0.0
        assert sink.timers.get("kernel.ew.fused_seconds", 0.0) > 0.0

    def test_reference_backend_also_times(self):
        # ew_share must be reportable for the reference chain too.
        a = _rpca_problem(seed=31)
        sink = Instrumentation("ew")
        with instrumented(sink):
            rpca_apg(a, svd_backend="auto")
        assert sink.counters.get("kernel.ew.reference", 0) > 0
        assert sink.timers.get("kernel.ew_seconds", 0.0) > 0.0

    def test_non_contiguous_falls_back(self):
        kernel = ElementwiseKernel("fused")
        x = np.asfortranarray(np.random.default_rng(0).standard_normal((8, 60)))
        assert not x.flags.c_contiguous
        sink = Instrumentation("ew")
        with instrumented(sink):
            out = kernel.shrink(x, 0.2)
        assert sink.counters.get("kernel.ew.fallback", 0) > 0
        ref = ElementwiseKernel("reference").shrink(x, 0.2)
        assert np.array_equal(np.asarray(out), ref)

    def test_decompose_threads_backend(self):
        tp = TPMatrix(data=_rpca_problem(n=16), n_machines=4)
        ref = decompose(tp, solver="apg", svd_backend="auto")
        fus = decompose(
            tp, solver="apg", svd_backend="auto", elementwise_backend="fused"
        )
        assert np.array_equal(ref.constant.row, fus.constant.row)

    def test_decompose_rejects_non_svt_solver(self):
        tp = TPMatrix(data=_rpca_problem(n=16), n_machines=4)
        with pytest.raises(ValidationError, match="elementwise backend"):
            decompose(tp, solver="row_constant", elementwise_backend="fused")


class TestStreamingShrink:
    def _seeded(self, rows, backend):
        window = rows[:10]
        res = rpca_apg(window, svd_backend="auto")
        dec = StreamingDecomposer(window.shape, elementwise_backend=backend)
        dec.seed(end=10, data=window, low_rank=res.low_rank, sparse=res.sparse)
        return dec

    def test_streaming_folds_bit_identical(self):
        rows = _rpca_problem(m=30, n=50, seed=41)
        ref = self._seeded(rows, "reference")
        fus = self._seeded(rows, "fused")
        for key in range(10, 30):
            a = ref.fold(key, rows[key])
            b = fus.fold(key, rows[key])
            assert a == b  # same fallback decision (usually None)
            if a is not None:
                break
            sa, sb = ref.export_state(), fus.export_state()
            assert np.array_equal(sa.sparse, sb.sparse)
            assert np.array_equal(sa.coeffs, sb.coeffs)
            assert np.array_equal(sa.basis, sb.basis)

    def test_scratch_rows_do_not_alias_state(self):
        # The fused shrink hands back kernel-owned scratch; the fold must
        # copy it into the slid window before the next call reuses it.
        rows = _rpca_problem(m=16, n=30, seed=43)
        fus = self._seeded(rows, "fused")
        fus.fold(10, rows[10])
        first = fus.export_state().sparse[-1].copy()
        fus.fold(11, rows[11])
        assert np.array_equal(fus.export_state().sparse[-2], first)


class TestBenchFingerprint:
    def test_machine_block_records_both_cpu_counts(self):
        from repro.observability.benchrecord import (
            BENCH_SCHEMA_VERSION,
            bench_machine,
        )

        assert BENCH_SCHEMA_VERSION == 2
        machine = bench_machine()
        assert machine["cpu_count_host"] == os.cpu_count()
        if hasattr(os, "sched_getaffinity"):
            affinity = len(os.sched_getaffinity(0))
            assert machine["cpu_affinity"] == affinity
            # The governing count is the schedulable one, never the
            # (potentially over-reported) host count.
            assert machine["cpu_count"] == affinity
        else:
            assert machine["cpu_affinity"] is None
            assert machine["cpu_count"] == os.cpu_count()
