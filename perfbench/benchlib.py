"""Plumbing shared by the workloads: paths, statistics, the layer table.

Stdlib-only: it is imported before the checkout's sources are on the
path, and it is what puts them there.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: The only place a run writes to (ignored by git).
OUT_DIR = BENCH_DIR / "_out"

#: BLAS/OpenMP thread caps.  The host has few cores and the serve and
#: dist workloads already run one process per core, so every process
#: the benchmark starts is pinned to one BLAS thread unless the caller
#: set the variable.  The values in force are printed with each run.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken set-up)."""


def pin_blas_threads() -> dict[str, str]:
    """Default every BLAS thread cap to 1; return the caps in force."""
    for name in BLAS_ENV:
        os.environ.setdefault(name, "1")
    return {name: os.environ[name] for name in BLAS_ENV}


def import_repro():
    """Import the checkout's own ``repro`` package, never an installed one."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")
    return repro


def out_path(name: str) -> Path:
    """A file in the benchmark's output directory (created on demand)."""
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR / name


def subprocess_env() -> dict[str, str]:
    """Environment for child Python processes: checkout sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    data = sorted(values)
    if not data:
        raise BenchError("percentile of an empty sample")
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail(values) -> tuple[float, float, int]:
    """The tail latency the sample supports: ``(value, q, n)``.

    p90 when at least ten samples lie beyond it; otherwise the highest
    percentile that still has ten samples beyond it, never below p50.
    """
    n = len(values)
    q = 0.9 if n >= 100 else max(0.5, 1.0 - 10.0 / n)
    return percentile(values, q), q, n


def median(values) -> float:
    return statistics.median(values)


def paired_times(protected_s, plain_s) -> tuple[dict[str, float], float, int]:
    """End-to-end times (ms), ratios and rate of a closed loop whose i-th
    request ran beside the i-th unprotected counterpart, with the tail's
    percentile and sample count.

    ``protect_ratio`` is the median of the per-pair ratios: each pair ran
    back to back, so drifts in the host's speed between pairs cancel.
    """
    solve = [t * 1e3 for t in protected_s]
    plain = [t * 1e3 for t in plain_s]
    times, q, n = summarize(solve, plain, [a / b for a, b in zip(solve, plain)])
    times["max_rate_rps"] = 1e3 / times["solve_p50_ms"]
    return times, q, n


def summarize(solve_ms, plain_ms, pair_ratios) -> tuple[dict[str, float], float, int]:
    """Medians, tails and ratios from request times, unprotected
    counterpart times and each request's ratio to its counterpart; also
    the tail's percentile and sample count.

    ``tail_ratio`` is the per-request ratios at the tail's percentile:
    each ratio divides by a counterpart that ran at the same moment, so a
    slow spell of the host cancels in it.  Dividing the request tail by
    the counterparts' tail instead spread by 0.15 of its median over six
    fault-storm seeds (0.07 for this), and fell as the host sped up.
    """
    solve_tail, q, n = tail(solve_ms)
    times = {
        "solve_p50_ms": median(solve_ms),
        "solve_p90_ms": solve_tail,
        "plain_p50_ms": median(plain_ms),
        "plain_p90_ms": percentile(plain_ms, q),
        "protect_ratio": median(pair_ratios),
        "tail_ratio": percentile(pair_ratios, q),
    }
    return times, q, n


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MB (Linux reports ``ru_maxrss`` in KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def now() -> float:
    return time.perf_counter()


# ---------------------------------------------------------------------------
# set-up repetitions and the host-speed calibration
# ---------------------------------------------------------------------------
#: A fixed program that does not touch the checkout: start an
#: interpreter, import NumPy, run a little Python and small-array NumPy.
#: Set-up is mostly the same kind of work (interpreter starts, imports,
#: small kernels), and on a shared host both drift with the host's
#: speed: within twelve minutes on one host, the medians of set-up and
#: of this program fell by about a third together.
CALIBRATION = (
    "import numpy as np\n"
    "t = {}\n"
    "for i in range(100000):\n"
    "    t[i & 4095] = t.get(i & 4095, 0) + i * i\n"
    "a = np.linspace(0.0, 1.0, 4096)\n"
    "for _ in range(1500):\n"
    "    a = np.sqrt(a * 0.5 + 0.25)\n"
)
#: A round figure within the range of the calibration's medians on the
#: development host (2 vCPU Intel Xeon VM, CPython 3.11 with NumPy;
#: 0.18-0.32 s): ``setup_s`` reads in seconds of a host that runs the
#: calibration in 0.2 s.
CALIBRATION_REF_S = 0.2


def calibration_sample() -> float:
    """Wall seconds of one run of :data:`CALIBRATION` in a fresh,
    isolated interpreter (``-I``: no checkout module on its path).

    No timeout: with one, ``subprocess`` waits by polling at up to 50 ms
    intervals, which rounds every sample up to that grid.
    """
    t0 = now()
    subprocess.run([sys.executable, "-I", "-c", CALIBRATION], cwd=ROOT, check=True)
    return now() - t0


def setup_sample(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh process doing set-up only."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, env=subprocess_env(), capture_output=True, text=True,
        timeout=120,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"set-up-only run failed: {proc.stderr[-2000:]}")
    return float(json.loads(lines[-1])["setup_s"])


# ---------------------------------------------------------------------------
# the layer table: what the traced run wraps, and what it reports
# ---------------------------------------------------------------------------
#: ``(module, qualname, span)`` for every public call the trace wraps.
#: Several calls may share one span name; their self times add up.
LAYER_TARGETS = [
    ("repro.tealeaf.assembly", "build_operator", "tealeaf.assemble"),
    ("repro.tealeaf.driver", "TeaLeafDriver.step", "tealeaf.step"),
    ("repro.protect.matrix", "ProtectedCSRMatrix.__init__", "protect.encode"),
    ("repro.protect.session", "ProtectionSession.wrap_matrix", "protect.wrap_matrix"),
    ("repro.protect.matrix", "ProtectedCSRMatrix.spmv_verified",
     "protect.spmv_verified"),
    ("repro.protect.matrix", "ProtectedCSRMatrix.spmv_verified_multi",
     "protect.spmv_verified_multi"),
    ("repro.protect.matrix", "ProtectedCSRMatrix.matvec_unchecked",
     "protect.matvec_unchecked"),
    ("repro.protect.matrix", "ProtectedCSRMatrix.matvec_multi_unchecked",
     "protect.matvec_multi_unchecked"),
    ("repro.protect.matrix", "ProtectedCSRMatrix.check_all", "protect.matrix_check"),
    ("repro.protect.matrix", "ProtectedCSRMatrix.check_stripe",
     "protect.matrix_check"),
    ("repro.protect.vector", "ProtectedVector.__init__", "protect.vector_init"),
    ("repro.protect.vector", "ProtectedVector.store", "protect.vector_store"),
    ("repro.protect.vector", "ProtectedVector.flush", "protect.vector_flush"),
    ("repro.protect.vector", "ProtectedVector.check", "protect.vector_check"),
    ("repro.protect.engine", "DeferredVerificationEngine.spmv", "protect.dispatch"),
    ("repro.protect.engine", "DeferredVerificationEngine.spmm", "protect.dispatch"),
    ("repro.protect.engine", "DeferredVerificationEngine.begin_iteration",
     "protect.begin_iteration"),
    ("repro.protect.engine", "DeferredVerificationEngine.finalize",
     "protect.finalize"),
    ("repro.protect.session", "ProtectionSession.end_step", "protect.finalize"),
    ("repro.protect.session", "ProtectionSession.retire_step", "protect.finalize"),
    ("repro.backends.numpy_fused", "NumpyFusedBackend.fused_gather_verify",
     "backends.fused_gather_verify"),
    ("repro.backends.numpy_fused", "NumpyFusedBackend.fused_gather_verify_multi",
     "backends.fused_gather_verify_multi"),
    ("repro.backends.numpy_fused", "NumpyFusedBackend.spmv", "backends.spmv"),
    ("repro.backends.numpy_fused", "NumpyFusedBackend.spmm", "backends.spmm"),
    ("repro.backends.numpy_fused", "NumpyFusedBackend.scan", "backends.scan"),
    ("repro.backends.numpy_fused", "NumpyFusedBackend.encode", "backends.encode"),
    ("repro.backends.numpy_fused", "NumpyFusedBackend.syndrome_into",
     "backends.syndrome"),
    ("repro.csr.matrix", "CSRMatrix.matvec", "csr.matvec"),
    ("repro.solvers.registry", "solve", "solvers.solve"),
    ("repro.solvers.block", "block_cg_solve", "solvers.plain"),
    ("repro.solvers.block", "protected_block_cg_run", "solvers.protected"),
    ("repro.solvers.toolkit", "ProtectedIteration.recover", "recover.recover"),
    ("repro.solvers.toolkit", "ProtectedIteration.maybe_checkpoint",
     "recover.checkpoint"),
    ("repro.faults.process", "faulty_solve", "faults.faulty_solve"),
    ("repro.serve.service", "SolveService.submit", "serve.submit"),
    ("repro.serve.journal", "JobJournal.record_submitted", "serve.journal"),
    ("repro.serve.journal", "JobJournal.record_result", "serve.journal"),
    ("repro.serve.journal", "JobJournal.record_rejected", "serve.journal"),
    ("repro.serve.workers", "run_batch", "serve.run_batch"),
    ("repro.serve.cache", "MatrixCache.encoded", "serve.cache"),
    ("repro.serve.cache", "MatrixCache.raw", "serve.cache"),
    ("repro.sweeps.executor", "run_tasks", "sweeps.run_tasks"),
    ("repro.dist.partition", "partition_matrix", "dist.partition"),
    ("repro.dist.exchange", "ShardPool.__init__", "dist.spawn"),
    ("repro.dist.exchange", "ShardPool.roundtrip", "dist.round"),
    ("repro.dist.exchange", "ShardPool.shutdown", "dist.shutdown"),
]

def install_layers(tracer) -> list:
    """Install the span recorder on every layer; returns the undo list."""
    return spans.install(tracer, LAYER_TARGETS)


def fused_call_bytes(config, matrix) -> int:
    """Computed bytes one fused verify+SpMV call moves over ``matrix``
    encoded per ``config``: the codeword lanes read, plus the gathered
    operand, decoded index and product written per element.  They depend
    only on the operator's array sizes, so the traced run multiplies them
    by the call count."""
    elements = config.wrap_matrix(matrix).elements
    return elements.values.nbytes + elements.colidx.nbytes + 3 * 8 * elements.values.size


#: Per-layer metric -> unit, in report order.  A metric a workload's
#: requests never reach reads 0 there (the prediction is "no change").
LAYER_METRICS = {
    "tealeaf.assemble_ms": "ms",
    "tealeaf.step_ms": "ms",
    "protect.encode_ms": "ms",
    "protect.encode_calls": "count",
    "protect.spmv_verified_ms": "ms",
    "protect.spmv_verified_calls": "count",
    "protect.matvec_unchecked_ms": "ms",
    "protect.matvec_unchecked_calls": "count",
    "protect.vector_init_ms": "ms",
    "protect.vector_init_calls": "count",
    "protect.vector_store_ms": "ms",
    "protect.vector_store_calls": "count",
    "protect.vector_flush_ms": "ms",
    "protect.vector_flush_calls": "count",
    "protect.vector_check_ms": "ms",
    "protect.vector_check_calls": "count",
    "protect.matrix_check_ms": "ms",
    "protect.matrix_check_calls": "count",
    "protect.dispatch_ms": "ms",
    "protect.finalize_ms": "ms",
    "protect.fused_products": "count",
    "protect.full_checks": "count",
    "protect.vector_checks": "count",
    "protect.dirty_flushes": "count",
    "protect.sweeps_skipped": "count",
    "protect.overhead_ratio_model": "ratio",
    "backends.fused_gather_verify_ms": "ms",
    "backends.fused_gather_verify_calls": "count",
    "backends.fused_gather_verify_bytes": "B",
    "backends.fused_gather_verify_multi_ms": "ms",
    "backends.spmv_ms": "ms",
    "backends.spmm_ms": "ms",
    "backends.scan_ms": "ms",
    "backends.encode_ms": "ms",
    "backends.syndrome_ms": "ms",
    "csr.matvec_ms": "ms",
    "solvers.iterations": "count",
    "solvers.iterations_executed": "count",
    "solvers.self_ms": "ms",
    "recover.dues": "count",
    "recover.rollbacks": "count",
    "recover.repopulates": "count",
    "recover.vector_repairs": "count",
    "recover.retries_exhausted": "count",
    "recover.useful_frac": "fraction",
    "recover.replayed_iters": "count",
    "recover.ms": "ms",
    "faults.injected": "count",
    "serve.submit_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.exec_ms": "ms",
    "serve.solve_ms": "ms",
    "serve.batch_jobs": "count",
    "serve.blocked_frac": "fraction",
    "serve.cache_hit_frac": "fraction",
    "serve.encodes": "count",
    "serve.rejected": "count",
    "serve.journal_ms": "ms",
    "serve.run_batch_ms": "ms",
    "serve.cache_ms": "ms",
    "sweeps.run_tasks_ms": "ms",
    "dist.partition_ms": "ms",
    "dist.spawn_ms": "ms",
    "dist.first_round_ms": "ms",
    "dist.round_ms": "ms",
    "dist.rounds": "count",
    "dist.shutdown_ms": "ms",
    "dist.iters_executed": "count",
    "loadgen.late_p50_ms": "ms",
    "loadgen.late_max_ms": "ms",
    "trace.overhead_frac": "fraction",
    "trace.coverage_frac": "fraction",
}

#: Span name -> (self-time metric, call-count metric); either may be None.
SPAN_METRICS = {
    "tealeaf.assemble": ("tealeaf.assemble_ms", None),
    "tealeaf.step": ("tealeaf.step_ms", None),
    "protect.encode": ("protect.encode_ms", "protect.encode_calls"),
    "protect.wrap_matrix": ("protect.encode_ms", None),
    "protect.spmv_verified": ("protect.spmv_verified_ms", "protect.spmv_verified_calls"),
    "protect.spmv_verified_multi": ("protect.spmv_verified_ms",
                                    "protect.spmv_verified_calls"),
    "protect.matvec_unchecked": ("protect.matvec_unchecked_ms",
                                 "protect.matvec_unchecked_calls"),
    "protect.matvec_multi_unchecked": ("protect.matvec_unchecked_ms",
                                       "protect.matvec_unchecked_calls"),
    "protect.vector_init": ("protect.vector_init_ms", "protect.vector_init_calls"),
    "protect.vector_store": ("protect.vector_store_ms", "protect.vector_store_calls"),
    "protect.vector_flush": ("protect.vector_flush_ms", "protect.vector_flush_calls"),
    "protect.vector_check": ("protect.vector_check_ms", "protect.vector_check_calls"),
    "protect.matrix_check": ("protect.matrix_check_ms", "protect.matrix_check_calls"),
    "protect.dispatch": ("protect.dispatch_ms", None),
    "protect.begin_iteration": ("protect.dispatch_ms", None),
    "protect.finalize": ("protect.finalize_ms", None),
    "backends.fused_gather_verify": ("backends.fused_gather_verify_ms",
                                     "backends.fused_gather_verify_calls"),
    "backends.fused_gather_verify_multi": ("backends.fused_gather_verify_multi_ms",
                                           None),
    "backends.spmv": ("backends.spmv_ms", None),
    "backends.spmm": ("backends.spmm_ms", None),
    "backends.scan": ("backends.scan_ms", None),
    "backends.encode": ("backends.encode_ms", None),
    "backends.syndrome": ("backends.syndrome_ms", None),
    "csr.matvec": ("csr.matvec_ms", None),
    "solvers.plain": ("solvers.self_ms", None),
    "solvers.protected": ("solvers.self_ms", None),
    "solvers.solve": ("solvers.self_ms", None),
    "recover.recover": ("recover.ms", None),
    "recover.checkpoint": ("recover.ms", None),
    "serve.submit": ("serve.submit_ms", None),
    "serve.journal": ("serve.journal_ms", None),
    "serve.run_batch": ("serve.run_batch_ms", None),
    "serve.cache": ("serve.cache_ms", None),
    "sweeps.run_tasks": ("sweeps.run_tasks_ms", None),
    "dist.partition": ("dist.partition_ms", None),
    "dist.spawn": ("dist.spawn_ms", None),
    "dist.round": ("dist.round_ms", "dist.rounds"),
    "dist.shutdown": ("dist.shutdown_ms", None),
}


def layer_metrics(span_totals: dict, requests: int) -> dict[str, float]:
    """Per-request self times and call counts.

    Every metric of :data:`LAYER_METRICS` is present; the workload then
    overwrites the counters it reads from the program's own stats.
    """
    per = max(requests, 1)
    out = {name: 0.0 for name in LAYER_METRICS}
    for span, entry in span_totals.items():
        ms_metric, calls_metric = SPAN_METRICS.get(span, (None, None))
        if ms_metric is not None:
            out[ms_metric] += entry["self_s"] * 1e3 / per
        if calls_metric is not None:
            out[calls_metric] += entry["calls"] / per
    return out


def format_metrics(metrics: dict, units: dict) -> list[str]:
    """One aligned ``name value unit`` line per metric, in ``units`` order."""
    return [f"  {name:<40} {metrics[name]:>14.6g} {unit}"
            for name, unit in units.items()]
