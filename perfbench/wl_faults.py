"""fault-storm: protected CG under a live Poisson upset process.

Closed loop, one client.  Each request is one
``repro.faults.process.faulty_solve`` of one of ``OPERATORS`` seeded
five-point grid-96 operators, taken in turn, with
``ProtectionConfig.resilient(max_retries=16)`` (secded64 everywhere,
deferred 16, rollback every 8 iterations): upsets strike the
matrix and the live protected vectors at ``RATE`` per bit per iteration,
from a stream seeded by ``(seed, request index)``.  This is the one
workload where detection fires, so DUE escalation, checkpoints, rollback
and replayed iterations sit on the critical path.

The unprotected CG solve of the same system runs beside every request
(alternating which goes first) and gives ``plain_p50_ms``.  Checks per
request: the solve returned and converged, ``silent_at_end == 0``, and
the true relative residual is within ``TRUE_RTOL`` (after a rollback the
solution differs from a clean one at round-off level, so it is not
compared with the reference ``x``).  A solve that ends in a raised DUE or
without converging is a detected abort: the client resubmits the request
with a fresh fault stream, up to ``SUBMITS`` solves in all, and the
request's time covers every solve it took.  A request is failed only if
none of its solves converged.  Aborts count against ``ok_frac`` (solves
that reached a checked solution ÷ solves attempted), and the run fails
if more than ``ABORT_CAP`` of its solves abort.  The retry budget is
raised from the preset's 3 to 16 so that aborts come from solves that
run away (a rollback to a checkpoint taken inside an unverified window),
not from the ~2 % of solves that simply see four or more detections at
this rate.
"""

from __future__ import annotations

import contextlib
import statistics

import benchlib
import spans

GRID = 96
RATE = 1e-8
EPS = 1e-16
MAX_ITERS = 500
#: Requests cycle through this many operators.  How often a solve sees
#: a detection, and so the latency tail, depends on the operator (its
#: iteration count and which values the upsets hit): with one operator
#: per seed, the latency tail's ratio spread by 0.11 of its median over
#: ten seeds.
OPERATORS = 4
MAX_RETRIES = 16
#: Solves a request may take: the first and up to three resubmits after
#: an abort.  Each solve aborts with probability ~0.005 today, so a
#: request fails about once in 10^9.
SUBMITS = 4
TRUE_RTOL = 1e-8
#: A run fails when more than this share of its solves abort.  About
#: 0.4-0.7 % run away today (0-5 of a run's ~450-690 solves); at a 3 % cap a
#: run with that baseline fails less than once in 10^4 (Poisson), a
#: fivefold rise fails one run in five and a tenfold rise nearly every
#: run, so a regression of the recovery path cannot hide in ``ok_frac``.
ABORT_CAP = 0.03
#: Requests run as blocks; in a traced run, odd blocks are traced.
BLOCK = 16
#: ``faults.injected`` is the mean over this fixed prefix of requests,
#: so it is exact for a seed however many requests a run fits.
PREFIX = 32


class Bench:
    def __init__(self, seed: int, seconds: float, trace: bool):
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.checks: list[tuple[str, bool, str]] = []
        self.report: list[str] = []
        self.attempted = self.failed = 0
        self.solves = self.aborted = 0
        self.protected_s: list[float] = []
        self.plain_s: list[float] = []
        self.traced_s: list[float] = []
        self.injected: list[int] = []
        self.recovered = self.detected = self.silent = self.plain_bad = 0
        self.worst_residual = 0.0
        self.traced = {"requests": 0, "iterations": 0, "recovered": 0,
                       "detected": 0}
        self.engines: list = []
        self.tracer = spans.Tracer() if trace else None

    def setup(self) -> None:
        import numpy as np

        import repro
        from repro.csr.build import five_point_operator
        from repro.faults.process import PoissonProcess, faulty_solve
        from repro.protect.config import ProtectionConfig

        self.np, self.repro = np, repro
        self.faulty_solve, self.process = faulty_solve, PoissonProcess
        rng = np.random.default_rng(self.seed)
        shape = (GRID, GRID)
        self.systems = []
        for _ in range(OPERATORS):
            A = five_point_operator(GRID, GRID, rng.uniform(0.5, 2.0, shape),
                                    rng.uniform(0.5, 2.0, shape), 0.3)
            b = rng.standard_normal(GRID * GRID)
            self.systems.append((A, b, float(np.linalg.norm(b))))
        self.config = ProtectionConfig.resilient(max_retries=MAX_RETRIES)
        # Warm-up: one clean protected solve and one plain solve.
        A, b, _ = self.systems[0]
        self.faulty_solve(A, b, PoissonProcess(0.0), method="cg",
                          config=self.config, eps=EPS, max_iters=MAX_ITERS)
        repro.solve(A, b, eps=EPS, max_iters=MAX_ITERS)

    def measure(self) -> None:
        end = benchlib.now() + self.seconds
        i = 0
        while benchlib.now() < end or i < PREFIX:  # PREFIX spans two blocks
            traced = self.trace and (i // BLOCK) % 2 == 1
            undo = self._install() if traced else None
            try:
                for _ in range(BLOCK):
                    self._request(i, traced)
                    i += 1
            finally:
                if undo is not None:
                    undo()

    def _install(self):
        from repro.protect.config import ProtectionConfig

        undo = benchlib.install_layers(self.tracer)
        # Keep each solve's engine so the recovery counters can be read.
        original, engines = ProtectionConfig.engine, self.engines

        def engine(config):
            built = original(config)
            engines.append(built)
            return built

        ProtectionConfig.engine = engine

        def restore():
            ProtectionConfig.engine = original
            spans.uninstall(undo)
        return restore

    def _request(self, i: int, traced: bool) -> None:
        system = self.systems[i % OPERATORS]
        A, b, _ = system

        def protected():
            # Resubmit an aborted solve with a fresh fault stream.
            reports = []
            for attempt in range(SUBMITS):
                key = [self.seed, i] if attempt == 0 else [self.seed, i, attempt]
                process = self.process(RATE, rng=self.np.random.default_rng(key))
                report = self.faulty_solve(
                    A, b, process, method="cg", config=self.config,
                    eps=EPS, max_iters=MAX_ITERS, vector_faults=True)
                reports.append(report)
                if report.result is not None and report.result.converged:
                    break
            return reports

        def run(kind: str):
            ctx = (self.tracer.request((kind[0], i)) if traced
                   else contextlib.nullcontext())
            t0 = benchlib.now()
            with ctx:
                if kind == "protected":
                    out = protected()
                else:
                    out = self.repro.solve(A, b, eps=EPS, max_iters=MAX_ITERS)
            return benchlib.now() - t0, out

        order = ("protected", "unprotected") if i % 2 == 0 else (
            "unprotected", "protected")
        timed = {kind: run(kind) for kind in order}
        t_protected, reports = timed["protected"]
        t_plain, plain = timed["unprotected"]
        self.attempted += 1
        self.plain_bad += not (plain.converged
                               and self._residual(system, plain.x) <= TRUE_RTOL)
        result = reports[-1].result
        # A DUE the retry budget could not absorb (or a solve that
        # stopped short) is a detected, reported abort, not a wrong
        # answer; the request fails only if every resubmit aborts too.
        converged = result is not None and result.converged
        self.solves += len(reports)
        self.aborted += len(reports) - converged
        if not converged:
            self.failed += 1
        else:
            residual = self._residual(system, result.x)
            self.worst_residual = max(self.worst_residual, residual)
        for report in reports:
            self.silent += report.silent_at_end
            self.recovered += report.recovered
            self.detected += report.detected_uncorrectable
        if i < PREFIX:
            self.injected.append(sum(report.injected for report in reports))
        if traced:
            self.traced_s.append(t_protected)
            self.traced["requests"] += 1
            self.traced["iterations"] += sum(
                report.result.iterations for report in reports
                if report.result is not None)
            self.traced["recovered"] += sum(r.recovered for r in reports)
            self.traced["detected"] += sum(r.detected_uncorrectable
                                           for r in reports)
        else:
            self.protected_s.append(t_protected)
            self.plain_s.append(t_plain)

    def _residual(self, system, x) -> float:
        A, b, b_norm = system
        return float(self.np.linalg.norm(b - A.matvec(x))) / b_norm

    def check(self) -> None:
        self.checks = [
            ("plain solves converged within tolerance", self.plain_bad == 0,
             f"{self.plain_bad} bad of {self.attempted}"),
            ("no silent corruption (silent_at_end == 0)", self.silent == 0,
             f"{self.silent} solves with silent corruption"),
            (f"every converged protected solve has true relative residual "
             f"<= {TRUE_RTOL:g}", self.worst_residual <= TRUE_RTOL,
             f"worst {self.worst_residual:.3g}"),
            ("every request reached a converged solve within "
             f"{SUBMITS} submits", self.failed == 0,
             f"{self.failed} failed of {self.attempted}"),
            (f"aborted or unconverged solves <= {ABORT_CAP:.0%}",
             self.aborted <= ABORT_CAP * self.solves,
             f"{self.aborted} of {self.solves} "
             f"({self.aborted / max(self.solves, 1):.2%}; counted in ok_frac)"),
        ]

    def close(self) -> None:
        if self.tracer is not None and self.tracer.spans:
            self.tracer.write(benchlib.out_path("spans-fault-storm.jsonl"))

    def end_to_end(self) -> dict[str, float]:
        times, q, n = benchlib.paired_times(self.protected_s, self.plain_s)
        self.report += [
            f"requests: {n} protected solves under faults (rate {RATE:g}/bit/iter), "
            f"each beside one plain solve",
            f"solve_p90_ms and plain_p90_ms are p{q * 100:.0f} of {n} samples",
            f"per solve: {statistics.fmean(self.injected):.2f} upsets injected "
            f"(first {PREFIX}), {self.detected / self.attempted:.2f} DUEs detected, "
            f"{self.recovered / self.attempted:.2f} recoveries",
            f"aborted solves: {self.aborted} of {self.solves}, each resubmitted",
        ]
        return {
            **times,
            "ok_frac": (self.solves - self.aborted) / self.solves,
            "peak_rss_mb": benchlib.peak_rss_mb(),
        }

    def layer_metrics(self) -> dict[str, float]:
        tracer = self.tracer
        n = self.traced["requests"]
        protected_rids = {s[6] for s in tracer.spans
                          if s[6] is not None and s[6][0] == "p"}
        out = benchlib.layer_metrics(spans.totals(tracer.spans), n)
        p_totals = spans.totals(tracer.spans, protected_rids)
        executed = p_totals["protect.begin_iteration"]["calls"]
        out["backends.fused_gather_verify_bytes"] = (
            out["backends.fused_gather_verify_calls"]
            * benchlib.fused_call_bytes(self.config, self.systems[0][0]))
        out["solvers.iterations"] = self.traced["iterations"] / n
        out["solvers.iterations_executed"] = executed / n
        out["recover.replayed_iters"] = (executed - self.traced["iterations"]) / n
        recovery = {"dues": 0, "rollbacks": 0, "repopulates": 0,
                    "vector_repairs": 0, "retries_exhausted": 0}
        policy = {"fused_products": 0, "full_checks": 0, "vector_checks": 0,
                  "dirty_flushes": 0, "sweeps_skipped": 0}
        for engine in self.engines:
            for name in recovery:
                recovery[name] += getattr(engine.recovery.stats, name)
            for name in policy:
                policy[name] += getattr(engine.policy.stats, name)
        for name, value in recovery.items():
            out[f"recover.{name}"] = value / n
        for name, value in policy.items():
            out[f"protect.{name}"] = value / n
        detected = self.traced["detected"]
        out["recover.useful_frac"] = (self.traced["recovered"] / detected
                                      if detected else 0.0)
        out["faults.injected"] = statistics.fmean(self.injected)
        out["trace.overhead_frac"] = (benchlib.median(self.traced_s)
                                      / benchlib.median(self.protected_s) - 1.0)
        out["trace.coverage_frac"] = spans.coverage(tracer.spans)
        return out
