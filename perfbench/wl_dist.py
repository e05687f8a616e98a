"""dist-shards: row-sharded protected CG across worker processes.

Closed loop, one client.  Each request is one
``repro.solve(A, b, distributed=2)`` of a seeded five-point grid-96
operator under ``ProtectionConfig.resilient()``; every call partitions
the matrix, spawns its two shard processes, runs the lockstep rounds and
shuts the pool down.  This is the only workload that runs ``repro.dist``.
The same sharded solve without protection runs beside every request
(alternating which goes first) and gives ``plain_p50_ms``: spawn and
exchange dominate both, so the ratio isolates what protection adds.
Checks per request: both converged, no shard deaths, and the true
relative residual within ``TRUE_RTOL``.

With tracing, requests alternate between traced and untraced.  The
first lockstep round is reported on its own (``dist.first_round_ms``):
it waits for the freshly spawned shards to start their interpreters and
import the package, which is start-up, not exchange.
"""

from __future__ import annotations

import contextlib

import benchlib
import spans

GRID = 96
SHARDS = 2
EPS = 1e-16
MAX_ITERS = 500
TRUE_RTOL = 1e-8


class Bench:
    def __init__(self, seed: int, seconds: float, trace: bool):
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.checks: list[tuple[str, bool, str]] = []
        self.report: list[str] = []
        self.attempted = self.failed = 0
        self.protected_s: list[float] = []
        self.plain_s: list[float] = []
        self.traced_s: list[float] = []
        self.worst_residual = 0.0
        self.deaths = 0
        self.traced_iters = {"iterations": 0, "executed": 0}
        self.tracer = spans.Tracer() if trace else None

    def setup(self) -> None:
        import numpy as np

        import repro
        from repro.csr.build import five_point_operator
        from repro.protect.config import ProtectionConfig

        self.np, self.repro = np, repro
        rng = np.random.default_rng(self.seed)
        shape = (GRID, GRID)
        self.A = five_point_operator(GRID, GRID, rng.uniform(0.5, 2.0, shape),
                                     rng.uniform(0.5, 2.0, shape), 0.3)
        self.b = rng.standard_normal(GRID * GRID)
        self.b_norm = float(np.linalg.norm(self.b))
        self.config = ProtectionConfig.resilient()
        # Warm-up: one protected sharded solve.  Every solve spawns fresh
        # shard processes, so a warm-up can only warm the coordinator.
        self._sharded(self.config)

    def _sharded(self, protection):
        return self.repro.solve(self.A, self.b, distributed=SHARDS,
                                protection=protection, eps=EPS,
                                max_iters=MAX_ITERS)

    def measure(self) -> None:
        end = benchlib.now() + self.seconds
        i = 0
        while benchlib.now() < end or i < (2 if self.trace else 1):
            self._request(i, traced=self.trace and i % 2 == 1)
            i += 1

    def _request(self, i: int, traced: bool) -> None:
        def run(kind: str):
            ctx = (self.tracer.request((kind[0], i)) if traced
                   else contextlib.nullcontext())
            t0 = benchlib.now()
            with ctx:
                result = self._sharded(self.config if kind == "protected" else None)
            return benchlib.now() - t0, result

        undo = benchlib.install_layers(self.tracer) if traced else None
        try:
            order = ("protected", "unprotected") if i % 2 == 0 else (
                "unprotected", "protected")
            timed = {kind: run(kind) for kind in order}
        finally:
            if undo is not None:
                spans.uninstall(undo)
        t_sharded, sharded = timed["protected"]
        t_plain, plain = timed["unprotected"]
        self.attempted += 1
        dist = sharded.info["distributed"]
        self.deaths += dist["deaths"] + plain.info["distributed"]["deaths"]
        residual = self._residual(sharded.x)
        self.worst_residual = max(self.worst_residual, residual,
                                  self._residual(plain.x))
        if not (sharded.converged and plain.converged) or residual > TRUE_RTOL:
            self.failed += 1
        if traced:
            self.traced_s.append(t_sharded)
            self.traced_iters["iterations"] += sharded.iterations
            self.traced_iters["executed"] += dist["iters_executed"]
        else:
            self.protected_s.append(t_sharded)
            self.plain_s.append(t_plain)

    def _residual(self, x) -> float:
        return float(self.np.linalg.norm(self.b - self.A.matvec(x))) / self.b_norm

    def check(self) -> None:
        self.checks = [
            ("every sharded and plain solve converged within tolerance",
             self.failed == 0, f"{self.failed} failed of {self.attempted}"),
            (f"true relative residual <= {TRUE_RTOL:g}",
             self.worst_residual <= TRUE_RTOL, f"worst {self.worst_residual:.3g}"),
            ("no shard deaths", self.deaths == 0, f"{self.deaths} deaths"),
        ]

    def close(self) -> None:
        if self.tracer is not None and self.tracer.spans:
            self.tracer.write(benchlib.out_path("spans-dist-shards.jsonl"))
        # The spawn context started multiprocessing's resource tracker;
        # stop and reap it so no process of this run outlives it.
        from multiprocessing import resource_tracker

        tracker = resource_tracker._resource_tracker
        if getattr(tracker, "_pid", None) is not None:
            tracker._stop()

    def end_to_end(self) -> dict[str, float]:
        times, q, n = benchlib.paired_times(self.protected_s, self.plain_s)
        self.report += [
            f"requests: {n} protected sharded solves ({SHARDS} shards, spawn to "
            f"solution), each beside one unprotected sharded solve",
            f"solve_p90_ms and plain_p90_ms are p{q * 100:.0f} of {n} samples",
        ]
        return {
            **times,
            # The shards do the solving: the largest of them, or the
            # coordinator if it is larger.
            "peak_rss_mb": benchlib.peak_rss_mb(children=True),
        }

    def layer_metrics(self) -> dict[str, float]:
        """Per protected sharded solve (the unprotected ones are excluded)."""
        tracer = self.tracer
        n = len(self.traced_s)
        protected = [s for s in tracer.spans if s[6] is not None and s[6][0] == "p"]
        out = benchlib.layer_metrics(spans.totals(protected), n)
        first = {}
        for _sid, _parent, name, start, _end, self_s, rid in protected:
            if name == "dist.round" and (rid not in first or start < first[rid][0]):
                first[rid] = (start, self_s)
        out["dist.first_round_ms"] = sum(s for _t, s in first.values()) * 1e3 / n
        out["dist.round_ms"] -= out["dist.first_round_ms"]
        out["dist.iters_executed"] = self.traced_iters["executed"] / n
        out["solvers.iterations"] = self.traced_iters["iterations"] / n
        out["trace.overhead_frac"] = (benchlib.median(self.traced_s)
                                      / benchlib.median(self.protected_s) - 1.0)
        out["trace.coverage_frac"] = spans.coverage(tracer.spans)
        return out
