"""tealeaf-deck: the paper's TeaLeaf deck, protected and plain in lock-step.

Closed loop, one client.  The deck is ``examples/decks/tea_bm_short.in``
(128x128 cells, two states, CG, ``tl_eps=1e-15``); the seed scales the
hot state's energy by up to +-1 %, so every seed is the same problem
class with its own field.  A fully protected driver
(``ProtectionConfig.deferred(window=16)``: secded64 on elements, rowptr
and vectors) and an unprotected driver step in lock-step, alternating
which goes first.  Iteration counts fall as the field diffuses, so the
drivers restart every ``STEPS_PER_CYCLE`` steps: the request mix stays
the same however many cycles a run fits.

A request is one protected time step; the unprotected step beside it
gives ``plain_p50_ms``.  After each cycle the outputs are checked: per
step, both solves converged and iteration counts agree within 1 %; the
protected field summary matches the plain one within 1e-9 relative.

With tracing, odd cycles run with the span recorder installed and even
cycles without, which gives the tracing overhead; the report sets the
measured per-region split beside ``repro.platforms.model``'s prediction.
"""

from __future__ import annotations

import contextlib
import random
import statistics

import benchlib
import spans

DECK = benchlib.ROOT / "examples" / "decks" / "tea_bm_short.in"
STEPS_PER_CYCLE = 4
WINDOW = 16
FIELD_RTOL = 1e-9
ITER_RTOL = 0.01
MODEL_PLATFORM = "broadwell"

#: Span -> region of the measured protected-step split.
SPLIT = {
    "protect.encode": "matrix encode",
    "protect.matrix_check": "matrix verify",
    "protect.spmv_verified": "fused verify+SpMV",
    "protect.matvec_unchecked": "plain SpMV",
    "protect.vector_init": "vector encode+scan",
    "protect.vector_store": "vector encode+scan",
    "protect.vector_flush": "vector encode+scan",
    "protect.vector_check": "vector encode+scan",
    "solvers.solve": "solver arithmetic",
    "solvers.protected": "solver arithmetic",
    "tealeaf.assemble": "assembly",
    "protect.dispatch": "dispatch",
    "protect.begin_iteration": "dispatch",
    "protect.finalize": "dispatch",
}


def _model(region: str) -> float:
    """``repro.platforms.model``'s overhead for ``region`` at this schedule."""
    from repro.platforms.model import predict_engine_overhead

    return predict_engine_overhead(MODEL_PLATFORM, "secded64", WINDOW, region=region)


class Bench:
    def __init__(self, seed: int, seconds: float, trace: bool):
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.checks: list[tuple[str, bool, str]] = []
        self.report: list[str] = []
        self.attempted = self.failed = 0
        self.protected_s: list[float] = []
        self.plain_s: list[float] = []
        self.traced_s: list[float] = []
        self.traced_plain_s: list[float] = []
        self.iterations = 0
        self.max_iter_rdiff = 0.0
        self.max_field_rdiff = 0.0
        self.unconverged = 0
        self.stats: dict[str, int] = {}
        self.tracer = spans.Tracer() if trace else None

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        from repro.protect.config import ProtectionConfig
        from repro.tealeaf.deck import parse_deck
        from repro.tealeaf.driver import TeaLeafDriver

        if not DECK.is_file():
            raise benchlib.BenchError(f"missing deck {DECK}")
        deck = parse_deck(DECK.read_text())
        hot = deck.states[1]
        hot.energy *= 1.0 + 0.01 * (2.0 * random.Random(self.seed).random() - 1.0)
        deck.end_step = STEPS_PER_CYCLE
        self.deck_text = deck.to_text()
        self.config = ProtectionConfig.deferred(window=WINDOW)
        self._parse, self._driver = parse_deck, TeaLeafDriver
        # Warm-up: the first encode and the lazily built scratch buffers.
        protected, plain = self._drivers()
        protected.step()
        plain.step()
        protected.finish()

    def _drivers(self):
        return (self._driver(self._parse(self.deck_text), self.config),
                self._driver(self._parse(self.deck_text)))

    # -- measurement -------------------------------------------------------
    def measure(self) -> None:
        end = benchlib.now() + self.seconds
        cycle = 0
        while benchlib.now() < end or cycle < (2 if self.trace else 1):
            self._cycle(cycle, traced=self.trace and cycle % 2 == 1)
            cycle += 1

    def _cycle(self, cycle: int, traced: bool) -> None:
        protected, plain = self._drivers()
        undo = benchlib.install_layers(self.tracer) if traced else None
        try:
            for k in range(STEPS_PER_CYCLE):
                order = (True, False) if (cycle + k) % 2 == 0 else (False, True)
                timed = {}
                for is_protected in order:
                    driver = protected if is_protected else plain
                    ctx = (self.tracer.request(("p" if is_protected else "u", cycle, k))
                           if traced else contextlib.nullcontext())
                    t0 = benchlib.now()
                    with ctx:
                        step = driver.step()
                    timed[is_protected] = (benchlib.now() - t0, step)
                self._record(traced, timed[True], timed[False])
        finally:
            if undo is not None:
                spans.uninstall(undo)
        protected.finish()
        self._check_fields(protected, plain)
        if traced:
            for name, value in vars(protected.session.stats).items():
                self.stats[name] = self.stats.get(name, 0) + value

    def _record(self, traced, timed_p, timed_u) -> None:
        (t_p, step_p), (t_u, step_u) = timed_p, timed_u
        self.attempted += 1
        rdiff = abs(step_p.iterations - step_u.iterations) / max(step_u.iterations, 1)
        self.max_iter_rdiff = max(self.max_iter_rdiff, rdiff)
        bad = rdiff > ITER_RTOL or not (step_p.converged and step_u.converged)
        self.unconverged += not (step_p.converged and step_u.converged)
        self.failed += bad
        self.iterations += step_p.iterations if traced else 0
        if traced:
            self.traced_s.append(t_p)
            self.traced_plain_s.append(t_u)
        else:
            self.protected_s.append(t_p)
            self.plain_s.append(t_u)

    def _check_fields(self, protected, plain) -> None:
        ref = plain.state.field_summary()
        got = protected.state.field_summary()
        for key, value in ref.items():
            scale = max(abs(value), abs(got[key]), 1e-300)
            self.max_field_rdiff = max(self.max_field_rdiff,
                                       abs(got[key] - value) / scale)

    # -- checks and results -----------------------------------------------
    def check(self) -> None:
        self.checks = [
            ("every step converged (protected and plain)", self.unconverged == 0,
             f"{self.unconverged} unconverged of {self.attempted} step pairs"),
            (f"per-step iterations within {ITER_RTOL:.0%}",
             self.max_iter_rdiff <= ITER_RTOL,
             f"max relative difference {self.max_iter_rdiff:.3g}"),
            (f"field summary within {FIELD_RTOL:g} relative",
             self.max_field_rdiff <= FIELD_RTOL,
             f"max relative difference {self.max_field_rdiff:.3g}"),
        ]

    def close(self) -> None:
        if self.tracer is not None and self.tracer.spans:
            self.tracer.write(benchlib.out_path("spans-tealeaf-deck.jsonl"))

    def end_to_end(self) -> dict[str, float]:
        times, q, n = benchlib.paired_times(self.protected_s, self.plain_s)
        self.report += [
            f"requests: {n} protected steps ({STEPS_PER_CYCLE}-step cycles), "
            f"each beside one plain step",
            f"solve_p90_ms and plain_p90_ms are p{q * 100:.0f} of {n} samples",
        ]
        return {
            **times,
            "peak_rss_mb": benchlib.peak_rss_mb(),
        }

    def layer_metrics(self) -> dict[str, float]:
        from repro.tealeaf.assembly import build_operator

        tracer = self.tracer
        n = len(self.traced_s)
        out = benchlib.layer_metrics(spans.totals(tracer.spans), n)
        for name in ("fused_products", "full_checks", "vector_checks",
                     "dirty_flushes", "sweeps_skipped"):
            out[f"protect.{name}"] = self.stats.get(name, 0) / n
        protected_rids = {s[6] for s in tracer.spans
                          if s[6] is not None and s[6][0] == "p"}
        p_totals = spans.totals(tracer.spans, protected_rids)
        # The operator's array sizes do not depend on the field or the step.
        operator = build_operator(self._driver(self._parse(self.deck_text)).state, 1.0)
        out["backends.fused_gather_verify_bytes"] = (
            out["backends.fused_gather_verify_calls"]
            * benchlib.fused_call_bytes(self.config, operator))
        out["solvers.iterations"] = self.iterations / n
        out["solvers.iterations_executed"] = (
            p_totals["protect.begin_iteration"]["calls"] / n)
        out["protect.overhead_ratio_model"] = 1.0 + _model("full")
        out["trace.overhead_frac"] = (benchlib.median(self.traced_s)
                                      / benchlib.median(self.protected_s) - 1.0)
        out["trace.coverage_frac"] = spans.coverage(tracer.spans)
        self.report += self._model_split(p_totals, protected_rids, n)
        return out

    def _model_split(self, p_totals, protected_rids, n) -> list[str]:
        """Measured per-step split of the protected step beside the model."""
        split = spans.attribute(self.tracer.spans, SPLIT, protected_rids)
        fused = split.pop("fused verify+SpMV", 0.0)
        unchecked = p_totals["protect.matvec_unchecked"]
        per_product = unchecked["total_s"] / max(unchecked["calls"], 1)
        fused_spmv = min(fused, per_product * p_totals["protect.spmv_verified"]["calls"])
        split["plain SpMV"] = split.get("plain SpMV", 0.0) + fused_spmv
        split["matrix verify"] = split.get("matrix verify", 0.0) + fused - fused_spmv
        plain_ms = statistics.fmean(self.traced_plain_s) * 1e3
        step_ms = statistics.fmean(self.traced_s) * 1e3
        predicted = {
            "matrix verify": _model("elements") + _model("rowptr"),
            "vector encode+scan": _model("full") - _model("matrix"),
        }
        lines = [
            f"measured split of one protected step (traced mean {step_ms:.2f} ms; "
            f"plain step {plain_ms:.2f} ms) beside repro.platforms.model "
            f"({MODEL_PLATFORM}, secded64, interval {WINDOW}):",
            f"  {'region':<22} {'ms/step':>9} {'x plain':>8} {'model x plain':>14}",
        ]
        order = ["matrix verify", "matrix encode", "vector encode+scan",
                 "plain SpMV", "solver arithmetic", "assembly", "dispatch", "other"]
        for region in order:
            ms = split.get(region, 0.0) * 1e3 / n
            model_txt = (f"{predicted[region]:>14.3f}" if region in predicted
                         else f"{'-':>14}")
            lines.append(f"  {region:<22} {ms:>9.2f} {ms / plain_ms:>8.3f} {model_txt}")
        lines.append(f"  {'protection overhead':<22} {step_ms - plain_ms:>9.2f} "
                     f"{step_ms / plain_ms - 1:>8.3f} {_model('full'):>14.3f}")
        lines.append("  (matrix verify splits each fused product at the mean "
                     "plain product time; dispatch is the engine's scheduling "
                     "and finalize self time; other is driver self time)")
        return lines
