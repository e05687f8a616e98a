"""serve-mixed: open-loop Poisson load on a ``repro.serve`` subprocess.

One load-generator process (this one) sends to a ``python -m repro.serve``
server started through perfbench/serve_launcher.py, with a journal on
and ``--workers 1``.  The generator uses two threads and two
connections: the sender writes pipelined ``submit`` lines at each job's
due time and, as acknowledgements arrive, pipelines one ``stream`` op
per job on the second connection, whose reader thread records every
event.  A ``status`` op queued behind the streams marks the end of a
rung (the server answers a connection's ops in order).

Jobs are CG, each with a fresh ``tag`` and ``b`` seed, so the result
cache never answers.  The measured jobs run under the ``"deferred"``
preset: 80 % target one hot five-point grid-64 operator (they coalesce
into blocked multi-RHS solves); 20 % cycle through 128 cold operators
in a seeded order, twice the matrix cache's 64 entries, so every cold
job misses (a build and an encode) while hot jobs hit; the cache fills
during the reference rung and evicts from then on.  Two in five
arrivals are probes: the hot system with protection ``"off"``, the
unprotected counterpart that gives ``plain_p50_ms``.  Probes take the
same path through the same server at the same moments as the measured
jobs, so a slow spell of the host or a queue stretches both.  Every
``SAMPLE_EVERY``-th job asks for ``x``, whose true residual is checked
after the rung.

Latency is timed from each job's due time to the server's ``done``
event (same host clock), so a stalled generator or server shows up in
later jobs.  Generator lateness (due -> sent) is recorded per rung; a
rung whose lateness exceeds ``LATE_P90_BOUND_MS`` at p90 is invalid and
not scored.  The rate ladder starts at the reference rate, which gives
``solve_p50_ms``/``solve_p90_ms``; ``max_rate_rps`` is the highest rung
whose p90 latency meets ``LATENCY_LIMIT_MS`` with no failed job and no
growing backlog (last quarter's median latency within the limit).  The
ladder stops at the first rung that misses.
"""

from __future__ import annotations

import bisect
import json
import select
import socket
import statistics
import subprocess
import sys
import threading
import time

import benchlib

GRID = 64
COLD_OPERATORS = 128
#: Cold jobs cycle through twice ``MatrixCache``'s default 64 entries,
#: so each one misses: drawn at random, about half would hit, and p90
#: would sit between misses and hits and move with the hit count.
PROTECTION = "deferred"
#: Arrival kinds are dealt from decks shuffled by the seed: every 25
#: arrivals hold 10 unprotected probes of the hot system and 15 measured
#: jobs, 12 hot and 3 cold (80/20).  Drawing each kind independently
#: let the cold share of a run swing between 15 and 25 %, and with it
#: the tail.
DECK = ("probe",) * 10 + ("hot",) * 12 + ("cold",) * 3
EPS = 1e-12
TRUE_RTOL = 1e-7
SAMPLE_EVERY = 20
#: Open-loop arrival rates (jobs/s, probes included); the first is the
#: reference rate.  On a 2-core shared host whose speed swings by up to
#: 2.5x over tens of seconds, the knee moved between ~25 and over 100
#: jobs/s: the reference rate stays below it even in slow spells, where
#: 30 protected jobs/s already saturated the server.
LADDER = (25.0, 50.0, 100.0)
#: Share of ``--seconds`` spent at the reference rate; the other rungs
#: share the rest equally.
REF_SHARE = 0.9
LATENCY_LIMIT_MS = 200.0
#: A job's ratio to its unprotected counterpart divides its latency by
#: the median latency of the this many probes due nearest its due time.
PAIR_WINDOW = 5
LATE_P90_BOUND_MS = 10.0
#: Generator caps, reported with the run.
THREADS = 2
CONNECTIONS = 2
SERVER_READY_TIMEOUT_S = 60.0


class _Conn:
    """A newline-JSON connection with an explicit receive buffer, so the
    sender can poll it with ``select`` without losing buffered lines."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=120)
        self.buf = b""

    def send(self, payload: dict) -> None:
        self.sock.sendall(json.dumps(payload).encode() + b"\n")

    def poll(self, timeout: float) -> list[dict]:
        """Lines that arrive within ``timeout`` seconds (maybe none)."""
        ready, _, _ = select.select([self.sock], [], [], max(timeout, 0.0))
        if ready:
            self._fill()
        return self._lines()

    def recv(self) -> dict:
        while b"\n" not in self.buf:
            self._fill()
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def _fill(self) -> None:
        data = self.sock.recv(1 << 16)
        if not data:
            raise benchlib.BenchError("server closed the connection")
        self.buf += data

    def _lines(self) -> list[dict]:
        *lines, self.buf = self.buf.split(b"\n")
        return [json.loads(line) for line in lines if line]

    def close(self) -> None:
        self.sock.close()


class _Server:
    """One ``repro.serve`` subprocess started through the launcher."""

    def __init__(self, name: str, trace: bool):
        self.report_path = benchlib.out_path(f"serve-{name}-report.json")
        journal = benchlib.out_path(f"serve-{name}-journal.jsonl")
        for stale in (self.report_path, journal):
            stale.unlink(missing_ok=True)
        self.log = open(benchlib.out_path(f"serve-{name}.log"), "w+")
        self.proc = subprocess.Popen(
            [sys.executable, str(benchlib.BENCH_DIR / "serve_launcher.py"),
             "--trace", str(int(trace)), "--report", str(self.report_path), "--",
             "--host", "127.0.0.1", "--port", "0", "--journal", str(journal),
             "--workers", "1"],
            cwd=benchlib.ROOT, env=benchlib.subprocess_env(),
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.host, self.port = self._wait_ready()

    def _wait_ready(self):
        deadline = time.monotonic() + SERVER_READY_TIMEOUT_S
        while time.monotonic() < deadline:
            self.log.seek(0)
            for line in self.log.read().splitlines():
                if "listening on" in line:
                    host, port = line.rsplit(" ", 1)[-1].rsplit(":", 1)
                    return host, int(port)
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        self.kill()
        self.log.seek(0)
        raise benchlib.BenchError(f"server did not start:\n{self.log.read()[-2000:]}")

    def stop(self) -> dict:
        """Shut the server down and return its launcher report."""
        try:
            conn = _Conn(self.host, self.port)
            conn.send({"op": "shutdown"})
            conn.recv()
            conn.close()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired, benchlib.BenchError):
            self.kill()
            raise
        finally:
            self.log.close()
        with open(self.report_path) as fh:
            return json.load(fh)

    def peak_rss_mb(self) -> float:
        """The server's peak RSS so far (``VmHWM``), in MB."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise benchlib.BenchError("no VmHWM in the server's /proc status")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


class _Rung:
    """Outcome of one open-loop rate."""

    def __init__(self, rate: float, jobs: list[dict], status_before: dict,
                 status_after: dict):
        self.rate, self.jobs = rate, jobs
        self.before, self.after = status_before, status_after
        ok = [j for j in jobs if j["status"] == "done" and j["converged"]]
        self.failed = len(jobs) - len(ok)
        #: Measured (protected) jobs and unprotected probes that succeeded.
        self.done = [j for j in ok if not j["probe"]]
        probes = [j for j in ok if j["probe"]]
        done = self.done
        self.due = [j["due"] for j in done]
        self.latency_ms = [(j["done_ts"] - j["due"]) * 1e3 for j in done]
        self.probe_due = [j["due"] for j in probes]
        self.probe_ms = [(j["done_ts"] - j["due"]) * 1e3 for j in probes]
        self.late_ms = [(j["sent"] - j["due"]) * 1e3 for j in jobs]
        self.late_p50 = benchlib.percentile(self.late_ms, 0.5)
        self.late_p90 = benchlib.percentile(self.late_ms, 0.9)
        self.late_max = max(self.late_ms)
        self.valid = self.late_p90 <= LATE_P90_BOUND_MS
        self.p50 = benchlib.median(self.latency_ms) if done else float("inf")
        self.tail, self.tail_q, self.n = (benchlib.tail(self.latency_ms) if done
                                          else (float("inf"), 0.9, 0))
        last = self.latency_ms[-max(len(self.latency_ms) // 4, 1):] or [float("inf")]
        self.last_quarter_p50 = benchlib.median(last)
        self.passed = (self.valid and self.failed == 0
                       and self.tail <= LATENCY_LIMIT_MS
                       and self.last_quarter_p50 <= LATENCY_LIMIT_MS)

    def line(self) -> str:
        verdict = ("invalid (generator late)" if not self.valid
                   else "meets limit" if self.passed else "misses limit")
        return (f"  rate {self.rate:6.1f}/s  jobs {len(self.jobs):4d}  "
                f"failed {self.failed}  p50 {self.p50:7.1f} ms  "
                f"p{self.tail_q * 100:.0f} {self.tail:7.1f} ms (n={self.n})  "
                f"late p50/p90/max {self.late_p50:.2f}/{self.late_p90:.2f}/"
                f"{self.late_max:.2f} ms  -> {verdict}")


class Bench:
    def __init__(self, seed: int, seconds: float, trace: bool):
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.checks: list[tuple[str, bool, str]] = []
        self.report: list[str] = []
        self.attempted = self.failed = 0
        self.rungs: list[_Rung] = []
        self.traced_rung: _Rung | None = None
        self.server: _Server | None = None
        self.traced_report: dict = {}
        #: The server's peak RSS at the end of the reference rung: later
        #: rungs leave backlogs whose size depends on where the ladder stops.
        self.server_rss_mb = 0.0
        self.residuals: list[float] = []
        self._jobs_made = 0
        self._cold_cycle: list[int] = []
        self._cold_next = 0

    # -- inputs ------------------------------------------------------------
    def _matrix(self, cold: int | None) -> dict:
        """The hot operator (``cold=None``) or cold operator ``cold``;
        even and odd operator seeds keep the two sets disjoint."""
        seed = 2 * self.seed if cold is None else 2 * (self.seed * 1000 + cold) + 1
        return {"kind": "five-point", "grid": GRID, "seed": seed}

    def _jobs(self, rng, tag: str, n: int) -> list[dict]:
        """``n`` jobs whose kinds are dealt from shuffled copies of DECK."""
        kinds: list[str] = []
        while len(kinds) < n:
            kinds += list(rng.permutation(DECK))
        return [self._job(f"{tag}-{i}", kind) for i, kind in enumerate(kinds[:n])]

    def _job(self, tag: str, kind: str) -> dict:
        """A ``"probe"``, ``"hot"`` or ``"cold"`` job; a cold one targets
        the next operator of the cold cycle."""
        probe = kind == "probe"
        cold = None
        if kind == "cold":
            cold = self._cold_cycle[self._cold_next % COLD_OPERATORS]
            self._cold_next += 1
        self._jobs_made += 1
        job = {"matrix": self._matrix(cold), "method": "cg", "eps": EPS,
               "protection": "off" if probe else PROTECTION, "tag": tag,
               "b": {"seed": self.seed * 10_000_000 + self._jobs_made}}
        if self._jobs_made % SAMPLE_EVERY == 0:
            job["return_x"] = True
        return job

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        import numpy as np

        from repro.serve.client import ServeClient
        from repro.serve.jobs import build_matrix

        self.np, self.build_matrix = np, build_matrix
        self._client = ServeClient
        self.server = self._start("main", trace=False)

    def _start(self, name: str, trace: bool) -> _Server:
        server = _Server(name, trace)
        self.server = server
        # Warm-up: one deck of jobs (the hot operator's encode, blocked
        # path and probes, the first cold operators).  Filling the cache
        # with 64 cold operators as well made set-up twice as long, and in
        # a slow spell of the host that set-up grew by up to 85 % where
        # the other workloads' grew by 40 %.
        rng = self.np.random.default_rng([self.seed, 999])
        self._cold_cycle = [int(k) for k in rng.permutation(COLD_OPERATORS)]
        self._cold_next = 0
        warm = self._jobs(rng, f"warm-{name}", 25)
        for record in self._client(server.host, server.port).solve_many(warm):
            if record.get("status") != "done":
                raise benchlib.BenchError(f"warm-up job failed: {record}")
        return server

    # -- measurement -------------------------------------------------------
    def measure(self) -> None:
        if self.trace:
            half = self.seconds / 2.0
            self.rungs.append(self._rung(0, LADDER[0], half))
            self.server.stop()
            self.server = self._start("traced", trace=True)
            self.traced_rung = self._rung(1, LADDER[0], half)
            self.traced_report = self.server.stop()
            self.server = None
            return
        durations = [self.seconds * REF_SHARE] + [
            self.seconds * (1.0 - REF_SHARE) / (len(LADDER) - 1)
        ] * (len(LADDER) - 1)
        for index, (rate, duration) in enumerate(zip(LADDER, durations)):
            rung = self._rung(index, rate, duration)
            self.rungs.append(rung)
            if index == 0:
                self.server_rss_mb = self.server.peak_rss_mb()
            if not rung.passed:
                break
        self.server.stop()
        self.server = None

    def _rung(self, index: int, rate: float, duration: float) -> _Rung:
        np = self.np
        rng = np.random.default_rng([self.seed, index])
        offsets, t = [], 0.0
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= duration:
                break
            offsets.append(t)
        schedule = list(zip(offsets, self._jobs(rng, f"{self.seed}-{index}",
                                                len(offsets))))
        sender = _Conn(self.server.host, self.server.port)
        streams = _Conn(self.server.host, self.server.port)
        try:
            streams.send({"op": "status"})
            before = streams.recv()
            jobs = self._run_schedule(schedule, sender, streams)
            after = self._status
            for job in jobs:
                if job.get("return_x") and job["status"] == "done":
                    streams.send({"op": "result", "job_id": job["job_id"]})
                    record = streams.recv()["result"]
                    self._check_x(job, record["x"])
        finally:
            sender.close()
            streams.close()
        rung = _Rung(rate, jobs, before, after)
        self.attempted += len(jobs)
        self.failed += rung.failed
        return rung

    def _run_schedule(self, schedule, sender: _Conn, streams: _Conn) -> list[dict]:
        jobs = [{"spec": spec, "status": "unsent", "converged": False,
                 "events": {}, "return_x": spec.get("return_x", False),
                 "probe": spec["protection"] == "off"}
                for _off, spec in schedule]
        by_id: dict[str, dict] = {}
        acked = 0
        self._status = None
        reader = threading.Thread(target=self._read_streams, args=(streams, by_id))
        reader.start()
        try:
            wall0, perf0 = time.time(), time.perf_counter()

            def take_acks(timeout: float) -> None:
                nonlocal acked
                for reply in sender.poll(timeout):
                    job = jobs[acked]
                    acked += 1
                    if not reply.get("ok"):
                        job["status"] = "refused"
                        continue
                    job["job_id"] = reply["job_id"]
                    job["status"] = "pending"
                    by_id[reply["job_id"]] = job
                    streams.send({"op": "stream", "job_id": reply["job_id"]})

            for (offset, spec), job in zip(schedule, jobs):
                job["due"] = wall0 + offset
                while True:
                    wait = perf0 + offset - time.perf_counter()
                    if wait <= 0:
                        break
                    take_acks(wait)
                job["sent"] = wall0 + (time.perf_counter() - perf0)
                sender.send({"op": "submit", "job": spec})
            while acked < len(jobs):
                take_acks(60.0)
            # Answered only after every stream above has ended.
            streams.send({"op": "status"})
        except BaseException:
            streams.close()  # unblocks the reader
            raise
        finally:
            reader.join(timeout=120)
        if reader.is_alive() or self._status is None:
            raise benchlib.BenchError("stream reader did not finish")
        return jobs

    def _read_streams(self, streams: _Conn, by_id: dict) -> None:
        while True:
            message = streams.recv()
            if "event" in message and "job_id" in message:
                job = by_id[message["job_id"]]
                job["events"][message["event"]] = message
                if message["event"] in ("done", "failed"):
                    job["status"] = message["event"]
                    job["done_ts"] = message["ts"]
                    job["converged"] = bool(message.get("converged"))
                    job["duration_ms"] = message.get("duration_ms", 0.0)
            elif "running" in message:
                self._status = message
                return

    def _check_x(self, job: dict, x) -> None:
        np = self.np
        spec = job["spec"]
        A = self.build_matrix(spec["matrix"])
        b = np.random.default_rng(int(spec["b"]["seed"])).standard_normal(A.n_rows)
        x = np.asarray(x, dtype=np.float64)
        self.residuals.append(float(np.linalg.norm(b - A.matvec(x)) / np.linalg.norm(b)))

    # -- checks and results -----------------------------------------------
    def check(self) -> None:
        rungs = self.rungs + ([self.traced_rung] if self.traced_rung else [])
        worst = max(self.residuals, default=0.0)
        timed = [self.rungs[0]] + ([self.traced_rung] if self.traced_rung else [])
        self.checks = [
            ("every job done and converged", self.failed == 0,
             f"{self.failed} failed, refused or unconverged of {self.attempted}"),
            (f"sampled x: true relative residual <= {TRUE_RTOL:g}",
             bool(self.residuals) and worst <= TRUE_RTOL,
             f"{len(self.residuals)} sampled, worst {worst:.3g}"),
            (f"reference-rate rungs valid (generator late p90 <= "
             f"{LATE_P90_BOUND_MS:g} ms)", all(r.valid for r in timed),
             ", ".join(f"late p90 {r.late_p90:.2f} ms" for r in timed)),
        ]
        self.report += [
            f"load generator: open loop, Poisson arrivals, {THREADS} threads, "
            f"{CONNECTIONS} connections, pipelined submits; latency limit "
            f"p90 <= {LATENCY_LIMIT_MS:g} ms; rung invalid if late p90 > "
            f"{LATE_P90_BOUND_MS:g} ms",
        ] + [r.line() for r in rungs]

    def close(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server.log.close()
            self.server = None

    def end_to_end(self) -> dict[str, float]:
        ref = self.rungs[0]
        passing = [r.rate for r in self.rungs if r.passed]
        window = max(j["sent"] for j in ref.jobs) - min(j["due"] for j in ref.jobs)
        max_rate = max(passing) if passing else (len(ref.latency_ms) / window)
        pairs = [lat / self._probe_around(ref, due)
                 for lat, due in zip(ref.latency_ms, ref.due)]
        times, q, n = benchlib.summarize(ref.latency_ms, ref.probe_ms, pairs)
        self.report.append(
            f"reference rate {LADDER[0]:g}/s: solve_p90_ms and plain_p90_ms are "
            f"p{q * 100:.0f} of {n} protected jobs "
            f"and {len(ref.probe_ms)} unprotected probes; each job's "
            f"protect_ratio divides by the median of the {PAIR_WINDOW} probes "
            f"due nearest it")
        return {
            **times,
            "max_rate_rps": max_rate,
            "peak_rss_mb": self.server_rss_mb,
        }

    @staticmethod
    def _probe_around(rung: _Rung, t: float) -> float:
        """Median latency (ms) of the ``PAIR_WINDOW`` probes due nearest ``t``."""
        if len(rung.probe_ms) < PAIR_WINDOW:
            raise benchlib.BenchError(
                f"only {len(rung.probe_ms)} probes at the reference rate")
        k = bisect.bisect_left(rung.probe_due, t)
        lo = max(0, min(k - PAIR_WINDOW // 2, len(rung.probe_due) - PAIR_WINDOW))
        return benchlib.median(rung.probe_ms[lo:lo + PAIR_WINDOW])

    def layer_metrics(self) -> dict[str, float]:
        from repro.serve.jobs import protection_from_spec

        rung = self.traced_rung
        done = rung.done
        report = self.traced_report
        # The traced server's spans include its warm-up jobs: normalise
        # them by every job it solved.
        n = rung.after["stats"]["solved"]
        out = benchlib.layer_metrics(report["spans"], n)
        events = [j["events"] for j in done]
        # Hot and cold operators are all grid-GRID five-point: one size.
        out["backends.fused_gather_verify_bytes"] = (
            out["backends.fused_gather_verify_calls"]
            * benchlib.fused_call_bytes(protection_from_spec(PROTECTION),
                                        self.build_matrix(self._matrix(None))))
        out["serve.queue_wait_ms"] = benchlib.median(
            [(e["started"]["ts"] - e["accepted"]["ts"]) * 1e3 for e in events])
        out["serve.exec_ms"] = benchlib.median(
            [(e["done"]["ts"] - e["started"]["ts"]) * 1e3 for e in events])
        out["serve.solve_ms"] = benchlib.median([j["duration_ms"] for j in done])
        before, after = rung.before, rung.after

        def delta(section: str, key: str) -> int:
            return after[section][key] - before[section][key]

        solved = max(delta("stats", "solved"), 1)
        out["serve.batch_jobs"] = solved / max(delta("stats", "batches"), 1)
        out["serve.blocked_frac"] = delta("stats", "blocked_jobs") / solved
        hits, encodes = delta("cache", "hits"), delta("cache", "encodes")
        out["serve.cache_hit_frac"] = hits / max(hits + encodes, 1)
        out["serve.encodes"] = encodes / solved
        out["serve.rejected"] = delta("stats", "rejected") / max(len(rung.jobs), 1)
        out["loadgen.late_p50_ms"] = rung.late_p50
        out["loadgen.late_max_ms"] = rung.late_max
        out["solvers.iterations"] = statistics.fmean(
            [e["done"].get("iterations", 0) for e in events])
        begin = report["spans"].get("protect.begin_iteration", {"calls": 0})
        out["solvers.iterations_executed"] = begin["calls"] / n
        out["trace.overhead_frac"] = rung.p50 / self.rungs[0].p50 - 1.0
        # Share of each job's due -> done latency spent inside the server
        # (accepted -> done); the rest is generator lateness and transport.
        inside = sum(e["done"]["ts"] - e["accepted"]["ts"] for e in events)
        out["trace.coverage_frac"] = inside / (sum(rung.latency_ms) / 1e3)
        return out
