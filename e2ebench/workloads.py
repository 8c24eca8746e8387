"""The four workloads of the end-to-end campaign benchmark.

Every operation is one whole CFTCG campaign (or one service job) on one
of :data:`MODELS`, run through the public API with a fixed input budget,
``stop_on_full_coverage=False`` and a wall budget that never binds, so a
given ``--seed`` always does the same work.  Each workload separates a
different layer:

* ``kernel_campaign`` -- the native kernel at 64 lanes; the Python loop
  around native exec (corpus select, mutation) dominates and the
  generated Python step is bypassed;
* ``scalar_campaign`` -- the default scalar engine, the reference that
  Table 3 and Fig. 7 run on; the generated Python step dominates and
  the kernel is bypassed;
* ``parallel_campaign`` -- two workers on the scalar engine with the
  coverage-gated merge between sync epochs;
* ``service_jobs`` -- an in-process ``ServiceDaemon`` with a 2-slot pool
  fed by one HTTP client in a closed loop with 2 jobs outstanding; small
  slices make every job write a state snapshot, a job record and a trace
  absorption many times.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import os
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.bench import registry
from repro.bits import popcount
from repro.codegen import compile as ccompile
from repro.codegen.kernel import clear_kernel_memory
from repro.coverage.metrics import compute_report
from repro.coverage.recorder import CoverageRecorder
from repro.fuzzing import Fuzzer, FuzzerConfig, ParallelFuzzer
from repro.service import ServiceDaemon
from repro.simulate.interpreter import ModelInstance

__all__ = ["MODELS", "WORKLOADS", "Op", "campaign_seed", "host_scale", "timed_rounds"]

#: smallest tuple (CPUTask, 5 B) to largest (RAC, 12 B); MATLAB-function
#: while loops (CPUTask), a float-heavy controller (AFC), the most probes
#: in one model (RAC, 232) and the largest suites (SolarPV, 273 probes)
MODELS = ("CPUTask", "AFC", "RAC", "SolarPV")

#: per-campaign wall budget; far above any campaign's run time, so the
#: fixed input budget alone decides how much work a campaign does
WALL_BUDGET_S = 3600.0

_FINISHED = ("done", "failed", "cancelled")

#: seconds the calibration loop of :func:`host_scale` takes on the
#: reference host, a 2-vCPU Xeon VM at its fastest observed speed
CALIBRATION_REF_S = 0.0025

#: service load: jobs the client keeps in flight, and its poll interval
_OUTSTANDING = 2
_POLL_S = 0.01
_SERVICE_SCALE_SAMPLES = 15


def campaign_seed(seed: int, model: str, k: int) -> int:
    """The engine seed of the ``k``-th campaign on ``model``."""
    digest = hashlib.sha256(("%d:%s:%d" % (seed, model, k)).encode()).digest()
    return int.from_bytes(digest[:4], "little")


def timed_rounds(seed: int, seconds: float, min_rounds: int):
    """``(model, engine seed)`` specs, one per model per round.

    The first ``min_rounds`` rounds always run; a further round starts
    only while fewer than ``seconds`` have passed since the first one
    started.  Rounds are whole, so every run executes the same mix of
    models.
    """
    start = time.perf_counter()  # runs at the first next()
    for k in itertools.count():
        if k >= min_rounds and time.perf_counter() - start >= seconds:
            return
        for model in MODELS:
            yield model, campaign_seed(seed, model, k)


def host_scale(samples: int = 1) -> float:
    """Reference time over the current time of a fixed pure-Python loop.

    On shared hosts the same work runs up to 1.7x slower from one minute
    to the next.  A timing multiplied by the scale measured around it
    reads as if taken at the reference speed, which is what keeps runs
    comparable.  Measure it only while the benchmark's own workers are
    idle, so that it sees the host and not the benchmark.  Each sample
    is the best of three loops; the result is the median of ``samples``.
    """
    scales = []
    for _ in range(samples):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            table, acc = {}, 0
            for i in range(20000):
                table[i & 255] = acc
                acc = (acc * 31 + i) & 0xFFFF
            best = min(best, time.perf_counter() - t0)
        scales.append(CALIBRATION_REF_S / best)
    return statistics.median(scales)


def time_to_fraction(timeline, fraction: float = 0.9) -> float:
    """Campaign time at which ``timeline`` first reaches ``fraction`` of
    its final probe count (0 for a campaign that found nothing)."""
    if not timeline:
        return 0.0
    target = fraction * timeline[-1][1]
    return next(t for t, covered in timeline if covered >= target)


@dataclass
class Op:
    """One campaign or job: the work it did and the result it claimed."""

    model: str
    seed: int
    execs: int = 0
    iterations: int = 0
    #: first input to returned result (campaigns); start to done (jobs)
    wall_s: float = 0.0
    #: :func:`host_scale` measured around the operation (around the
    #: whole closed loop for service jobs)
    scale: float = 1.0
    #: submit to done; equals ``wall_s`` for in-process campaigns
    latency_s: float = 0.0
    queue_wait_s: float = 0.0
    decision: float = 0.0
    condition: float = 0.0
    mcdc: float = 0.0
    #: covered-probe count the engine claims for the campaign
    claimed_probes: int = 0
    digest: str = ""
    t90_s: float = 0.0
    cases: List[bytes] = field(default_factory=list, repr=False)
    error: Optional[str] = None

    def key(self) -> Tuple:
        """Everything a fixed seed, engine and budget must reproduce."""
        return (
            self.digest, self.execs, self.iterations, self.claimed_probes,
            self.decision, self.condition, self.mcdc,
        )


def interpreter_check(schedule, op: Op) -> Optional[str]:
    """Replay ``op``'s suite on the independent interpreter.

    Returns ``None`` when the interpreter covers exactly the probes the
    engine claims, else a description of the mismatch.
    """
    recorder = CoverageRecorder(schedule.branch_db)
    instance = ModelInstance(schedule, recorder=recorder, monitor=None)
    layout = schedule.layout
    for data in op.cases:
        instance.init()
        for fields in layout.iter_tuples(data):
            recorder.reset_curr()
            instance.step(*fields)
            recorder.commit_curr()
    covered = recorder.covered_probes()
    if covered != op.claimed_probes:
        return "interpreter covers %d probes, engine claims %d" % (
            covered, op.claimed_probes,
        )
    report = compute_report(recorder)
    if (report.decision, report.condition, report.mcdc) != (
        op.decision, op.condition, op.mcdc,
    ):
        return "interpreter coverage %.3f/%.3f/%.3f, engine %.3f/%.3f/%.3f" % (
            report.decision, report.condition, report.mcdc,
            op.decision, op.condition, op.mcdc,
        )
    return None


def _fresh_cache(work: str) -> None:
    """Point the compile cache at a new empty directory, memory tiers too."""
    os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="cache-", dir=work)
    clear_kernel_memory()


class CampaignWorkload:
    """Whole campaigns, one after another, in this process."""

    def __init__(self, name: str, budget: int, min_rounds: int, **config):
        self.name = name
        self.budget = budget
        self.min_rounds = min_rounds
        self.config = config
        self.workers = config.get("workers", 1)

    def base_config(self, budget: int) -> FuzzerConfig:
        return FuzzerConfig(
            max_seconds=WALL_BUDGET_S,
            max_inputs=budget,
            stop_on_full_coverage=False,
            **self.config,
        )

    def prepare(self, work: str, budget: int) -> None:
        pass  # every set-up starts from its own empty cache

    def setup(self, work: str, budget: int) -> Tuple[float, Dict]:
        """Build every model's engine from an empty compile cache.

        Returns the set-up seconds and ``model -> (schedule, engine)``;
        the engine is a ready ``Fuzzer`` (single process) or the
        model-level artifact a ``ParallelFuzzer`` merges and replays on.
        """
        _fresh_cache(work)
        config = self.base_config(budget)
        engines = {}
        t0 = time.perf_counter()
        for model in MODELS:
            schedule = registry.build_schedule(model, cached=False)
            if self.workers > 1:
                engine = ccompile.compile_model(schedule, "model")
                # validates the config; each campaign builds its own
                ParallelFuzzer(schedule, config, compiled=engine)
            else:
                engine = Fuzzer(schedule, config)
            engines[model] = (schedule, engine)
        return time.perf_counter() - t0, engines

    def run(self, engines: Dict, model: str, seed: int, budget: int) -> Op:
        schedule, engine = engines[model]
        config = replace(self.base_config(budget), seed=seed)
        op = Op(model, seed)
        before = host_scale()
        if self.workers > 1:
            t0 = time.perf_counter()
            result = ParallelFuzzer(schedule, config, compiled=engine).run()
            op.wall_s = time.perf_counter() - t0
            # the merged suite's replay on the compiled model is the claim
            op.claimed_probes = result.report.probe_covered
        else:
            engine.config = config
            t0 = time.perf_counter()
            state = engine.new_state()
            engine.resume(state)
            result = engine.finalize(state)
            op.wall_s = time.perf_counter() - t0
            op.claimed_probes = popcount(state.total_int)
        op.scale = (before + host_scale()) / 2
        op.latency_s = op.wall_s
        op.execs = result.inputs_executed
        op.iterations = result.iterations_executed
        op.decision = result.report.decision
        op.condition = result.report.condition
        op.mcdc = result.report.mcdc
        op.digest = result.suite.digest()
        op.t90_s = time_to_fraction(result.timeline)
        op.cases = [case.data for case in result.suite]
        return op

    def run_all(self, engines: Dict, specs, budget: int) -> Tuple[List[Op], float, float]:
        """Run ``specs`` one after another.

        Returns the operations, their summed wall time and that time at
        the reference host speed.
        """
        ops = []
        for model, seed in specs:
            try:
                ops.append(self.run(engines, model, seed, budget))
            except Exception as exc:  # noqa: BLE001 - a failed operation
                ops.append(Op(model, seed, error="%s: %s" % (type(exc).__name__, exc)))
        window = sum(op.wall_s for op in ops)
        return ops, window, sum(op.wall_s * op.scale for op in ops)

    def close(self, engines: Dict) -> None:
        pass


class _Client:
    """The benchmark's HTTP client of the service's job API."""

    def __init__(self, url: str):
        rest = url.split("://", 1)[1]
        self.host, port = rest.split(":")
        self.port = int(port.rstrip("/"))

    def call(self, method: str, path: str, body=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            payload = None if body is None else json.dumps(body).encode()
            conn.request(
                method, path, body=payload,
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        if resp.status >= 300:
            raise RuntimeError("%s %s -> %d %s" % (method, path, resp.status, data[:200]))
        return data


class ServiceWorkload:
    """Kernel-engine jobs through an in-process ``ServiceDaemon``."""

    workers = 2

    def __init__(self, name: str, budget: int, slice_inputs: int, min_rounds: int, **config):
        self.name = name
        self.budget = budget
        self.slice_inputs = slice_inputs
        self.min_rounds = min_rounds
        self.config = config

    def job_config(self, seed: int, budget: int) -> Dict:
        return dict(
            self.config,
            seed=seed,
            max_inputs=budget,
            max_seconds=WALL_BUDGET_S,
            stop_on_full_coverage=False,
        )

    def prepare(self, work: str, budget: int) -> None:
        """Compile every model into an empty cache before the daemon starts.

        Pool workers fork from this process after the compile, so jobs
        find the compiled artifacts in memory instead of compiling
        inside the measured window.
        """
        _fresh_cache(work)
        config = FuzzerConfig(**self.job_config(0, budget))
        for model in MODELS:
            Fuzzer(registry.build_schedule(model, cached=False), config)

    def setup(self, work: str, budget: int) -> Tuple[float, Dict]:
        """Start a daemon on an empty store and wait for ``/status``."""
        store_dir = tempfile.mkdtemp(prefix="store-", dir=work)
        t0 = time.perf_counter()
        daemon = ServiceDaemon(
            store_dir, pool_size=self.workers, slice_inputs=self.slice_inputs
        ).start()
        client = _Client(daemon.api.url)
        client.call("GET", "/status")
        setup_s = time.perf_counter() - t0
        return setup_s, {"daemon": daemon, "client": client}

    def close(self, engines: Dict) -> None:
        engines["daemon"].stop()

    def run_all(self, engines: Dict, specs, budget: int) -> Tuple[List[Op], float, float]:
        """Closed loop: keep ``_OUTSTANDING`` jobs in flight until done.

        Returns the jobs, the loop's wall time and that time at the
        reference host speed.
        """
        client = engines["client"]
        # two points for the whole loop, so each takes more samples than
        # the per-campaign points of the other workloads
        before = host_scale(_SERVICE_SCALE_SAMPLES)
        pending = enumerate(specs)
        inflight: Dict[str, Tuple[int, str, int]] = {}
        finished: List[Tuple[str, int, str, int]] = []
        t0 = time.perf_counter()
        more = True
        while more or inflight:
            while more and len(inflight) < _OUTSTANDING:
                nxt = next(pending, None)
                if nxt is None:
                    more = False
                    break
                idx, (model, seed) = nxt
                body = {
                    "model": model,
                    "config": self.job_config(seed, budget),
                    "slice_inputs": self.slice_inputs,
                }
                job = json.loads(client.call("POST", "/jobs", body))["id"]
                inflight[job] = (idx, model, seed)
            time.sleep(_POLL_S)
            states = {
                j["id"]: j["state"]
                for j in json.loads(client.call("GET", "/jobs"))["jobs"]
            }
            for job in [j for j in inflight if states.get(j) in _FINISHED]:
                idx, model, seed = inflight.pop(job)
                finished.append((job, idx, model, seed))
        window = time.perf_counter() - t0
        scale = (before + host_scale(_SERVICE_SCALE_SAMPLES)) / 2
        finished.sort(key=lambda item: item[1])
        ops = [
            self._collect(client, job, model, seed)
            for job, _idx, model, seed in finished
        ]
        for op in ops:
            op.scale = scale
        return ops, window, window * scale

    def _collect(self, client: _Client, job: str, model: str, seed: int) -> Op:
        op = Op(model, seed)
        frame = json.loads(client.call("GET", "/jobs/%s" % job))
        if frame["state"] != "done":
            op.error = "job %s ended %s: %s" % (job, frame["state"], frame.get("error"))
            return op
        op.latency_s = frame["finished_at"] - frame["submitted_at"]
        op.queue_wait_s = frame["started_at"] - frame["submitted_at"]
        op.wall_s = frame["finished_at"] - frame["started_at"]
        result = json.loads(client.call("GET", "/jobs/%s/results" % job))
        op.execs = result["execs"]
        op.iterations = result["iterations"]
        op.decision = result["report"]["decision"]
        op.condition = result["report"]["condition"]
        op.mcdc = result["report"]["mcdc"]
        op.claimed_probes = result["covered"]
        op.digest = result["digest"]
        op.cases = [bytes.fromhex(h) for h in result["suite"]]
        trace = client.call("GET", "/jobs/%s/trace" % job).decode()
        timeline = [
            (ev["t"], ev["covered"])
            for ev in map(json.loads, trace.splitlines())
            if ev.get("ev") == "cov"
        ]
        op.t90_s = time_to_fraction(timeline)
        return op


WORKLOADS = {
    w.name: w
    for w in (
        CampaignWorkload(
            "kernel_campaign", budget=4096, min_rounds=2,
            lanes=64, kernel="on", kernel_threads=1,
        ),
        CampaignWorkload(
            "scalar_campaign", budget=1024, min_rounds=4,
            lanes=1, kernel="off",
        ),
        CampaignWorkload(
            "parallel_campaign", budget=2048, min_rounds=2,
            workers=2, sync_rounds=4, lanes=1, kernel="off",
        ),
        ServiceWorkload(
            "service_jobs", budget=1024, slice_inputs=256, min_rounds=10,
            lanes=64, kernel="on", kernel_threads=1,
        ),
    )
}
