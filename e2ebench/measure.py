"""Measurement and checks of one benchmark run (see ``run.py``)."""

from __future__ import annotations

import json
import resource
import statistics

from repro.bench import registry
from repro.codegen.cache import default_cache

from tracing import LayerTracer
from workloads import (
    MODELS, WORKLOADS, campaign_seed, host_scale, interpreter_check, timed_rounds,
)

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPS = 3
#: per-campaign input budget in ``--smoke`` mode (the benchmark's tests)
SMOKE_BUDGET = 128


def _percentile(values, p):
    """Nearest-rank percentile ``p`` (0..100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def latency_tail(values):
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return {"percentile": None, "samples": n, "value_s": None}
    pct = int((n - 10) * 100 // n)
    return {"percentile": pct, "samples": n, "value_s": _percentile(values, pct)}


def _mean(values):
    values = list(values)
    return statistics.mean(values) if values else 0.0


def _model_rows(ops, coverage_ops):
    """One row per model: rates over every operation of the run at the
    reference host speed (per-job rates for the service), coverage over
    the fixed coverage rounds."""
    rows = []
    for model in MODELS:
        mine = [op for op in ops if op.model == model and op.error is None]
        cov = [op for op in coverage_ops if op.model == model and op.error is None]
        wall = sum(op.wall_s * op.scale for op in mine) or 1e-9
        rows.append({
            "model": model,
            "ops": len(mine),
            "execs_per_s": sum(op.execs for op in mine) / wall,
            "iterations_per_s": sum(op.iterations for op in mine) / wall,
            "decision_cov": _mean(op.decision for op in cov),
            "condition_cov": _mean(op.condition for op in cov),
            "mcdc_cov": _mean(op.mcdc for op in cov),
            "time_to_cov90_s": sum(op.t90_s for op in mine),
            "latency_p50_s": statistics.median(op.latency_s for op in mine) if mine else 0.0,
        })
    return rows


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(ops, coverage_ops, scaled_window, setup_times):
    """The bounded metrics; times are at the reference host speed."""
    good = [op for op in ops if op.error is None]
    cov = [op for op in coverage_ops if op.error is None]
    return {
        "execs_per_s": (sum(op.execs for op in good) / scaled_window, "1/s"),
        "decision_cov": (statistics.mean(op.decision for op in cov), "%"),
        "condition_cov": (statistics.mean(op.condition for op in cov), "%"),
        "mcdc_cov": (statistics.mean(op.mcdc for op in cov), "%"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def per_layer(tracer, workload, ops, caches, overhead):
    """The traced run's per-layer split; ``overhead`` is the share by which
    tracing lowered ``execs_per_s`` at the reference host speed."""
    t = tracer.total
    counts = tracer.counts
    sel_n, sel_s = t("corpus.select")
    add_n, add_s = t("corpus.add")
    mut_n, mut_s = t("mutations.mutate")
    exe_n, exe_s = t("driver.exec")
    kp = tracer.kernel_program_totals()
    lanes = workload.config.get("lanes", 1)
    slices, _ = t("service.advance_job")
    cover_in = counts.get("parallel.cover_in", 0)
    good = [op for op in ops if op.error is None]
    stats = [c.stats() for c in caches]
    return {
        "corpus.select_s": (sel_s, "s"),
        "corpus.select_calls": (sel_n, "count"),
        "corpus.select_us": (1e6 * sel_s / sel_n if sel_n else 0.0, "us"),
        "corpus.add_s": (add_s, "s"),
        "corpus.add_calls": (add_n, "count"),
        "corpus.admit_ratio": (
            counts.get("corpus.admitted", 0) / add_n if add_n else 0.0, "ratio"),
        "corpus.evictions": (counts.get("corpus.evictions", 0), "count"),
        "mutations.mutate_s": (mut_s, "s"),
        "mutations.mutate_calls": (mut_n, "count"),
        "mutations.mutate_us": (1e6 * mut_s / mut_n if mut_n else 0.0, "us"),
        "driver.exec_s": (exe_s, "s"),
        "driver.exec_calls": (exe_n, "count"),
        "driver.iterations_per_s": (
            counts.get("driver.iterations", 0) / exe_s if exe_s else 0.0, "1/s"),
        "kernel.start_s": (t("kernel.start")[1], "s"),
        "kernel.finish_s": (t("kernel.finish")[1], "s"),
        "kernel.stall_s": (kp["stall_s"], "s"),
        "kernel.busy_s": (kp["busy_s"], "s"),
        "kernel.dispatches": (kp["dispatches"], "count"),
        "kernel.lane_fill": (
            counts.get("kernel.inputs", 0) / (kp["dispatches"] * lanes)
            if kp["dispatches"] else 0.0, "ratio"),
        "engine.loop_s": (t("engine.loop")[1], "s"),
        "engine.self_s": (tracer.self_time("engine.loop"), "s"),
        "coverage.replay_s": (t("coverage.replay")[1], "s"),
        "coverage.replay_calls": (t("coverage.replay")[0], "count"),
        "schedule.build_s": (t("schedule.build")[1], "s"),
        "codegen.compile_model_s": (t("codegen.compile_model")[1], "s"),
        "codegen.driver_compile_s": (t("codegen.driver_compile")[1], "s"),
        "kernel.compile_s": (t("kernel.compile")[1], "s"),
        "cache.hits": (sum(s["memory_hits"] + s["disk_hits"] for s in stats), "count"),
        "cache.misses": (sum(s["disk_misses"] for s in stats), "count"),
        "parallel.merge_s": (t("parallel.merge")[1], "s"),
        "parallel.merge_calls": (t("parallel.merge")[0], "count"),
        "parallel.cover_kept_ratio": (
            counts.get("parallel.cover_kept", 0) / cover_in if cover_in else 0.0,
            "ratio"),
        "parallel.spawn_s": (t("parallel.spawn")[1], "s"),
        "parallel.poll_wait_s": (t("parallel.poll")[1], "s"),
        "service.submit_s": (t("service.submit")[1], "s"),
        "service.queue_wait_s": (sum(op.queue_wait_s for op in good), "s"),
        "service.next_payload_s": (t("service.next_payload")[1], "s"),
        "service.advance_job_s": (t("service.advance_job")[1], "s"),
        "service.complete_job_s": (t("service.complete_job")[1], "s"),
        "service.slices": (slices, "count"),
        "store.save_state_s": (t("store.save_state")[1], "s"),
        "store.save_state_bytes": (counts.get("store.save_state_bytes", 0), "B"),
        "store.save_job_s": (t("store.save_job")[1], "s"),
        "scheduler.absorb_part_s": (t("scheduler.absorb_part")[1], "s"),
        "pool.poll_wait_s": (t("pool.poll")[1], "s"),
        "trace.overhead_pct": (100.0 * overhead, "%"),
    }


def _setup(workload, work, budget, reps):
    """``reps`` timed set-ups; keeps the last one's engines.

    Returns each set-up's wall seconds and those seconds at the reference
    host speed.
    """
    workload.prepare(work, budget)
    raw, scaled, engines = [], [], None
    for _ in range(reps):
        if engines is not None:
            workload.close(engines)
        before = host_scale()
        seconds, engines = workload.setup(work, budget)
        raw.append(seconds)
        scaled.append(seconds * (before + host_scale()) / 2)
    return (raw, scaled), engines


def _pass(workload, work, budget, specs, reps, repeat=()):
    """Set up, run ``specs``, then run ``repeat`` again on the same engines."""
    times, engines = _setup(workload, work, budget, reps)
    try:
        ops, window, scaled = workload.run_all(engines, specs, budget)
        again, _, _ = workload.run_all(engines, list(repeat), budget)
    finally:
        workload.close(engines)
    return times, ops, (window, scaled), again


#: spans that run while engines are built, not while campaigns run
_SETUP_SPANS = (
    "schedule.build", "codegen.compile_model", "codegen.driver_compile",
    "kernel.compile", "kernel.driver_compile",
)


def run(args, work):
    workload = WORKLOADS[args.workload]
    budget = SMOKE_BUDGET if args.smoke else workload.budget
    min_rounds = 1 if args.smoke else workload.min_rounds
    seconds = 0.0 if args.smoke else args.seconds
    specs = timed_rounds(args.seed, seconds, min_rounds)
    failures = []

    def fail(op, why):
        failures.append({"model": op.model, "seed": op.seed, "check": why})

    def compare(first, second, why):
        for a, b in zip(first, second):
            if b.error is not None:
                fail(b, b.error)
            elif a.error is None and a.key() != b.key():
                fail(b, why)

    detail = {"workload": workload.name, "seed": args.seed, "budget": budget}
    if args.trace:
        # identical campaigns untraced, then traced: the results must
        # agree (tracing is observation only; the same seed twice is
        # also the determinism check) and the rates give the overhead
        _, ops, (window, scaled), _ = _pass(workload, work, budget, specs, 1)
        tracer = LayerTracer(
            "parallel" if workload.name == "parallel_campaign" else "pool"
        ).install()
        try:
            _, traced, (traced_window, traced_scaled), _ = _pass(
                workload, work, budget, [(op.model, op.seed) for op in ops], 1
            )
            caches = [default_cache()]
        finally:
            tracer.uninstall()
        attempted = len(ops) + len(traced)
        compare(ops, traced, "traced run differs from the untraced run")
        metrics = per_layer(
            tracer, workload, traced, caches,
            overhead=1.0 - scaled / traced_scaled,
        )
        self_times = tracer.self_times()
        loop = {k: v for k, v in self_times.items() if k not in _SETUP_SPANS}
        detail.update(
            traced_campaign_s=traced_window,
            self_time_s=self_times,
            top_self_time=max(loop, key=loop.get) if loop else None,
        )
    else:
        # determinism: one campaign of the first round, run again
        idx = args.seed % len(MODELS)
        repeat = [(MODELS[idx], campaign_seed(args.seed, MODELS[idx], 0))]
        (raw_setups, setups), ops, (window, scaled), again = _pass(
            workload, work, budget, specs, 1 if args.smoke else SETUP_REPS, repeat
        )
        attempted = len(ops) + len(again)
        compare([ops[idx]], again, "same seed, different result")
        metrics = end_to_end(ops, ops[: len(MODELS) * min_rounds], scaled, setups)
        detail.update(setups_s=raw_setups)

    for op in ops:
        if op.error is not None:
            fail(op, op.error)
            continue
        mismatch = interpreter_check(
            registry.build_schedule(op.model), op
        )
        if mismatch:
            fail(op, mismatch)

    good = [op for op in ops if op.error is None]
    latencies = [op.latency_s for op in good]
    execs = sum(op.execs for op in good)
    detail.update(
        campaign_s=window,
        host_scale=scaled / window,
        raw_execs_per_s=execs / window,
        # fixed input budgets make jobs/s a multiple of execs/s, and in a
        # closed loop the mean latency follows from it (Little's law);
        # iterations/s varies with the seed's input lengths (4-5x in tuples
        # per input) more than a 25% bound allows.  All stay unbounded
        jobs_per_s=len(good) / scaled,
        iterations_per_s=sum(op.iterations for op in good) / scaled,
        job_latency_p50_s=statistics.median(latencies) if latencies else None,
        job_latency_tail=latency_tail(latencies),
        time_to_cov90_s=sum(op.t90_s for op in good),
        rounds=len(ops) // len(MODELS),
        coverage_rounds=min_rounds,
        models=_model_rows(ops, ops[: len(MODELS) * min_rounds]),
        failures=failures,
    )
    print(json.dumps(detail, sort_keys=True))
    failed = len({(f["model"], f["seed"]) for f in failures})
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
