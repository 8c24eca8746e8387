"""Per-layer tracing for the traced benchmark run (observation only).

The program under test is never edited: the tracer wraps the public
functions each layer exposes, at the names its callers look them up by,
and restores every original on :meth:`LayerTracer.uninstall`.  Per-input
boundaries fire ~10^5 times per run, so spans are kept as aggregated
totals per ``(layer, parent layer)`` rather than one record per call;
a layer's self time is its total minus the time of the spans whose
parent it is.

Worker processes of the parallel campaign and of the service pool are
measured at the parent boundary only: the engine wrappers are inherited
by forked workers, but their totals stay in the worker.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LayerTracer"]


class LayerTracer:
    """Aggregated spans and counters at layer boundaries."""

    def __init__(self, pool_prefix: str = "pool"):
        #: ``(name, parent) -> [calls, seconds]``
        self.spans: Dict[Tuple[str, Optional[str]], List] = {}
        self.counts: Dict[str, float] = {}
        #: metric prefix of WorkerPool spans: ``parallel`` for a
        #: campaign's own pool, ``pool`` for the service's shared pool
        self.pool_prefix = pool_prefix
        self.programs: Dict[int, object] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []

    # ----------------------------- recording ---------------------------- #
    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(
        self, name: str, fn: Callable, observe: Optional[Callable] = None
    ) -> Callable:
        """``fn`` timed as span ``name``; ``observe(args, result)`` after."""
        spans, stack_of, lock = self.spans, self._stack, self._lock

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            stack.append(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                with lock:
                    tot = spans.get((name, parent))
                    if tot is None:
                        spans[(name, parent)] = [1, dt]
                    else:
                        tot[0] += 1
                        tot[1] += dt
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, observe=None, factory=None):
        """Replace ``owner.attr`` by its traced version (undone later)."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        wrapped = self.wrap(name, original, observe)
        setattr(owner, attr, factory(wrapped) if factory else wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --------------------------- wrap points ---------------------------- #
    def install(self) -> "LayerTracer":
        """Wrap every layer boundary the per-layer metrics are read from."""
        from repro.bench import registry
        from repro.codegen import compile as ccompile
        from repro.codegen import kernel
        from repro.fuzzing import corpus, engine, parallel
        from repro.service import daemon, scheduler, store

        for owner in (registry, scheduler):
            self.patch(owner, "build_schedule", "schedule.build")
        for owner in (ccompile, engine, parallel):
            self.patch(owner, "compile_model", "codegen.compile_model")
        self.patch(kernel, "compile_kernel", "kernel.compile")
        # the engine binds these by name at import time
        self.patch(engine, "mutate_field_wise", "mutations.mutate")
        self.patch(
            engine, "compile_fuzz_driver", "codegen.driver_compile",
            factory=self._driver_factory,
        )
        self.patch(
            kernel, "compile_kernel_fuzz_driver", "kernel.driver_compile",
            factory=self._kernel_driver_factory,
        )
        for owner in (engine, parallel):
            self.patch(owner, "replay_suite", "coverage.replay")
        self.patch(engine.Fuzzer, "resume", "engine.loop")
        self.patch(corpus.Corpus, "select", "corpus.select")
        self.patch(corpus.Corpus, "add", "corpus.add", observe=self._on_add)
        self.patch(parallel, "merge_seed_pool", "parallel.merge")
        self.patch(
            parallel, "greedy_cover", "parallel.cover", observe=self._on_cover
        )
        self.patch(parallel.WorkerPool, "spawn", self.pool_prefix + ".spawn")
        self.patch(parallel.WorkerPool, "poll", self.pool_prefix + ".poll")
        svc = daemon.ServiceDaemon
        self.patch(svc, "submit", "service.submit")
        self.patch(svc, "next_payload", "service.next_payload")
        self.patch(svc, "advance_job", "service.advance_job")
        self.patch(svc, "complete_job", "service.complete_job")
        self.patch(
            store.JobStore, "save_state", "store.save_state",
            observe=self._on_save_state,
        )
        self.patch(store.JobStore, "save_job", "store.save_job")
        self.patch(daemon, "absorb_part", "scheduler.absorb_part")
        return self

    def _on_add(self, args, displaced) -> None:
        # Corpus.add returns the entry itself when it rejects it, the
        # evicted resident when full, else None
        entry = args[1]
        if displaced is not entry:
            self.count("corpus.admitted")
            if displaced is not None:
                self.count("corpus.evictions")

    def _on_cover(self, args, kept) -> None:
        self.count("parallel.cover_in", len(args[0]))
        self.count("parallel.cover_kept", len(kept))

    def _on_save_state(self, args, _result) -> None:
        store, job_id = args[0], args[1]
        self.count("store.save_state_bytes", os.path.getsize(store.state_path(job_id)))

    def _on_driver_exec(self, _args, result) -> None:
        self.count("driver.iterations", result[3])

    def _driver_factory(self, compile_driver):
        """Wrap each compiled scalar fuzz driver's per-input call."""
        on_exec = self._on_driver_exec

        def factory(schedule):
            return self.wrap("driver.exec", compile_driver(schedule), on_exec)

        return factory

    def _kernel_driver_factory(self, compile_driver):
        """Wrap the kernel driver's pipelined ``start``/``finish`` halves."""
        tracer = self

        def on_start(args, _handle) -> None:
            program, batch = args[0], args[1]
            tracer.programs.setdefault(id(program), program)
            tracer.count("kernel.inputs", len(batch))

        def factory(schedule):
            base = compile_driver(schedule)
            start = tracer.wrap("kernel.start", base.start, on_start)
            finish = tracer.wrap("kernel.finish", base.finish)

            def fuzz_test_kernel(program, cov, batch, total_int):
                return finish(program, start(program, batch), total_int)

            fuzz_test_kernel.start = start
            fuzz_test_kernel.finish = finish
            return fuzz_test_kernel

        return factory

    # ----------------------------- reading ------------------------------ #
    def total(self, name: str) -> Tuple[int, float]:
        """``(calls, seconds)`` of span ``name`` under any parent."""
        calls, secs = 0, 0.0
        for (span, _parent), (n, s) in self.spans.items():
            if span == name:
                calls += n
                secs += s
        return calls, secs

    def self_time(self, name: str) -> float:
        """Span time minus the time of its direct child spans."""
        child = sum(
            s for (_span, parent), (_n, s) in self.spans.items()
            if parent == name
        )
        return self.total(name)[1] - child

    def self_times(self) -> Dict[str, float]:
        return {
            span: self.self_time(span)
            for span in sorted({span for span, _parent in self.spans})
        }

    def kernel_program_totals(self) -> Dict[str, float]:
        """Telemetry counters summed over every kernel program driven."""
        progs = list(self.programs.values())
        return {
            "stall_s": sum(p.stall_s for p in progs),
            "busy_s": sum(sum(p.block_busy_s) for p in progs),
            "dispatches": sum(p.dispatches for p in progs),
        }
