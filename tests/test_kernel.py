"""The fused native kernel backend: parity, degradation, caching.

The kernel is the third execution engine (scalar -> numpy batch ->
native kernel) and the fastest; these tests pin its three contracts:

* **bit-parity** — at one lane the kernel reproduces the scalar
  generated driver's suites byte for byte (the lane-by-lane sweep in
  ``test_modelgen_differential.py`` covers the wide widths);
* **graceful degradation** — no C compiler or an un-loweable model
  falls down the kernel -> batch -> scalar ladder, emits ``fault``
  telemetry (never silent), and still produces the byte-identical
  suite of the engine it landed on;
* **content-addressed caching** — kernel artifacts get their own cache
  slot, survive a warm reload, and a corrupted entry quarantines the
  ``.c``/``.so`` pair alongside the Python artifacts.
"""

from __future__ import annotations

import hashlib
import os

import pytest

import repro.codegen.kernel as kernel_mod
from conftest import demo_model, skip_if_no_cc
from repro import convert
from repro.codegen.batch import MAX_LANES
from repro.codegen.cache import CompileCache, cache_key
from repro.codegen.kernel import (
    KernelBuildError,
    MAX_KERNEL_LANES,
    Unloweable,
    compile_kernel,
    compile_kernel_fuzz_driver,
    have_cc,
)
from repro.errors import FuzzingError
from repro.fuzzing import Fuzzer, FuzzerConfig
from repro.telemetry.core import Telemetry
from repro.telemetry.events import read_trace

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture(scope="module")
def schedule():
    return convert(demo_model())


def suite_digest(suite) -> str:
    h = hashlib.sha256()
    for case in suite.cases:
        h.update(case.data)
    return h.hexdigest()


def run_config(schedule, tmp_path, tag, **kw):
    path = str(tmp_path / ("%s.jsonl" % tag))
    tel = Telemetry(enabled=True, trace_path=path)
    config = FuzzerConfig(max_inputs=300, seed=11, **kw)
    fuzzer = Fuzzer(schedule, config, telemetry=tel)
    state = fuzzer.run()
    tel.close()
    return fuzzer, state, read_trace(path)


def fallback_events(events):
    return [
        e for e in events
        if e["ev"] == "fault" and e.get("kind") == "engine_fallback"
    ]


# -------------------------------------------------------------------- #
# parity
# -------------------------------------------------------------------- #
@skip_if_no_cc
class TestKernelParity:
    def test_single_lane_kernel_matches_scalar_suite(self, schedule, tmp_path):
        """The golden-digest gate: lanes=1 through the native kernel is
        byte-for-byte the scalar campaign — suite, coverage, count."""
        fs, st_s, _ = run_config(schedule, tmp_path, "scalar", kernel="off")
        fk, st_k, _ = run_config(schedule, tmp_path, "kernel",
                                 lanes=1, kernel="on")
        assert fs.engine == "scalar"
        assert fk.engine == "kernel"
        assert st_s.inputs_executed == st_k.inputs_executed
        assert st_s.iterations_executed == st_k.iterations_executed
        assert suite_digest(st_s.suite) == suite_digest(st_k.suite)

    def test_kernel_lanes_beyond_the_batch_bitset(self, schedule, tmp_path):
        """The kernel's lane ceiling is 256, past the numpy engine's 64."""
        fk, st, _ = run_config(
            schedule, tmp_path, "wide", lanes=MAX_LANES * 2, kernel="on"
        )
        assert fk.engine == "kernel"
        assert fk._batch_lanes == MAX_LANES * 2
        assert st.inputs_executed == 300
        assert st.suite.cases

    def test_kernel_source_is_cached_and_reloaded(self, schedule, tmp_path):
        os.environ["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        kernel_mod.clear_kernel_memory()
        try:
            cold = compile_kernel(schedule, "model")
            assert cold.from_cache is None
            kernel_mod.clear_kernel_memory()
            warm = compile_kernel(schedule, "model")
            assert warm.from_cache == "disk"
            hot = compile_kernel(schedule, "model")
            assert hot.from_cache == "memory"
        finally:
            del os.environ["REPRO_CACHE_DIR"]


# -------------------------------------------------------------------- #
# the degradation ladder
# -------------------------------------------------------------------- #
class TestDegradationLadder:
    @pytest.fixture(autouse=True)
    def _numpy(self):
        pytest.importorskip("numpy")

    def test_no_compiler_falls_back_to_batch(
        self, schedule, tmp_path, monkeypatch
    ):
        """kernel='on' without a toolchain lands on the vectorized
        engine with a fault event — and the exact suite that engine
        produces on its own."""
        monkeypatch.setattr(kernel_mod, "find_cc", lambda: None)
        fk, st_k, events = run_config(
            schedule, tmp_path, "nocc", lanes=4, kernel="on"
        )
        assert fk.engine == "batch"
        falls = fallback_events(events)
        assert falls and falls[0]["engine_from"] == "kernel"
        assert falls[0]["engine_to"] == "batch"
        assert "compiler" in falls[0]["reason"]
        monkeypatch.undo()
        fb, st_b, _ = run_config(
            schedule, tmp_path, "batch", lanes=4, kernel="off"
        )
        assert fb.engine == "batch"
        assert suite_digest(st_k.suite) == suite_digest(st_b.suite)

    def test_no_compiler_single_lane_falls_back_to_scalar(
        self, schedule, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(kernel_mod, "find_cc", lambda: None)
        fk, st_k, events = run_config(
            schedule, tmp_path, "nocc1", lanes=1, kernel="on"
        )
        assert fk.engine == "scalar"
        falls = fallback_events(events)
        assert falls and falls[0]["engine_to"] == "scalar"
        monkeypatch.undo()
        fs, st_s, _ = run_config(schedule, tmp_path, "scal", kernel="off")
        assert suite_digest(st_k.suite) == suite_digest(st_s.suite)

    def test_unloweable_model_falls_back_to_batch(
        self, schedule, tmp_path, monkeypatch
    ):
        def boom(*a, **kw):
            raise Unloweable("synthetic: construct has no C lowering")

        monkeypatch.setattr(kernel_mod, "compile_kernel", boom)
        fk, st, events = run_config(
            schedule, tmp_path, "unlow", lanes=4, kernel="auto"
        )
        assert fk.engine == "batch"
        falls = fallback_events(events)
        assert falls and "no C lowering" in falls[0]["reason"]
        assert st.inputs_executed == 300

    def test_build_failure_falls_back(self, schedule, tmp_path, monkeypatch):
        def boom(*a, **kw):
            raise KernelBuildError("synthetic: cc exited with status 1")

        monkeypatch.setattr(kernel_mod, "compile_kernel", boom)
        fk, _, events = run_config(
            schedule, tmp_path, "ccfail", lanes=4, kernel="on"
        )
        assert fk.engine == "batch"
        assert fallback_events(events)

    def test_kernel_off_never_touches_the_toolchain(
        self, schedule, tmp_path, monkeypatch
    ):
        def boom():  # pragma: no cover - the assertion is "not called"
            raise AssertionError("kernel backend consulted with kernel='off'")

        monkeypatch.setattr(kernel_mod, "find_cc", boom)
        fb, _, events = run_config(
            schedule, tmp_path, "off", lanes=4, kernel="off"
        )
        assert fb.engine == "batch"
        assert not fallback_events(events)

    def test_lanes_auto_resolves_to_an_engine(self, schedule, tmp_path):
        """auto never yields a predicted-regression engine: with a
        toolchain it takes the kernel at 64 lanes; without numpy or a
        winning census prediction it stays scalar."""
        fz, st, _ = run_config(schedule, tmp_path, "auto", lanes="auto")
        assert fz.engine in ("kernel", "batch", "scalar")
        if have_cc():
            assert fz.engine == "kernel"
            assert fz._batch_lanes == MAX_LANES
        assert st.inputs_executed == 300

    def test_config_validation(self, schedule):
        with pytest.raises(FuzzingError):
            Fuzzer(schedule, FuzzerConfig(kernel="maybe"))
        with pytest.raises(FuzzingError):
            Fuzzer(schedule, FuzzerConfig(lanes=MAX_KERNEL_LANES + 1))


# -------------------------------------------------------------------- #
# cache integration
# -------------------------------------------------------------------- #
class TestKernelCache:
    def test_kernel_variant_has_its_own_cache_slot(self, schedule, monkeypatch):
        plain = cache_key(schedule.model, "model", True)
        knl = cache_key(schedule.model, "model", True, kernel=True)
        batched = cache_key(schedule.model, "model", True, batch=True)
        assert len({plain, knl, batched}) == 3
        # an ABI bump moves the kernel to a fresh slot (no quarantine
        # thrash between checkouts sharing a cache); other slots stay
        monkeypatch.setattr(
            kernel_mod, "KERNEL_ABI_VERSION", kernel_mod.KERNEL_ABI_VERSION + 1
        )
        assert cache_key(schedule.model, "model", True, kernel=True) != knl
        assert cache_key(schedule.model, "model", True) == plain
        assert cache_key(schedule.model, "model", True, batch=True) == batched

    def test_quarantine_sweeps_native_artifacts(self, tmp_path):
        """A corrupted entry moves its .c/.so next to the .py/.bin in
        quarantine/ so a poisoned kernel binary can never be dlopened."""
        cache = CompileCache(root=str(tmp_path))
        key = "k" * 64
        cache.put_disk(key, "source", compile("1", "<s>", "eval"))
        c_path, so_path = cache.native_paths(key)
        with open(c_path, "w") as fh:
            fh.write("/* kernel */")
        with open(so_path, "wb") as fh:
            fh.write(b"\x7fELF corrupt")
        # corrupt the marshalled payload -> get_disk must quarantine
        with open(cache._paths(key)[1], "wb") as fh:
            fh.write(b"not marshal data")
        assert cache.get_disk(key) is None
        assert cache.quarantined == 1
        qdir = tmp_path / "quarantine"
        assert (qdir / os.path.basename(c_path)).exists()
        assert (qdir / os.path.basename(so_path)).exists()
        assert not os.path.exists(c_path)
        assert not os.path.exists(so_path)


# -------------------------------------------------------------------- #
# the driver contract
# -------------------------------------------------------------------- #
@skip_if_no_cc
class TestKernelDriver:
    def test_driver_matches_scalar_per_stream_accounting(self, schedule):
        """Stream-by-stream 5-tuples: metric, found, running total_int,
        iterations — the same sequential fold the scalar driver does."""
        import random

        from repro.codegen.compile import compile_model
        from repro.codegen.driver import compile_fuzz_driver
        from repro.errors import WatchdogTimeout

        layout = schedule.layout
        rng = random.Random(99)
        streams = [
            bytes(rng.randrange(256) for _ in range(layout.size * 32))
            for _ in range(6)
        ]

        compiled = compile_model(schedule, "model")
        sdriver = compile_fuzz_driver(schedule)
        program, rec = compiled.instantiate()
        want, running = [], 0
        for data in streams:
            try:
                r = sdriver(program, rec.curr, data, running)
            except WatchdogTimeout as exc:  # pragma: no cover - no budget set
                running |= exc.partial_total_int
                want.append((None, None, running, exc.iterations))
                continue
            running = r[2]
            want.append(r)

        ck = compile_kernel(schedule, "model", cache=False)
        kdriver = compile_kernel_fuzz_driver(schedule)
        kprog = ck.instantiate_kernel(8)
        got = kdriver(kprog, None, streams, 0)
        assert len(got) == len(want)
        for w, g in zip(want, got):
            assert g[4] is None
            assert tuple(g[:4]) == tuple(w[:4])


# -------------------------------------------------------------------- #
# multi-core execution
# -------------------------------------------------------------------- #
@skip_if_no_cc
class TestKernelThreading:
    """Thread-parallel ``kern_run``: every thread count must be
    bit-identical to ``threads=1`` (the sequential fold is the only
    ordered step), and the generated C must stay reentrant across
    states — two kernel states driven concurrently may never observe
    each other."""

    def test_thread_counts_produce_identical_suites(self, schedule, tmp_path):
        runs = {}
        for threads in (1, 2, 4):
            fz, st, _ = run_config(
                schedule, tmp_path, "thr%d" % threads,
                lanes=32, kernel="on", kernel_threads=threads,
            )
            assert fz.engine == "kernel"
            runs[threads] = (
                st.inputs_executed,
                st.iterations_executed,
                suite_digest(st.suite),
            )
        assert runs[1] == runs[2] == runs[4]

    def test_auto_honors_env_pin(self, schedule, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
        fz, _, _ = run_config(
            schedule, tmp_path, "thrauto",
            lanes=32, kernel="on", kernel_threads="auto",
        )
        assert fz.engine == "kernel"
        assert fz._kernel_threads == 3

    def test_threads_clamp_to_lanes(self, schedule, tmp_path):
        fz, _, _ = run_config(
            schedule, tmp_path, "thrclamp",
            lanes=2, kernel="on", kernel_threads=64,
        )
        assert fz.engine == "kernel"
        assert fz._kernel_threads == 2

    def test_ladder_under_threading(self, schedule, tmp_path, monkeypatch):
        """kernel_threads set + no toolchain: the same batch fallback,
        the same fault telemetry, the same suite the batch engine
        produces natively — threading never changes the ladder."""
        monkeypatch.setattr(kernel_mod, "find_cc", lambda: None)
        fk, st_k, events = run_config(
            schedule, tmp_path, "thrnocc",
            lanes=4, kernel="on", kernel_threads=4,
        )
        assert fk.engine == "batch"
        falls = fallback_events(events)
        assert falls and falls[0]["engine_from"] == "kernel"
        assert falls[0]["engine_to"] == "batch"
        monkeypatch.undo()
        fb, st_b, _ = run_config(
            schedule, tmp_path, "thrbatch", lanes=4, kernel="off"
        )
        assert fb.engine == "batch"
        assert suite_digest(st_k.suite) == suite_digest(st_b.suite)

    def test_invalid_thread_config_raises(self, schedule):
        for bad in (0, -2, "three", True):
            with pytest.raises(FuzzingError):
                Fuzzer(
                    schedule,
                    FuzzerConfig(lanes=4, kernel="on", kernel_threads=bad),
                )

    def test_telemetry_reports_block_utilization(self, schedule, tmp_path):
        fz, _, events = run_config(
            schedule, tmp_path, "thrtel",
            lanes=32, kernel="on", kernel_threads=2,
        )
        assert fz.engine == "kernel"
        evs = [e for e in events if e["ev"] == "kernel_threads"]
        assert evs
        ev = evs[-1]
        assert ev["threads"] == 2
        assert ev["lanes"] == 32
        assert len(ev["block_busy_s"]) == 2
        assert len(ev["utilization"]) == 2
        assert ev["stall_s"] >= 0
        assert ev["pipelined"] is True

    def test_generated_c_is_reentrant_across_states(self, schedule):
        """Two kernel states driven concurrently from two Python threads
        (the CDLL call releases the GIL, so the C genuinely overlaps)
        reproduce the scalar engine's precomputed per-stream results —
        the executable pin for the no-globals audit of the emitted C."""
        import random
        from concurrent.futures import ThreadPoolExecutor

        from repro.codegen.compile import compile_model
        from repro.codegen.driver import compile_fuzz_driver

        layout = schedule.layout
        rng = random.Random(1234)
        streamsets = [
            [
                bytes(rng.randrange(256) for _ in range(layout.size * 24))
                for _ in range(8)
            ]
            for _ in range(2)
        ]

        compiled = compile_model(schedule, "model")
        sdriver = compile_fuzz_driver(schedule)
        want = []
        for streams in streamsets:
            program, rec = compiled.instantiate()
            running, res = 0, []
            for data in streams:
                r = sdriver(program, rec.curr, data, running)
                running = r[2]
                res.append(tuple(r[:4]))
            want.append(res)

        ck = compile_kernel(schedule, "model", cache=False)
        kdriver = compile_kernel_fuzz_driver(schedule)
        progs = [ck.instantiate_kernel(8) for _ in range(2)]

        def run(i):
            return [
                tuple(g[:4])
                for g in kdriver(progs[i], None, streamsets[i], 0)
            ]

        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(run, range(2)))
        assert got == want


# -------------------------------------------------------------------- #
# byte-stream ingest: kern_run decodes every inport dtype itself
# -------------------------------------------------------------------- #
#: (dtype, [(Switch criterion, threshold), ...]) — each edge flips on a
#: decode mistake: sign vs zero extension, field width, the bool
#: ``!= 0`` collapse, and the float NaN clamp (NaN >= 0 only once
#: clamped to 0.0), signed zero and subnormals (> 0)
_INGEST_EDGES = (
    ("int8", ((">=", 0), (">", 100))),
    ("int16", ((">=", 0), (">", 30000))),
    ("int32", ((">=", 0), (">", 2_000_000_000))),
    ("uint8", ((">", 127), (">=", 255))),
    ("uint16", ((">", 32767), (">=", 65535))),
    ("uint32", ((">", 2_147_483_647), (">", 4_000_000_000))),
    ("boolean", (("~=0", None), (">", 1))),
    ("single", ((">=", 0), (">", 0), (">", 1e30))),
    ("double", ((">=", 0), (">", 0), (">", 1e300))),
)


def _ingest_schedule():
    from repro import ModelBuilder

    b = ModelBuilder("ingest9")
    one, zero = b.const(1, "int32"), b.const(0, "int32")
    k = 0
    for dtype, edges in _INGEST_EDGES:
        u = b.inport("u_%s" % dtype, dtype)
        for criterion, threshold in edges:
            ctl = u
            if dtype == "boolean" and threshold is not None:
                # a raw 0x02 byte decoded without the != 0 collapse
                # would pass ``> 1``
                ctl = b.block(
                    "DataTypeConversion", "conv%d" % k, dtype="int32"
                )(u)
            params = {"criterion": criterion}
            if threshold is not None:
                params["threshold"] = threshold
            b.outport(
                "y%d" % k, b.block("Switch", "sw%d" % k, **params)(one, ctl, zero)
            )
            k += 1
    return convert(b.build())


def _special_values(dtype: str):
    """Edge encodings of one field (raw little-endian bytes)."""
    import struct

    if dtype == "single":
        floats = [
            struct.pack("<I", bits)
            for bits in (
                0x7FC00000,  # quiet NaN
                0x7FA00000,  # signalling NaN
                0xFFC00001,  # negative NaN with payload
                0x7F800000,  # +inf
                0xFF800000,  # -inf
                0x80000000,  # -0.0
                0x00000001,  # smallest subnormal
                0x807FFFFF,  # largest negative subnormal
                0x7F7FFFFF,  # FLT_MAX
                0x00800000,  # smallest normal
            )
        ]
        return floats + [struct.pack("<f", v) for v in (1.0, -2.5, 1e31)]
    if dtype == "double":
        floats = [
            struct.pack("<Q", bits)
            for bits in (
                0x7FF8000000000000,  # quiet NaN
                0x7FF4000000000000,  # signalling NaN
                0xFFF8000000000001,  # negative NaN with payload
                0x7FF0000000000000,  # +inf
                0xFFF0000000000000,  # -inf
                0x8000000000000000,  # -0.0
                0x0000000000000001,  # smallest subnormal
                0x800FFFFFFFFFFFFF,  # largest negative subnormal
                0x7FEFFFFFFFFFFFFF,  # DBL_MAX
            )
        ]
        return floats + [struct.pack("<d", v) for v in (1.0, -2.5, 1e301)]
    if dtype == "boolean":
        return [bytes([v]) for v in (0x00, 0x01, 0x02, 0x80, 0xFF)]
    size = {"int8": 1, "uint8": 1, "int16": 2, "uint16": 2}.get(dtype, 4)
    edges = [0, 1, (1 << (8 * size - 1)) - 1, 1 << (8 * size - 1)]
    edges += [(1 << 8 * size) - 1, (1 << 8 * size) - 2, 100, 200]
    return [(v % (1 << 8 * size)).to_bytes(size, "little") for v in edges]


def _ingest_streams(layout):
    """Random, edge-value, partial-tuple, short and empty streams."""
    import random

    rng = random.Random(2024)
    size = layout.size
    specials = {f.name: _special_values(f.dtype.name) for f in layout.fields}

    def tuple_bytes():
        buf = bytearray(rng.randrange(256) for _ in range(size))
        for f in layout.fields:
            if rng.random() < 0.7:
                raw = rng.choice(specials[f.name])
                buf[f.offset:f.offset + f.size] = raw
        return bytes(buf)

    streams = [b"", bytes(size - 1), bytes(1)]
    for i in range(150):
        n = rng.choice((1, 2, 3, 5, 8, 13))
        data = b"".join(tuple_bytes() for _ in range(n))
        if i % 3 == 0:  # a trailing partial tuple the driver discards
            data += bytes(rng.randrange(256) for _ in range(rng.randrange(1, size)))
        if i % 17 == 0:
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(size)))
        streams.append(data)
    return streams


@skip_if_no_cc
class TestKernelIngest:
    """``kern_run`` reads the raw byte streams itself; per stream it must
    match the scalar driver's ``struct``-based decode tuple by tuple,
    for all nine inport dtypes, at every lane and thread count."""

    @pytest.fixture(scope="class")
    def ingest(self):
        from repro.codegen.compile import compile_model
        from repro.codegen.driver import compile_fuzz_driver

        sched = _ingest_schedule()
        assert sorted(f.dtype.name for f in sched.layout.fields) == sorted(
            d for d, _ in _INGEST_EDGES
        )
        streams = _ingest_streams(sched.layout)
        sdriver = compile_fuzz_driver(sched)
        program, rec = compile_model(sched, "model").instantiate()
        want, running = [], 0
        for data in streams:
            r = sdriver(program, rec.curr, data, running)
            running = r[2]
            want.append(tuple(r))
        # the edges are live: the suite reaches both outcomes of most
        # switches, so a decode error cannot hide behind dead probes
        assert bin(running).count("1") >= sched.branch_db.n_probes - 2
        ck = compile_kernel(sched, "model", cache=False)
        return sched, ck, streams, want

    @pytest.mark.parametrize("threads", (1, 2))
    @pytest.mark.parametrize("lanes", (1, 8, 64))
    def test_kernel_decode_matches_scalar(self, ingest, lanes, threads):
        sched, ck, streams, want = ingest
        kdriver = compile_kernel_fuzz_driver(sched)
        kprog = ck.instantiate_kernel(lanes, threads)
        got, running = [], 0
        for lo in range(0, len(streams), lanes):
            res = kdriver(kprog, None, streams[lo:lo + lanes], running)
            running = res[-1][2]
            got.extend(res)
        assert len(got) == len(want)
        for i, (w, g) in enumerate(zip(want, got)):
            assert g[4] is None
            assert tuple(g[:4]) == w, "stream %d: %r" % (i, streams[i])


# -------------------------------------------------------------------- #
# float32 narrowing: a finite overflow is +-inf in every engine
# -------------------------------------------------------------------- #
def _narrowing_schedule():
    from repro import ModelBuilder

    b = ModelBuilder("narrow")
    u = b.inport("u", "double")
    s = b.block("DataTypeConversion", "conv", dtype="single")(u)
    r = b.block("Relational", "rel", op=">")(s, b.const(1.0, "single"))
    b.outport("y", r)
    return convert(b.build())


class TestFloat32Narrowing:
    def test_scalar_campaign_survives_float32_overflow(self):
        """Finite doubles past FLT_MAX used to raise ``OverflowError``
        out of the generated step and end the whole campaign."""
        state = Fuzzer(
            _narrowing_schedule(), FuzzerConfig(max_inputs=20000, seed=0)
        ).run()
        assert state.inputs_executed == 20000

    @skip_if_no_cc
    def test_scalar_and_kernel_agree_on_overflowing_stream(self):
        import struct

        from repro.codegen.compile import compile_model
        from repro.codegen.driver import compile_fuzz_driver

        sched = _narrowing_schedule()
        streams = [
            struct.pack("<%dd" % len(vals), *vals)
            for vals in (
                (3.5e38, -3.5e38, 1e300),
                (-1e300, 0.5, 3.4028235e38),
                (2.0, 3.5e38),
            )
        ]
        program, rec = compile_model(sched, "model").instantiate()
        sdriver = compile_fuzz_driver(sched)
        want, running = [], 0
        for data in streams:
            r = sdriver(program, rec.curr, data, running)
            running = r[2]
            want.append(tuple(r))
        kdriver = compile_kernel_fuzz_driver(sched)
        kprog = compile_kernel(sched, "model", cache=False).instantiate_kernel(4)
        got = [tuple(g[:4]) for g in kdriver(kprog, None, streams, 0)]
        assert got == want
