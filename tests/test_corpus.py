"""The indexed corpus against the plain linear-scan corpus it replaced.

``_ReferenceCorpus`` is the O(n) ``select``/``add`` the indexes must
reproduce exactly: the same returned entry, the same ``selections``
counters and the same RNG draws after every step, so that every golden
suite digest holds.
"""

import copyreg
import io
import math
import os
import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzing import Corpus, CorpusEntry
from repro.fuzzing.testcase import TestSuite as _Suite
from repro.fuzzing.engine import FuzzState
from repro.service.store import JobStore


class _ReferenceCorpus:
    """The linear-scan corpus, kept verbatim as the oracle."""

    def __init__(self, max_entries: int = 256):
        self.max_entries = max_entries
        self.entries = []

    def __len__(self):
        return len(self.entries)

    @staticmethod
    def _strength(entry):
        return (entry.found_new, entry.metric, -entry.selections)

    def add(self, entry):
        if len(self.entries) >= self.max_entries:
            victim = min(self.entries, key=self._strength)
            if self._strength(entry) < self._strength(victim):
                return entry  # rejected: weaker than every resident seed
            self.entries.remove(victim)
            self.entries.append(entry)
            return victim
        self.entries.append(entry)
        return None

    def select(self, rng, bump=True):
        if not self.entries:
            return None
        # favor the freshest quarter half the time (LibFuzzer-ish energy)
        if len(self.entries) >= 8 and rng.random() < 0.5:
            fresh = self.entries[-max(len(self.entries) // 4, 1):]
            pool = fresh
        else:
            pool = self.entries
        def weight(entry):
            # new-coverage finders get double energy, like LibFuzzer's
            # feature-rarity bias toward inputs that actually advanced
            # the frontier
            bonus = 2.0 if entry.found_new else 1.0
            return (entry.density + 1.0) * bonus

        total = sum(weight(e) for e in pool)
        pick = rng.random() * total
        acc = 0.0
        chosen = pool[-1]
        for entry in pool:
            acc += weight(entry)
            if pick <= acc:
                chosen = entry
                break
        if bump:
            chosen.selections += 1
        return chosen


# small metric and iteration ranges give many tied (found_new, metric)
# classes; wide ones give weights whose sums round differently
_adds = st.tuples(
    st.just("add"),
    st.booleans(),
    st.one_of(st.integers(0, 3), st.integers(0, 10**6)),
    st.one_of(st.integers(0, 3), st.integers(0, 10**4)),
)
_selects = st.tuples(st.just("select"), st.booleans())
_ops = st.lists(st.one_of(_adds, _selects, _selects), max_size=120)


class _Twin:
    """The reference and the indexed corpus driven in lockstep."""

    def __init__(self, max_entries, seed):
        self.ref = _ReferenceCorpus(max_entries)
        self.new = Corpus(max_entries)
        self.ref_rng = random.Random(seed)
        self.new_rng = random.Random(seed)
        #: id(new entry) -> its reference twin
        self.twin = {}

    def add(self, found_new, metric, iterations):
        fields = (b"%d" % len(self.twin), metric, found_new, 0.0)
        ref_entry = CorpusEntry(*fields, iterations=iterations)
        new_entry = CorpusEntry(*fields, iterations=iterations)
        self.twin[id(new_entry)] = ref_entry
        return self.ref.add(ref_entry), self.new.add(new_entry)

    def select(self, bump):
        return (
            self.ref.select(self.ref_rng, bump),
            self.new.select(self.new_rng, bump),
        )

    def step(self, op):
        want, got = self.add(*op[1:]) if op[0] == "add" else self.select(op[1])
        assert (got is None) == (want is None)
        if got is not None:
            assert self.twin[id(got)] is want
        self.check()

    def check(self):
        assert [self.twin[id(e)] for e in self.new.entries] == self.ref.entries
        assert [e.selections for e in self.new.entries] == [
            e.selections for e in self.ref.entries
        ]
        assert self.new_rng.getstate() == self.ref_rng.getstate()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 24), st.integers(0, 2**32), _ops)
def test_matches_reference_scan(max_entries, seed, ops):
    twin = _Twin(max_entries, seed)
    for op in ops:
        twin.step(op)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 24), st.integers(0, 2**32), _ops, _ops)
def test_pickled_mid_campaign_resumes_with_same_picks(
    max_entries, seed, before, after
):
    twin = _Twin(max_entries, seed)
    for op in before:
        twin.step(op)
    # entries round-trip as new objects: re-key the twin map
    entries = twin.new.entries
    twin.new = pickle.loads(pickle.dumps(twin.new))
    twin.twin = {
        id(copy): twin.twin[id(orig)]
        for copy, orig in zip(twin.new.entries, entries)
    }
    for op in after:
        twin.step(op)


class _Scripted:
    """An RNG stand-in returning scripted ``random()`` draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def _scan_sums(pool):
    """``(total, running sums)`` exactly as the reference scan computes."""
    weights = [
        (e.density + 1.0) * (2.0 if e.found_new else 1.0) for e in pool
    ]
    sums, acc = [], 0.0
    for w in weights:
        acc += w
        sums.append(acc)
    return sum(weights), sums


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(0, 10**6), st.integers(0, 10**4)),
        min_size=1,
        max_size=40,
    ),
    st.booleans(),
)
def test_picks_at_every_running_sum_boundary(specs, fresh):
    """Picks a few ulps either side of each running sum: a pool sum that
    is off by one rounding step picks a neighbouring entry here."""
    twin = _Twin(len(specs), 0)
    for spec in specs:
        twin.add(*spec)
    n = len(specs)
    fresh = fresh and n >= 8
    pool = twin.ref.entries[n - max(n // 4, 1):] if fresh else twin.ref.entries
    total, sums = _scan_sums(pool)
    head = [0.25 if fresh else 0.75] if n >= 8 else []
    for acc in sums:
        u = min(acc / total, math.nextafter(1.0, 0.0))
        for _ in range(4):
            u = math.nextafter(u, 0.0)
        for _ in range(9):
            got = twin.new.select(_Scripted(head + [u]), bump=False)
            want = twin.ref.select(_Scripted(head + [u]), bump=False)
            assert twin.twin[id(got)] is want
            u = math.nextafter(u, 1.0)


def _full_corpus(n=64, seed=0):
    rng = random.Random(seed)
    corpus = Corpus(max_entries=n)
    for i in range(n):
        corpus.add(
            CorpusEntry(
                b"%d" % i,
                rng.randrange(100),
                rng.random() < 0.3,
                0.0,
                iterations=rng.randrange(1, 20),
            )
        )
    return corpus


def test_eviction_is_first_most_selected_of_weakest_class():
    corpus = Corpus(max_entries=4)
    a = CorpusEntry(b"a", 5, False, 0.0, selections=1)
    b = CorpusEntry(b"b", 5, False, 0.0, selections=3)
    c = CorpusEntry(b"c", 5, False, 0.0, selections=3)
    d = CorpusEntry(b"d", 2, True, 0.0)
    for entry in (a, b, c, d):
        corpus.add(entry)
    assert corpus.add(CorpusEntry(b"e", 6, False, 0.0)) is b
    assert corpus.add(CorpusEntry(b"f", 6, False, 0.0)) is c
    assert corpus.entries[:2] == [a, d]


def test_equal_fields_are_distinct_entries():
    corpus = Corpus(max_entries=2)
    first = CorpusEntry(b"x", 1, False, 0.0)
    second = CorpusEntry(b"x", 1, False, 0.0)
    corpus.add(first)
    corpus.add(second)
    second.selections += 1  # now the weaker of the two
    assert corpus.add(CorpusEntry(b"y", 2, False, 0.0)) is second
    assert corpus.entries[0] is first


def test_select_evaluates_no_per_pick_densities(monkeypatch):
    """A per-pick O(n) weight scan fails this by count, not by timing."""
    corpus = _full_corpus()
    calls = []
    density = CorpusEntry.density.fget

    def counting(entry):
        calls.append(1)
        return density(entry)

    monkeypatch.setattr(CorpusEntry, "density", property(counting))
    for loaded in (corpus, pickle.loads(pickle.dumps(corpus))):
        del calls[:]
        rng = random.Random(1)
        for _ in range(1000):
            loaded.select(rng)
        assert len(calls) <= 2 * len(loaded)


def test_caches_are_not_pickled():
    corpus = _full_corpus()
    cold = pickle.dumps(corpus)
    rng = random.Random(2)
    for _ in range(50):
        corpus.select(rng, bump=False)
    assert pickle.dumps(corpus) == cold
    assert set(corpus.__getstate__()) == {"max_entries", "entries"}


class _LegacyPickler(pickle.Pickler):
    """Pickles a corpus the way the plain linear-scan corpus was pickled:
    the default object reduction with its whole ``__dict__`` as state."""

    def reducer_override(self, obj):
        if type(obj) is Corpus:
            state = {"max_entries": obj.max_entries, "entries": obj.entries}
            return copyreg.__newobj__, (Corpus,), state
        return NotImplemented


def test_legacy_snapshot_loads_and_selects_identically(tmp_path):
    """A JobStore snapshot whose corpus ``__dict__`` has only
    ``max_entries`` and ``entries`` still resumes with the same picks."""
    corpus = _full_corpus()
    state = FuzzState(corpus=corpus, suite=_Suite(tool="cftcg"))
    store = JobStore(str(tmp_path))
    os.makedirs(store.job_dir("legacy"))
    buf = io.BytesIO()
    _LegacyPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(state)
    with open(store.state_path("legacy"), "wb") as fh:
        fh.write(buf.getvalue())
    loaded = store.load_state("legacy").corpus
    ref = _ReferenceCorpus(corpus.max_entries)
    ref.entries = pickle.loads(pickle.dumps(corpus.entries))
    rng_new, rng_ref = random.Random(3), random.Random(3)
    for i in range(200):
        got = loaded.select(rng_new, bump=i % 3 != 0)
        want = ref.select(rng_ref, bump=i % 3 != 0)
        assert got.data == want.data
        assert got.selections == want.selections
    assert rng_new.getstate() == rng_ref.getstate()
    extra = CorpusEntry(b"new", 99, True, 0.0)
    ref_extra = CorpusEntry(b"new", 99, True, 0.0)
    assert loaded.add(extra).data == ref.add(ref_extra).data
    assert loaded.entries[-1] is extra
