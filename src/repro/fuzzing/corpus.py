"""The fuzzer corpus: interesting inputs and seed selection.

Admission policy per the paper: inputs that trigger *new model coverage*
always enter the corpus (and are emitted as test cases by the engine);
inputs whose **Iteration Difference Coverage** exceeds their parent's are
kept as interesting seeds for further mutation — this is what diversifies
execution paths across iterations instead of lingering on a few main
paths.

Selection is metric-weighted: higher-IDC entries are proportionally more
likely parents, with a freshness bonus for recently added entries.

An entry's weight never changes after admission, so the corpus keeps
derived indexes instead of rescanning its entries on every call: the
weights, the running sums of each selection pool, and the eviction
classes.  They reproduce the plain linear scans exactly — same pick, same
victim, same RNG draws — and are rebuilt after unpickling rather than
stored (see ``docs/architecture.md`` §6).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

__all__ = ["CorpusEntry", "Corpus"]


@dataclass(eq=False)
class CorpusEntry:
    """One corpus input with its bookkeeping.

    Entries compare by identity: the corpus removes *this* entry, not the
    first one with equal fields.
    """

    data: bytes
    metric: int
    found_new: bool
    added_at: float
    iterations: int = 0
    selections: int = 0

    @property
    def density(self) -> float:
        """Iteration-difference metric per executed tuple.

        Weighting selection by density (not raw metric) keeps the corpus
        from drifting toward ever-longer inputs, which would inflate the
        metric without diversifying behaviour — the analogue of
        LibFuzzer's preference for small inputs.
        """
        return self.metric / (self.iterations + 1.0)


def _weight(entry: CorpusEntry) -> float:
    # new-coverage finders get double energy, like LibFuzzer's
    # feature-rarity bias toward inputs that actually advanced the
    # frontier
    bonus = 2.0 if entry.found_new else 1.0
    return (entry.density + 1.0) * bonus


def _class(entry: CorpusEntry) -> Tuple[bool, int]:
    """The fixed part of an entry's eviction strength."""
    return (entry.found_new, entry.metric)


_selections = attrgetter("selections")


class Corpus:
    """Bounded set of interesting inputs with weighted selection.

    Mutate ``entries`` only through :meth:`add`: the derived indexes
    follow it, not the list.
    """

    def __init__(self, max_entries: int = 256):
        self.max_entries = max_entries
        self.entries: List[CorpusEntry] = []
        self._drop_caches()

    def __len__(self) -> int:
        return len(self.entries)

    def __getstate__(self) -> Dict:
        return {"max_entries": self.max_entries, "entries": self.entries}

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._drop_caches()

    def _drop_caches(self) -> None:
        #: selection weight of each entry, parallel to ``entries``
        self._weights: Optional[List[float]] = None
        #: pool start index -> (total weight, running sums of the pool)
        self._pools: Dict[int, Tuple[float, List[float]]] = {}
        #: eviction class -> its members in admission (= list) order
        self._classes: Dict[Tuple[bool, int], List[CorpusEntry]] = {}
        #: min-heap holding each key of ``_classes`` exactly once
        self._heap: List[Tuple[bool, int]] = []

    def _indexed(self) -> List[float]:
        """The weights, (re)building every index on first use."""
        if self._weights is None:
            self._weights = [_weight(e) for e in self.entries]
            for entry in self.entries:
                self._classes.setdefault(_class(entry), []).append(entry)
            self._heap = sorted(self._classes)
        return self._weights

    @staticmethod
    def _strength(entry: CorpusEntry):
        return (entry.found_new, entry.metric, -entry.selections)

    def add(self, entry: CorpusEntry) -> Optional[CorpusEntry]:
        """Admit an entry, evicting the weakest seed when full.

        New-coverage finders are never evicted before metric-only entries;
        within a class, lowest metric goes first, then the most-selected
        entry, then the oldest.  An entry strictly weaker than
        everything resident is *rejected up front* rather than added
        and immediately evicted — it was never selectable, so admitting it
        would emit a bogus ``corpus_add``/``corpus_evict`` telemetry pair
        and corrupt discovery ranks.  Returns the displaced entry: ``None``
        (admitted, nobody evicted), a resident entry (admitted, weakest
        resident evicted), or ``entry`` itself (rejected).
        """
        weights = self._indexed()
        classes, heap = self._classes, self._heap
        victim = None
        if len(self.entries) >= self.max_entries:
            # the first entry, in list order, with the least strength
            members = classes[heap[0]]
            victim = max(members, key=_selections)
            if self._strength(entry) < self._strength(victim):
                return entry  # rejected: weaker than every resident seed
            members.remove(victim)
            if not members:
                del classes[heap[0]]
                heappop(heap)
            index = self.entries.index(victim)
            del self.entries[index]
            del weights[index]
        self.entries.append(entry)
        weights.append(_weight(entry))
        key = _class(entry)
        members = classes.get(key)
        if members is None:
            classes[key] = [entry]
            heappush(heap, key)
        else:
            members.append(entry)
        self._pools.clear()
        return victim

    def _pool(self, start: int) -> Tuple[float, List[float]]:
        """Total and running sums of the pool ``entries[start:]``.

        The total is builtin ``sum`` (compensated since Python 3.12) and
        the running sums start at the pool's first entry, so both equal,
        bit for bit, what a scan of the pool computes.
        """
        pool = self._pools.get(start)
        if pool is None:
            weights = self._indexed()[start:]
            pool = self._pools[start] = (sum(weights), list(accumulate(weights)))
        return pool

    def select(self, rng, bump: bool = True) -> Optional[CorpusEntry]:
        """Pick a parent: metric-proportional with recency preference.

        The pick is the first entry of the pool whose running weight sum
        reaches ``rng.random() * total``, the last one if none does.

        ``bump=False`` leaves the entry's ``selections`` counter untouched —
        use it for auxiliary picks (e.g. crossover partners) so they don't
        look hotter than they are to the eviction policy in :meth:`add`.
        """
        n = len(self.entries)
        if not n:
            return None
        start = 0
        # favor the freshest quarter half the time (LibFuzzer-ish energy)
        if n >= 8 and rng.random() < 0.5:
            start = n - max(n // 4, 1)
        total, cum = self._pool(start)
        # weights are >= 1, so ``cum`` is increasing: bisect finds the
        # first running sum >= pick
        i = bisect_left(cum, rng.random() * total)
        chosen = self.entries[start + i] if i < len(cum) else self.entries[-1]
        if bump:
            chosen.selections += 1
        return chosen

    def best_metric(self) -> int:
        return max((e.metric for e in self.entries), default=0)
