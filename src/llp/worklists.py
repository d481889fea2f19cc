"""Scheduling policies behind one push/pop contract.

A work item is a ``(index, priority)`` tuple, and priority orders the
pops.  By default a worker re-checks the forbiddenness of every index it
pops, so a priority that lies costs work, never correctness, and
duplicates are permitted everywhere.  An adapter with
``Problem.is_stale`` goes further: its pushes carry their candidate
value as the key, and a popped item whose index has already reached
that value is dropped unchecked (Dijkstra's lazy deletion).  Its
correctness then rests on that stale rule, whose soundness argument
lives with the adapter.

The multi-consumer policies share one base, :class:`CountedWorklist`.
It carries a :class:`QuiescenceToken` so workers can distinguish
"momentarily empty" from "globally done": a worker may only exit after
observing zero outstanding items, that is, every pushed item has been
popped and reported finished through ``task_done`` or
``task_done_many``.  The base also maps each bound thread to its worker
slot, and reduces a single push to a batch of one, so each policy
writes only how it stores a batch and how it pops.

Pushes and pops on :class:`collections.deque` are GIL-atomic, so the
deque-based queues never block; pushes and finish reports take the
token's short lock, and their pops take no lock.  :class:`PerThreadBag`
keeps priority bins, which are not atomic, so its pushes and pops also
hold the lock of the bin set they touch.
"""

from __future__ import annotations

import heapq
import random
import threading
from collections import deque
from itertools import chain, compress, islice
from typing import Iterable, Optional, Tuple

WorkItem = Tuple[int, int]


class QuiescenceToken:
    """Counts items pushed whose processing has not finished.

    ``outstanding`` rises on every push and falls when a worker reports
    items finished; a pop leaves it alone.  A worker pushes an item's
    children before it reports the item, so the count cannot touch zero
    while any work remains, and reading zero once is enough to terminate.
    A worker may hold its reports back and send them as one count when
    its pop comes back empty: deferring a report only keeps
    ``outstanding`` high, so it can delay an exit but never allow an
    early one.
    """

    __slots__ = ("_lock", "outstanding")

    def __init__(self):
        self._lock = threading.Lock()
        self.outstanding = 0

    def note_push(self, count: int = 1) -> None:
        with self._lock:
            self.outstanding += count

    def note_done(self, count: int = 1) -> None:
        with self._lock:
            self.outstanding -= count

    def quiesce(self) -> bool:
        return self.outstanding == 0


class Worklist:
    """Default no-op hooks shared by all policies."""

    #: True for policies safe under concurrent push/pop from many threads.
    multi_consumer = False

    def push(self, item: WorkItem) -> None:
        raise NotImplementedError

    def push_all(self, items: Iterable[WorkItem]) -> None:
        for item in items:
            self.push(item)

    def pop(self) -> Optional[WorkItem]:
        raise NotImplementedError

    def task_done(self) -> None:
        """Called by the worker after processing a popped item."""

    def task_done_many(self, count: int) -> None:
        """Report ``count`` popped items processed, as ``count`` ``task_done`` calls."""
        for _ in range(count):
            self.task_done()

    def quiescent(self) -> bool:
        """True when it is sound for a worker seeing an empty pop to exit."""
        return True

    def bind(self, slot: int) -> None:
        """Associate the calling thread with a worker slot (if relevant)."""


class NullWorklist(Worklist):
    """Discards pushes; used by scan-based solvers that never pop."""

    def push(self, item: WorkItem) -> None:
        pass

    def push_all(self, items: Iterable[WorkItem]) -> None:
        pass

    def pop(self) -> Optional[WorkItem]:
        return None


class SeqBag(Worklist):
    """Single-thread bag: lowest priority first, LIFO among equal priorities.

    Ordered-by-integer-metric bins in the style of Galois OBIM: one list
    per priority, plus a heap of the priorities whose list is non-empty.
    The order is exact, so candidate-keyed pushes pop as in Dijkstra's
    algorithm.  An adapter that pushes only priority 0 gets a plain LIFO.
    """

    def __init__(self):
        self._bins = {}
        self._keys = []

    def push(self, item: WorkItem) -> None:
        self.push_all((item,))

    def push_all(self, items: Iterable[WorkItem]) -> None:
        bins = self._bins
        for item in items:
            bin_ = bins.get(item[1])
            if bin_ is None:
                bins[item[1]] = [item]
                heapq.heappush(self._keys, item[1])
            else:
                bin_.append(item)

    def pop(self) -> Optional[WorkItem]:
        keys = self._keys
        if not keys:
            return None
        bin_ = self._bins[keys[0]]
        item = bin_.pop()
        if not bin_:
            del self._bins[heapq.heappop(keys)]
        return item

    def __len__(self) -> int:
        return sum(map(len, self._bins.values()))


class RandomOrderBag(Worklist):
    """Single-thread bag popping a uniformly random held item.

    Exists to drive randomized-schedule monotonicity checks; the seed
    makes each schedule reproducible.
    """

    def __init__(self, seed: int = 0):
        self._items = []
        self._rng = random.Random(seed)

    def push(self, item: WorkItem) -> None:
        self._items.append(item)

    def pop(self) -> Optional[WorkItem]:
        items = self._items
        if not items:
            return None
        i = self._rng.randrange(len(items))
        items[i], items[-1] = items[-1], items[i]
        return items.pop()


class CountedWorklist(Worklist):
    """Base of the multi-consumer policies: counted pushes and worker slots.

    ``push_all`` counts a batch on the :class:`QuiescenceToken` before
    handing it to the policy's ``_put``, and ``push`` is a batch of one.
    ``bind`` keeps the calling thread's worker slot in a thread-local,
    which ``_slot`` reads back.
    """

    multi_consumer = True

    def __init__(self):
        self.token = QuiescenceToken()
        self._local = threading.local()

    def bind(self, slot: int) -> None:
        self._local.slot = slot

    def _slot(self, default: Optional[int] = None) -> Optional[int]:
        """The caller's worker slot, or ``default`` if it is unbound."""
        return getattr(self._local, "slot", default)

    def push(self, item: WorkItem) -> None:
        self.push_all((item,))

    def push_all(self, items: Iterable[WorkItem]) -> None:
        batch = list(items)
        if batch:
            self.token.note_push(len(batch))
            self._put(batch)

    def _put(self, batch: list) -> None:
        """Store a non-empty batch that the token has already counted."""
        raise NotImplementedError

    def task_done(self) -> None:
        self.token.note_done()

    def task_done_many(self, count: int) -> None:
        self.token.note_done(count)

    def quiescent(self) -> bool:
        return self.token.quiesce()


class SharedBag(CountedWorklist):
    """One global FIFO injector shared by every worker (SWB)."""

    def __init__(self):
        super().__init__()
        self._queue = deque()

    def _put(self, batch: list) -> None:
        self._queue.extend(batch)

    def pop(self) -> Optional[WorkItem]:
        try:
            return self._queue.popleft()
        except IndexError:
            return None


class PerThreadBag(CountedWorklist):
    """Per-worker priority bins plus a global injector (PTWB).

    Each worker slot and the injector hold a :class:`SeqBag`, so every
    bin set pops its lowest priority first, as in Galois OBIM
    (ordered-by-integer-metric) scheduling applied per worker.  A bound
    caller pushes into its own bins and an unbound one into the
    injector.  An owner pops from whichever of its own bins and the
    injector holds the lower priority, so seeds and later pushes
    interleave by priority; an owner with neither steals a victim's
    lowest-priority item.

    Locking: a push or pop, by owner or thief, holds the lock of the one
    bin set it changes.  Pushes and finish reports also take the
    quiescence token's lock, never while holding a bin set's.  To choose
    where to pop and to skip empty bin sets, a pop reads lowest
    priorities without any lock; a concurrent pop may empty a bin set
    between the emptiness test and the index, and that miss reads as
    empty.  A stale reading only changes which bin set is tried first,
    or leaves an item for the next poll (the outstanding count keeps
    workers polling until it is taken), never what a pop takes under
    the lock.
    """

    def __init__(self, workers: int = 1):
        super().__init__()
        # Slots 0..workers-1 belong to the workers; the last is the injector.
        self._bins = [SeqBag() for _ in range(workers + 1)]
        self._locks = [threading.Lock() for _ in range(workers + 1)]

    def _take(self, i: int) -> Optional[WorkItem]:
        bag = self._bins[i]
        if not bag._keys:
            return None
        with self._locks[i]:
            return bag.pop()

    def _put(self, batch: list) -> None:
        i = self._slot(len(self._bins) - 1)  # unbound callers use the injector
        with self._locks[i]:
            self._bins[i].push_all(batch)

    def pop(self) -> Optional[WorkItem]:
        bins = self._bins
        injector = len(bins) - 1
        own = getattr(self._local, "slot", injector)
        # The injector is empty once the seeds are taken: skip the
        # comparison then.
        if bins[injector]._keys and _lowest(bins[injector]) < _lowest(bins[own]):
            item = self._take(injector) or self._take(own)
        else:
            item = self._take(own) or self._take(injector)
        if item is not None:
            return item
        for victim in range(injector):
            if victim != own:
                item = self._take(victim)
                if item is not None:
                    return item
        return None


_EMPTY = float("inf")


def _lowest(bag: SeqBag) -> float:
    """Lowest priority held by ``bag``, read without its lock; inf if empty."""
    keys = bag._keys
    try:
        return keys[0] if keys else _EMPTY
    except IndexError:  # emptied by another thread after the test
        return _EMPTY


class ChunkedFifo(CountedWorklist):
    """Per-worker chunk accumulation over a global chunk pool (PTCF).

    A worker's pushes fill its open chunk; a chunk is sealed into the
    shared pool once it reaches ``chunk_size``.  An unbound batch (the
    seeds) is sealed whole, cut into chunks with a partial last one.
    Pops drain the worker's active chunk, then acquire a sealed chunk
    from the pool, and as a last resort drain the worker's own
    partially-filled open chunk so no item is ever stranded behind an
    unsealed boundary.
    """

    def __init__(self, workers: int = 1, chunk_size: int = 64):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        super().__init__()
        self.chunk_size = chunk_size
        self._pool = deque()
        self._open = [[] for _ in range(workers)]
        self._active = [deque() for _ in range(workers)]

    def _put(self, batch: list) -> None:
        size = self.chunk_size
        slot = self._slot()
        if slot is None:
            self._pool.extend(batch[i : i + size] for i in range(0, len(batch), size))
            return
        chunk = self._open[slot]
        for item in batch:
            chunk.append(item)
            if len(chunk) >= size:
                self._pool.append(chunk)
                chunk = []
        self._open[slot] = chunk

    def pop(self) -> Optional[WorkItem]:
        slot = self._slot()
        active = self._active[slot] if slot is not None else None
        if active:
            try:
                return active.popleft()
            except IndexError:
                pass
        try:
            chunk = self._pool.popleft()
        except IndexError:
            chunk = None
        if chunk is not None:
            if active is not None:
                active.extend(chunk[1:])
            else:
                # unbound caller: return the rest to the pool
                if len(chunk) > 1:
                    self._pool.appendleft(chunk[1:])
            return chunk[0]
        if slot is not None and self._open[slot]:
            self._active[slot].extend(self._open[slot])
            self._open[slot] = []
            return self.pop()
        return None


class BucketQueue(CountedWorklist):
    """Priority buckets popped lowest-index-first (Buckets).

    An item with priority p goes to bucket ``(p // delta) % num_buckets``.
    Pops scan from an approximate lowest-non-empty hint; under
    concurrency a pop may return from bucket b while bucket b-1 receives
    a simultaneous push, which is permitted because priority is only a
    hint.
    """

    def __init__(self, workers: int = 1, num_buckets: int = 1024, delta: int = 1):
        if num_buckets < 1 or delta < 1:
            raise ValueError("num_buckets and delta must be >= 1")
        super().__init__()
        self.num_buckets = num_buckets
        self.delta = delta
        self._buckets = [deque() for _ in range(num_buckets)]
        self._hint = 0

    def bucket_of(self, priority: int) -> int:
        return (priority // self.delta) % self.num_buckets

    def _put(self, batch: list) -> None:
        buckets = self._buckets
        delta = self.delta
        nb = self.num_buckets
        for item in batch:
            b = (item[1] // delta) % nb
            buckets[b].append(item)
            if b < self._hint:
                self._hint = b  # racy but only ever advisory

    def pop(self) -> Optional[WorkItem]:
        buckets = self._buckets
        start = self._hint
        try:
            return buckets[start].popleft()  # the common case: the hint holds work
        except IndexError:
            pass
        # Buckets start+1..n-1, then 0..start-1.  ``compress`` skips empty
        # ones by their truth value, in C; raising and catching IndexError
        # on each made an empty poll about twenty times slower.
        n = self.num_buckets
        nonempty = chain(compress(range(start + 1, n), islice(buckets, start + 1, n)),
                         compress(range(start), buckets))
        for b in nonempty:
            try:
                item = buckets[b].popleft()
            except IndexError:  # emptied by a concurrent pop since the test
                continue
            self._hint = b
            return item
        return None
