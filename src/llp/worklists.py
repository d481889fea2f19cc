"""Scheduling policies behind one push/pop contract.

A work item is a ``(index, priority)`` tuple.  Priority is an advisory
scheduling hint; correctness never depends on it, because staleness is
filtered at pop time by re-checking forbiddenness.  Duplicates are
therefore permitted everywhere.

Multi-consumer policies carry a :class:`QuiescenceToken` so workers can
distinguish "momentarily empty" from "globally done": a worker may only
exit after observing zero outstanding items, that is, every pushed item
has been popped and its ``task_done`` called.  Pushes and pops on
:class:`collections.deque` are GIL-atomic, so the queues themselves
never block; pushes and ``task_done`` take the token's short lock (and
an unbound push into a chunk pool one more), and pops take no lock.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from typing import Iterable, Optional, Tuple

WorkItem = Tuple[int, int]


class QuiescenceToken:
    """Counts items pushed whose processing has not finished.

    ``outstanding`` rises on every push and falls in ``task_done``; a pop
    leaves it alone.  A worker pushes an item's children before it calls
    ``task_done`` for the item, so the count cannot touch zero while any
    work remains, and reading zero once is enough to terminate.
    """

    __slots__ = ("_lock", "outstanding")

    def __init__(self):
        self._lock = threading.Lock()
        self.outstanding = 0

    def note_push(self, count: int = 1) -> None:
        with self._lock:
            self.outstanding += count

    def note_done(self) -> None:
        with self._lock:
            self.outstanding -= 1

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

    def quiescent(self) -> bool:
        """True when it is sound for a worker seeing an empty pop to exit."""
        return True

    def bind(self, slot: int) -> None:
        """Associate the calling thread with a worker slot (if relevant)."""

    def seal_pending(self) -> None:
        """Flush externally-buffered pushes (called after initial seeding)."""


class NullWorklist(Worklist):
    """Discards pushes; used by scan-based solvers that never pop."""

    def push(self, item: WorkItem) -> None:
        pass

    def push_all(self, items: Iterable[WorkItem]) -> None:
        for _ in items:
            pass

    def pop(self) -> Optional[WorkItem]:
        return None


class SeqBag(Worklist):
    """Single-thread LIFO bag."""

    def __init__(self):
        self._items = []

    def push(self, item: WorkItem) -> None:
        self._items.append(item)

    def pop(self) -> Optional[WorkItem]:
        if self._items:
            return self._items.pop()
        return None

    def __len__(self) -> int:
        return len(self._items)


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


class SharedBag(Worklist):
    """One global FIFO injector shared by every worker (SWB)."""

    multi_consumer = True

    def __init__(self, workers: int = 1):
        self._queue = deque()
        self.token = QuiescenceToken()

    def push(self, item: WorkItem) -> None:
        self.token.note_push()
        self._queue.append(item)

    def push_all(self, items: Iterable[WorkItem]) -> None:
        batch = list(items)
        if batch:
            self.token.note_push(len(batch))
            self._queue.extend(batch)

    def pop(self) -> Optional[WorkItem]:
        try:
            return self._queue.popleft()
        except IndexError:
            return None

    def task_done(self) -> None:
        self.token.note_done()

    def quiescent(self) -> bool:
        return self.token.quiesce()


class PerThreadBag(Worklist):
    """Per-worker deques plus a global injector (PTWB).

    Owners pop LIFO from their own deque; thieves steal FIFO from the
    opposite end, the classic work-stealing split.  ``push_all`` orders a
    batch so the lowest-priority item is pushed last and hence popped
    first by the owner, which realizes the recency bias that makes this
    policy effective for shortest-path relaxation.
    """

    multi_consumer = True

    def __init__(self, workers: int = 1):
        self._injector = deque()
        self._local = [deque() for _ in range(workers)]
        self._slots = {}
        self.token = QuiescenceToken()

    def bind(self, slot: int) -> None:
        self._slots[threading.get_ident()] = slot

    def _slot(self) -> Optional[int]:
        return self._slots.get(threading.get_ident())

    def push(self, item: WorkItem) -> None:
        self.token.note_push()
        slot = self._slot()
        if slot is None:
            self._injector.append(item)
        else:
            self._local[slot].append(item)

    def push_all(self, items: Iterable[WorkItem]) -> None:
        batch = sorted(items, key=lambda it: it[1], reverse=True)
        if not batch:
            return
        self.token.note_push(len(batch))
        slot = self._slot()
        dq = self._injector if slot is None else self._local[slot]
        dq.extend(batch)

    def pop(self) -> Optional[WorkItem]:
        slot = self._slot()
        if slot is not None:
            try:
                return self._local[slot].pop()  # owner side: LIFO
            except IndexError:
                pass
        try:
            return self._injector.popleft()
        except IndexError:
            pass
        for victim, dq in enumerate(self._local):
            if victim == slot:
                continue
            try:
                return dq.popleft()  # thief side: FIFO
            except IndexError:
                continue
        return None

    def task_done(self) -> None:
        self.token.note_done()

    def quiescent(self) -> bool:
        return self.token.quiesce()


class ChunkedFifo(Worklist):
    """Per-worker chunk accumulation over a global chunk pool (PTCF).

    Pushes fill the caller's open chunk; a chunk is sealed into the
    shared pool once it reaches ``chunk_size``.  Pops drain the worker's
    active chunk, then acquire a sealed chunk from the pool, and as a
    last resort drain the worker's own partially-filled open chunk so no
    item is ever stranded behind an unsealed boundary.
    """

    multi_consumer = True

    def __init__(self, workers: int = 1, chunk_size: int = 64):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.chunk_size = chunk_size
        self._pool = deque()
        self._open = [[] for _ in range(workers)]
        self._active = [deque() for _ in range(workers)]
        self._slots = {}
        self._ext_lock = threading.Lock()
        self._ext_open = []
        self.token = QuiescenceToken()

    def bind(self, slot: int) -> None:
        self._slots[threading.get_ident()] = slot

    def _slot(self) -> Optional[int]:
        return self._slots.get(threading.get_ident())

    def push(self, item: WorkItem) -> None:
        self.token.note_push()
        slot = self._slot()
        if slot is None:
            with self._ext_lock:
                self._ext_open.append(item)
                if len(self._ext_open) >= self.chunk_size:
                    self._pool.append(self._ext_open)
                    self._ext_open = []
            return
        chunk = self._open[slot]
        chunk.append(item)
        if len(chunk) >= self.chunk_size:
            self._pool.append(chunk)
            self._open[slot] = []

    def push_all(self, items: Iterable[WorkItem]) -> None:
        batch = list(items)
        if not batch:
            return
        self.token.note_push(len(batch))
        slot = self._slot()
        if slot is None:
            with self._ext_lock:
                for item in batch:
                    self._ext_open.append(item)
                    if len(self._ext_open) >= self.chunk_size:
                        self._pool.append(self._ext_open)
                        self._ext_open = []
            return
        chunk = self._open[slot]
        for item in batch:
            chunk.append(item)
            if len(chunk) >= self.chunk_size:
                self._pool.append(chunk)
                chunk = []
        self._open[slot] = chunk

    def seal_pending(self) -> None:
        with self._ext_lock:
            if self._ext_open:
                self._pool.append(self._ext_open)
                self._ext_open = []

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

    def task_done(self) -> None:
        self.token.note_done()

    def quiescent(self) -> bool:
        return self.token.quiesce()


class BucketQueue(Worklist):
    """Priority buckets popped lowest-index-first (Buckets).

    An item with priority p goes to bucket ``(p // delta) % num_buckets``.
    Pops scan from an approximate lowest-non-empty hint; under
    concurrency a pop may return from bucket b while bucket b-1 receives
    a simultaneous push, which is permitted because priority is only a
    hint.
    """

    multi_consumer = True

    def __init__(self, workers: int = 1, num_buckets: int = 1024, delta: int = 1):
        if num_buckets < 1 or delta < 1:
            raise ValueError("num_buckets and delta must be >= 1")
        self.num_buckets = num_buckets
        self.delta = delta
        self._buckets = [deque() for _ in range(num_buckets)]
        self._hint = 0
        self.token = QuiescenceToken()

    def bucket_of(self, priority: int) -> int:
        return (priority // self.delta) % self.num_buckets

    def push(self, item: WorkItem) -> None:
        self.token.note_push()
        b = self.bucket_of(item[1])
        self._buckets[b].append(item)
        if b < self._hint:
            self._hint = b  # racy but only ever advisory

    def push_all(self, items: Iterable[WorkItem]) -> None:
        batch = list(items)
        if not batch:
            return
        self.token.note_push(len(batch))
        buckets = self._buckets
        delta = self.delta
        nb = self.num_buckets
        for item in batch:
            b = (item[1] // delta) % nb
            buckets[b].append(item)
            if b < self._hint:
                self._hint = b

    def pop(self) -> Optional[WorkItem]:
        buckets = self._buckets
        start = self._hint
        n = self.num_buckets
        for b in range(start, n):
            try:
                item = buckets[b].popleft()
            except IndexError:
                continue
            self._hint = b
            return item
        for b in range(0, min(start, n)):
            try:
                item = buckets[b].popleft()
            except IndexError:
                continue
            self._hint = b
            return item
        return None

    def task_done(self) -> None:
        self.token.note_done()

    def quiescent(self) -> bool:
        return self.token.quiesce()
