"""Worklist policies: push/pop contracts and quiescence."""

import sys
import threading
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llp.worklists import (
    BucketQueue,
    ChunkedFifo,
    NullWorklist,
    PerThreadBag,
    QuiescenceToken,
    RandomOrderBag,
    SeqBag,
    SharedBag,
)


def test_null_worklist_discards_everything():
    wl = NullWorklist()
    wl.push((3, 1))
    wl.push_all([(1, 0), (2, 0)])
    wl.push_all((1 // 0, 0) for _ in range(1))  # dropped without being iterated
    assert wl.pop() is None


def test_seq_bag_is_lifo():
    wl = SeqBag()
    wl.push_all([(1, 0), (2, 0), (3, 0)])
    assert [wl.pop()[0] for _ in range(3)] == [3, 2, 1]
    assert wl.pop() is None
    # Mixed priorities: the lowest first, LIFO among equal priorities.
    wl.push_all([(1, 5), (2, 3), (3, 5), (4, 3), (5, 9)])
    assert wl.pop() == (4, 3)
    wl.push((6, 1))  # a lower key pushed mid-drain comes out next
    wl.push((7, 5))
    assert [item[0] for item in iter(wl.pop, None)] == [6, 2, 7, 3, 1, 5]
    assert len(wl) == 0


def test_random_order_bag_reproducible_and_complete():
    order1 = []
    order2 = []
    for order in (order1, order2):
        wl = RandomOrderBag(seed=99)
        wl.push_all([(i, 0) for i in range(20)])
        while (item := wl.pop()) is not None:
            order.append(item[0])
    assert order1 == order2
    assert sorted(order1) == list(range(20))


def test_bucket_assignment_priority_zero():
    wl = BucketQueue(num_buckets=1024, delta=4)
    assert wl.bucket_of(0) == 0


def test_bucket_assignment_priority_seven():
    wl = BucketQueue(num_buckets=1024, delta=4)
    assert wl.bucket_of(7) == 1


def test_bucket_assignment_wraps_modulo():
    # floor(4097*4 / 4) mod 1024 == 4097 mod 1024 == 1
    wl = BucketQueue(num_buckets=1024, delta=4)
    assert wl.bucket_of(4097 * 4) == 1


@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=1, max_value=512))
@settings(max_examples=200, deadline=None)
def test_bucket_assignment_matches_arithmetic(priority, delta):
    wl = BucketQueue(num_buckets=1024, delta=delta)
    assert wl.bucket_of(priority) == (priority // delta) % 1024


def test_buckets_pop_lowest_nonempty_first():
    wl = BucketQueue(num_buckets=1024, delta=4)
    wl.push((5, 9))
    wl.push((2, 1))
    assert wl.pop()[0] == 2
    assert wl.pop()[0] == 5
    assert wl.pop() is None


def test_buckets_hint_recovers_after_lower_push():
    wl = BucketQueue(num_buckets=8, delta=1)
    wl.push((1, 6))
    assert wl.pop()[0] == 1  # hint now sits at bucket 6
    wl.push((2, 0))
    assert wl.pop()[0] == 2


class _JustEmptiedDeque(deque):
    """Tests non-empty, but a concurrent pop empties it before ours."""

    def __bool__(self):
        return True


def test_buckets_pop_skips_a_bucket_emptied_after_its_test():
    # Past the hint bucket 0, which the pop tries first without a test.
    wl = BucketQueue(num_buckets=8, delta=1)
    wl._buckets[2] = _JustEmptiedDeque()
    wl.push((4, 5))
    assert wl.pop() == (4, 5)
    assert wl.pop() is None


def test_buckets_pop_wraps_past_the_last_bucket():
    wl = BucketQueue(num_buckets=8, delta=1)
    wl.push_all([(1, 6), (2, 2)])
    assert wl.pop() == (2, 2)
    wl._hint = 7  # as if a pop had found bucket 7 last
    assert wl.pop() == (1, 6)
    assert wl.pop() is None


def test_per_thread_bag_prefers_local_items():
    wl = PerThreadBag(workers=2)
    wl.push((9, 0))  # unbound push lands in the injector
    wl.bind(0)
    wl.push((1, 0))
    assert wl.pop()[0] == 1  # local deque first, injector untouched
    assert wl.pop()[0] == 9


def test_per_thread_bag_unbound_batch_pops_lowest_priority_first():
    wl = PerThreadBag(workers=2)
    wl.push_all([(1, 20), (2, 0), (3, 10)])  # unbound: into the FIFO injector
    assert [item[0] for item in iter(wl.pop, None)] == [2, 3, 1]


def test_per_thread_bag_owner_and_thief_pop_lowest_priority_first():
    wl = PerThreadBag(workers=2)
    wl.bind(0)
    wl.push_all([(1, 20), (2, 10), (3, 30), (4, 20)])
    assert wl.pop()[0] == 2  # the owner's lowest priority

    stolen = []

    def thief():
        wl.bind(1)
        while (item := wl.pop()) is not None:
            stolen.append(item[0])

    t = threading.Thread(target=thief)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    assert stolen == [4, 1, 3]  # the victim's lowest first, LIFO among ties


def test_per_thread_bag_owner_pops_lower_of_own_and_injector():
    wl = PerThreadBag(workers=2)
    wl.push_all([(1, 0), (2, 30)])  # unbound: into the injector
    wl.bind(0)
    wl.push_all([(3, 10), (4, 40)])
    assert [item[0] for item in iter(wl.pop, None)] == [1, 3, 2, 4]


def test_per_thread_bag_peek_reads_a_just_emptied_bin_set_as_empty():
    # Another worker may pop a bin set empty between a peek's emptiness
    # test and its index; the peek must not raise.
    class EmptiedAfterTest(list):
        def __bool__(self):
            return True

    wl = PerThreadBag(workers=2)
    wl.bind(0)
    wl.push((1, 5))
    wl._bins[-1]._keys = EmptiedAfterTest()  # the injector's live priorities
    assert wl.pop() == (1, 5)


def test_chunked_fifo_seals_and_recovers_partial_chunks():
    wl = ChunkedFifo(workers=1, chunk_size=3)
    wl.bind(0)
    wl.push_all([(i, 0) for i in range(7)])  # two sealed chunks + one open
    got = []
    while (item := wl.pop()) is not None:
        got.append(item[0])
        wl.task_done()
    assert got == list(range(7))
    assert wl.quiescent()


def test_chunked_fifo_unbound_seeds_pop_in_order():
    wl = ChunkedFifo(workers=1, chunk_size=3)
    wl.push_all([(i, 0) for i in range(7)])  # unbound: sealed whole, last chunk partial
    assert [len(chunk) for chunk in wl._pool] == [3, 3, 1]
    wl.bind(0)
    got = []
    while (item := wl.pop()) is not None:
        got.append(item[0])
        wl.task_done()
    assert got == list(range(7))
    assert wl.quiescent()


def test_chunked_fifo_rejects_bad_chunk_size():
    with pytest.raises(ValueError):
        ChunkedFifo(workers=1, chunk_size=0)


def test_quiescence_all_counters_zero():
    token = QuiescenceToken()
    assert token.quiesce() is True


def test_quiescence_blocks_on_in_flight_item():
    for wl in (SharedBag(), PerThreadBag(), ChunkedFifo(), BucketQueue()):
        wl.push((0, 0))
        assert wl.pop() == (0, 0)  # popped but still processing
        assert wl.pop() is None
        assert wl.quiescent() is False
        wl.task_done()
        assert wl.quiescent() is True


@pytest.mark.parametrize("factory", [SharedBag, PerThreadBag, ChunkedFifo, BucketQueue])
def test_task_done_many_reports_a_count_at_once(factory):
    wl = factory()
    wl.push_all([(0, 0), (1, 0), (2, 0)])
    assert None not in [wl.pop() for _ in range(3)] and wl.pop() is None
    wl.task_done_many(2)
    assert wl.quiescent() is False and wl.token.outstanding == 1
    wl.task_done_many(1)
    assert wl.quiescent() is True


def test_default_task_done_many_calls_task_done_per_item():
    class CountingBag(SeqBag):
        done = 0

        def task_done(self):
            self.done += 1

    wl = CountingBag()
    wl.task_done_many(5)
    assert wl.done == 5


def test_quiescence_blocks_on_pending_item():
    token = QuiescenceToken()
    token.note_push()
    assert token.quiesce() is False


def _recording(errors):
    """Wrap a thread target so an exception it raises lands in ``errors``."""
    def wrap(target):
        def run(*args):
            try:
                target(*args)
            except Exception as exc:  # reported by the test, not by the thread
                errors.append(exc)
        return run
    return wrap


@pytest.mark.parametrize("factory", [
    lambda: SharedBag(),
    lambda: PerThreadBag(8),
    lambda: ChunkedFifo(8, chunk_size=4),
    lambda: BucketQueue(8, num_buckets=16, delta=2),
])
def test_no_worker_exits_while_items_remain(factory):
    # 8 workers over a cascade: every popped token below the threshold
    # pushes two children.  All pushed items must be drained exactly.
    wl = factory()
    wl.push_all([(1, 0)])
    counter_lock = threading.Lock()
    processed = [0]
    errors = []

    @_recording(errors)
    def worker(slot):
        wl.bind(slot)
        while True:
            item = wl.pop()
            if item is None:
                if wl.quiescent():
                    return
                continue
            try:
                value = item[0]
                with counter_lock:
                    processed[0] += 1
                if value < 64:
                    wl.push_all([(2 * value, value), (2 * value + 1, value)])
            finally:
                wl.task_done()

    # Daemon threads, so a drain that never ends fails the test instead
    # of keeping the process alive.
    pool = [threading.Thread(target=worker, args=(slot,), daemon=True) for slot in range(8)]
    for t in pool:
        t.start()
    for t in pool:
        t.join(timeout=30)
    assert not [t for t in pool if t.is_alive()]
    assert errors == []
    # Nodes 1..127 of the implicit binary tree are each seen once.
    assert processed[0] == 127
    assert wl.pop() is None
    assert wl.quiescent()


@pytest.mark.parametrize("factory", [
    lambda: SharedBag(),
    lambda: PerThreadBag(8),
    lambda: ChunkedFifo(8, chunk_size=4),
    lambda: BucketQueue(8, num_buckets=16, delta=2),
])
def test_outstanding_counter_survives_fast_thread_switching(factory):
    # Pops take no lock, so only pushes and task_done move the counter.
    # A lost update would either end the drain early (too few items
    # processed) or never let it reach zero (workers still alive).
    wl = factory()
    wl.push((1, 0))
    counter_lock = threading.Lock()
    processed = [0]
    errors = []
    stop = threading.Event()

    @_recording(errors)
    def worker(slot):
        wl.bind(slot)
        while not stop.is_set():
            item = wl.pop()
            if item is None:
                if wl.quiescent():
                    return
                continue
            try:
                value = item[0]
                with counter_lock:
                    processed[0] += 1
                if value < 1024:
                    wl.push((2 * value, value))
                    wl.push((2 * value + 1, value))
            finally:
                wl.task_done()

    pool = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in pool:
            t.start()
        deadline = time.monotonic() + 30
        for t in pool:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        hung = [t for t in pool if t.is_alive()]
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not hung
    assert errors == []
    assert processed[0] == 2047
    assert wl.token.outstanding == 0
