"""Worklist policies: push/pop contracts and quiescence."""

import sys
import threading
import time

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
    assert wl.pop() is None


def test_seq_bag_is_lifo():
    wl = SeqBag()
    wl.push_all([(1, 0), (2, 0), (3, 0)])
    assert [wl.pop()[0] for _ in range(3)] == [3, 2, 1]
    assert wl.pop() is None


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


def test_per_thread_bag_prefers_local_items():
    wl = PerThreadBag(workers=2)
    wl.push((9, 0))  # unbound push lands in the injector
    wl.bind(0)
    wl.push((1, 0))
    assert wl.pop()[0] == 1  # local deque first, injector untouched
    assert wl.pop()[0] == 9


def test_per_thread_bag_owner_lifo_thief_fifo():
    wl = PerThreadBag(workers=2)
    wl.bind(0)
    wl.push_all([(1, 10), (2, 20), (3, 30)])
    # Lowest priority is pushed last, so the owner pops it first.
    assert wl.pop()[0] == 1

    stolen = []

    def thief():
        wl.bind(1)
        while (item := wl.pop()) is not None:
            stolen.append(item[0])

    t = threading.Thread(target=thief)
    t.start()
    t.join()
    assert stolen == [3, 2]  # FIFO from the victim's cold end


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


def test_chunked_fifo_external_seed_then_seal():
    wl = ChunkedFifo(workers=1, chunk_size=64)
    wl.push_all([(i, 0) for i in range(5)])  # unbound: buffered externally
    wl.seal_pending()
    wl.bind(0)
    got = [wl.pop()[0] for _ in range(5)]
    for _ in got:
        wl.task_done()
    assert got == list(range(5))
    assert wl.pop() is None


def test_chunked_fifo_rejects_bad_chunk_size():
    with pytest.raises(ValueError):
        ChunkedFifo(workers=1, chunk_size=0)


def test_quiescence_all_counters_zero():
    token = QuiescenceToken()
    assert token.quiesce() is True


def test_quiescence_blocks_on_in_flight_item():
    for wl in (SharedBag(), PerThreadBag(), ChunkedFifo(), BucketQueue()):
        wl.push((0, 0))
        wl.seal_pending()
        assert wl.pop() == (0, 0)  # popped but still processing
        assert wl.pop() is None
        assert wl.quiescent() is False
        wl.task_done()
        assert wl.quiescent() is True


def test_quiescence_blocks_on_pending_item():
    token = QuiescenceToken()
    token.note_push()
    assert token.quiesce() is False


@pytest.mark.parametrize("factory", [
    lambda: SharedBag(8),
    lambda: PerThreadBag(8),
    lambda: ChunkedFifo(8, chunk_size=4),
    lambda: BucketQueue(8, num_buckets=16, delta=2),
])
def test_no_worker_exits_while_items_remain(factory):
    # 8 workers over a cascade: every popped token below the threshold
    # pushes two children.  All pushed items must be drained exactly.
    wl = factory()
    wl.push_all([(1, 0)])
    wl.seal_pending()
    counter_lock = threading.Lock()
    processed = [0]

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

    pool = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    # Nodes 1..127 of the implicit binary tree are each seen once.
    assert processed[0] == 127
    assert wl.pop() is None
    assert wl.quiescent()


@pytest.mark.parametrize("factory", [
    lambda: SharedBag(8),
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
    wl.seal_pending()
    counter_lock = threading.Lock()
    processed = [0]
    stop = threading.Event()

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
    assert processed[0] == 2047
    assert wl.token.outstanding == 0
