"""Bounded module memos filled from many threads at once.

``repro serve`` runs several runner-slot threads in one process, and
every kernel call and cache probe goes through two FIFO-bounded
memos: the shared layer-table lowering (``vectorized._SHARED_MEMO``)
and the cache-key memo (``batch._KEY_MEMO``).  Each trial drives eight
threads past a memo's capacity under a tiny GIL switch interval, so
their check-evict-insert steps interleave.  No thread may raise, the
memo must stay within its bound, and every value a thread gets back
must be the one a serial call computes.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import batch, vectorized
from repro.core.layer import ConvLayer

THREADS = 8
TRIALS = 4
#: Distinct keys per thread; several times the shrunk memo limits
#: below, so every thread evicts over and over.
KEYS = 96


def _race(work) -> list:
    """Run ``work(k)`` on every thread; each thread's error or None."""
    errors: list = [None] * THREADS
    barrier = threading.Barrier(THREADS, timeout=60)

    def body(k: int) -> None:
        try:
            barrier.wait()
            work(k)
        except Exception as exc:  # reported, not lost with the thread
            errors[k] = repr(exc)

    threads = [
        threading.Thread(target=body, args=(k,), daemon=True)
        for k in range(THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


def _table(k: int, i: int) -> list[ConvLayer]:
    """A one-layer table whose shape key is unique per (thread, i)."""
    return [ConvLayer(name="t", c=1 + k, k=1 + i, r=1, s=1, h=4, w=4)]


def test_shared_lower_memo_under_threads(monkeypatch):
    monkeypatch.setattr(vectorized, "_SHARED_MEMO", {})
    limit = vectorized._SHARED_MEMO_LIMIT
    for _ in range(TRIALS):
        vectorized._SHARED_MEMO.clear()
        got: dict = {}

        def work(k: int) -> None:
            for i in range(KEYS):
                shared = vectorized._shared_lower(_table(k, i))
                got[(k, i)] = shared.ints.tolist()

        assert _race(work) == [None] * THREADS
        assert len(vectorized._SHARED_MEMO) <= limit
        for (k, i), ints in got.items():
            assert ints == [[1 + k, 1 + i, 1, 1, 4, 4, 1, 1, 1]]


def test_cache_key_memo_under_threads(monkeypatch):
    monkeypatch.setattr(batch, "_KEY_MEMO", {})
    monkeypatch.setattr(batch, "_KEY_MEMO_LIMIT", 32)
    for _ in range(TRIALS):
        batch._KEY_MEMO.clear()
        got: dict = {}

        def work(k: int) -> None:
            for i in range(KEYS):
                (layer,) = _table(k, i)
                got[(k, i)] = batch.layer_cache_key("f" * 64, layer, False)

        assert _race(work) == [None] * THREADS
        assert len(batch._KEY_MEMO) <= batch._KEY_MEMO_LIMIT
        batch._KEY_MEMO.clear()
        for (k, i), key in got.items():
            (layer,) = _table(k, i)
            assert key == batch.layer_cache_key("f" * 64, layer, False)


@pytest.mark.parametrize("limit", [1, 2])
def test_tiny_memo_limits_stay_bounded(monkeypatch, limit):
    """Serial sanity at the smallest bounds: eviction keeps the size."""
    monkeypatch.setattr(vectorized, "_SHARED_MEMO", {})
    monkeypatch.setattr(vectorized, "_SHARED_MEMO_LIMIT", limit)
    for i in range(5):
        vectorized._shared_lower(_table(0, i))
        assert len(vectorized._SHARED_MEMO) <= limit
