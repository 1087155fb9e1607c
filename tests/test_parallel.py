"""The fork pool behind ``threads``: how many workers it starts, and that
packing on it gives the plan of the serial path and leaves no process."""

import itertools
import multiprocessing

import numpy as np
import pytest

from balancepack import packing, parallel
from balancepack.packing import Items, PackingConfig, emit_plan, pack, source_codes


@pytest.mark.parametrize("cores", [1, 2, 3, 64, None])
def test_workers_never_exceed_the_tasks_or_the_cores(monkeypatch, cores):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cores)
    limit = cores or 1
    assert parallel.workers(10**6, 8) == min(8, limit)
    assert parallel.workers(8, 10**5) == min(8, limit)
    assert parallel.workers(1, 10**5) == 1
    assert parallel.workers(10**6, 1) == 1
    assert parallel.workers(4, 0) == 1


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_are_refused(threads):
    with pytest.raises(ValueError, match=f"^threads must be >= 1, got {threads}$"):
        parallel.workers(threads, 8)
    with pytest.raises(ValueError, match=f"^threads must be >= 1, got {threads}$"):
        pack([], PackingConfig(shards=8), threads=threads)


class FakeContext:
    """A ``fork`` context whose pools run their tasks in this process and
    record how many workers they were asked for."""

    def __init__(self):
        self.asked = []

    def Pool(self, count):  # noqa: N802 - multiprocessing's name
        self.asked.append(count)
        return FakePool()


class FakePool:
    def imap(self, fn, tasks, chunksize):
        assert chunksize == 1
        return map(fn, tasks)

    def close(self):
        pass

    def terminate(self):
        pass

    def join(self):
        pass


def items_of(rng, n, num_sources=5):
    ids = [f"d{j:06d}" for j in range(n)]
    sources = [f"s{c}" for c in rng.integers(0, num_sources, n)]
    return Items(ids, rng.integers(1, 900, n).astype(np.int64), *source_codes(sources))


@pytest.mark.parametrize("cores", [1, 2, 64])
def test_a_pool_over_many_shards_asks_for_no_more_than_the_cores(monkeypatch, cores):
    context = FakeContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: context)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cores)
    items = items_of(np.random.default_rng(3), 2000)
    cfg = PackingConfig(capacity=4096, shards=10**5, seed=3, max_sources_per_pack=2)
    plan = pack(items, cfg, threads=8)
    assert context.asked == ([] if cores == 1 else [min(8, cores)])
    serial = pack(items, cfg)
    assert plan.bounds.tolist() == serial.bounds.tolist()
    assert plan.packed.ids == serial.packed.ids
    # Three items over many shards: no more workers than the shards that hold items.
    context.asked.clear()
    pack(items.take(np.arange(3)), cfg, threads=10**6)
    assert context.asked == ([] if cores == 1 else [min(3, cores)])


CAPS = list(itertools.product((None, 5), (None, 2)))


@pytest.mark.parametrize("max_samples, max_sources", CAPS)
def test_pack_on_worker_processes_gives_the_serial_plan(
    tmp_path, monkeypatch, max_samples, max_sources
):
    # Three cores, so that the pool starts on any host and 8 threads get 3 workers.
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
    started = []
    real = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda m: started.append(m) or real(m))
    items = items_of(np.random.default_rng(5), 3000)
    cfg = PackingConfig(
        capacity=2048,
        shards=8,
        seed=7,
        max_samples_per_pack=max_samples,
        max_sources_per_pack=max_sources,
    )
    written = []
    for threads in (1, 2, 8):
        plan = pack(items, cfg, threads=threads)
        assert multiprocessing.active_children() == []
        path = tmp_path / f"plan-{threads}.jsonl"
        emit_plan(plan, path, cfg)
        written.append((plan, path.read_bytes()))
    assert started == ["fork", "fork"]
    (want, want_bytes), *others = written
    for plan, plan_bytes in others:
        assert plan.packed.ids == want.packed.ids
        assert plan.packed.length.tolist() == want.packed.length.tolist()
        assert plan.packed.source.tolist() == want.packed.source.tolist()
        assert plan.bounds.tolist() == want.bounds.tolist()
        assert plan.overflowed.ids == want.overflowed.ids
        assert plan_bytes == want_bytes


def test_a_failing_task_reaps_every_worker():
    with pytest.raises(ZeroDivisionError):
        parallel.starmap(divmod, [(1, 1), (1, 0), (2, 1)], 2)
    assert multiprocessing.active_children() == []
    tasks = ((n, 4) for n in range(7, 12))  # read lazily, in order
    assert parallel.starmap(divmod, tasks, 2) == [divmod(n, 4) for n in range(7, 12)]
    assert multiprocessing.active_children() == []


def test_one_shard_stays_in_this_process(monkeypatch):
    monkeypatch.setattr(
        multiprocessing, "get_context", lambda method: pytest.fail("a pool was started")
    )
    items = items_of(np.random.default_rng(9), 500)
    pack(items, PackingConfig(capacity=2048), threads=8)
    pack(items, PackingConfig(capacity=2048, strategy="ffd", shards=8), threads=8)
    packing.pack_bucketed(items, PackingConfig(capacity=2048, shards=8))
