"""Object store emulator: durability, metrics exactness, shaping."""

import math
import random
import threading
import time

import pytest

from faaslab.blobstore import (
    Blobstore,
    RateMeter,
    StoreMetrics,
    StoreProfile,
    VirtualClock,
    WallClock,
)
from faaslab.errors import NotFound, RangeError

INF = math.inf


def unshaped(backing="memory"):
    return StoreProfile(0.0, INF, INF, INF, backing=backing)


def make_store(profile=None, clock=None, **kwargs):
    return Blobstore(profile or unshaped(), clock=clock or WallClock(), **kwargs)


# --- profile invariants -----------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(req_latency=-1, conn_bandwidth=1, aggregate_bandwidth=1, ops_rate_cap=1),
        dict(req_latency=0, conn_bandwidth=0, aggregate_bandwidth=1, ops_rate_cap=1),
        dict(req_latency=0, conn_bandwidth=2, aggregate_bandwidth=1, ops_rate_cap=1),
        dict(req_latency=0, conn_bandwidth=1, aggregate_bandwidth=1, ops_rate_cap=0),
        dict(req_latency=0, conn_bandwidth=1, aggregate_bandwidth=1, ops_rate_cap=1, backing="nfs:x"),
    ],
)
def test_profile_invariants_rejected(kwargs):
    with pytest.raises(ValueError):
        StoreProfile(**kwargs)


# --- basic operations ----------------------------------------------------------

def test_put_get_round_trip():
    store = make_store()
    store.put_object("a", b"hello")
    assert store.get_object("a") == b"hello"

def test_empty_object():
    store = make_store()
    receipt = store.put_object("a", b"")
    assert receipt.size == 0
    assert store.get_object("a") == b""

def test_overwrite_last_write_wins():
    store = make_store()
    store.put_object("a", b"one")
    store.put_object("a", b"two")
    assert store.get_object("a") == b"two"
    assert store.store_metrics().put_count == 2

def test_get_missing_key():
    with pytest.raises(NotFound):
        make_store().get_object("nope")

def test_empty_key_rejected():
    with pytest.raises(ValueError):
        make_store().put_object("", b"x")

def test_range_get():
    store = make_store()
    store.put_object("a", b"0123456789")
    assert store.get_object("a", (2, 5)) == b"234"
    assert store.get_object("a", (0, 0)) == b""

def test_range_beyond_length_is_error():
    store = make_store()
    store.put_object("a", b"12345")
    with pytest.raises(RangeError):
        store.get_object("a", (0, 10))

def test_empty_range_of_empty_object_ok():
    store = make_store()
    store.put_object("a", b"")
    assert store.get_object("a", (0, 0)) == b""

def test_list_prefix_ordering():
    store = make_store()
    for key in ("p/2", "q/1", "p/1"):
        store.put_object(key, b"x")
    assert [k for k, _ in store.list_prefix("p/")] == ["p/1", "p/2"]
    assert store.list_prefix("nothing/") == []

def test_delete():
    store = make_store()
    store.put_object("a", b"x")
    store.delete_object("a")
    with pytest.raises(NotFound):
        store.get_object("a")
    assert store.store_metrics().delete_count == 1


# --- metrics exactness -----------------------------------------------------------

def test_fresh_store_metrics_zero():
    assert make_store().store_metrics() == StoreMetrics()

def test_metrics_counts_exact():
    store = make_store()
    for i in range(3):
        store.put_object(f"k{i}", b"abc")
    store.get_object("k0")
    store.get_object("k1")
    metrics = store.store_metrics()
    assert metrics.put_count == 3
    assert metrics.get_count == 2
    assert metrics.bytes_in == 9
    assert metrics.bytes_out == 6

def test_bytes_out_counts_range_length():
    store = make_store()
    store.put_object("a", b"0123456789")
    store.get_object("a", (0, 4))
    assert store.store_metrics().bytes_out == 4

def test_seeding_not_counted():
    store = make_store()
    store.seed_object("a", b"x" * 100)
    assert store.store_metrics() == StoreMetrics()
    assert store.get_object("a") == b"x" * 100


# --- disk backing -----------------------------------------------------------------

def test_disk_backing_round_trip(tmp_path):
    store = make_store(unshaped(backing=f"disk:{tmp_path}"), bucket="bkt")
    store.put_object("raw/weird key/π", b"payload")
    assert store.get_object("raw/weird key/π") == b"payload"
    assert store.list_prefix("raw/") == [("raw/weird key/π", 7)]
    # a new instance over the same root sees the object
    again = make_store(unshaped(backing=f"disk:{tmp_path}"), bucket="bkt")
    assert again.get_object("raw/weird key/π") == b"payload"
    again.delete_object("raw/weird key/π")
    assert again.list_prefix("") == []

def test_disk_layout_one_file_per_object(tmp_path):
    store = make_store(unshaped(backing=f"disk:{tmp_path}"), bucket="bkt")
    store.put_object("a/b", b"z")
    files = list((tmp_path / "bkt").iterdir())
    assert len(files) == 1
    assert files[0].name == "a%2Fb"


# --- durability under concurrency ---------------------------------------------------

def test_concurrent_read_after_write():
    store = make_store()
    errors = []

    def writer(i):
        for j in range(50):
            store.put_object(f"k{i}", f"{i}:{j}".encode())

    def reader(i):
        for _ in range(50):
            try:
                value = store.get_object(f"k{i}")
                if not value.startswith(f"{i}:".encode()):
                    errors.append(value)
            except NotFound:
                pass

    threads = [threading.Thread(target=fn, args=(i,)) for i in range(4) for fn in (writer, reader)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


# --- wall-clock shaping ----------------------------------------------------------------

def test_shaped_put_duration_closed_form():
    # 30 MB at 30 MB/s, no latency: 1.0 s within the 10% shaping tolerance
    profile = StoreProfile(0.0, 30e6, INF, INF)
    store = make_store(profile)
    payload = b"\x00" * 30_000_000
    t0 = time.monotonic()
    store.put_object("big", payload)
    elapsed = time.monotonic() - t0
    assert 0.9 <= elapsed <= 1.25

def test_request_latency_floor():
    profile = StoreProfile(0.05, INF, INF, INF)
    store = make_store(profile)
    t0 = time.monotonic()
    for i in range(4):
        store.put_object(f"k{i}", b"x")
    elapsed = time.monotonic() - t0
    assert elapsed >= 0.2 * 0.95

def test_concurrent_gets_bounded_by_aggregate():
    # 64 x 1 MB with A = b = 32 MB/s: total bytes / A = 2.0 s floor
    profile = StoreProfile(0.0, 32e6, 32e6, INF)
    store = make_store(profile)
    store.seed_object("obj", b"\x00" * 1_000_000)
    results = []

    def fetch():
        session = store.session()
        session.get_object("obj")
        results.append(time.monotonic())

    threads = [threading.Thread(target=fetch) for _ in range(64)]
    t0 = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = max(results) - t0
    assert elapsed >= 2.0 * 0.97
    assert elapsed <= 3.5

def test_ops_rate_soundness_windows():
    rate = 200.0
    profile = StoreProfile(0.0, INF, INF, rate)
    store = make_store(profile)
    done = []

    def hammer(n):
        for _ in range(n):
            store.put_object("k", b"")
            done.append(time.monotonic())

    threads = [threading.Thread(target=hammer, args=(60,)) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stamps = sorted(done)
    window = 0.3
    limit = rate * window * 1.1 + 1  # +1 for the burst token
    i = 0
    for j in range(len(stamps)):
        while stamps[j] - stamps[i] > window:
            i += 1
        assert j - i + 1 <= limit

def test_aggregate_bytes_soundness_windows():
    rate = 8e6
    profile = StoreProfile(0.0, rate, rate, INF)
    store = make_store(profile, chunk_bytes=1 << 16)
    store.seed_object("obj", b"\x00" * 200_000)
    done = []

    def hammer(n):
        session = store.session()
        for _ in range(n):
            session.get_object("obj")
            done.append((time.monotonic(), 200_000))

    threads = [threading.Thread(target=hammer, args=(20,)) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    events = sorted(done)
    window = 0.5
    limit = rate * window * 1.1 + (1 << 16)
    for j in range(len(events)):
        total = 0
        for i in range(j, -1, -1):
            if events[j][0] - events[i][0] > window:
                break
            total += events[i][1]
        assert total <= limit

def test_wall_shaping_banks_no_burst():
    # 1 MB at 4 MB/s takes 0.25 s on a fresh store and after an idle gap
    # alike: neither a new connection nor idle time grants a burst
    store = make_store(StoreProfile(0.0, 4e6, 4e6, INF))
    payload = b"\x00" * 1_000_000
    durations = []
    for key in ("a", "b"):
        if durations:
            time.sleep(0.5)
        t0 = time.monotonic()
        store.put_object(key, payload)
        durations.append(time.monotonic() - t0)
    assert min(durations) >= 0.9 * 0.25


# --- rate meter -------------------------------------------------------------------

@pytest.mark.parametrize("pipe", [True, False])
def test_meter_restarts_when_idle(pipe):
    meter = RateMeter(10.0, pipe=pipe)
    assert meter.reserve(5.0, now=2.0) == (2.5 if pipe else 2.0)
    # idle since 2.5: the window restarts at 100, no capacity is banked
    assert meter.reserve(5.0, now=100.0) == (100.5 if pipe else 100.0)
    assert meter.reserve(5.0, now=100.0) == (101.0 if pipe else 100.5)

@pytest.mark.parametrize("pipe", [True, False])
def test_meter_now_before_origin_arrives_at_origin(pipe):
    # a wall-clock thread can read the time, then take the lock after a
    # later reader opened the window; its grant must not overlap that one
    meter = RateMeter(10.0, pipe=pipe)
    first = meter.reserve(5.0, now=2.0)
    second = meter.reserve(5.0, now=1.0)
    assert second == pytest.approx(first + 0.5)

def test_meter_carry_idle_moves_origin_back():
    # an earlier worker simulated after a later one uses the capacity
    # before the later one's requests instead of queueing behind them
    meter = RateMeter(10.0, pipe=True, carry_idle=True)
    assert meter.reserve(10.0, now=5.0) == 6.0
    assert meter.reserve(10.0, now=0.0) == 2.0

@pytest.mark.parametrize("pipe", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_meter_carry_idle_out_of_order_within_rate(pipe, seed):
    rng = random.Random(seed)
    rate = 50.0
    meter = RateMeter(rate, pipe=pipe, carry_idle=True)
    calls = [(rng.uniform(0.0, 10.0), rng.choice([1.0, rng.uniform(0.1, 20.0)])) for _ in range(200)]
    grants = []
    for now, amount in calls:
        at = meter.reserve(amount, now)
        assert at >= now
        if pipe:
            assert at >= now + amount / rate
        grants.append((at, amount))
    origin = min(now for now, _ in calls)
    # token semantics return the instant a grant starts, so the grant
    # being made may run past t by its own amount
    slack = 0.0 if pipe else max(amount for _, amount in calls)
    for t, _ in grants:
        granted = sum(amount for at, amount in grants if at <= t)
        assert granted <= rate * (t - origin) * (1 + 1e-12) + slack


# --- virtual clock ------------------------------------------------------------------

def test_virtual_timings_deterministic():
    def run():
        clock = VirtualClock()
        profile = StoreProfile(0.001, 10e6, 40e6, 100.0)
        store = Blobstore(profile, clock=clock)
        stamps = []
        sessions = [store.session() for _ in range(4)]
        for i, session in enumerate(sessions):
            session.put_object(f"k{i}", b"\x00" * 500_000)
            stamps.append(clock.now())
        for i, session in enumerate(sessions):
            session.get_object(f"k{i}")
            stamps.append(clock.now())
        return stamps

    assert run() == run()

def test_virtual_put_matches_closed_form():
    clock = VirtualClock()
    profile = StoreProfile(0.5, 10e6, INF, INF)
    store = Blobstore(profile, clock=clock)
    store.put_object("a", b"\x00" * 10_000_000)
    # latency + size/bandwidth
    assert clock.now() == pytest.approx(1.5, rel=1e-9)

def test_virtual_request_cap_spacing():
    clock = VirtualClock()
    profile = StoreProfile(0.0, INF, INF, 10.0)
    store = Blobstore(profile, clock=clock)
    for i in range(21):
        store.put_object(f"k{i}", b"")
    # 21 requests at 10/s: the last token is granted at 2.0s
    assert clock.now() == pytest.approx(2.0, rel=1e-9)

def test_virtual_no_idle_credit_after_reset():
    clock = VirtualClock()
    profile = StoreProfile(0.0, 1e6, 1e6, INF)
    store = Blobstore(profile, clock=clock)
    store.put_object("a", b"\x00" * 1_000_000)
    assert clock.now() == pytest.approx(1.0)
    clock.seek(10.0)
    store.reset_shaping_window()
    store.put_object("b", b"\x00" * 1_000_000)
    # idle time between windows grants no burst
    assert clock.now() == pytest.approx(11.0)
