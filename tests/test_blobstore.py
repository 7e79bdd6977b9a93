"""Object store emulator: durability, metrics exactness, operation logs, replay."""

import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faaslab.blobstore import Blobstore, StoreMetrics, StoreProfile, VirtualClock, replay
from faaslab.errors import NotFound, RangeError
from faaslab.perfmodel import ComputeProfile, shuffle_latency_model, vm_exchange_latency_model

INF = math.inf


def unshaped():
    return StoreProfile(0.0, INF, INF, INF)


def make_store(profile=None, **kwargs):
    return Blobstore(profile or unshaped(), **kwargs)


# --- profile invariants -----------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(req_latency=-1, conn_bandwidth=1, aggregate_bandwidth=1, ops_rate_cap=1),
        dict(req_latency=0, conn_bandwidth=0, aggregate_bandwidth=1, ops_rate_cap=1),
        dict(req_latency=0, conn_bandwidth=2, aggregate_bandwidth=1, ops_rate_cap=1),
        dict(req_latency=0, conn_bandwidth=1, aggregate_bandwidth=1, ops_rate_cap=0),
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
    store.put_object("a", b"")
    assert store.peek_prefix("a") == [("a", 0)]
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


# --- replay: closed forms ---------------------------------------------------------

def io(nbytes, conn=INF):
    return ("io", nbytes, conn)


def task_log(store, requests):
    """The operation log one task leaves by running `requests` on the store."""
    store.ops = []
    requests(store)
    log, store.ops = store.ops, None
    return log


def test_requests_append_to_the_running_task_log():
    store = make_store(StoreProfile(0.0, 4e6, 8e6, INF))
    store.seed_object("a", b"0123456789")
    session = store.session(conn_bandwidth=2e6)
    log = task_log(store, lambda s: (s.put_object("b", b"xyz"), session.get_object("a", (2, 6))))
    assert log == [io(3, 4e6), io(4, 2e6)]
    # outside a task, requests log nothing and take no time
    store.get_object("a")
    assert store.ops is None
    assert store.clock.now() == 0.0

def test_shaped_put_duration_closed_form():
    # 30 MB at 30 MB/s, no latency: 1.0 s
    profile = StoreProfile(0.0, 30e6, INF, INF)
    log = task_log(make_store(profile), lambda s: s.put_object("big", b"\x00" * 30_000_000))
    assert replay([log], profile) == [pytest.approx(1.0, rel=1e-12)]

def test_request_latency_floor():
    profile = StoreProfile(0.05, INF, INF, INF)
    log = task_log(make_store(profile), lambda s: [s.put_object(f"k{i}", b"x") for i in range(4)])
    (elapsed,) = replay([log], profile)
    assert elapsed >= 0.2 * 0.95
    assert elapsed == pytest.approx(0.2, rel=1e-12)

def test_concurrent_gets_bounded_by_aggregate():
    # 64 x 1 MB with A = b = 32 MB/s: total bytes / A = 2.0 s
    profile = StoreProfile(0.0, 32e6, 32e6, INF)
    finishes = replay([[io(1_000_000, 32e6)]] * 64, profile)
    assert min(finishes) >= 2.0 * (1 - 1e-12)
    assert max(finishes) == pytest.approx(2.0, rel=1e-12)

def test_ops_rate_soundness_windows():
    rate = 200.0
    profile = StoreProfile(0.0, INF, INF, rate)
    # one request per task: each finish is that request's grant
    stamps = sorted(replay([[io(0)]] * 180, profile))
    window = 0.3
    limit = rate * window * 1.1 + 1  # +1 for the grant at the window's start
    i = 0
    for j in range(len(stamps)):
        while stamps[j] - stamps[i] > window:
            i += 1
        assert j - i + 1 <= limit
    # three workers of 60 back-to-back requests need the same 180 grants
    assert max(replay([[io(0)] * 60] * 3, profile)) == pytest.approx(179 / rate)


# --- replay: sharing ------------------------------------------------------------------

def test_equal_workers_finish_together_under_aggregate_cap():
    # 8 x 2 MB on a 64 MB/s store: every PUT gets 8 MB/s and ends at 0.25 s
    profile = StoreProfile(0.0, 32e6, 64e6, INF)
    finishes = replay([[io(2_000_000, 32e6)]] * 8, profile)
    assert len(set(finishes)) == 1
    assert finishes[0] == pytest.approx(0.25, rel=1e-12)

def test_ops_capped_workers_spread_below_w_over_r():
    # 8 equal workers of 20 requests at 200 requests/s
    w, rate = 8, 200.0
    profile = StoreProfile(0.002, 32e6, 256e6, rate)
    finishes = replay([[io(1000, 32e6)] * 20] * w, profile)
    assert max(finishes) - min(finishes) < w / rate
    assert max(finishes) >= (20 * w - 1) / rate

def test_waiting_request_holds_its_share():
    # the second request is issued at 0.5 s and waits on its latency
    # until 1.5 s, yet halves the first one's share from its issue on:
    # the first moves 0.25 MB by 1.5 s, 0.5 MB more by 2.5 s, then the
    # last 0.25 MB alone
    profile = StoreProfile(1.0, 1e6, 1e6, INF)
    first, second = replay([[io(1_000_000, 1e6)], [("cpu", 0.5), io(500_000, 1e6)]], profile)
    assert second == pytest.approx(2.5, rel=1e-12)
    assert first == pytest.approx(2.75, rel=1e-12)


COMPUTE = ComputeProfile(0.4, 2.0, 24e6, 48e6, 3.0, 96e6, 40e6)


@pytest.mark.parametrize("w", [1, 8, 32])
@pytest.mark.parametrize(
    "profile",
    [
        StoreProfile(0.002, 32e6, 2e9, 1e6),
        StoreProfile(0.002, 64e6, 64e6, 1e6),
        StoreProfile(0.05, 1e12, 1e13, INF),
    ],
    ids=["conn-bound", "aggregate-bound", "latency-bound"],
)
def test_replay_of_uniform_logs_is_the_model(profile, w):
    S, n_in = 96e6, 2 * w
    share = S / w
    model = shuffle_latency_model(S, w, n_in, profile, COMPUTE)
    conn = profile.conn_bandwidth
    phases = {
        "input_read": [[io(S / n_in, conn)] * (n_in // w)] * w,
        "sort_compute": [[("cpu", share / COMPUTE.fn_sort_rate)]] * w,
        "partition_write": [[io(share / w, conn)] * w] * w,
    }
    for phase, logs in phases.items():
        finishes = replay(logs, profile)
        assert max(finishes) == pytest.approx(getattr(model, phase), rel=1e-12, abs=0), phase
    vm = vm_exchange_latency_model(S, n_in, w, profile, COMPUTE)
    (vm_read,) = replay([[io(S / n_in, COMPUTE.vm_bandwidth)] * n_in], profile)
    assert vm_read == pytest.approx(vm.input_read, rel=1e-12, abs=0)


_op = st.one_of(
    st.tuples(st.just("cpu"), st.floats(0.0, 0.5)),
    st.tuples(
        st.just("io"),
        st.integers(0, 2_000_000),
        st.sampled_from([1e6, 8e6, 32e6, INF]),
    ),
)


@settings(deadline=None, max_examples=200)
@given(
    logs=st.lists(st.lists(_op, max_size=8), min_size=1, max_size=6),
    latency=st.floats(0.0, 0.01),
    aggregate=st.sampled_from([1e6, 4e6, 64e6, INF]),
    rate=st.sampled_from([10.0, 200.0, 1e4, INF]),
    start=st.floats(0.0, 100.0),
)
def test_replay_respects_every_limit(logs, latency, aggregate, rate, start):
    profile = StoreProfile(latency, 1e6, aggregate, rate)
    finishes = replay(logs, profile, start)
    assert finishes == replay([list(log) for log in logs], profile, start)
    slack = 1e-9
    requests = [op for log in logs for op in log if op[0] == "io"]
    for log, finish in zip(logs, finishes):
        alone = sum(latency + op[1] / op[2] if op[0] == "io" else op[1] for op in log)
        assert finish >= start + alone - slack * (1 + start + alone)
    last = max(finishes)
    if requests:
        moved = sum(op[1] for op in requests) / aggregate
        assert last >= start + moved - slack * (1 + start + moved)
        assert last >= start + (len(requests) - 1) / rate - slack * (1 + start)


# --- virtual clock ------------------------------------------------------------------

def test_virtual_timings_deterministic():
    def run():
        profile = StoreProfile(0.001, 10e6, 40e6, 100.0)
        store = Blobstore(profile, clock=VirtualClock())
        sessions = [store.session() for _ in range(4)]
        logs = [
            task_log(store, lambda s, i=i, session=session: (
                session.put_object(f"k{i}", b"\x00" * 500_000), session.get_object(f"k{i}")
            ))
            for i, session in enumerate(sessions)
        ]
        return replay(logs, profile)

    assert run() == run()

def test_virtual_put_matches_closed_form():
    profile = StoreProfile(0.5, 10e6, INF, INF)
    log = task_log(Blobstore(profile), lambda s: s.put_object("a", b"\x00" * 10_000_000))
    # latency + size/bandwidth
    assert replay([log], profile) == [pytest.approx(1.5, rel=1e-9)]

def test_virtual_request_cap_spacing():
    profile = StoreProfile(0.0, INF, INF, 10.0)
    log = task_log(Blobstore(profile), lambda s: [s.put_object(f"k{i}", b"") for i in range(21)])
    # 21 requests at 10/s: the last token is granted at 2.0s
    assert replay([log], profile) == [pytest.approx(2.0, rel=1e-9)]

def test_virtual_no_idle_credit_after_reset():
    profile = StoreProfile(0.0, 1e6, 1e6, INF)
    assert replay([[io(1_000_000, 1e6)]], profile) == [pytest.approx(1.0)]
    # a phase replayed later starts with no credit from the idle time
    assert replay([[io(1_000_000, 1e6)]], profile, start=10.0) == [pytest.approx(11.0)]
    # nor does idle time inside a task bank a burst
    assert replay([[io(1_000_000, 1e6), ("cpu", 9.0), io(1_000_000, 1e6)]], profile) == [
        pytest.approx(11.0)
    ]
