"""In-process object store emulator and the replay that times it.

Stands in for a cloud object store with four limits: per-request
latency, per-connection bandwidth, aggregate bandwidth across
connections, and a global operations-per-second cap. The store keeps
its objects in one in-process dict, and moves bytes and counts
requests without taking any time; while a task
runs, each request is appended to the task's operation log. `replay`
then computes a phase's timeline from its tasks' logs with one pure
function, so identical logs give bit-identical timings, whatever the
host's cores. No clock advances: `VirtualClock` and the store's `clock`
and `bucket` parameters stay only because perfbench passes them.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass, fields, replace

from faaslab.errors import NotFound, RangeError

INF = float("inf")


@dataclass(frozen=True)
class StoreProfile:
    """Shaping parameters of the emulated store.

    Rates are bytes/s (bandwidth) and requests/s (ops cap). Infinite
    rates are allowed in code; profile files keep them finite.
    """

    req_latency: float
    conn_bandwidth: float
    aggregate_bandwidth: float
    ops_rate_cap: float

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.req_latency >= 0:
            raise ValueError(f"req_latency must be >= 0, got {self.req_latency}")
        if not self.conn_bandwidth > 0:
            raise ValueError(f"conn_bandwidth must be > 0, got {self.conn_bandwidth}")
        if not self.aggregate_bandwidth >= self.conn_bandwidth:
            raise ValueError(
                "aggregate_bandwidth must be >= conn_bandwidth, got "
                f"{self.aggregate_bandwidth} < {self.conn_bandwidth}"
            )
        if not self.ops_rate_cap > 0:
            raise ValueError(f"ops_rate_cap must be > 0, got {self.ops_rate_cap}")


@dataclass(frozen=True)
class StoreMetrics:
    put_count: int = 0
    get_count: int = 0
    list_count: int = 0
    delete_count: int = 0
    bytes_in: int = 0
    bytes_out: int = 0

    def __sub__(self, other: "StoreMetrics") -> "StoreMetrics":
        return StoreMetrics(*(getattr(self, k) - getattr(other, k) for k in _COUNTERS))

    def __add__(self, other: "StoreMetrics") -> "StoreMetrics":
        return StoreMetrics(*(getattr(self, k) + getattr(other, k) for k in _COUNTERS))

    @staticmethod
    def total(items) -> "StoreMetrics":
        """The counters of `items` summed column by column."""
        return StoreMetrics(*map(sum, zip(*map(_counter_values, items))))

    def as_dict(self) -> dict[str, int]:
        return dict(zip(_COUNTERS, _counter_values(self)))


_COUNTERS = tuple(f.name for f in fields(StoreMetrics))
_counter_values = operator.attrgetter(*_COUNTERS)


class VirtualClock:
    """A clock that stays at its start; kept only for perfbench to read."""

    def __init__(self, start: float = 0.0):
        self._t = start

    def now(self) -> float:
        return self._t


def _fair_shares(caps: list[float], capacity: float) -> list[float]:
    """Max-min fair split of `capacity` among flows capped at `caps`."""
    if capacity == INF:
        return list(caps)
    order = sorted(range(len(caps)), key=caps.__getitem__)
    shares = [0.0] * len(caps)
    left = capacity
    for rank, i in enumerate(order):
        level = left / (len(caps) - rank)
        if caps[i] > level:
            for j in order[rank:]:
                shares[j] = level
            break
        shares[i] = caps[i]
        left -= caps[i]
    return shares


def replay(logs: list[list[tuple]], profile: StoreProfile, start: float = 0.0) -> list[float]:
    """Finish time of each task of one phase, replayed from its operation log.

    Every task starts at `start` and runs its operations in order:
    ("cpu", seconds) holds the task for that long; ("io", nbytes,
    conn_bandwidth) is one request, in flight from issue to completion.
    Request tokens are granted first come, first served in issue order
    (ties to the lower task index): the n-th grant of the phase comes at
    max(issue, start + (n-1)/ops_rate_cap). Request latency runs from
    issue and overlaps the token wait; bytes flow once both have passed.
    The requests in flight share the aggregate bandwidth max-min fairly,
    each capped by its connection, and a request still waiting on its
    latency or token holds its share without using it. Pure and
    deterministic: equal logs give equal finish times.
    """
    latency, rate_cap = profile.req_latency, profile.ops_rate_cap
    finish = [start] * len(logs)
    position = [0] * len(logs)
    due = {i: start for i in range(len(logs))}  # task -> when its next operation starts
    flows: dict[int, list[float]] = {}  # task -> [ready, bytes left, connection cap, share]
    granted = 0
    t = start
    changed = False
    while due or flows:
        for i in sorted(i for i, at in due.items() if at <= t):
            del due[i]
            log = logs[i]
            if position[i] == len(log):
                finish[i] = t
                continue
            op = log[position[i]]
            position[i] += 1
            if op[0] == "cpu":
                due[i] = t + op[1]
                continue
            token = start + granted / rate_cap
            granted += 1
            flows[i] = [max(token, t + latency), op[1], op[2], 0.0]
            changed = True
        if changed:
            shares = _fair_shares([flow[2] for flow in flows.values()], profile.aggregate_bandwidth)
            for flow, share in zip(flows.values(), shares):
                flow[3] = share
            changed = False
        step = min(due.values(), default=INF)
        for ready, left, _, share in flows.values():
            end = ready if ready > t else t + left / share
            if end < step:
                step = end
        for i, flow in list(flows.items()):
            ready, left, _, share = flow
            if ready > t:
                continue
            if t + left / share <= step:
                del flows[i]
                due[i] = step
                changed = True
            else:
                flow[1] = left - share * (step - t)
        t = step
    return finish


class Session:
    """One logical connection to the shared store, with its own bandwidth cap."""

    def __init__(self, store: "Blobstore", conn_bandwidth: float):
        self._store = store
        self.conn_bandwidth = conn_bandwidth

    def put_object(self, key: str, payload: bytes) -> None:
        self._store._put(self, key, payload)

    def get_object(self, key: str, byte_range: tuple[int, int] | None = None) -> bytes:
        return self._store._get(self, key, byte_range)


class Blobstore:
    """Key-to-blob store; all clients are in-process.

    Requests take no time here. While `ops` is a list (the engine sets
    one per running task), every PUT and GET appends its
    ("io", nbytes, conn_bandwidth) entry to it, and `replay` turns the
    logs into time. `clock` and `bucket` are kept only for perfbench:
    nothing advances the clock, and `bucket` only labels the store.
    """

    def __init__(
        self,
        profile: StoreProfile,
        clock: VirtualClock | None = None,
        bucket: str = "data",
    ):
        self.profile = profile
        self.clock = clock if clock is not None else VirtualClock()
        self.bucket = bucket
        self.ops: list[tuple] | None = None
        self._objects: dict[str, bytes] = {}
        self._lock = threading.Lock()
        self._metrics = StoreMetrics()
        self._default_session = self.session()

    def session(self, conn_bandwidth: float | None = None) -> Session:
        return Session(self, conn_bandwidth or self.profile.conn_bandwidth)

    def _log(self, session: Session, nbytes: int) -> None:
        if self.ops is not None:
            self.ops.append(("io", nbytes, session.conn_bandwidth))

    # -- operations ----------------------------------------------------------

    def _put(self, session: Session, key: str, payload: bytes) -> None:
        if not key:
            raise ValueError("object key must be non-empty")
        self._log(session, len(payload))
        with self._lock:
            self._objects[key] = payload
            self._metrics = replace(
                self._metrics,
                put_count=self._metrics.put_count + 1,
                bytes_in=self._metrics.bytes_in + len(payload),
            )

    def _get(self, session: Session, key: str, byte_range: tuple[int, int] | None) -> bytes:
        with self._lock:
            try:
                payload = self._objects[key]
            except KeyError:
                raise NotFound(f"no object {key!r}") from None
        if byte_range is not None:
            lo, hi = byte_range
            if lo < 0 or hi < lo or hi > len(payload):
                raise RangeError(
                    f"range [{lo}, {hi}) invalid for object {key!r} of {len(payload)} bytes"
                )
            payload = payload[lo:hi]
        self._log(session, len(payload))
        with self._lock:
            self._metrics = replace(
                self._metrics,
                get_count=self._metrics.get_count + 1,
                bytes_out=self._metrics.bytes_out + len(payload),
            )
        return payload

    def put_object(self, key: str, payload: bytes) -> None:
        self._put(self._default_session, key, payload)

    def get_object(self, key: str, byte_range: tuple[int, int] | None = None) -> bytes:
        return self._get(self._default_session, key, byte_range)

    def list_prefix(self, prefix: str) -> list[tuple[str, int]]:
        """All (key, size) pairs under the prefix, lexicographically ordered."""
        result = self.peek_prefix(prefix)
        with self._lock:
            self._metrics = replace(self._metrics, list_count=self._metrics.list_count + 1)
        return result

    def peek_prefix(self, prefix: str) -> list[tuple[str, int]]:
        """list_prefix without metrics; for run setup and inspection only."""
        with self._lock:
            keys = sorted(k for k in self._objects if k.startswith(prefix))
            return [(k, len(self._objects[k])) for k in keys]

    def delete_object(self, key: str) -> None:
        with self._lock:
            try:
                del self._objects[key]
            except KeyError:
                raise NotFound(f"no object {key!r}") from None
            self._metrics = replace(
                self._metrics, delete_count=self._metrics.delete_count + 1
            )

    def seed_object(self, key: str, payload: bytes) -> None:
        """Load an object without logging or metrics; for run setup only."""
        with self._lock:
            self._objects[key] = payload

    def store_metrics(self) -> StoreMetrics:
        with self._lock:
            return self._metrics
