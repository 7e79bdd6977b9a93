"""In-process object store emulator and the replay that times it.

Stands in for a cloud object store with four limits: per-request
latency, per-connection bandwidth, aggregate bandwidth across
connections, and a global operations-per-second cap. The store keeps
its objects in one in-process dict, moves bytes without taking any
time, and appends every request to one ledger, from which
`StoreMetrics.of` reads every count. `replay` computes a phase's
timeline from its tasks' ledger slices with one pure function, so
identical logs give bit-identical timings, whatever the host's cores.
No clock advances: `VirtualClock` and the store's `clock` and `bucket`
parameters stay only because perfbench passes them.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass, fields

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

    def __add__(self, other: "StoreMetrics") -> "StoreMetrics":
        return StoreMetrics(*(getattr(self, k) + getattr(other, k) for k in _COUNTERS))

    @staticmethod
    def of(entries) -> "StoreMetrics":
        """The requests among request-ledger `entries`, counted by verb.

        ("cpu", seconds) entries are compute, not requests: they are
        tallied apart and dropped. No request lists, so `list_count` is
        always 0.
        """
        counts = dict.fromkeys(("get", "put", "delete", "cpu"), 0)
        sizes = dict(counts)
        for verb, size, *_ in entries:
            counts[verb] += 1
            sizes[verb] += size
        return StoreMetrics(put_count=counts["put"], get_count=counts["get"], delete_count=counts["delete"],
                            bytes_in=sizes["put"], bytes_out=sizes["get"])

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


def replay(logs: list[list[tuple]], profile: StoreProfile) -> list[float]:
    """Finish time of each task of one phase, replayed from its operation log.

    Times count from the phase's start. A task's log is its slice of the
    store's request ledger. Every task starts at 0 and runs its entries
    in order: ("cpu", seconds) holds the task for that long; any other
    entry, (verb, nbytes, conn_bandwidth), is one request, in flight from
    issue to completion. Request tokens are granted first come, first
    served in issue order (ties to the lower task index): the n-th grant
    of the phase comes at max(issue, (n-1)/ops_rate_cap). Request
    latency runs from issue and overlaps the token wait; bytes flow once
    both have passed. The requests in flight share the aggregate
    bandwidth max-min fairly, each capped by its connection, and a
    request still waiting on its latency or token holds its share
    without using it. Pure and deterministic: equal logs give equal
    finish times.
    """
    latency, rate_cap = profile.req_latency, profile.ops_rate_cap
    finish = [0.0] * len(logs)
    position = [0] * len(logs)
    due = {i: 0.0 for i in range(len(logs))}  # task -> when its next operation starts
    flows: dict[int, list[float]] = {}  # task -> [ready, bytes left, connection cap, share]
    granted = 0
    t = 0.0
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
            token = granted / rate_cap
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

    Requests take no time here. Under the lock, every GET, PUT and
    DELETE appends ("get" | "put" | "delete", nbytes, conn_bandwidth) to
    `ledger`, and `charge` appends a task's ("cpu", seconds). The
    engine runs one task at a time, so a task's ledger slice is the
    operation log `replay` times. `clock` and `bucket` are kept only for
    perfbench: nothing advances the clock, and `bucket` only labels it.
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
        self.ledger: list[tuple] = []
        self._objects: dict[str, bytes] = {}
        self._lock = threading.Lock()
        self._default_session = self.session()

    def session(self, conn_bandwidth: float | None = None) -> Session:
        return Session(self, conn_bandwidth or self.profile.conn_bandwidth)

    def charge(self, seconds: float) -> None:
        """Log compute time of the running task as a ("cpu", seconds) entry."""
        with self._lock:
            self.ledger.append(("cpu", seconds))

    # -- operations ----------------------------------------------------------

    def _put(self, session: Session, key: str, payload: bytes) -> None:
        if not key:
            raise ValueError("object key must be non-empty")
        with self._lock:
            self._objects[key] = payload
            self.ledger.append(("put", len(payload), session.conn_bandwidth))

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
            self.ledger.append(("get", len(payload), session.conn_bandwidth))
        return payload

    def put_object(self, key: str, payload: bytes) -> None:
        self._put(self._default_session, key, payload)

    def get_object(self, key: str, byte_range: tuple[int, int] | None = None) -> bytes:
        return self._get(self._default_session, key, byte_range)

    def peek_prefix(self, prefix: str) -> list[tuple[str, int]]:
        """All (key, size) pairs under the prefix, in key order; not a
        request, so it logs nothing. For setup, cleanup and inspection."""
        with self._lock:
            keys = sorted(k for k in self._objects if k.startswith(prefix))
            return [(k, len(self._objects[k])) for k in keys]

    def delete_object(self, key: str) -> None:
        with self._lock:
            try:
                del self._objects[key]
            except KeyError:
                raise NotFound(f"no object {key!r}") from None
            self.ledger.append(("delete", 0, self.profile.conn_bandwidth))

    def seed_object(self, key: str, payload: bytes) -> None:
        """Load an object without a ledger entry; for run setup only."""
        with self._lock:
            self._objects[key] = payload

    def store_metrics(self) -> StoreMetrics:
        """Every request the store has served, counted from its ledger."""
        with self._lock:
            return StoreMetrics.of(self.ledger)
