"""In-process object store emulator with deterministic traffic shaping.

Stands in for a cloud object store: per-request latency, per-connection
bandwidth, aggregate bandwidth across connections, and a global
operations-per-second cap. Three `RateMeter`s implement the shaping
(one request meter, one aggregate byte meter, one per-connection byte
meter); a request first takes one request token, then streams its bytes
in chunks through both byte meters.

Both timing regimes share that one meter; only the clock differs:

* wall clock: `reserve` schedules against real time and callers sleep;
  an idle meter restarts its window, so no burst is banked and observed
  throughput stays capped over any window;
* virtual clock: `reserve` advances a simulated clock, so identical
  call sequences give bit-identical timings. The shared request and
  aggregate meters carry idle capacity until the engine's phase-barrier
  reset, because concurrent workers are simulated out of time order.
"""

from __future__ import annotations

import errno
import os
import threading
import time
import urllib.parse
from dataclasses import dataclass, replace

from faaslab.errors import CapacityError, NotFound, RangeError

DEFAULT_CHUNK_BYTES = 1 << 20

MEMORY_BACKING = "memory"
DISK_PREFIX = "disk:"


@dataclass(frozen=True)
class StoreProfile:
    """Shaping parameters of the emulated store.

    Rates are bytes/s (bandwidth) and requests/s (ops cap); `backing` is
    "memory" or "disk:<root directory>". Infinite rates are allowed in
    code; profile files keep them finite.
    """

    req_latency: float
    conn_bandwidth: float
    aggregate_bandwidth: float
    ops_rate_cap: float
    backing: str = MEMORY_BACKING

    def __post_init__(self):
        if self.req_latency < 0:
            raise ValueError(f"req_latency must be >= 0, got {self.req_latency}")
        if self.conn_bandwidth <= 0:
            raise ValueError(f"conn_bandwidth must be > 0, got {self.conn_bandwidth}")
        if self.aggregate_bandwidth < self.conn_bandwidth:
            raise ValueError(
                "aggregate_bandwidth must be >= conn_bandwidth, got "
                f"{self.aggregate_bandwidth} < {self.conn_bandwidth}"
            )
        if self.ops_rate_cap <= 0:
            raise ValueError(f"ops_rate_cap must be > 0, got {self.ops_rate_cap}")
        if self.backing != MEMORY_BACKING and not self.backing.startswith(DISK_PREFIX):
            raise ValueError(f"backing must be 'memory' or 'disk:<root>', got {self.backing!r}")


@dataclass(frozen=True)
class StoreMetrics:
    put_count: int = 0
    get_count: int = 0
    list_count: int = 0
    delete_count: int = 0
    bytes_in: int = 0
    bytes_out: int = 0

    def __sub__(self, other: "StoreMetrics") -> "StoreMetrics":
        return StoreMetrics(
            self.put_count - other.put_count,
            self.get_count - other.get_count,
            self.list_count - other.list_count,
            self.delete_count - other.delete_count,
            self.bytes_in - other.bytes_in,
            self.bytes_out - other.bytes_out,
        )

    def __add__(self, other: "StoreMetrics") -> "StoreMetrics":
        return StoreMetrics(
            self.put_count + other.put_count,
            self.get_count + other.get_count,
            self.list_count + other.list_count,
            self.delete_count + other.delete_count,
            self.bytes_in + other.bytes_in,
            self.bytes_out + other.bytes_out,
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "put_count": self.put_count,
            "get_count": self.get_count,
            "list_count": self.list_count,
            "delete_count": self.delete_count,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
        }


class WallClock:
    """Real time: monotonic now, real sleeps."""

    virtual = False

    def now(self) -> float:
        return time.monotonic()

    def sleep_until(self, t: float) -> None:
        delay = t - time.monotonic()
        if delay > 0:
            time.sleep(delay)

    def sleep(self, duration: float) -> None:
        if duration > 0:
            time.sleep(duration)


class VirtualClock:
    """Simulated time: a cursor the caller positions and operations advance."""

    virtual = True

    def __init__(self, start: float = 0.0):
        self._t = start

    def now(self) -> float:
        return self._t

    def sleep_until(self, t: float) -> None:
        if t > self._t:
            self._t = t

    def sleep(self, duration: float) -> None:
        if duration > 0:
            self._t += duration

    def seek(self, t: float) -> None:
        self._t = t


class RateMeter:
    """The one rate limiter, for both clocks: a fluid grant curve.

    Cumulative grants since the window origin stay at or below
    rate * (t - origin). Token semantics (pipe=False) return the grant
    instant; pipe semantics return the transfer completion, which is
    never earlier than now + amount/rate (one client cannot exceed the
    rate by itself).

    A meter restarts its window once it has gone idle, so idle time
    banks no burst; for one owner issuing in time order that is a
    serial pipe. A `now` before the origin (a wall-clock thread that
    read the time before another took the lock) arrives at the origin,
    so it cannot overlap a grant already made.

    With `carry_idle` the meter keeps idle capacity until `reset_window`
    and an earlier `now` moves the origin back instead: the virtual
    clock's shared meters need this, because the sequential simulation
    of concurrent workers presents requests out of time order. The
    engine resets the window at every phase barrier.
    """

    def __init__(self, rate: float, pipe: bool, carry_idle: bool = False):
        self.rate = rate
        self.pipe = pipe
        self.carry_idle = carry_idle
        self._origin: float | None = None
        self._used = 0.0
        self._lock = threading.Lock()

    def reset_window(self, origin: float) -> None:
        with self._lock:
            self._origin = origin
            self._used = 0.0

    def reserve(self, amount: float, now: float) -> float:
        """Consume `amount` at `now`; return when the caller may go on."""
        rate = self.rate
        if rate == float("inf") or amount <= 0:
            return now
        with self._lock:
            origin = self._origin
            if origin is None or (not self.carry_idle and origin + self._used / rate <= now):
                origin = self._origin = now
                self._used = 0.0
            elif now < origin:
                if self.carry_idle:
                    origin = self._origin = now
                else:
                    now = origin
            if self.pipe:
                self._used += amount
                earliest = origin + self._used / rate
                own = now + amount / rate
                return own if own > earliest else earliest
            grant = origin + self._used / rate
            self._used += amount
            return grant if grant > now else now


class Session:
    """One logical connection: its own bandwidth meter, shared store."""

    def __init__(self, store: "Blobstore", conn_bandwidth: float):
        self._store = store
        self.conn_bandwidth = conn_bandwidth
        # a connection has one owner issuing in time order, so it never
        # needs to carry idle capacity
        self._meter = RateMeter(conn_bandwidth, pipe=True)

    def put_object(self, key: str, payload: bytes):
        return self._store._put(self, key, payload)

    def get_object(self, key: str, byte_range: tuple[int, int] | None = None) -> bytes:
        return self._store._get(self, key, byte_range)


@dataclass(frozen=True)
class PutReceipt:
    key: str
    size: int


class _MemoryBacking:
    def __init__(self):
        self._objects: dict[str, bytes] = {}

    def write(self, key: str, payload: bytes) -> None:
        self._objects[key] = payload

    def read(self, key: str) -> bytes:
        return self._objects[key]

    def delete(self, key: str) -> None:
        del self._objects[key]

    def keys(self):
        return self._objects.keys()

    def size(self, key: str) -> int:
        return len(self._objects[key])


class _DiskBacking:
    """One file per object under <root>/<bucket>/<percent-encoded key>."""

    def __init__(self, root: str, bucket: str):
        self._dir = os.path.join(root, bucket)
        os.makedirs(self._dir, exist_ok=True)
        self._sizes: dict[str, int] = {}
        for name in os.listdir(self._dir):
            key = urllib.parse.unquote(name)
            self._sizes[key] = os.path.getsize(os.path.join(self._dir, name))

    def _path(self, key: str) -> str:
        return os.path.join(self._dir, urllib.parse.quote(key, safe=""))

    def write(self, key: str, payload: bytes) -> None:
        try:
            with open(self._path(key), "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            if exc.errno == errno.ENOSPC:
                raise CapacityError(f"disk backing full writing {key!r}") from exc
            raise
        self._sizes[key] = len(payload)

    def read(self, key: str) -> bytes:
        with open(self._path(key), "rb") as fh:
            return fh.read()

    def delete(self, key: str) -> None:
        os.remove(self._path(key))
        del self._sizes[key]

    def keys(self):
        return self._sizes.keys()

    def size(self, key: str) -> int:
        return self._sizes[key]


class Blobstore:
    """Shaped key-to-blob store; all clients are in-process."""

    def __init__(
        self,
        profile: StoreProfile,
        clock: WallClock | VirtualClock | None = None,
        bucket: str = "data",
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ):
        self.profile = profile
        self.clock = clock if clock is not None else WallClock()
        self.bucket = bucket
        self.chunk_bytes = chunk_bytes
        carry_idle = self.clock.virtual
        self._req_meter = RateMeter(profile.ops_rate_cap, pipe=False, carry_idle=carry_idle)
        self._agg_meter = RateMeter(profile.aggregate_bandwidth, pipe=True, carry_idle=carry_idle)
        if profile.backing == MEMORY_BACKING:
            self._backing = _MemoryBacking()
        else:
            self._backing = _DiskBacking(profile.backing[len(DISK_PREFIX) :], bucket)
        self._lock = threading.Lock()
        self._metrics = StoreMetrics()
        self._default_session = self.session()

    def session(self, conn_bandwidth: float | None = None) -> Session:
        return Session(self, conn_bandwidth or self.profile.conn_bandwidth)

    def reset_shaping_window(self) -> None:
        """Start a new shaping window for the shared meters.

        Called by the engine at every phase barrier, so idle capacity
        never carries across phases.
        """
        now = self.clock.now()
        self._req_meter.reset_window(now)
        self._agg_meter.reset_window(now)

    # -- shaping -----------------------------------------------------------

    def _shape(self, session: Session, nbytes: int) -> None:
        clock = self.clock
        now = clock.now()
        token_at = self._req_meter.reserve(1.0, now)
        # request latency runs from issue and overlaps any wait on the
        # ops cap; bytes flow once both have passed
        latency_done = now + self.profile.req_latency
        clock.sleep_until(token_at if token_at > latency_done else latency_done)
        remaining = nbytes
        while remaining > 0:
            chunk = remaining if remaining < self.chunk_bytes else self.chunk_bytes
            now = clock.now()
            ready = session._meter.reserve(chunk, now)
            ready_agg = self._agg_meter.reserve(chunk, now)
            clock.sleep_until(ready_agg if ready_agg > ready else ready)
            remaining -= chunk

    # -- operations ----------------------------------------------------------

    def _put(self, session: Session, key: str, payload: bytes) -> PutReceipt:
        if not key:
            raise ValueError("object key must be non-empty")
        self._shape(session, len(payload))
        with self._lock:
            self._backing.write(key, payload)
            self._metrics = replace(
                self._metrics,
                put_count=self._metrics.put_count + 1,
                bytes_in=self._metrics.bytes_in + len(payload),
            )
        return PutReceipt(key, len(payload))

    def _get(self, session: Session, key: str, byte_range: tuple[int, int] | None) -> bytes:
        with self._lock:
            try:
                payload = self._backing.read(key)
            except (KeyError, FileNotFoundError):
                raise NotFound(f"no object {key!r}") from None
        if byte_range is not None:
            lo, hi = byte_range
            if lo < 0 or hi < lo or hi > len(payload):
                raise RangeError(
                    f"range [{lo}, {hi}) invalid for object {key!r} of {len(payload)} bytes"
                )
            payload = payload[lo:hi]
        self._shape(session, len(payload))
        with self._lock:
            self._metrics = replace(
                self._metrics,
                get_count=self._metrics.get_count + 1,
                bytes_out=self._metrics.bytes_out + len(payload),
            )
        return payload

    def put_object(self, key: str, payload: bytes) -> PutReceipt:
        return self._put(self._default_session, key, payload)

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
            keys = sorted(k for k in self._backing.keys() if k.startswith(prefix))
            return [(k, self._backing.size(k)) for k in keys]

    def delete_object(self, key: str) -> None:
        with self._lock:
            try:
                self._backing.delete(key)
            except (KeyError, FileNotFoundError):
                raise NotFound(f"no object {key!r}") from None
            self._metrics = replace(
                self._metrics, delete_count=self._metrics.delete_count + 1
            )

    def seed_object(self, key: str, payload: bytes) -> None:
        """Load an object without shaping or metrics; for run setup only."""
        with self._lock:
            self._backing.write(key, payload)

    def store_metrics(self) -> StoreMetrics:
        with self._lock:
            return self._metrics
