"""Request scheduler: per-shard lanes, admission control, fairness.

Scheduling model
----------------

Every request is one transaction body (a callable taking a
transaction).  Requests are tagged with a *tenant* and routed to an
execution **lane** — one lane per shard of the underlying volume (a
single-volume disk gets one lane).  Each lane owns a small pool of
worker threads that pop requests and run them through
:func:`~repro.txn.transactions.run_transaction`, so wait-die retries,
timestamp inheritance and lock cleanup are the transaction layer's
problem, exercised here under genuine thread contention.  An admitted
request waits in its lane's FIFO, not on a thread, so a handful of
workers hold thousands of clients in flight (``docs/CONCURRENCY.md``
records why this is the only lane implementation).

Within a lane, tenants are served **round-robin**: each tenant has
its own FIFO and the lane cycles through tenants with queued work, so
one tenant flooding the front end cannot starve the others (it can
only fill its own queue).

Admission control
-----------------

:meth:`FrontEnd.submit` admits a request only while both of these
hold, otherwise it blocks (or, with ``wait=False``, sheds the
request — the open-loop generator counts those as load the system
refused rather than queued):

* total in-flight requests are below ``max_inflight``;
* the tenant's lane queue is below ``max_tenant_queue``.

The storage layer bounds itself: a write-behind queue drains at its
depth and a commit group is flushed at its cap, so neither needs a
mark of its own here.

Time bases and latency decomposition
------------------------------------

Queue-wait and service-time histograms in the front end's private
registry are **host wall-clock** microseconds (the scheduler is host
machinery; it never touches the simulated clock).  Each request's
service time further decomposes via its
:class:`~repro.txn.transactions.TxnBreakdown` into

* ``frontend.lock_wait_us`` — wall time blocked in the lock manager
  (across every wait-die retry),
* ``frontend.storage_us`` — wall time inside logical-disk calls,
* ``frontend.sched_overhead_us`` — the remainder: scheduler and
  transaction-layer bookkeeping and retry backoff sleeps.

All three share the service clock, so per-request they sum to the
observed service time (the overhead component is clamped at zero
against clock jitter).  ARU commit latency remains the storage
layer's business: the per-shard ``lld.commit_us`` histograms record
simulated microseconds, and the benchmark reports its p50/p99/p999
from exactly those instruments.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time
import zlib
from collections import deque
from typing import Callable, Deque, Dict, Iterator, Optional

from repro.errors import LDError, TransactionAborted
from repro.obs import MetricsRegistry, latency_summary
from repro.txn.transactions import (
    TransactionManager,
    TxnBreakdown,
    run_transaction,
)


#: How often a blocked submit re-samples its tenant's queue, which
#: ``_Lane.pop`` shrinks without a wakeup.
_ADMISSION_POLL_S = 0.002


class RequestRejected(LDError):
    """The front end shed this request (admission control)."""


@dataclasses.dataclass(frozen=True)
class FrontendConfig:
    """Knobs for the scheduler (see module docstring for semantics).

    A commit does not flush: it is durable at the volume's next flush,
    and :meth:`FrontEnd.close` flushes by default.

    Attributes:
        workers_per_lane: Worker threads per shard lane.  More than
            one means transactions of the *same* shard genuinely
            contend on the lock manager, which is the point.
        max_inflight: Admission cap on requests queued or running
            across the whole front end.
        max_tenant_queue: Per-tenant queued-request cap (fairness:
            a flooding tenant fills its own queue only).
        lock_timeout_s: Lock-wait budget per acquire (a timeout is a
            deadlock symptom; the transaction layer retries it).
        max_attempts: Wait-die retry budget per request (retries back
            off as :func:`~repro.txn.transactions.run_transaction`
            does by default).
    """

    workers_per_lane: int = 2
    max_inflight: int = 128
    max_tenant_queue: int = 32
    lock_timeout_s: float = 2.0
    max_attempts: int = 64

    def validate(self) -> None:
        if self.workers_per_lane < 1:
            raise ValueError("workers_per_lane must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_tenant_queue < 1:
            raise ValueError("max_tenant_queue must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


class Request:
    """One admitted request's handle: a tiny single-shot future."""

    __slots__ = (
        "tenant",
        "body",
        "shard",
        "seq",
        "state",
        "result",
        "error",
        "breakdown",
        "submitted_at",
        "started_at",
        "finished_at",
        "_done",
    )

    def __init__(
        self, tenant: str, body: Callable, shard: int, seq: int
    ) -> None:
        self.tenant = tenant
        self.body = body
        self.shard = shard
        self.seq = seq
        #: queued -> running -> done | gave_up | failed
        self.state = "queued"
        self.result = None
        self.error: Optional[BaseException] = None
        #: Per-request latency decomposition, filled in by the lane.
        self.breakdown: Optional[TxnBreakdown] = None
        self.submitted_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._done = threading.Event()

    def wait(self, timeout: Optional[float] = None):
        """Block for the outcome; returns the body's result or
        re-raises what killed the request."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.seq} ({self.tenant}) still {self.state}"
            )
        if self.error is not None:
            raise self.error
        return self.result

    def done(self) -> bool:
        return self._done.is_set()


class _Lane:
    """One shard's queue complex: per-tenant FIFOs, round-robin."""

    def __init__(self, index: int) -> None:
        self.index = index
        self._cond = threading.Condition()
        self._queues: Dict[str, Deque[Request]] = {}
        #: Tenants with queued work, in service order.
        self._ring: Deque[str] = deque()
        self._stopped = False
        #: While set, workers take no request (:meth:`FrontEnd.held`).
        self._held = False

    def queued_for(self, tenant: str) -> int:
        with self._cond:
            queue = self._queues.get(tenant)
            return len(queue) if queue else 0

    def push(self, request: Request) -> None:
        with self._cond:
            queue = self._queues.get(request.tenant)
            if queue is None:
                queue = self._queues[request.tenant] = deque()
            if not queue:
                self._ring.append(request.tenant)
            queue.append(request)
            self._cond.notify()

    def pop(self) -> Optional[Request]:
        """Next request, round-robin across tenants; None on stop."""
        with self._cond:
            while True:
                if self._ring and not self._held:
                    tenant = self._ring.popleft()
                    queue = self._queues[tenant]
                    request = queue.popleft()
                    if queue:
                        self._ring.append(tenant)
                    return request
                if self._stopped:
                    return None
                self._cond.wait()

    def hold(self, held: bool) -> None:
        with self._cond:
            self._held = held
            self._cond.notify_all()

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()


class FrontEnd:
    """The scheduler: routing, admission, lane workers, instruments.

    Each lane owns ``workers_per_lane`` threads; an admitted request
    queues on its tenant's FIFO and a lane worker runs it through
    :func:`~repro.txn.transactions.run_transaction`.

    Args:
        ld: The volume — a :class:`~repro.shard.sharded.ShardedLLD`
            (one lane per shard) or any single
            :class:`~repro.ld.interface.LogicalDisk` (one lane).
        config: Scheduler knobs.
        registry: Optional shared metrics registry; by default the
            front end keeps a private one (wall-clock instruments,
            see module docstring).
    """

    def __init__(
        self,
        ld,
        config: Optional[FrontendConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or FrontendConfig()
        self.config.validate()
        self.ld = ld
        self.manager = TransactionManager(
            ld, lock_timeout_s=self.config.lock_timeout_s
        )
        self.n_lanes = len(getattr(ld, "shards", [ld]))
        self._admit = threading.Condition()
        self._inflight = 0
        self._closed = False
        self._seq = 0

        metrics = registry if registry is not None else MetricsRegistry()
        self.metrics = metrics
        self._c_submitted = metrics.counter("frontend.submitted")
        self._c_admitted = metrics.counter("frontend.admitted")
        self._c_shed = metrics.counter("frontend.shed")
        self._c_done = metrics.counter("frontend.completed")
        self._c_gave_up = metrics.counter("frontend.gave_up")
        self._c_failed = metrics.counter("frontend.failed")
        self._g_inflight_max = metrics.gauge("frontend.inflight_max")
        self._h_queue_wait = metrics.histogram("frontend.queue_wait_us")
        self._h_service = metrics.histogram("frontend.service_us")
        self._h_lock_wait = metrics.histogram("frontend.lock_wait_us")
        self._h_storage = metrics.histogram("frontend.storage_us")
        self._h_sched = metrics.histogram("frontend.sched_overhead_us")
        self._tenant_done: Dict[str, int] = {}
        self._tenant_mutex = threading.Lock()

        self._lanes = [_Lane(i) for i in range(self.n_lanes)]
        self._workers = [
            threading.Thread(
                target=self._worker,
                args=(lane,),
                name=f"frontend-lane{lane.index}-w{w}",
                daemon=True,
            )
            for lane in self._lanes
            for w in range(self.config.workers_per_lane)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Routing and admission
    # ------------------------------------------------------------------

    def shard_for_tenant(self, tenant: str) -> int:
        """Stable home lane for a tenant (crc32, not the salted
        ``hash``, so placement is reproducible across runs)."""
        return zlib.crc32(str(tenant).encode()) % self.n_lanes

    def _admissible(self, tenant: str, lane_index: int) -> bool:
        return (
            self._inflight < self.config.max_inflight
            and self._lanes[lane_index].queued_for(tenant)
            < self.config.max_tenant_queue
        )

    def _shed(self, why: str) -> RequestRejected:
        self._c_shed.inc()
        return RequestRejected(why)

    def submit(
        self,
        body: Callable,
        tenant: str = "default",
        shard: Optional[int] = None,
        wait: bool = True,
        timeout: Optional[float] = None,
    ) -> Request:
        """Admit one transaction body; returns its request handle.

        With ``wait=True`` (default) the call blocks while the front
        end is saturated — closed-loop clients naturally self-pace.
        With ``wait=False`` a saturated front end sheds the request
        immediately (:class:`RequestRejected`), which is what an
        open-loop arrival process needs: offered load beyond
        saturation shows up as explicit rejections, not as an
        unbounded queue.  Thread-safe.
        """
        if self._closed:
            raise RuntimeError("front end is closed")
        lane_index = (
            self.shard_for_tenant(tenant) if shard is None else shard
        )
        if not 0 <= lane_index < self.n_lanes:
            raise ValueError(f"no lane {lane_index}")
        # Counted only once routable, so submitted == admitted + shed.
        self._c_submitted.inc()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._admit:
            while not self._admissible(tenant, lane_index):
                if not wait:
                    raise self._shed(
                        f"front end saturated ({self._inflight} in flight)"
                    )
                budget = _ADMISSION_POLL_S
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise self._shed("admission timed out")
                    budget = min(budget, remaining)
                # Timed wait: ``_Lane.pop`` shrinks a tenant queue
                # without notifying ``_admit``, so a submit blocked on
                # ``max_tenant_queue`` re-samples it.
                self._admit.wait(timeout=budget)
            self._inflight += 1
            self._g_inflight_max.update_max(self._inflight)
            self._seq += 1
            request = Request(tenant, body, lane_index, self._seq)
        self._c_admitted.inc()
        self._lanes[lane_index].push(request)
        return request

    def try_submit(
        self,
        body: Callable,
        tenant: str = "default",
        shard: Optional[int] = None,
    ) -> Optional[Request]:
        """Non-blocking submit: the handle, or None if shed."""
        try:
            return self.submit(body, tenant, shard=shard, wait=False)
        except RequestRejected:
            return None

    # ------------------------------------------------------------------
    # Execution (lane worker threads)
    # ------------------------------------------------------------------

    def _worker(self, lane: _Lane) -> None:
        while True:
            request = lane.pop()
            if request is None:
                return
            self._execute(request)

    def _execute(self, request: Request) -> None:
        request.started_at = time.monotonic()
        request.state = "running"
        request.breakdown = TxnBreakdown()
        self._h_queue_wait.observe(
            (request.started_at - request.submitted_at) * 1e6
        )
        try:
            request.result = run_transaction(
                self.manager,
                request.body,
                max_attempts=self.config.max_attempts,
                durable=False,
                breakdown=request.breakdown,
            )
            request.state = "done"
        except TransactionAborted as exc:
            request.error = exc
            request.state = "gave_up"
        except BaseException as exc:  # noqa: BLE001 — reported, not lost
            request.error = exc
            request.state = "failed"
        finally:
            self._finish_request(request)

    def _finish_request(self, request: Request) -> None:
        """Retire a request: outcome counters, latency decomposition,
        fairness accounting, the admission wakeup, the done event."""
        request.finished_at = time.monotonic()
        service_us = (request.finished_at - request.started_at) * 1e6
        self._h_service.observe(service_us)
        breakdown = request.breakdown
        self._h_lock_wait.observe(breakdown.lock_wait_us)
        self._h_storage.observe(breakdown.storage_us)
        self._h_sched.observe(
            max(
                0.0,
                service_us - breakdown.lock_wait_us - breakdown.storage_us,
            )
        )
        if request.state == "done":
            self._c_done.inc()
            with self._tenant_mutex:
                self._tenant_done[request.tenant] = (
                    self._tenant_done.get(request.tenant, 0) + 1
                )
        elif request.state == "gave_up":
            self._c_gave_up.inc()
        else:
            self._c_failed.inc()
        with self._admit:
            self._inflight -= 1
            self._admit.notify_all()
        request._done.set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def held(self) -> Iterator[None]:
        """Admit without serving: inside the block the lanes take no
        request, so everything admitted waits in its FIFO; the workers
        start on the queues when it ends.  A flood submitted inside
        measures admission, not how far the lanes got meanwhile.  Do
        not :meth:`drain` inside."""
        for lane in self._lanes:
            lane.hold(True)
        try:
            yield
        finally:
            for lane in self._lanes:
                lane.hold(False)

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every admitted request has finished."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._admit:
            while self._inflight:
                budget = 0.05
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"{self._inflight} requests still in flight"
                        )
                    budget = min(budget, remaining)
                self._admit.wait(timeout=budget)

    def close(self, flush: bool = True) -> None:
        """Drain, stop the lanes, and (by default) flush the volume
        so every committed-in-memory ARU is durable."""
        if self._closed:
            return
        self.drain()
        self._closed = True
        for lane in self._lanes:
            lane.stop()
        for worker in self._workers:
            worker.join()
        if flush:
            self.ld.flush()

    def __enter__(self) -> "FrontEnd":
        return self

    def __exit__(self, _exc_type, _exc, _tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Scheduler counters, per-tenant completions, the decomposed
        latency digests, transaction totals and the lock table's live
        sizes (the leak check: all ``txn.locks`` table sizes are 0
        once drained).  :func:`repro.obs.schema.
        validate_frontend_stats` freezes the schema."""
        with self._tenant_mutex:
            per_tenant = dict(sorted(self._tenant_done.items()))
        with self._admit:
            inflight = self._inflight
        return {
            "lanes": self.n_lanes,
            "workers": len(self._workers),
            "inflight": inflight,
            "inflight_max": self._g_inflight_max.value,
            "submitted": self._c_submitted.value,
            "admitted": self._c_admitted.value,
            "shed": self._c_shed.value,
            "completed": self._c_done.value,
            "gave_up": self._c_gave_up.value,
            "failed": self._c_failed.value,
            "per_tenant_completed": per_tenant,
            "latency": {
                "queue_wait": latency_summary(self._h_queue_wait.snapshot()),
                "lock_wait": latency_summary(self._h_lock_wait.snapshot()),
                "storage": latency_summary(self._h_storage.snapshot()),
                "sched_overhead": latency_summary(self._h_sched.snapshot()),
                "service": latency_summary(self._h_service.snapshot()),
            },
            "txn": self.manager.stats(),
        }


#: The constructor the benchmarks and the harness call.
make_frontend = FrontEnd
