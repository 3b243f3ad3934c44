"""Property-based fairness and admission tests for the front end.

Two properties:

1. **Admission conservation.** For an arbitrary tenant mix and
   arrival order under arbitrary small caps, blocking submits all
   complete, the genuine concurrency (tracked *inside* the bodies,
   not just by the scheduler's own counter) never exceeds
   ``max_inflight``, per-tenant completion counts equal per-tenant
   submissions, ``submitted == admitted + shed``, and the lock tables
   quiesce leak-free.

2. **Bursts never starve a neighbour.** However large a burst one
   greedy tenant fires while the lanes are wedged, the greedy tenant
   can only fill its own queue (its overflow is shed), a polite
   tenant's request still admits, and once the lanes unwedge every
   admitted request completes.
"""

from __future__ import annotations

import threading
from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.frontend import FrontendConfig, make_frontend
from repro.obs.schema import validate_frontend_stats
from tests.conftest import make_lld
from tests.test_frontend import assert_no_leaks, wait_until


class ConcurrencyTracker:
    """Counts bodies genuinely running at once, independent of the
    scheduler's own ``inflight`` bookkeeping."""

    def __init__(self):
        self._mutex = threading.Lock()
        self._running = 0
        self.peak = 0

    def __enter__(self):
        with self._mutex:
            self._running += 1
            self.peak = max(self.peak, self._running)
        return self

    def __exit__(self, *_exc):
        with self._mutex:
            self._running -= 1
        return False


def provisioned(n_tenants: int):
    ld = make_lld(num_segments=48)
    lst = ld.new_list()
    blocks = [ld.new_block(lst) for _ in range(n_tenants)]
    for block in blocks:
        ld.write(block, b"\0" * 16)
    ld.flush()
    return ld, blocks


schedules = st.lists(
    # (tenant index, burst length): bursts make arrival order lumpy.
    st.tuples(st.integers(0, 4), st.integers(1, 6)),
    min_size=1,
    max_size=12,
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    schedule=schedules,
    n_tenants=st.integers(2, 5),
    max_inflight=st.integers(2, 8),
    max_tenant_queue=st.integers(1, 4),
)
def test_admission_conserves_and_never_overruns(
    schedule, n_tenants, max_inflight, max_tenant_queue
):
    arrivals = [
        tenant % n_tenants
        for tenant, burst in schedule
        for _ in range(burst)
    ]
    expected = Counter(f"t{tenant}" for tenant in arrivals)
    ld, blocks = provisioned(n_tenants)
    frontend = make_frontend(
        ld,
        FrontendConfig(
            max_inflight=max_inflight,
            max_tenant_queue=max_tenant_queue,
        ),
    )
    tracker = ConcurrencyTracker()

    def make_body(tenant):
        def body(txn, block=blocks[tenant]):
            with tracker:
                txn.write(block, txn.read(block)[:1] + b"x")

        return body

    for tenant in arrivals:
        # Blocking submit: saturated arrivals wait, never shed.
        frontend.submit(make_body(tenant), f"t{tenant}")
    frontend.drain()
    stats = frontend.stats()
    frontend.close()

    assert stats["shed"] == 0
    assert stats["submitted"] == stats["admitted"] + stats["shed"]
    assert stats["completed"] == len(arrivals)
    assert stats["failed"] == 0 and stats["gave_up"] == 0
    assert dict(stats["per_tenant_completed"]) == dict(expected)
    # Neither the scheduler's own watermark nor the concurrency
    # the bodies actually observed may exceed the cap.
    assert stats["inflight_max"] <= max_inflight
    assert tracker.peak <= max_inflight
    assert_no_leaks(stats)
    assert validate_frontend_stats(stats) == []


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    burst=st.integers(1, 32),
    max_tenant_queue=st.integers(1, 4),
)
def test_greedy_burst_cannot_starve_a_neighbour(burst, max_tenant_queue):
    ld, blocks = provisioned(2)
    frontend = make_frontend(
        ld,
        FrontendConfig(
            workers_per_lane=1,
            max_inflight=64,
            max_tenant_queue=max_tenant_queue,
        ),
    )
    gate = threading.Event()

    def wedge(txn):
        gate.wait(10.0)
        txn.read(blocks[0])

    def polite_body(txn):
        txn.read(blocks[1])

    # Wedge the (single-slot) lane, then flood from the greedy tenant.
    running = frontend.submit(wedge, "greedy")
    # Wait for it to genuinely *start* (not just be admitted), so the
    # greedy tenant's queue is empty when the burst arrives.
    wait_until(lambda: running.state == "running")
    greedy = [
        frontend.try_submit(wedge, "greedy") for _ in range(burst)
    ]
    admitted_greedy = [handle for handle in greedy if handle is not None]
    # The greedy tenant can occupy at most its own queue cap...
    assert len(admitted_greedy) <= max_tenant_queue
    if burst > max_tenant_queue:
        assert len(admitted_greedy) == max_tenant_queue
    # ...and the polite tenant still gets in, regardless of the burst.
    polite = frontend.try_submit(polite_body, "polite")
    assert polite is not None, "greedy burst starved the polite tenant"
    gate.set()
    for handle in (running, polite, *admitted_greedy):
        handle.wait(10.0)
    frontend.drain()
    stats = frontend.stats()
    frontend.close()
    assert stats["completed"] == 2 + len(admitted_greedy)
    assert stats["shed"] == burst - len(admitted_greedy)
    assert stats["submitted"] == stats["admitted"] + stats["shed"]
    assert stats["per_tenant_completed"]["polite"] == 1
    assert_no_leaks(stats)
