"""Tests for the one clock of the async stack and its virtual-time loop."""

from __future__ import annotations

import ast
import asyncio
import time
from pathlib import Path

import pytest

import repro
from repro.cluster.node import build_cluster
from repro.cluster.router import ClusterRouter
from repro.core.serial import serial_count
from repro.serve.clock import now, run_virtual
from repro.serve.workload import drive_load, key_groups


class TestVirtualTime:
    def test_an_hour_of_sleep_takes_no_wall_time(self):
        async def go():
            await asyncio.sleep(3600)
            return now()

        t0 = time.perf_counter()
        assert run_virtual(go()) == 3600.0
        assert time.perf_counter() - t0 < 1.0

    def test_a_beaten_timeout_does_not_advance_time(self):
        """The hedge pattern: a primary that answers first wins the wait,
        and the cancelled timeout timer is dropped, not jumped to."""
        async def go():
            primary = asyncio.ensure_future(asyncio.sleep(0.001))
            done, _ = await asyncio.wait({primary}, timeout=5)
            assert done == {primary}
            beaten = now()
            await asyncio.sleep(0.001)
            return beaten, now()

        assert run_virtual(go()) == (0.001, 0.002)

    def test_sleepers_wake_in_deadline_order_at_their_deadlines(self):
        woke = []

        async def sleeper(delay):
            await asyncio.sleep(delay)
            woke.append((delay, now()))

        async def go():
            await asyncio.gather(sleeper(0.005), sleeper(0.002))

        run_virtual(go())
        assert woke == [(0.002, 0.002), (0.005, 0.005)]

    def test_cpu_work_takes_no_time(self):
        async def go():
            t0 = now()
            sum(range(200_000))
            return now() - t0

        assert run_virtual(go()) == 0.0


class TestLifecycle:
    def test_exception_propagates(self):
        async def go():
            await asyncio.sleep(1)
            raise KeyError("boom")

        with pytest.raises(KeyError, match="boom"):
            run_virtual(go())

    def test_pending_task_is_cancelled_at_teardown(self):
        seen = []

        async def forever():
            try:
                await asyncio.sleep(10**6)
            except asyncio.CancelledError:
                seen.append(now())
                raise

        async def go():
            asyncio.ensure_future(forever())
            await asyncio.sleep(2)

        run_virtual(go())
        assert seen == [2.0]

    def test_refuses_a_running_loop(self):
        async def inner():
            return 1

        async def outer():
            with pytest.raises(RuntimeError):
                run_virtual(inner())

        asyncio.run(outer())

    def test_now_needs_a_running_loop(self):
        with pytest.raises(RuntimeError):
            now()


def test_hedging_scenario_repeats_exactly(small_reads):
    """Straggler + hedging on virtual time: the same document twice."""
    db = serial_count(small_reads, 15)

    def scenario() -> dict:
        ring, nodes = build_cluster(db, 4, rf=2, seed=0, service_time=1e-4)
        nodes[0].degrade(200.0)
        router = ClusterRouter(ring, nodes)
        run_virtual(drive_load(router, key_groups(db.kmers[:2048], 256)))
        assert router.metrics.hedges_fired > 0
        return router.metrics.snapshot(nodes)

    assert scenario() == scenario()


def test_async_stack_reads_only_the_loop_clock():
    """serve/, cluster/ and tenant/ read time through ``clock.now``; the
    synchronous ``naive_serve`` cost baseline is the one exception."""
    banned = {"perf_counter", "monotonic"}
    root = Path(repro.__file__).parent
    offenders = []
    for package in ("serve", "cluster", "tenant"):
        for path in sorted((root / package).glob("*.py")):
            tree = ast.parse(path.read_text())
            allowed = [range(f.lineno, f.end_lineno + 1)
                       for f in ast.walk(tree)
                       if isinstance(f, ast.FunctionDef)
                       and f.name == "naive_serve"]
            for node in ast.walk(tree):
                names = ({node.attr} if isinstance(node, ast.Attribute)
                         else {a.name for a in node.names}
                         if isinstance(node, ast.ImportFrom) else set())
                if names & banned and not any(node.lineno in r
                                              for r in allowed):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
