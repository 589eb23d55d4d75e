"""Shared fixtures for the test suite, plus a per-test timeout guard
and a per-module leak check.

The timeout guard exists for the resilience suite: a regression in the
retry loop (e.g. a fault plan that always faults combined with a broken
fallback) would otherwise hang the tier-1 run instead of failing it.
``pytest-timeout`` is not a dependency, so a SIGALRM-based hook stands
in; override the default with ``@pytest.mark.timeout(seconds)``.

The leak check fails the last test of a module that leaves a
``multiprocessing`` child process or a non-main thread running once
its module-scoped fixtures are torn down: a leftover service thread or
fleet worker would compete for the CPU with every later test.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time

import numpy as np
import pytest

from repro.gpusim import GpuDevice

#: Per-test wall-clock budget (seconds); generous because the lock-step
#: sim engine is slow by design.
DEFAULT_TEST_TIMEOUT_S = 120.0

_SIGALRM_USABLE = hasattr(signal, "SIGALRM")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    timeout = DEFAULT_TEST_TIMEOUT_S
    marker = item.get_closest_marker("timeout")
    if marker is not None and marker.args:
        timeout = float(marker.args[0])
    if (
        not _SIGALRM_USABLE
        or timeout <= 0
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_timeout(signum, frame):
        pytest.fail(
            f"test exceeded its {timeout:g}s timeout", pytrace=False
        )

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


#: Seconds a module's threads and child processes get to finish after
#: its teardown before they count as leaked.
LEAK_GRACE_S = 2.0


def _leftovers():
    main = threading.main_thread()
    threads = [t.name for t in threading.enumerate() if t is not main]
    children = [p.name for p in multiprocessing.active_children()]
    return threads, children


@pytest.hookimpl(trylast=True)
def pytest_runtest_teardown(item, nextitem):
    """At a module boundary (after the runner's teardown, so module
    fixtures are gone), fail if threads or child processes remain."""
    if nextitem is not None and nextitem.module is item.module:
        return
    deadline = time.monotonic() + LEAK_GRACE_S
    threads, children = _leftovers()
    while (threads or children) and time.monotonic() < deadline:
        time.sleep(0.05)
        threads, children = _leftovers()
    if threads or children:
        pytest.fail(
            f"{item.module.__name__} left threads {threads} and child "
            f"processes {children} running {LEAK_GRACE_S:g}s after its "
            "teardown",
            pytrace=False,
        )


@pytest.fixture
def rng():
    """Deterministic RNG for test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def micro_gpu():
    """A tiny simulated device for fast kernel tests."""
    return GpuDevice.micro()


@pytest.fixture
def small_batch(rng):
    """A small float32 batch in the paper's value range."""
    return rng.uniform(0, 2**31 - 1, (20, 128)).astype(np.float32)


@pytest.fixture
def tiny_batch(rng):
    """A micro batch for the (slow) lock-step sim engine."""
    return rng.uniform(0, 1000.0, (4, 96)).astype(np.float32)
