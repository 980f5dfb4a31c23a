"""Shared fixtures, and the time bound on every test."""
import signal

import pytest

from repoints.qmatrix import QMatrix

# Seconds any one test may run. The slowest test takes about 16 s, so only a
# hang or a blow-up reaches the bound.
TEST_TIME_BOUND_S = 300


class TimeBoundExceeded(BaseException):
    """Raised in a test that runs past TEST_TIME_BOUND_S.  Not an Exception,
    so hypothesis neither catches it as a failing example nor shrinks on it;
    pytest reports the test as failed and goes on with the next one."""


def _expire(signum, frame):
    raise TimeBoundExceeded(f"test ran past {TEST_TIME_BOUND_S} s")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Arm SIGALRM around each test's whole run: set-up, call and teardown,
    so fixtures of any scope are bounded too.  The alarm is disarmed after
    every test, whatever the test did with SIGALRM in between."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TEST_TIME_BOUND_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _dense_varpi(proj):
    """varpi = u w^T / (p den) as a dense matrix, rebuilt from its factors."""
    c = (proj.pivot * proj.den).inv()
    varpi = QMatrix(proj.raw.dim)
    for i, a in proj.u.items():
        for j, b in proj.w.items():
            varpi.put(i, j, c * a * b)
    return varpi


@pytest.fixture
def dense_varpi():
    return _dense_varpi
