"""Shared fixtures and helpers, and the time bound on every test."""
import math
import signal
from fractions import Fraction
from functools import lru_cache

import pytest

from repoints import linalg
from repoints.qmatrix import QMatrix
from repoints.rootdata import build_root_system, dot

# Seconds any one test may run. The slowest test takes about 10 s, so only a
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


@lru_cache(maxsize=None)
def _gram_inverse(ls):
    """Gram^-1 = num / den for the simple roots of ls, num an integer matrix."""
    inv = linalg.invert([[Fraction(x) for x in row]
                         for row in build_root_system(ls).cartan_pairing])
    den = math.lcm(*(x.denominator for row in inv for x in row))
    return [[int(x * den) for x in row] for row in inv], den


def _gram_coordinates(ls, v):
    """Simple-root coordinates of v by the Gram-inverse formula: if
    v = sum_i c_i alpha_i then (alpha_j, v) = sum_i Gram_ji c_i, so
    c = Gram^-1 ((alpha_j, v))_j.  Outside the span that c belongs to the
    orthogonal projection of v instead, so None is returned unless
    sum_i c_i alpha_i = v."""
    rs = build_root_system(ls)
    num, den = _gram_inverse(ls)
    s = [(j, x) for j, x in enumerate(dot(alpha, v) for alpha in rs.simple) if x]
    c = [sum(row[j] * x for j, x in s) for row in num]
    back = [0] * len(v)
    for ci, alpha in zip(c, rs.simple):
        if ci:
            for t, a in enumerate(alpha):
                back[t] += ci * a
    if back != [den * x for x in v]:
        return None
    return tuple(Fraction(ci, den) for ci in c)


@pytest.fixture
def gram_coordinates():
    """The oracle for `RootSystem.expand_in_simple`, which reads the same
    coordinates from prefix sums."""
    return _gram_coordinates


def algebra_duals(data):
    """The dual basis B_k^v of a classical algebra, tr(B_m B_k^v) = delta_mk,
    read back from its expander, which keeps each B_k^v transposed: the
    readers at position (i, j) hold (k, B_k^v[j][i])."""
    duals = [{} for _ in data.basis]
    for (i, j), readers in data.expander.readers.items():
        for k, y in readers:
            duals[k][(j, i)] = y
    return duals


def root_vectors(data):
    """(e, f): the root vectors e_beta and f_beta of a classical algebra by
    positive root, read back from its basis, which holds the Cartan
    elements, then the e_beta, then the f_beta, each block in the order of
    `data.positive`."""
    rank, npos = data.ls.rank, len(data.positive)
    e = dict(zip(data.positive, data.basis[rank:rank + npos]))
    f = dict(zip(data.positive, data.basis[rank + npos:]))
    return e, f
