"""Shared fixtures: the expensive artifacts are built once per session.

Two sieve runs back everything: p < 6500 (default tier) and p < 16000
(only for tests marked `extended`). Smaller databases are restrictions of
the 6500 build, so no prime is sieved twice within a tier. Everything here
is deterministic.
"""

import time

import pytest

from bernpairs.composite import minimal_composite
from bernpairs.pairs import build_database
from bernpairs.verify import MN2_SEARCH

_timings = {}


@pytest.fixture(scope="session")
def db16000():
    t0 = time.monotonic()
    db = build_database(16000, jobs=1)
    _timings["db16000"] = time.monotonic() - t0
    return db


@pytest.fixture(scope="session")
def db16000_build_seconds(db16000):
    return _timings["db16000"]


@pytest.fixture(scope="session")
def db6500():
    return build_database(6500, jobs=1)


@pytest.fixture(scope="session")
def db1000(db6500):
    return db6500.restrict(1000)


@pytest.fixture(scope="session")
def db400(db6500):
    return db6500.restrict(400)


@pytest.fixture(scope="session")
def db200(db6500):
    return db6500.restrict(200)


@pytest.fixture(scope="session")
def db160(db6500):
    return db6500.restrict(160)


@pytest.fixture(scope="session")
def mn2_result(db160):
    return minimal_composite(2, MN2_SEARCH["u0"], db160, jobs=1)
