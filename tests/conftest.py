"""Shared fixtures: the expensive artifacts are built once per session.

One sieve run backs everything: p < 16000 on all cores, the range of the
paper's five exception rows. Every smaller database is a restriction of it,
so no prime is sieved twice. Everything here is deterministic.
"""

import time

import pytest

from bernpairs.composite import minimal_composite
from bernpairs.pairs import build_database
from bernpairs.verify import MN2_SEARCH, _Ctx

_timings = {}


@pytest.fixture(scope="session")
def db16000():
    t0 = time.monotonic()
    db = build_database(16000)
    _timings["db16000"] = time.monotonic() - t0
    return db


@pytest.fixture(scope="session")
def db16000_build_seconds(db16000):
    return _timings["db16000"]


@pytest.fixture(scope="session")
def db6500(db16000):
    return db16000.restrict(6500)


@pytest.fixture(scope="session")
def db1000(db16000):
    return db16000.restrict(1000)


@pytest.fixture(scope="session")
def db400(db16000):
    return db16000.restrict(400)


@pytest.fixture(scope="session")
def db200(db16000):
    return db16000.restrict(200)


@pytest.fixture(scope="session")
def db160(db16000):
    return db16000.restrict(160)


@pytest.fixture(scope="session")
def verify_ctx(db16000):
    """The context every `verify` row runs in, over the shared build."""
    return _Ctx(jobs=1, db=db16000)


@pytest.fixture(scope="session")
def mn2_result(db160):
    return minimal_composite(2, MN2_SEARCH["u0"], db160, jobs=1)
