"""Irregular pairs: sieve, database, delta, digit lifting, order-2 scan."""

import hashlib
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernpairs import cli, pairs
from bernpairs.arith import primes_below, rational_mod
from bernpairs.bernoulli import divided_bernoulli_mod_pk
from bernpairs.composite import minimal_composite
from bernpairs.errors import (
    BernpairsError,
    DatabaseTooSmall,
    DeltaZero,
    FormatError,
    NotIrregular,
    NotStrongFriendly,
    PoleAtIndex,
    ResourceLimit,
)
from bernpairs.pairs import (
    POOL_MIN_SECONDS,
    IrregularPair,
    OrderedPair,
    PairDatabase,
    _extend,
    _lift_seconds,
    _pool_map,
    _row_seconds,
    build_database,
    delta,
    lift,
    lift_digits,
    load_database,
    save_database,
    scan_special_order2,
    sieve_prime,
)
from bernpairs.verify import _Ctx

from test_bernoulli import naive_bernoulli

# measured once with this package, then re-derived below from the naive
# Fraction recurrence for three of them
KNOWN_DELTAS = {
    (37, 32): 21,
    (59, 44): 26,
    (67, 58): 21,
    (101, 68): 42,
    (103, 24): 54,
    (131, 22): 25,
    (149, 130): 79,
    (157, 62): 48,
    (157, 110): 51,
}


def test_pair_validation():
    IrregularPair(37, 32)
    with pytest.raises(ValueError):
        IrregularPair(35, 12)  # composite
    with pytest.raises(ValueError):
        IrregularPair(3, 2)  # too small
    with pytest.raises(ValueError):
        IrregularPair(37, 33)  # odd
    with pytest.raises(ValueError):
        IrregularPair(37, 36)  # beyond p-3
    with pytest.raises(ValueError):
        IrregularPair(37, 0)
    assert str(IrregularPair(157, 62)) == "(157,62)"
    assert IrregularPair(37, 32) < IrregularPair(59, 44)


def test_sieve_prime_examples():
    assert sieve_prime(7) == []
    assert sieve_prime(31) == []
    assert [(q.p, q.l) for q in sieve_prime(691)] == [(691, 12), (691, 200)]


def test_database_content(db160, db6500):
    assert db160.irregular_primes() == [37, 59, 67, 101, 103, 131, 149, 157]
    assert len(db160) == 9
    assert db160.is_irregular(37)
    assert not db160.is_irregular(41)
    assert db160.index_of_irregularity(157) == 2
    assert db160.index_of_irregularity(37) == 1
    assert db160.index_of_irregularity(41) == 0
    assert [q.l for q in db160.pairs_for(157)] == [62, 110]
    with pytest.raises(DatabaseTooSmall):
        db160.is_irregular(163)
    with pytest.raises(DatabaseTooSmall):
        db160.pairs_for(120000)
    # spot value from the larger build
    assert db6500.is_irregular(6449)
    assert 4884 in [q.l for q in db6500.pairs_for(6449)]


def test_database_restrict(db16000, db160):
    # every session database is a restriction, so compare one with a build,
    # and with the smaller one grown by the primes from 160 on
    built = build_database(400, jobs=1)
    assert db16000.restrict(400) == built
    assert _extend(db160, 400, jobs=1) == built
    assert db16000.restrict(100).irregular_primes() == [37, 59, 67]
    with pytest.raises(DatabaseTooSmall):
        db160.restrict(200)


def test_database_drops_primes_without_pairs(tmp_path):
    db = PairDatabase(100, {7: [], 37: [(32, None)]})
    assert db.irregular_primes() == [37]
    assert not db.is_irregular(7)
    assert db == PairDatabase(100, {37: [(32, None)]})
    path = tmp_path / "db.txt"
    save_database(db, str(path))
    assert load_database(str(path)) == db
    # every key must lie below max_p, with or without rows
    with pytest.raises(ValueError, match="not below max_p"):
        PairDatabase(10, {97: []})


def test_database_save_format(db160, tmp_path):
    path = tmp_path / "db.txt"
    save_database(db160, str(path))
    lines = path.read_text().splitlines()
    body = "".join(line + "\n" for line in lines[1:]).encode("ascii")
    assert lines[0] == (
        f"# bernpairs-db v2 max_p=160 rows=9 sha256={hashlib.sha256(body).hexdigest()}"
    )
    assert lines[1] == "37,32,"  # delta field present but empty
    assert len(lines) == 10
    reloaded = load_database(str(path))
    assert reloaded == db160
    again = tmp_path / "again.txt"
    save_database(reloaded, str(again))
    assert again.read_bytes() == path.read_bytes()

    db = build_database(40)
    db.set_delta(IrregularPair(37, 32), 21)
    save_database(db, str(path))
    assert path.read_text().splitlines()[1] == "37,32,21"
    assert load_database(str(path)).delta_for(IrregularPair(37, 32)) == 21


def test_database_v2_detects_lost_rows(db160, tmp_path):
    path = tmp_path / "db.txt"
    save_database(db160, str(path))
    lines = path.read_text().splitlines()
    # cut after the last row: the final pair is gone, every other line is intact
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(FormatError, match="rows") as exc:
        load_database(str(path))
    assert exc.value.line == 1
    # same row count, one row edited: only the digest catches it
    path.write_text("\n".join(lines[:-1] + ["157,110,5"]) + "\n")
    with pytest.raises(FormatError, match="sha256"):
        load_database(str(path))


def test_database_v1_refused(db160, tmp_path):
    # a v1 header has no row count or digest to check the body against
    path = tmp_path / "db.txt"
    save_database(db160, str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(["# bernpairs-db v1 max_p=160"] + lines[1:]) + "\n")
    with pytest.raises(FormatError, match="bernpairs sieve") as exc:
        load_database(str(path))
    assert exc.value.line == 1


def _v2(body, max_p=160):
    # body under a v2 header that matches it, so only the body's fault shows
    rows = body.splitlines()
    digest = hashlib.sha256("".join(f"{x}\n" for x in rows).encode("ascii")).hexdigest()
    return f"# bernpairs-db v2 max_p={max_p} rows={len(rows)} sha256={digest}\n{body}"


def _load_text(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    return load_database(str(path))


def test_database_format_errors(tmp_path):
    with pytest.raises(FormatError) as exc:
        _load_text(tmp_path, "not a header\n37,32,\n")
    assert exc.value.line == 1
    with pytest.raises(FormatError) as exc:
        _load_text(tmp_path, _v2("37,33,\n"))
    assert exc.value.line == 2
    with pytest.raises(FormatError):
        _load_text(tmp_path, _v2("35,12,\n"))
    with pytest.raises(FormatError):
        _load_text(tmp_path, _v2("37,32,\n37,32,\n"))
    with pytest.raises(FormatError):
        _load_text(tmp_path, _v2("37,32,\n", max_p=30))
    with pytest.raises(FormatError):
        _load_text(tmp_path, _v2("37,32,99\n"))
    with pytest.raises(FormatError):
        _load_text(tmp_path, _v2("37,32,x\n"))
    with pytest.raises(FormatError):
        _load_text(tmp_path, "")
    # the header _v2 writes is valid: a good body under it loads
    assert _load_text(tmp_path, _v2("37,32,\n")) == PairDatabase(160, {37: [(32, None)]})
    # a v2 header needs both the row count and the digest
    with pytest.raises(FormatError):
        _load_text(tmp_path, "# bernpairs-db v2 max_p=160\n37,32,\n")


def test_delta_queries(db160):
    assert db160.delta_for(IrregularPair(37, 32)) is None
    db = db160.restrict(40)
    db.set_delta(IrregularPair(37, 32), 21)
    assert db.delta_for(IrregularPair(37, 32)) == 21
    with pytest.raises(ValueError):
        db.set_delta(IrregularPair(37, 32), 37)
    with pytest.raises(NotIrregular):
        db.set_delta(IrregularPair(37, 30), 5)
    with pytest.raises(NotIrregular):
        db.delta_for(IrregularPair(37, 30))


def test_delta_values_frozen():
    for (p, l), want in KNOWN_DELTAS.items():
        got = delta(IrregularPair(p, l))
        assert got.delta == want, f"delta({p},{l})"
        assert got.delta != 0


def test_delta_against_naive_recurrence():
    # independent oracle: exact Fractions from the defining recurrence
    naive = naive_bernoulli(131)
    for p, l in [(37, 32), (59, 44), (103, 24)]:
        slope = (naive[l + p - 1] / (l + p - 1) - naive[l] / l) / p
        want = rational_mod(slope, p)
        assert delta(IrregularPair(p, l)).delta == want


def test_delta_rejects_regular_pair():
    with pytest.raises(NotIrregular):
        delta(IrregularPair(37, 30))
    with pytest.raises(NotIrregular):
        lift(IrregularPair(41, 10), 2)


def test_delta_nonzero_everywhere(db16000):
    work = sorted(db16000.all_pairs(), reverse=True)
    deltas = _pool_map(delta, work, None, lambda q: _lift_seconds(q.p))
    assert [d.pair for d in deltas if d.delta == 0] == []


def test_residue_calls_per_lift(monkeypatch):
    # a lift reuses the residue B_l/l mod p^2 that its slope already took
    calls = []

    def counted(n, p, k):
        calls.append((n, p, k))
        return divided_bernoulli_mod_pk(n, p, k)

    monkeypatch.setattr("bernpairs.pairs.divided_bernoulli_mod_pk", counted)
    for run, want in [
        (lambda: delta(IrregularPair(37, 32)), 2),
        (lambda: lift(IrregularPair(353, 186), 2), 3),
        (lambda: lift(IrregularPair(37, 32), 3), 5),
    ]:
        calls.clear()
        run()
        assert len(calls) == want, calls


def test_lift_frozen_examples():
    # order-3 lift, matching the brute-force search below
    assert lift(IrregularPair(37, 32), 3).digits == (32, 7, 28)


def test_lift_digits_by_brute_force():
    # unique digit search straight from the order-(j+1) divisibility
    for p, l in [(37, 32), (59, 44)]:
        hits = [
            s
            for s in range(p)
            if divided_bernoulli_mod_pk(l + s * (p - 1), p, 2) == 0
        ]
        assert len(hits) == 1
        assert lift(IrregularPair(p, l), 2).digits == (l, hits[0])
    l2 = 32 + 7 * 36
    hits3 = [
        s
        for s in range(37)
        if divided_bernoulli_mod_pk(l2 + s * 36 * 37, 37, 3) == 0
    ]
    assert hits3 == [28]


def test_lift_truncation_consistency():
    full = lift(IrregularPair(37, 32), 3)
    assert full.digits[:2] == lift(IrregularPair(37, 32), 2).digits
    assert full.digits[:1] == lift(IrregularPair(37, 32), 1).digits
    assert lift(IrregularPair(157, 62), 1).digits == (62,)


def test_lift_feasibility_limits(db6500):
    with pytest.raises(ResourceLimit):
        lift(IrregularPair(37, 32), 4)  # beyond max order
    with pytest.raises(ValueError):
        lift(IrregularPair(37, 32), 0)
    # no p-range bound on order 3: the digit is the unique brute-force hit
    l2 = lift(IrregularPair(59, 44), 2).index
    hits3 = [
        s
        for s in range(59)
        if divided_bernoulli_mod_pk(l2 + s * 58 * 59, 59, 3) == 0
    ]
    assert len(hits3) == 1
    assert lift(IrregularPair(59, 44), 3).digits[2] == hits3[0]
    # nor on order 2
    big = next(q for q in db6500.all_pairs() if q.p > 1000)
    op = lift(big, 2)
    assert divided_bernoulli_mod_pk(op.index, big.p, 2) == 0


def test_lift_digits_is_lazy():
    gen = lift_digits(IrregularPair(353, 186))
    assert next(gen) == 186
    assert next(gen) == 190
    next(gen)
    with pytest.raises(ResourceLimit):
        next(gen)  # order 4 is beyond the maximum, but only when asked


def test_ordered_pair_index():
    op = OrderedPair(37, (32, 7, 28))
    assert op.order == 3
    assert op.pair == IrregularPair(37, 32)
    assert op.index == 32 + 7 * 36 + 28 * 36 * 37
    with pytest.raises(ValueError):
        OrderedPair(37, (32, 40))
    with pytest.raises(ValueError):
        OrderedPair(37, (33, 5))


def test_ordered_pair_needs_a_digit():
    with pytest.raises(ValueError, match="need at least one digit"):
        OrderedPair(37, ())


@given(st.sampled_from([5, 7, 37, 101]), st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_ordered_pair_index_decomposition(p, order, data):
    l = data.draw(st.integers(1, (p - 3) // 2)) * 2
    digits = [l] + [data.draw(st.integers(0, p - 1)) for _ in range(order - 1)]
    op = OrderedPair(p, tuple(digits))
    # the digits are recoverable from the index, so the map is injective
    rest = op.index - l
    assert op.index % (p - 1) == l % (p - 1)
    for v in range(1, order):
        phi = p ** (v - 1) * (p - 1)
        assert rest // phi % p == digits[v]
        rest -= digits[v] * phi
    assert rest == 0


@given(st.sampled_from([5, 7, 37, 101]), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_all_equal_digits_collapse(p, order, data):
    # when every higher digit equals l - 1, the index telescopes
    l = data.draw(st.integers(1, (p - 3) // 2)) * 2
    op = OrderedPair(p, (l,) + (l - 1,) * (order - 1))
    assert op.index == (l - 1) * p ** (order - 1) + 1


def test_scan_order2(db400):
    report = scan_special_order2(db400, jobs=1)
    assert report.max_p == 400
    assert report.special == []
    assert report.failures == []
    assert report.checked == len(db400)
    assert report.min_abs_diff == 4
    assert [(op.p, op.digits) for op in report.min_pairs] == [(353, (186, 190))]


@pytest.fixture
def real_pool_sizes(monkeypatch):
    """Real pools on a 2-core view of the host; the list records their sizes."""
    monkeypatch.setattr("bernpairs.pairs.os.cpu_count", lambda: 2)
    started = []
    real_pool = multiprocessing.Pool

    def counted_pool(processes):
        started.append(processes)
        return real_pool(processes)

    monkeypatch.setattr("bernpairs.pairs.multiprocessing.Pool", counted_pool)
    return started


def test_scan_small_batch_runs_inline(db16000, db1000, real_pool_sizes):
    # the 155 pairs below 2000 estimate over the threshold and start a pool
    # of 2, which must agree with the inline scan
    db2000 = db16000.restrict(2000)
    assert sum(_lift_seconds(q.p) for q in db2000.all_pairs()) >= POOL_MIN_SECONDS
    assert scan_special_order2(db2000, jobs=2) == scan_special_order2(db2000, jobs=1)
    assert real_pool_sizes == [2]

    # the 81 pairs below 1000 estimate under it: jobs=2 runs them inline
    real_pool_sizes.clear()
    assert sum(_lift_seconds(q.p) for q in db1000.all_pairs()) < POOL_MIN_SECONDS
    assert scan_special_order2(db1000, jobs=2) == scan_special_order2(db1000, jobs=1)
    assert real_pool_sizes == []


def test_small_batches_start_no_pool():
    # the benchmark's `tables` batches, the sieve below 2000 and the M_2
    # search's seed and gap sieves, all estimate under the threshold; a fresh
    # interpreter shows that none of them even imported the pool module
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = (
        "import sys\n"
        "from bernpairs.composite import minimal_composite\n"
        "from bernpairs.pairs import build_database\n"
        "build_database(2000, jobs=2)\n"
        "res = minimal_composite(2, 107431, build_database(160, jobs=2), jobs=2)\n"
        "print(res.value, res.sieved_to, 'multiprocessing.pool' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "107430 328 False\n"


def _raise_delta_zero(_):
    raise DeltaZero(37, 32)


@contextmanager
def _fails_after(seconds):
    """Turn a hang into a test failure: SIGALRM raises in the main thread."""

    def on_alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_errors_survive_pickle():
    # a pooled worker's error reaches the parent by pickle
    samples = [
        BernpairsError("base"),
        PoleAtIndex(36, 37),
        DeltaZero(37, 32),
        ResourceLimit("too big", needed=5, limit=4),
        FormatError(3, "bad row"),
        DatabaseTooSmall(needed=200, have=160),
        NotIrregular(41, "regular"),
        NotStrongFriendly([IrregularPair(37, 32)], "no witness"),
    ]
    assert {type(e) for e in samples[1:]} == set(BernpairsError.__subclasses__())
    for exc in samples:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)


def test_pool_map_reraises_worker_error(real_pool_sizes):
    with _fails_after(60), pytest.raises(DeltaZero) as exc:
        _pool_map(_raise_delta_zero, list(range(16)), 2, lambda _: POOL_MIN_SECONDS)
    assert (exc.value.p, exc.value.l) == (37, 32)
    assert real_pool_sizes == [2]


def test_pool_map_keeps_input_order(real_pool_sizes):
    work = list(range(40, 0, -1))
    with _fails_after(60):
        assert _pool_map(str, work, 2, lambda _: POOL_MIN_SECONDS) == [str(w) for w in work]
    assert real_pool_sizes == [2]


def test_pool_map_caps_workers(monkeypatch, tmp_path):
    # a fake Pool records its size; no real process is started here
    started = []

    class FakePool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return [fn(w) for w in work]

    monkeypatch.setattr("bernpairs.pairs.multiprocessing.Pool", FakePool)
    t = POOL_MIN_SECONDS
    # (cores, jobs, estimated seconds of each of 20 items) -> workers
    # started, None when inline
    cases = [
        ((8, 100000, t), 8),
        ((8, 3, t), 3),
        ((64, None, t), 20),
        ((4, None, t), 4),
        ((1, 4, t), None),
        ((8, 1, t), None),
        ((8, 4, t / 19), 4),
        ((8, 4, t / 21), None),
    ]
    for (cores, jobs, each), want in cases:
        monkeypatch.setattr("bernpairs.pairs.os.cpu_count", lambda: cores)
        started.clear()
        work = list(range(20))
        assert _pool_map(str, work, jobs, lambda _: each) == [str(i) for i in work]
        assert started == ([] if want is None else [want]), (cores, jobs, each)

    # the primes below 3500 estimate over the threshold
    assert sum(_row_seconds(p) for p in primes_below(3500) if p >= 5) >= POOL_MIN_SECONDS
    monkeypatch.setattr("bernpairs.pairs.os.cpu_count", lambda: 2)
    started.clear()
    out = str(tmp_path / "db.txt")
    assert cli.main(["sieve", "--max-p", "3500", "--out", out, "--jobs", "100000"]) == 0
    assert started == [2]


def test_oversized_sieve_refused_before_dispatch(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("an oversized sieve started a pool")

    monkeypatch.setattr("bernpairs.pairs.multiprocessing.Pool", no_pool)
    # the row size of the largest prime below max_p is checked before the
    # max_p-byte prime sieve, so 10^8 is refused as fast as 1.7 * 10^6; the
    # M_2 search's on-demand sieve to the root of 10^15 takes the same check
    cases = [
        (lambda: build_database(1_700_000, jobs=2), 1699993),
        (lambda: build_database(10**8, jobs=2), 99999989),
        (lambda: minimal_composite(2, 10**15, PairDatabase(10), jobs=2), 31622743),
    ]
    for run, top in cases:
        t0 = time.monotonic()
        with pytest.raises(ResourceLimit, match=f"p={top}"):
            run()
        assert time.monotonic() - t0 < 1


def test_growing_context_sieves_each_prime_once(db16000, monkeypatch):
    # verify's context grows its one database: db(400) after db(160) sieves
    # only the primes from 160 on, so each 5 <= p < 400 is sieved once
    sieved = []
    worker = pairs._sieve_worker

    def counting(p):
        sieved.append(p)
        return worker(p)

    monkeypatch.setattr("bernpairs.pairs._sieve_worker", counting)
    ctx = _Ctx(jobs=1)
    assert ctx.db(160) == db16000.restrict(160)
    assert ctx.db(400) == db16000.restrict(400)
    assert sorted(sieved) == [p for p in primes_below(400) if p >= 5]
    assert len(sieved) == 76
