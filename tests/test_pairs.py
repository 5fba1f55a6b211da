"""Irregular pairs: sieve, database, delta, digit lifting, order-2 scan."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernpairs.arith import phi_prime_power, primes_below, rational_mod
from bernpairs.bernoulli import bernoulli_exact, divided_bernoulli_mod_pk
from bernpairs.errors import (
    DatabaseTooSmall,
    FormatError,
    NotIrregular,
    ResourceLimit,
)
from bernpairs.pairs import (
    IrregularPair,
    OrderedPair,
    PairDatabase,
    build_database,
    delta,
    lift,
    lift_digits,
    load_database,
    scan_special_order2,
    sieve_prime,
)
from bernpairs.verify import DB160_PAIRS

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
    assert [(q.p, q.l) for q in sieve_prime(37)] == [(37, 32)]
    assert [(q.p, q.l) for q in sieve_prime(157)] == [(157, 62), (157, 110)]
    assert [(q.p, q.l) for q in sieve_prime(691)] == [(691, 12), (691, 200)]


def test_sieve_against_exact_rationals():
    # the modular sieve must flag exactly the l where p divides num(B_l)
    for p in primes_below(101):
        if p < 5:
            continue
        expect = [
            l
            for l in range(2, p - 2, 2)
            if rational_mod(bernoulli_exact(l), p).is_zero()
        ]
        assert [q.l for q in sieve_prime(p)] == expect


def test_database_content(db160, db6500):
    assert [(q.p, q.l) for q in db160.all_pairs()] == list(DB160_PAIRS)
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


def test_database_restrict(db6500, db160):
    assert db6500.restrict(160) == db160
    assert db6500.restrict(100).irregular_primes() == [37, 59, 67]
    with pytest.raises(DatabaseTooSmall):
        db160.restrict(200)


def test_database_drops_primes_without_pairs(tmp_path):
    db = PairDatabase(100, {7: [], 37: [(32, None)]})
    assert db.irregular_primes() == [37]
    assert not db.is_irregular(7)
    assert db == PairDatabase(100, {37: [(32, None)]})
    path = tmp_path / "db.txt"
    db.save(str(path))
    assert load_database(str(path)) == db
    # every key must lie below max_p, with or without rows
    with pytest.raises(ValueError, match="not below max_p"):
        PairDatabase(10, {97: []})


def test_build_determinism_across_jobs(tmp_path):
    one = build_database(400, jobs=1)
    two = build_database(400, jobs=2)
    assert one == two
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    one.save(str(f1))
    two.save(str(f2))
    assert f1.read_bytes() == f2.read_bytes()


def test_database_save_format(db160, tmp_path):
    path = tmp_path / "db.txt"
    db160.save(str(path))
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
    reloaded.save(str(again))
    assert again.read_bytes() == path.read_bytes()

    db = build_database(40)
    db.set_delta(IrregularPair(37, 32), 21)
    db.save(str(path))
    assert path.read_text().splitlines()[1] == "37,32,21"
    assert load_database(str(path)).delta_for(IrregularPair(37, 32)) == 21


def test_database_v2_detects_lost_rows(db160, tmp_path):
    path = tmp_path / "db.txt"
    db160.save(str(path))
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


def test_database_v1_still_loads(db160, tmp_path):
    path = tmp_path / "db.txt"
    db160.save(str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(["# bernpairs-db v1 max_p=160"] + lines[1:]) + "\n")
    assert load_database(str(path)) == db160


def _load_text(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    return load_database(str(path))


def test_database_format_errors(tmp_path):
    with pytest.raises(FormatError) as exc:
        _load_text(tmp_path, "not a header\n37,32,\n")
    assert exc.value.line == 1
    with pytest.raises(FormatError) as exc:
        _load_text(tmp_path, "# bernpairs-db v1 max_p=160\n37,33,\n")
    assert exc.value.line == 2
    with pytest.raises(FormatError):
        _load_text(tmp_path, "# bernpairs-db v1 max_p=160\n35,12,\n")
    with pytest.raises(FormatError):
        _load_text(tmp_path, "# bernpairs-db v1 max_p=160\n37,32,\n37,32,\n")
    with pytest.raises(FormatError):
        _load_text(tmp_path, "# bernpairs-db v1 max_p=30\n37,32,\n")
    with pytest.raises(FormatError):
        _load_text(tmp_path, "# bernpairs-db v1 max_p=160\n37,32,99\n")
    with pytest.raises(FormatError):
        _load_text(tmp_path, "# bernpairs-db v1 max_p=160\n37,32,x\n")
    with pytest.raises(FormatError):
        _load_text(tmp_path, "")
    # v2 needs both fields and v1 takes neither
    with pytest.raises(FormatError):
        _load_text(tmp_path, "# bernpairs-db v2 max_p=160\n37,32,\n")
    with pytest.raises(FormatError):
        _load_text(tmp_path, f"# bernpairs-db v1 max_p=160 rows=1 sha256={'0' * 64}\n")


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
        assert not got.is_zero()


def test_delta_against_naive_recurrence():
    # independent oracle: exact Fractions from the defining recurrence
    count = 131
    naive = [Fraction(1)]
    for n in range(1, count):
        acc = Fraction(0)
        for j in range(n):
            acc += math.comb(n + 1, j) * naive[j]
        naive.append(-acc / (n + 1))
    for p, l in [(37, 32), (59, 44), (103, 24)]:
        slope = (naive[l + p - 1] / (l + p - 1) - naive[l] / l) / p
        want = rational_mod(slope, p).value
        assert delta(IrregularPair(p, l)).delta == want


def test_delta_rejects_regular_pair():
    with pytest.raises(NotIrregular):
        delta(IrregularPair(37, 30))
    with pytest.raises(NotIrregular):
        lift(IrregularPair(41, 10), 2)


def test_delta_nonzero_everywhere(db6500):
    for q in db6500.all_pairs():
        assert delta(q).delta != 0


def test_lift_frozen_examples():
    assert str(lift(IrregularPair(353, 186), 2)) == "(353;186,190)"
    # order-3 lift, matching the brute-force search below
    assert lift(IrregularPair(37, 32), 3).digits == (32, 7, 28)


def test_lift_digits_by_brute_force():
    # unique digit search straight from the order-(j+1) divisibility
    for p, l in [(37, 32), (59, 44)]:
        hits = [
            s
            for s in range(p)
            if divided_bernoulli_mod_pk(l + s * (p - 1), p, 2).value == 0
        ]
        assert len(hits) == 1
        assert lift(IrregularPair(p, l), 2).digits == (l, hits[0])
    l2 = 32 + 7 * 36
    hits3 = [
        s
        for s in range(37)
        if divided_bernoulli_mod_pk(l2 + s * 36 * 37, 37, 3).value == 0
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
        if divided_bernoulli_mod_pk(l2 + s * 58 * 59, 59, 3).value == 0
    ]
    assert len(hits3) == 1
    assert lift(IrregularPair(59, 44), 3).digits[2] == hits3[0]
    # nor on order 2
    big = next(q for q in db6500.all_pairs() if q.p > 1000)
    op = lift(big, 2)
    assert divided_bernoulli_mod_pk(op.index, big.p, 2).value == 0


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
        assert rest // phi_prime_power(p, v) % p == digits[v]
        rest -= digits[v] * phi_prime_power(p, v)
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


def test_scan_small_batch_runs_inline(db200, monkeypatch):
    # fewer than 16 pairs: jobs=2 must not start a pool, and must agree with jobs=1
    assert len(db200) < 16
    expected = scan_special_order2(db200, jobs=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a batch of fewer than 16 items started a pool")

    monkeypatch.setattr("bernpairs.pairs.multiprocessing.Pool", no_pool)
    assert scan_special_order2(db200, jobs=2) == expected
