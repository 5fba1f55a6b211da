"""Minimal indices at which a prime divides the numerator ratio.

For an irregular pair (p, l), the candidate index m = (l-1)p + 1 is the
smallest m with p | m-1 and m ≡ l (mod p-1), which makes p divide both
num(B_m/m) and m-1, hence the ratio num(B_m/m) / num(B_m/(m(m-1))).
The candidate is the true minimal index (the a-value) unless some other
irregular prime q | l-1 also lands in the ratio at a smaller or equal index;
a witness (q, l') with (l-1)p ≡ l'-1 (mod q-1) flags such interference, and
find_exceptions collects every pair in a database whose candidate fails that
coprimality test.

Prime powers p^r need the order-r lifting digits to all equal l-1; the first
deviating digit kills the solution (NoSolution records where), and no deeper
digit is ever computed than the first deviation requires.

The ratio itself never needs B_m as a rational. With N = num(B_m/m), the
ratio is gcd(N, m-1) = prod q^min(e, v_q(B_m/m)) over q^e exactly dividing
m-1; a q with (q-1) | m sits in denom(B_m) (von Staudt-Clausen) and not in m,
so it contributes 1, and every other q needs only B_m/m mod q^e.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from .arith import factorize
from .bernoulli import divided_bernoulli_mod_pk
from .pairs import IrregularPair, PairDatabase, lift_digits


@dataclass(frozen=True)
class AValueResult:
    """A candidate minimal index m = (l-1) p^r + 1 and its validity."""

    pair: IrregularPair
    r: int
    m: int
    valid: bool
    witnesses: Tuple[Tuple[int, int], ...]  # (q, l') pairs spoiling minimality


@dataclass(frozen=True)
class NoSolution:
    """Order-r lifting digits deviate from l-1, so no p^r candidate exists."""

    pair: IrregularPair
    r: int
    deviated_at: int  # 1-based digit position of the first s_j != l-1


@dataclass(frozen=True)
class ExceptionRecord:
    """A pair whose candidate index fails the witness test."""

    pair: IrregularPair
    m: int
    factors: Tuple[Tuple[int, int], ...]  # factorization of l-1
    witnesses: Tuple[Tuple[int, int], ...]


def _witnesses(
    l: int, p: int, r: int, db: PairDatabase
) -> Tuple[Tuple[int, int], ...]:
    """Irregular pairs (q, l') with q | l-1 and (l-1)p^r ≡ l'-1 (mod q-1)."""
    out: List[Tuple[int, int]] = []
    for q, _e in factorize(l - 1):
        if q < 5 or q == p or not db.is_irregular(q):
            continue
        t = (l - 1) * pow(p, r, q - 1) % (q - 1)
        for qpair in db.pairs_for(q):
            if t == (qpair.l - 1) % (q - 1):
                out.append((q, qpair.l))
    return tuple(sorted(out))


def a_value_prime_power(
    pair: IrregularPair, r: int, db: PairDatabase
) -> Union[AValueResult, NoSolution]:
    """The p^r candidate, demanding lifting digits s_2 = ... = s_r = l - 1.

    r = 1 lifts nothing. Digits are consumed lazily and checked as they
    arrive, so the first deviation short-circuits without paying for deeper
    lifts. db must cover the prime factors of l-1, which lie below p.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if r > 1:
        gen = lift_digits(pair)
        next(gen)
        for j in range(2, r + 1):
            if next(gen) != pair.l - 1:
                return NoSolution(pair, r, deviated_at=j)
    m = (pair.l - 1) * pair.p**r + 1
    wits = _witnesses(pair.l, pair.p, r, db)
    return AValueResult(pair, r, m, not wits, wits)


def find_exceptions(db: PairDatabase) -> List[ExceptionRecord]:
    """Every pair in db whose candidate index fails the witness test.

    One record per pair, ascending (p, l), carrying all witnesses.
    """
    out: List[ExceptionRecord] = []
    for pair in db.all_pairs():
        wits = _witnesses(pair.l, pair.p, 1, db)
        if wits:
            out.append(
                ExceptionRecord(
                    pair,
                    (pair.l - 1) * pair.p + 1,
                    tuple(factorize(pair.l - 1)),
                    wits,
                )
            )
    return out


def verify_ratio(m: int) -> int:
    """num(B_m/m) / num(B_m/(m(m-1))) for even m >= 2, as an exact integer.

    Computed as gcd(num(B_m/m), m-1) = prod q^min(e, v_q(B_m/m)) over the
    prime powers q^e exactly dividing m-1, skipping q with (q-1) | m (among
    them q = 3), where B_m/m has a pole. Each remaining q costs one residue
    B_m/m mod q^e: per recursion level, one modular power per prime below q
    and one multiplication per composite, in O(q) words of transient memory.
    So the largest prime factor of m-1 sets the cost.
    """
    if m < 2 or m % 2 == 1:
        raise ValueError(f"need an even m >= 2, got {m}")
    ratio = 1
    for q, e in factorize(m - 1):
        if m % (q - 1) == 0:
            continue
        x = divided_bernoulli_mod_pk(m, q, e)
        k = 0
        while k < e and x % q == 0:
            x //= q
            k += 1
        ratio *= q**k
    return ratio
