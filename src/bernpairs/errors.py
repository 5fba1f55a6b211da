"""Error hierarchy.

Every domain failure raises a subclass of BernpairsError so callers (and the CLI,
which maps them to exit code 1) can catch one type. Errors that carry actionable
data expose it as attributes, not just message text.
"""

from __future__ import annotations


class BernpairsError(Exception):
    """Base class for all domain errors raised by this package.

    Pickles by its message and attributes, not its constructor's arguments:
    a pool worker's exception crosses to the parent by pickle, and one that
    cannot be rebuilt there kills the pool's result thread, so the map waits
    forever.
    """

    def __reduce__(self):
        return _rebuild, (type(self), self.args), self.__dict__


def _rebuild(cls: type, args: tuple) -> BernpairsError:
    # BaseException.__new__ sets args (and so str()) without calling __init__
    return cls.__new__(cls, *args)


class PoleAtIndex(BernpairsError):
    """B_n/n has a pole mod p: (p-1) | n, so p divides the denominator."""

    def __init__(self, n: int, p: int):
        self.n = n
        self.p = p
        super().__init__(f"B_{n}/{n} is not p-integral for p={p}: {p - 1} divides {n}")


class DeltaZero(BernpairsError):
    """The lifting slope vanished mod p; unique digit lifting is impossible."""

    def __init__(self, p: int, l: int):
        self.p = p
        self.l = l
        super().__init__(f"delta vanishes for pair ({p},{l}); cannot lift uniquely")


class ResourceLimit(BernpairsError):
    """A computation exceeded a configured size or feasibility limit."""

    def __init__(self, message: str, needed: int | None = None, limit: int | None = None):
        self.needed = needed
        self.limit = limit
        super().__init__(message)


class FormatError(BernpairsError):
    """A database file failed validation; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class DatabaseTooSmall(BernpairsError):
    """A query needs pair data beyond the database bound; carries the bound needed."""

    def __init__(self, needed: int, have: int):
        self.needed = needed
        self.have = have
        super().__init__(
            f"database covers primes below {have}, need coverage below {needed}"
        )


class NotIrregular(BernpairsError):
    """An operation required an irregular prime (or pair) and got a regular one."""

    def __init__(self, p: int, detail: str = ""):
        self.p = p
        msg = f"{p} is not an irregular prime"
        super().__init__(msg + (f": {detail}" if detail else ""))


class NotStrongFriendly(BernpairsError):
    """A pair set does not satisfy the strong compatibility conditions."""

    def __init__(self, pairs, detail: str = ""):
        self.pairs = tuple(pairs)
        msg = f"pair set {self.pairs} is not strong friendly"
        super().__init__(msg + (f": {detail}" if detail else ""))
