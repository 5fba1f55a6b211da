"""Every row of the `verify` reference table, one test item per row id.

The rows share the session's database builds, so no prime is sieved twice;
only the rows that need the p < 16000 build are marked `extended`.
"""

import pytest

from bernpairs.verify import CHECKS, run_check

NEEDS_16000 = {"exceptions/five-rows"}
assert NEEDS_16000 <= {c.id for c in CHECKS}, "unknown row id in NEEDS_16000"


@pytest.mark.parametrize(
    "check",
    [
        pytest.param(c, marks=[pytest.mark.extended] if c.id in NEEDS_16000 else [])
        for c in CHECKS
    ],
    ids=[c.id for c in CHECKS],
)
def test_reference_row(check, request):
    ctx = request.getfixturevalue(
        "verify_ctx16000" if check.id in NEEDS_16000 else "verify_ctx"
    )
    assert run_check(check, ctx) is None
