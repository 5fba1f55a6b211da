"""Every row of the `verify` reference table, one test item per row id.

The rows share the session's one p < 16000 build, so no prime is sieved
twice.
"""

import pytest

from bernpairs.verify import CHECKS, run_check


@pytest.mark.parametrize("check", CHECKS, ids=[c.id for c in CHECKS])
def test_reference_row(check, verify_ctx):
    assert run_check(check, verify_ctx) is None
