"""Acceptance suite: every named check of `tfse.verify.SUITES`.

Each test prints one `ACCEPTANCE nn [name]: PASS/FAIL` line before
asserting, so the full scoreboard reaches the terminal whether or not a
check fails.  Lattices, metrics and bounds live in the registry only; this
file defines none of its own.
"""

import pytest

from tfse import verify

CHECKS = [check for checks in verify.SUITES.values() for check in checks]


@pytest.mark.parametrize(
    "number, check", enumerate(CHECKS, start=1),
    ids=[f"{n:02d}-{c.__name__.removeprefix('_check_')}"
         for n, c in enumerate(CHECKS, start=1)])
def test_acceptance(number, check, capsys):
    r = verify.run_check(check)
    status = "PASS" if r.passed else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {number:02d} [{r.name}]: {status} "
              f"(metric {r.metric:.3e}, bound {r.bound:.3e}, "
              f"{r.seconds:.2f} s)")
    assert r.passed, f"{r.name}: metric {r.metric:.3e} > bound {r.bound:.3e}"
