"""Pass only when a pytest JUnit report fails exactly the expected tests.

    python .github/scripts/expected_failures.py REPORT.xml

Criterion 8a of the acceptance suite fails by design (see README), so the
tier-1 exit code alone cannot tell a regression from that known failure.
This check exits 0 when the failed or errored tests are exactly EXPECTED and
the report holds at least one passing test, and 1 otherwise, naming the
unexpected failures and any expected failure that did not occur.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED = {"tests.test_acceptance::test_criterion_08a_unconditioned_g2_strictly_coherent"}


def failing_tests(report: str) -> tuple[set[str], int]:
    """(ids of failed or errored test cases, number of test cases) in the report."""
    cases = list(ET.parse(report).getroot().iter("testcase"))
    failed = {
        f"{case.get('classname')}::{case.get('name')}"
        for case in cases
        if case.find("failure") is not None or case.find("error") is not None
    }
    return failed, len(cases)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed, total = failing_tests(argv[0])
    unexpected, missing = sorted(failed - EXPECTED), sorted(EXPECTED - failed)
    for test in unexpected:
        print(f"unexpected failure: {test}")
    for test in missing:
        print(f"expected failure did not occur: {test}")
    if total <= len(failed):
        print(f"no passing test among {total} test cases")
        return 1
    if unexpected or missing:
        return 1
    print(f"{total} test cases; only the expected failures failed: {sorted(EXPECTED)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
