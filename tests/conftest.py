"""Session fixtures shared by the test modules."""

import pytest

from disclab import suites


@pytest.fixture(scope="session")
def seed42_suite():
    """`suites.run_suite(name, 42)`, run at most once per name per session.

    The suite gate, the cross-seed check and the acceptance criteria read
    the same seed-42 reports; none of them mutates one.
    """
    reports = {}

    def run(name):
        if name not in reports:
            reports[name] = suites.run_suite(name, 42)
        return reports[name]

    return run
