"""Shared fixtures. Scenario flows are session-scoped so each expensive
pipeline runs once for the whole suite. Every test starts and ends without
the flows' protocol plan. The acceptance tests log one line per criterion
here; the summary hook prints them after the run."""
import pytest

from relfacts.scenarios import ScenarioConfig, clear_plan, run_cdr_suite, run_lmz

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def fresh_plan():
    """Drop the protocol plan before and after each test. A flow derives it
    on first use, from the builders as they are then, so a test that
    patches one (scenarios.lift, ledger, alice_premeasurements,
    PauliString.__mul__, ...) must not meet a plan built before its patch,
    nor leave one built with it."""
    clear_plan()
    yield
    clear_plan()


@pytest.fixture(scope="session")
def lmz_exact():
    return run_lmz(ScenarioConfig())


@pytest.fixture(scope="session")
def lmz_sampled():
    return run_lmz(ScenarioConfig(shots=500, master_seed=3))


@pytest.fixture(scope="session")
def cdr_suite_sampled():
    return run_cdr_suite(shots=500, master_seed=5)
