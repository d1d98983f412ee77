# One hypothesis profile for every test: examples derive from each test's
# name rather than a random seed, no example database is read or written,
# and no per-example deadline applies, so property tests run the same way
# on every run and cannot fail on the timing of a loaded host.

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

# The acceptance tests register one verdict line per criterion. Replaying
# them in the terminal summary keeps them visible under a plain `pytest`
# run, where per-test stdout is captured.

CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in CRITERION_LINES:
        terminalreporter.write_line(line)
