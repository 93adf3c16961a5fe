import signal

import pytest

TIME_LIMIT_S = 30  # the slowest test takes under 2 s


class TimeLimitExceeded(BaseException):
    """A test ran past TIME_LIMIT_S.

    Not an Exception: hypothesis would catch one and replay the example to
    shrink it, and a replay that loops forever has no alarm left to stop it.
    """


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TIME_LIMIT_S, so a loop that never ends cannot hang the suite."""
    def overrun(signum, frame):
        raise TimeLimitExceeded(f"test ran past its {TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
