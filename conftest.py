"""Repo-wide pytest hooks.

``--trace-out FILE`` exports every span the run recorded (the tests
instrument through :mod:`repro.obs`) as one Chrome-trace-event JSON —
load it at https://ui.perfetto.dev.  The option lives here because only
root-level conftests may register options; the spans come from whatever
the selected tests exercised.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--trace-out", action="store", default=None, metavar="FILE",
        help="write spans recorded during this run as Chrome-trace-event "
        "JSON (Perfetto-loadable)")


@pytest.fixture(scope="session", autouse=True)
def _export_session_trace(request):
    yield
    path = request.config.getoption("--trace-out")
    if path:
        from repro.obs import export_chrome_trace

        count = export_chrome_trace(path)
        print(f"\nwrote {count} trace events to {path}")
