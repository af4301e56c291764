import cProfile
import sys

import pytest

import golden
import skewhowe


@pytest.fixture(scope="session")
def golden_pass():
    """Every row of golden.ROWS run once under cProfile: the code objects
    entered, and argv -> (exit code, stdout sha256, stderr).  cProfile
    hooks the calls as sys.setprofile does; with builtins=False it skips
    calls into C in C, at about half the overhead of a Python hook.

    Every module is imported first, so the code entered does not depend
    on which tests ran before: the package's lazy __getattr__ only runs
    on a first import, which the import tests in test_cli.py make."""
    for name in skewhowe.__all__:
        getattr(skewhowe, name)
    for name, module in list(sys.modules.items()):
        if name.startswith("skewhowe."):  # a memoized function runs on a miss
            for value in vars(module).values():
                getattr(value, "cache_clear", lambda: None)()
    profiler = cProfile.Profile(builtins=False)
    results = {}
    profiler.enable()
    try:
        for row in golden.ROWS:
            results[row.argv] = golden.run_row(row.argv)
    finally:
        profiler.disable()
    return {entry.code for entry in profiler.getstats()}, results
