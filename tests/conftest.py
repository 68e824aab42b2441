import importlib.util
from pathlib import Path

import pytest

from kramanujan import breakpoints, sieve_upto
from kramanujan import primes as primes_mod

from reference import FLOOR


@pytest.fixture(scope="session")
def store_60k():
    # reaches past 58890, enough for every fast-path computation
    return sieve_upto(60_000)


@pytest.fixture(scope="session")
def store_10m():
    return sieve_upto(10_000_000)


@pytest.fixture(scope="session")
def store_21m():
    # past the last gap-ratio record above FLOOR, 20831533 = p_1319946
    return sieve_upto(21_000_000)


@pytest.fixture(scope="session")
def floor_rows(store_21m):
    """The gap-ratio records above FLOOR on the sieve to 21e6: the 92 rows to
    the horizon, as the walk to record_prefix(2e9, FLOOR) = 29,200,292 finds
    none past 20831533 (tested)."""
    return breakpoints(FLOOR, store_21m.count, store_21m)


@pytest.fixture(scope="session")
def records_script():
    """scripts/records.py, loaded as a module: the generator of segments.csv."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "records.py"
    spec = importlib.util.spec_from_file_location("records", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.fixture(scope="session")
def small_tables(records_script):
    """A stand-in for primes._table: segments.csv as scripts/records.py writes it
    to 60,000 at the patched segment size, so that its rows match the small
    segments of the tests that use it; with the sieve budget patched to 60,000
    too, its last row is a full segment's, and 60,000 is table's horizon."""
    tables = {}

    def table(i=0):
        odds = primes_mod._SEGMENT_ODDS
        if odds not in tables:
            tables[odds] = records_script.segment_rows(60_000)
        yield from tables[odds][i:]

    return table
