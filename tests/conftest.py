import importlib.util
from pathlib import Path

import pytest

from kramanujan import primes as primes_mod
from kramanujan import sieve_upto


@pytest.fixture(scope="session")
def store_60k():
    # reaches past 58890, enough for every fast-path computation
    return sieve_upto(60_000)


@pytest.fixture(scope="session")
def store_10m():
    return sieve_upto(10_000_000)


@pytest.fixture(scope="session")
def store_21m():
    # past the last row of records.csv, 20831533 = p_1319946
    return sieve_upto(21_000_000)


@pytest.fixture(scope="session")
def records_script():
    """scripts/records.py, loaded as a module: the generator of records.csv
    and segments.csv."""
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

    def table(name, i=0):
        assert name == "segments.csv"
        odds = primes_mod._SEGMENT_ODDS
        if odds not in tables:
            tables[odds] = records_script.segment_rows(60_000)
        yield ""
        yield from tables[odds][i:]

    return table
