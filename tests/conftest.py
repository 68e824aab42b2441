import importlib.util
from pathlib import Path

import pytest

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
