from pathlib import Path

import pytest

from intersection_analyzer import ingest_approaches, ingest_cycles, load_config

FIXTURES = Path(__file__).parent / "fixtures"

STUDY_CYCLES = FIXTURES / "study_cycles.csv"
STUDY_APPROACHES = FIXTURES / "study_approaches.csv"
WEEK_CYCLES = FIXTURES / "synthetic_week_cycles.csv"
WEEK_APPROACHES = FIXTURES / "synthetic_week_approaches.csv"
SPREAD_CYCLES = FIXTURES / "spread_cycles.csv"
SPREAD_APPROACHES = FIXTURES / "spread_approaches.csv"


@pytest.fixture(scope="session")
def study_approaches():
    with open(STUDY_APPROACHES, newline="") as handle:
        return ingest_approaches(handle)


@pytest.fixture(scope="session")
def study_records(study_approaches):
    with open(STUDY_CYCLES, newline="") as handle:
        return ingest_cycles(handle, study_approaches)


@pytest.fixture(scope="session")
def week_approaches():
    with open(WEEK_APPROACHES, newline="") as handle:
        return ingest_approaches(handle)


@pytest.fixture(scope="session")
def week_records(week_approaches):
    with open(WEEK_CYCLES, newline="") as handle:
        return ingest_cycles(handle, week_approaches)


@pytest.fixture(scope="session")
def default_config():
    return load_config()
