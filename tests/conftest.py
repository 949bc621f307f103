import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from molrag.store import build_store, load_chebi_tsv

DATA_DIR = Path(__file__).parent / "data"


def pytest_configure(config):
    # Any warning fails this suite. It is set here and not in pyproject.toml, which
    # perfbench/tests shares: perfbench/reference.py leaves a file to the garbage
    # collector, and its ResourceWarning would fail those tests.
    config.addinivalue_line("filterwarnings", "error")
    # Hypothesis's failure report imports libcst, which imports mypy_extensions; its
    # deprecation warning, raised as an error there, would end the session in
    # INTERNALERROR instead of reporting the failing test.
    config.addinivalue_line(
        "filterwarnings", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def corpus_tsv():
    records, fingerprints, report = load_chebi_tsv(DATA_DIR / "corpus.tsv")
    assert not report.quarantined
    return records, fingerprints


@pytest.fixture(scope="session")
def corpus_records(corpus_tsv):
    return corpus_tsv[0]


@pytest.fixture(scope="session")
def corpus_fingerprints(corpus_tsv):
    return corpus_tsv[1]


@pytest.fixture(scope="session")
def corpus_store(corpus_records, corpus_fingerprints):
    return build_store(corpus_records, corpus_fingerprints)


@pytest.fixture(scope="session")
def test_records():
    records, _, report = load_chebi_tsv(DATA_DIR / "test_items.tsv")
    assert not report.quarantined
    return records
