import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from molrag.smiles import parse_smiles
from molrag.store import build_store, load_chebi_tsv

DATA_DIR = Path(__file__).parent / "data"


def pytest_configure(config):
    # Any warning fails this suite. It is set here and not in pyproject.toml, which
    # perfbench/tests shares: perfbench/reference.py leaves a file to the garbage
    # collector, and its ResourceWarning would fail those tests.
    config.addinivalue_line("filterwarnings", "error")


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def corpus_records():
    records, _, report = load_chebi_tsv(DATA_DIR / "corpus.tsv")
    assert not report.quarantined
    return records


@pytest.fixture(scope="session")
def corpus_molecules(corpus_records):
    return [parse_smiles(rec.smiles) for rec in corpus_records]


@pytest.fixture(scope="session")
def corpus_store(corpus_records, corpus_molecules):
    return build_store(corpus_records, corpus_molecules)


@pytest.fixture(scope="session")
def test_records():
    records, _, report = load_chebi_tsv(DATA_DIR / "test_items.tsv")
    assert not report.quarantined
    return records
