from pathlib import Path

import pytest

import construe
from construe.constructions import load_constructions
from construe.kb import load_kb
from construe.tagger import load_lexicon

RESOURCE_DIR = Path(construe.__file__).parent / "resources"
DATA_DIR = Path(__file__).parent / "data"

DEMO_KB_FILES = [RESOURCE_DIR / "core.kb", RESOURCE_DIR / "demo.kb"]
DEMO_LEX_FILES = [RESOURCE_DIR / "demo.lex"]
DEMO_CG_FILES = [RESOURCE_DIR / "demo.cg"]
BIO_KB_FILES = [RESOURCE_DIR / "core.kb", RESOURCE_DIR / "bio.kb"]
BIO_LEX_FILES = [RESOURCE_DIR / "bio.lex"]
BIO_CG_FILES = [RESOURCE_DIR / "bio.cg"]


@pytest.fixture(autouse=True)
def private_resource_cache(tmp_path, monkeypatch):
    """Each test gets an empty CLI resource cache of its own, so no test
    reads another's entries or touches the user's cache."""
    cache_home = tmp_path / "xdg-cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    return cache_home / "construe"


@pytest.fixture(scope="session")
def demo_kb():
    return load_kb(DEMO_KB_FILES)


@pytest.fixture(scope="session")
def demo_lexicon():
    return load_lexicon(DEMO_LEX_FILES)


@pytest.fixture(scope="session")
def demo_repo():
    return load_constructions(DEMO_CG_FILES)


@pytest.fixture(scope="session")
def bio_kb():
    return load_kb(BIO_KB_FILES)


@pytest.fixture(scope="session")
def bio_lexicon():
    return load_lexicon(BIO_LEX_FILES)


@pytest.fixture(scope="session")
def bio_repo():
    return load_constructions(BIO_CG_FILES)
