import pytest

from catspan import corpus
from catspan.fileformat import recording_reads


@pytest.fixture(scope="session")
def corpus_functors():
    """The corpus categories, presheaves and copresheaves, loaded in one
    session, so that every functor's base is the category loaded here."""
    with recording_reads():
        categories = corpus.corpus_categories()
        presheaves = {name: corpus.corpus_presheaves(name) for name in categories}
        copresheaves = {name: corpus.corpus_copresheaves(name) for name in categories}
    return categories, presheaves, copresheaves


@pytest.fixture(scope="session")
def categories(corpus_functors):
    return corpus_functors[0]


@pytest.fixture(scope="session")
def presheaves(corpus_functors):
    return corpus_functors[1]


@pytest.fixture(scope="session")
def copresheaves(corpus_functors):
    return corpus_functors[2]


@pytest.fixture(scope="session")
def metrics():
    return corpus.corpus_metrics()
