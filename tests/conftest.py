import pytest

from flowinverse.tasks.darcy import kl_basis_build


@pytest.fixture(scope="session", autouse=True)
def _session_cache(tmp_path_factory):
    """Build KL bases into a session directory, so tests never read or write
    the user's cache; a build takes milliseconds."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("FLOWINVERSE_CACHE", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(scope="session")
def kl_basis():
    """Default 65x65 KL basis."""
    return kl_basis_build()
