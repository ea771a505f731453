import pytest

from flowinverse.tasks.darcy import kl_basis_build


@pytest.fixture(scope="session")
def kl_basis():
    """Default 65x65 KL basis."""
    return kl_basis_build()
