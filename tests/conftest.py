import pytest

from eaqmds.cosets import CycContext
from eaqmds.families import classify
from eaqmds.gf import field_tower


@pytest.fixture(scope="session")
def ctx7():
    return CycContext.for_family(7)


@pytest.fixture(scope="session")
def ctx23():
    return CycContext.for_family(23)


@pytest.fixture(scope="session")
def ctx32():
    return CycContext.for_family(32)


@pytest.fixture(scope="session")
def tower7():
    return field_tower(7, 10)


@pytest.fixture(scope="session")
def tower23():
    return field_tower(23, 106)


@pytest.fixture(scope="session")
def spec23():
    return classify(23)


@pytest.fixture(scope="session")
def spec43():
    return classify(43)
