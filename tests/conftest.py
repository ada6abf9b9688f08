import numpy as np
import pytest
from hypothesis import settings

from vital.robot import GaitParams, robot_preset
from vital.terrain import TerrainMap

# Property tests draw the same examples on every run and keep no example
# database, so every run of the suite checks the same cases.
settings.register_profile("vital", derandomize=True, database=None, deadline=None, max_examples=40)
settings.load_profile("vital")


@pytest.fixture
def model():
    return robot_preset("hyq-like")


@pytest.fixture
def flat():
    return TerrainMap(kind="flat")


@pytest.fixture
def stairs():
    return TerrainMap(kind="stairs", rise=0.10, going=0.25, n_steps=5, start_x=0.0)


@pytest.fixture
def zero_velocity():
    return np.zeros(2)


@pytest.fixture
def forward_velocity():
    return np.array([0.2, 0.0])


@pytest.fixture
def gait():
    return GaitParams(duty_factor=0.5, t_remaining=0.357)
