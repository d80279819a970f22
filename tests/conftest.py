"""Shared fixtures: a small generated dataset and fast configs."""

import numpy as np
import pytest

from iem.harness import load_dataset
from iem.selection import SelectionConfig
from iem.synth import ChunkSpec, Scenario, generate_scenario
from iem.trainer import TrainConfig


@pytest.fixture(scope="session")
def tiny_dataset_dir(tmp_path_factory):
    """A 3-chunk shifted stream small enough for per-test training runs."""
    states = np.random.SeedSequence(123).generate_state(5)
    scenario = Scenario(
        train=(
            ChunkSpec(n_images=24, positive_fraction=0.5, seed=int(states[0])),
            ChunkSpec(n_images=8, positive_fraction=0.5, shift_offset=0.075,
                      seed=int(states[1])),
            ChunkSpec(n_images=8, positive_fraction=0.5, shift_offset=0.15,
                      seed=int(states[2])),
        ),
        test=(
            ChunkSpec(n_images=6, positive_fraction=0.5, seed=int(states[3])),
            ChunkSpec(n_images=6, positive_fraction=0.5, shift_offset=0.15,
                      seed=int(states[4])),
        ),
    )
    out = tmp_path_factory.mktemp("tinydata")
    generate_scenario(scenario, str(out))
    return str(out)


@pytest.fixture(scope="session")
def tiny_dataset(tiny_dataset_dir):
    return load_dataset(tiny_dataset_dir)


@pytest.fixture
def tiny_selcfg():
    return SelectionConfig(seed=1, iterations_per_step=3, t=2, d=50)


@pytest.fixture
def tiny_traincfg():
    return TrainConfig()
