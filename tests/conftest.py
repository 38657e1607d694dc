"""Session fixtures on the 1-D toy (``toy1d.py``): its pair, and the two cold
runs from the right box that acceptance 02 and 03 and the solver tests
inspect, each trained once per session."""
import time

import pytest

from ofc.energy import MeasureEnergy
from ofc.solver import TrainConfig, train
from toy1d import RIGHT_BOX, ToyRun, cold_dt, toy_pair, train_energy


@pytest.fixture(scope="session")
def toy():
    """The toy's pair at 1024 cells, and the eps train resolves on it."""
    pair = toy_pair()
    return pair, train_energy(pair).eps


@pytest.fixture(scope="session")
def trained_f1(toy):
    """The F1 run at a tenth of the automatic step."""
    pair, _ = toy
    started = time.monotonic()
    cfg = TrainConfig(init=RIGHT_BOX, dt=cold_dt(pair), reinit_every=300, max_iter=8000)
    model, trace = train(pair, cfg)
    seconds = time.monotonic() - started
    return ToyRun(model, trace, train_energy(pair), seconds)


@pytest.fixture(scope="session")
def trained_accuracy(toy):
    """The accuracy run at the automatic step."""
    pair, eps = toy
    started = time.monotonic()
    cfg = TrainConfig(init=RIGHT_BOX, reinit_every=300, max_iter=12000)
    model, trace = train(pair, cfg, "accuracy")
    seconds = time.monotonic() - started
    return ToyRun(model, trace, MeasureEnergy(pair, eps=eps, kind="accuracy"), seconds)
