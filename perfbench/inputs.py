"""Input generation, all derived from the workload seed and done before timing.

Nothing here is measured: training, repository construction and lineage
recording only produce the inputs the timed loops replay.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

from repro.dlv.repository import Repository
from repro.dnn.data import synthetic_digits, synthetic_faces
from repro.dnn.training import SGDConfig, Trainer
from repro.dnn.zoo import lenet, tiny_mlp
from repro.lifecycle.auto_modeler import AutoModeler, ModelerConfig

SERVE_MODELS = ("mlp", "lenet")


def _sd_config(num_versions: int) -> ModelerConfig:
    # The SD repository of benchmarks/conftest.py (``sd_repo``): VGG-mini
    # at half width on 16x16 faces, 4 checkpoint snapshots per version.
    # The modeler's own seed fixes the lineage's shape (which move derives
    # which version from which parent).
    return ModelerConfig(
        num_versions=num_versions,
        snapshots_per_version=4,
        base_epochs=2,
        finetune_epochs=1,
        model_scale=0.5,
        seed=17,
    )


def _faces(seed: Optional[int] = None):
    # ``faces16`` of benchmarks/conftest.py; its own default seed unless
    # the workload seed is given.
    kwargs = {} if seed is None else {"seed": seed}
    return synthetic_faces(
        size=16, num_classes=8, train_per_class=15, test_per_class=5,
        **kwargs,
    )


def serve_repo(seed: int, path: Path) -> tuple[str, np.ndarray]:
    """A single-file sqlite repo holding a digits MLP and a digits LeNet.

    Returns the repository URL and the test inputs requests draw from.
    """
    digits = synthetic_digits(train_per_class=40, test_per_class=15, seed=seed)
    mlp = tiny_mlp(
        input_shape=digits.input_shape, num_classes=digits.num_classes,
        hidden=48, name="mlp",
    ).build(seed)
    Trainer(mlp, SGDConfig(epochs=3, base_lr=0.1, batch_size=32,
                           seed=seed)).fit(digits.x_train, digits.y_train)
    conv = lenet(
        input_shape=digits.input_shape, num_classes=digits.num_classes,
        name="lenet",
    ).build(seed)
    Trainer(conv, SGDConfig(epochs=3, base_lr=0.05, batch_size=32,
                            seed=seed)).fit(digits.x_train, digits.y_train)
    path.mkdir(parents=True)
    url = f"sqlite://{path / 'repo.db'}"
    with Repository.init(url) as repo:
        repo.commit(mlp, name="mlp", message="digits mlp")
        repo.commit(conv, name="lenet", message="digits lenet")
    return url, digits.x_test


def sd_repo(path: Path) -> Repository:
    """The SD repository of benchmarks/conftest.py (``sd_repo``: 6 versions
    x 4 snapshots, 528 float32 matrices) on the local-fs backend.

    It is the same for every workload seed, like the fixture; the seed
    draws the queries made against it.
    """
    repo = Repository.init(str(path))
    AutoModeler(repo, dataset=_faces(), config=_sd_config(6)).run()
    return repo


def sd_lineage(seed: int, path: Path) -> list[dict]:
    """Record the ``Repository.commit`` calls of a 10-version SD lineage.

    The lineage is generated once into a throwaway repository; each
    recorded call (network, name, parent name, training result with its
    checkpoint snapshots) can then be replayed into any fresh repository.
    Its shape is the SD modeler's; the workload seed draws the face data,
    and through it every trained weight.
    """
    repo = Repository.init(str(path))
    calls: list[dict] = []
    commit = repo.commit

    def recording_commit(network, name, message="", parent=None,
                         train_result=None, hyperparams=None):
        calls.append({
            "network": network,
            "name": name,
            "message": message,
            "parent": None if parent is None else parent.name,
            "train_result": train_result,
            "hyperparams": hyperparams,
        })
        return commit(network, name, message=message, parent=parent,
                      train_result=train_result, hyperparams=hyperparams)

    repo.commit = recording_commit
    AutoModeler(repo, dataset=_faces(seed), config=_sd_config(10)).run()
    repo.close()
    return calls


def hub_source(seed: int, path: Path) -> Repository:
    """A small local-fs repository: one MLP, one file per byte plane."""
    net = tiny_mlp(input_shape=(1, 8, 8), num_classes=4, hidden=8,
                   name="hub-mlp").build(seed)
    repo = Repository.init(str(path))
    repo.commit(net, name="hub-mlp", message="published model")
    return repo

