"""Hostile inputs at the public boundary: each call either succeeds or
raises a ConfigurationError, and nothing else escapes; each CLI command
exits with code 0, 1 or 2."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from dekm import cli, data
from dekm.config import ExperimentConfig
from dekm.errors import ConfigurationError

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# one valid spec of each dataset type, with every key that type reads
VALID = {
    "synthetic": {
        "type": "synthetic",
        "k": 3,
        "per_cluster_n": 5,
        "latent_dim": 2,
        "ambient_dim": 4,
        "separation": 2.0,
        "seed": 1,
    },
    "csv": {"type": "csv", "path": "data.csv", "has_labels": True},
    "idx": {"type": "idx", "images": "images.idx", "labels": "labels.idx"},
}
# keys no type reads, each one letter or word off a real one
MISSPELT = ["has_label", "seperation", "label", "image", "Path", "latentdim", "seeds", ""]
# values most keys reject, among them strings no type is
EXTREMES = [None, True, float("nan"), float("inf"), -1, 0, 2**63, 10**400, -(10**400),
            [4], b"x", "mnist", "CSV"]
HOSTILE = (
    st.sampled_from(EXTREMES)
    | st.floats()
    | st.integers()
    | st.lists(st.integers(), max_size=2)
    | st.text(max_size=4)
)


def loads_or_rejects(spec, k=4, seed=0):
    """Check both entry points on ``spec``: each gives a loader or raises a
    ConfigurationError."""
    try:
        assert callable(data.dataset_loader(spec, k, seed))
    except ConfigurationError:
        pass
    try:
        cfg = ExperimentConfig(dataset=spec)
    except ConfigurationError:
        return
    if "type" in spec:
        assert callable(cfg.dataset_loader())


@st.composite
def specs(draw):
    """A valid spec with one to three keys dropped, misspelt or set to a
    hostile value (``type`` among them); now and then no mapping at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(HOSTILE)
    spec = dict(VALID[draw(st.sampled_from(sorted(VALID)))])
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(spec) + MISSPELT))
        if draw(st.booleans()):
            spec.pop(key, None)
        else:
            spec[key] = draw(HOSTILE)
    return spec


def test_every_valid_spec_gives_a_loader():
    for spec in [*VALID.values(), {"type": "synthetic"}]:
        assert callable(data.dataset_loader(spec, 4, 0))
        assert callable(ExperimentConfig(dataset=spec).dataset_loader())


def test_each_key_at_each_extreme_gives_a_loader_or_a_configuration_error():
    for spec in VALID.values():
        for key in [*spec, *MISSPELT]:
            for value in EXTREMES:
                loads_or_rejects({**spec, key: value})
            loads_or_rejects({k: v for k, v in spec.items() if k != key})


@FUZZ
@given(spec=specs(), k=HOSTILE | st.integers(1, 8), seed=HOSTILE | st.integers(0, 8))
def test_hostile_specs_give_a_loader_or_a_configuration_error(spec, k, seed):
    loads_or_rejects(spec, k, seed)


# A config that pretrain, run, ablate and gen-synth all accept, with every
# key they read, on 8 points: each command that accepts a mutation of it
# finishes in milliseconds. embedding_dim is unset, so dekm.k sets the
# embedding width.
TINY = {
    "dataset": {**VALID["synthetic"], "k": 2, "per_cluster_n": 4, "latent_dim": 1,
                "ambient_dim": 2},
    "hidden_dims": [3],
    "pretrain_epochs": 1,
    "pretrain_batch_size": 4,
    "pretrain_lr": 0.001,
    "checkpoint": None,
    "dekm": {"k": 2, "max_outer_iters": 1, "inner_batch_size": 4, "inner_steps": 1,
             "strategy": "last_dim_Y", "batch_mode": "mini_batch", "stop_fraction": 0.001,
             "lr": 0.001, "kmeans_max_iter": 300, "kmeans_tol": 1e-6},
    "repeats": 1,
    "out": "out",
    "seed": 0,
}
# each key as its path into TINY; ("hidden_dims", 0) is the one hidden width
KEYS = [
    *((key,) for key in [*TINY, "embedding_dim"]),
    *(("dataset", key) for key in TINY["dataset"]),
    *(("dekm", key) for key in TINY["dekm"]),
    ("hidden_dims", 0),
]
# huge values of these keys are valid and only make a run longer
LONGER = {("pretrain_epochs",), ("repeats",), ("dekm", "inner_steps"),
          ("dekm", "max_outer_iters")}
CLI_GRID = [(command, key) for command in ("pretrain", "run", "ablate", "gen-synth")
            for key in KEYS]


def _mutated(key, value):
    cfg = json.loads(json.dumps(TINY))
    *parents, last = key
    section = cfg
    for part in parents:
        section = section[part]
    section[last] = value
    return cfg


@pytest.mark.parametrize("command, key", CLI_GRID, ids=[
    f"{command}-{'.'.join(map(str, key))}" for command, key in CLI_GRID
])
def test_each_cli_key_at_each_extreme_exits_0_1_or_2(tmp_path, monkeypatch, capsys, command, key):
    monkeypatch.chdir(tmp_path)  # relative out paths land here
    for value in EXTREMES:
        if isinstance(value, bytes) or key in LONGER and value in (2**63, 10**400):
            continue  # JSON holds no bytes; LONGER is above
        config = _mutated(key, value)
        (tmp_path / "config.json").write_text(json.dumps(config))
        code = cli.main([command, "--config", "config.json"])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (value, code)
        assert code == 0 or err.startswith("error:") and err.count("\n") == 1, (value, err)
