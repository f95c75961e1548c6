"""Hostile inputs at the public boundary: each dataset spec gives a loader
or a ConfigurationError, each public function returns or raises a
DekmError, and nothing else escapes; each CLI command exits with code 0, 1
or 2."""

import dataclasses
import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dekm import autoencoder as ae, cli, core, data, kmeans as km, metrics
from dekm.config import ExperimentConfig
from dekm.errors import ConfigurationError, DekmError

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
# values most keys reject, among them strings no type is, and numpy scalars
EXTREMES = [None, True, float("nan"), float("inf"), -1, 0, 2**63, 10**400, -(10**400),
            [4], b"x", "mnist", "CSV", np.float32(2.0), np.float32("inf"), np.int64(-1)]
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
    "checkpoint": None,
    "dekm": {"k": 2, "max_outer_iters": 1, "inner_batch_size": 4, "inner_steps": 1,
             "strategy": "last_dim_Y", "batch_mode": "mini_batch"},
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


@pytest.mark.parametrize("command", ["pretrain", "run", "ablate", "gen-synth"])
def test_the_cli_grid_base_config_exits_0(tmp_path, monkeypatch, capsys, command):
    # the grid's premise: a key that no command reads would make every
    # mutation exit 2 at the unknown-key check, and the grid would test nothing
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(TINY))
    assert cli.main([command, "--config", "config.json"]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("command, key", CLI_GRID, ids=[
    f"{command}-{'.'.join(map(str, key))}" for command, key in CLI_GRID
])
def test_each_cli_key_at_each_extreme_exits_0_1_or_2(tmp_path, monkeypatch, capsys, command, key):
    monkeypatch.chdir(tmp_path)  # relative out paths land here
    for value in EXTREMES:
        if isinstance(value, (bytes, np.generic)) or key in LONGER and value in (2**63, 10**400):
            continue  # JSON holds no bytes or numpy scalars; LONGER is above
        config = _mutated(key, value)
        (tmp_path / "config.json").write_text(json.dumps(config))
        code = cli.main([command, "--config", "config.json"])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (value, code)
        assert code == 0 or err.startswith("error:") and err.count("\n") == 1, (value, err)


# Six distinct points in 3-D, two clusters of three, and one model whose
# embedding is 2 wide: the valid arguments of every call below.
H = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0],
              [4.0, 4.0, 4.0], [4.5, 4.0, 4.0], [4.0, 4.5, 4.0]])
LABELS = np.array([0, 0, 0, 1, 1, 1])
CLUSTERING = km.lloyd(H, 2, H[[0, 3]])
MODEL = ae.xavier_init([3, 4, 2], 0)
TINY_RUN = core.DekmConfig(k=2, max_outer_iters=1, inner_batch_size=4)


def _gradient():
    return ae.AutoencoderModel(MODEL.dims, np.empty_like(MODEL.flat))


# For each public function: the call, the valid arguments it is made with
# (built fresh for each call, since some calls write into them) and the
# arguments the grid varies. Left out on purpose:
# - arguments that take a package object: a model, a gradient, an
#   AdamState, a TransformState or a ClusterResult;
# - ae.AdamState.for_params, whose parameter list is to become one array;
# - values that only make a run longer: pretrain's epochs, and run_dekm's
#   config (DekmConfig's own fields are varied below);
# - path arguments, which test_errors.py passes pipe descriptors and 2**63;
# - the public functions in EXEMPT.
FUNCTIONS = {
    "kmeanspp_init": (
        km.kmeanspp_init,
        lambda: {"h": H, "k": 2, "rng": np.random.default_rng(0)},
        ("h", "k", "rng"),
    ),
    "lloyd": (
        km.lloyd,
        lambda: {"h": H, "k": 2, "init_centroids": H[[0, 3]]},
        ("h", "k", "init_centroids"),
    ),
    "assigned_centroids": (km.assigned_centroids, lambda: {"h": H, "r": CLUSTERING}, ("h",)),
    "within_class_scatter": (
        km.within_class_scatter, lambda: {"h": H, "r": CLUSTERING}, ("h",),
    ),
    "build_transform": (core.build_transform, lambda: {"s_w": np.eye(3)}, ("s_w",)),
    "greedy_targets": (
        core.greedy_targets,
        lambda: {"h": H, "t": core.build_transform(np.eye(3)), "r": CLUSTERING,
                 "strategy": "random_dim_Y", "rng": np.random.default_rng(0)},
        ("h", "strategy", "rng"),
    ),
    "greedy_loss": (core.greedy_loss, lambda: {"h": H, "targets": H + 1.0}, ("h", "targets")),
    "changed_fraction": (
        core.changed_fraction,
        lambda: {"prev_assignments": LABELS, "assignments": LABELS[::-1]},
        ("prev_assignments", "assignments"),
    ),
    "run_dekm": (
        core.run_dekm,
        lambda: {"model": MODEL.copy(), "x": H, "config": TINY_RUN, "labels": LABELS},
        ("x", "labels"),
    ),
    "DekmConfig": (
        core.DekmConfig,
        lambda: {"k": 2},
        tuple(f.name for f in dataclasses.fields(core.DekmConfig)),
    ),
    **{
        name: (getattr(metrics, name), lambda: {"g": LABELS, "c": LABELS[::-1]}, ("g", "c"))
        for name in ("acc", "nmi", "matched", "contingency")
    },
    "hungarian": (metrics.hungarian, lambda: {"cost": H}, ("cost",)),
    "align_labels": (
        metrics.align_labels,
        lambda: {"reference": LABELS, "labels": LABELS[::-1]},
        ("reference", "labels"),
    ),
    "gaussian_entropy": (
        metrics.gaussian_entropy, lambda: {"variances": np.array([1.0, 2.0])}, ("variances",),
    ),
    "uniform_entropy": (metrics.uniform_entropy, lambda: {"n": 4}, ("n",)),
    "save_csv": (
        data.save_csv,
        lambda: {"path": "out.csv", "x": H, "labels": LABELS, "header": "# h\n"},
        ("x", "labels", "header"),
    ),
    "gen_synthetic": (
        data.gen_synthetic,
        lambda: {"k": 2, "per_cluster_n": 3, "latent_dim": 1, "ambient_dim": 2,
                 "separation": 2.0, "seed": 0},
        ("k", "per_cluster_n", "latent_dim", "ambient_dim", "separation", "seed"),
    ),
    "check_synthetic": (
        data.check_synthetic,
        lambda: {"k": 2, "per_cluster_n": 3, "latent_dim": 1, "ambient_dim": 2,
                 "separation": 2.0, "seed": 0},
        ("k", "per_cluster_n", "latent_dim", "ambient_dim", "separation", "seed"),
    ),
    "dataset_loader": (
        data.dataset_loader,
        lambda: {"spec": {"type": "synthetic", "per_cluster_n": 3}, "k": 2, "seed": 0},
        ("spec", "k", "seed"),
    ),
    "encode": (ae.encode, lambda: {"m": MODEL, "x": H}, ("x",)),
    "decode": (ae.decode, lambda: {"m": MODEL, "h": H[:, :2]}, ("h",)),
    "reconstruction_loss": (ae.reconstruction_loss, lambda: {"m": MODEL, "x": H}, ("x",)),
    "xavier_init": (ae.xavier_init, lambda: {"dims": [3, 4, 2], "seed": 0}, ("dims", "seed")),
    "pretrain": (
        ae.pretrain,
        lambda: {"m": MODEL.copy(), "x": H, "epochs": 1, "batch_size": 4, "seed": 0},
        ("x", "batch_size", "seed"),
    ),
    "backprop_reconstruction": (
        ae.backprop_reconstruction, lambda: {"m": MODEL, "x": H, "grad": _gradient()}, ("x",),
    ),
    "backprop_embedding": (
        ae.backprop_embedding,
        lambda: {"m": MODEL, "x": H, "targets": H[:, :2], "grad": _gradient()},
        ("x", "targets"),
    ),
    "save_checkpoint": (
        ae.save_checkpoint, lambda: {"path": "model.json", "m": MODEL, "meta": None}, ("meta",),
    ),
}
# The public functions FUNCTIONS leaves out, by reason.
EXEMPT = {
    "its parameter list is to become one array": (ae.adam_step,),
    "it is backprop_embedding, a row here, then adam_step on an AdamState": (
        core.representation_step,
    ),
    "its callers, pretrain and run_dekm, check its arguments": (ae.train,),
    "it reads a path, which test_errors.py passes pipe descriptors and 2**63": (
        ae.load_checkpoint, data.load_idx, data.load_csv, data.load_labels,
    ),
    "a path helper, tested through the loaders and writers in test_errors.py": (
        data.open_input, data.open_output, data.write_text, data.output_dir,
    ),
}
FUNCTION_GRID = [(name, arg) for name, (_, _, args) in FUNCTIONS.items() for arg in args]


def test_every_public_function_is_in_the_grid_or_exempt_with_a_reason():
    gridded = {call for call, _, _ in FUNCTIONS.values()}
    exempt = [f for funcs in EXEMPT.values() for f in funcs]
    assert len(set(exempt)) == len(exempt) and not gridded & set(exempt)
    public = {
        f for module in (ae, core, km, metrics, data) for name, f in vars(module).items()
        if inspect.isfunction(f) and f.__module__ == module.__name__ and not name.startswith("_")
    }
    assert sorted(f.__qualname__ for f in public - gridded - set(exempt)) == []
    assert sorted(f.__qualname__ for f in set(exempt) - public) == []


def _extremes(valid):
    """The values one argument is set to, by name. The complex, nan and inf
    arrays take the shape of a valid array, and the empty one its width."""
    shape = valid.shape if isinstance(valid, np.ndarray) else (2,)
    return {
        "None": None,
        "bool": True,
        "string": "x",
        "complex": np.ones(shape) + 1j,
        "ragged": [[1.0, 2.0], [3.0]],
        "nan": np.full(shape, np.nan),
        "inf": np.full(shape, np.inf),
        "0-D": np.array(1.0),
        "1-D": np.ones(3),
        "3-D": np.ones((2, 3, 4)),
        "empty": valid[:0] if isinstance(valid, np.ndarray) else np.empty(0),
        "negative": -1,
        "huge": 2**63,
        "beyond float": 10**400,
        "float32": np.float32(2.0),
        "float32 inf": np.float32("inf"),
        "int64": np.int64(-1),
    }


@pytest.mark.parametrize("name, arg", FUNCTION_GRID, ids=[
    f"{name}-{arg}" for name, arg in FUNCTION_GRID
])
def test_each_argument_at_each_extreme_returns_or_raises_a_dekm_error(
    tmp_path, monkeypatch, name, arg
):
    monkeypatch.chdir(tmp_path)  # the relative paths the writers take land here
    call, valid, _ = FUNCTIONS[name]
    call(**valid())
    for label, value in _extremes(valid().get(arg)).items():
        try:
            call(**{**valid(), arg: value})
        except DekmError:
            pass
        except Exception as exc:
            raise AssertionError(f"{name}({arg}={label}) raised {exc!r}") from exc
