"""Hostile inputs at the public boundary: each call either succeeds or
raises a ConfigurationError, and nothing else escapes."""

from hypothesis import given, settings, strategies as st

from dekm import data
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
