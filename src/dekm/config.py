"""Experiment configuration: JSON file plus flat CLI overrides, fully
resolved and echoed into every output artifact for provenance."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

from . import data
from .core import DekmConfig
from .errors import ConfigurationError, check_int, check_real


# the file paths each file-backed dataset type requires
_PATH_KEYS = {"csv": ("path",), "idx": ("images", "labels")}


@dataclass
class ExperimentConfig:
    dataset: dict = field(default_factory=dict)
    hidden_dims: list[int] = field(default_factory=lambda: [500, 500, 2000])
    embedding_dim: int | None = None  # defaults to k
    pretrain_epochs: int = 200
    pretrain_batch_size: int = 256
    pretrain_lr: float = 0.001
    checkpoint: str | None = None
    dekm: dict = field(default_factory=dict)  # DekmConfig fields except seed
    repeats: int = 3
    out: str = "out"
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.dataset, dict):
            raise ConfigurationError("dataset must be a mapping")
        if not isinstance(self.dekm, dict):
            raise ConfigurationError("dekm must be a mapping")
        if not isinstance(self.hidden_dims, list):
            raise ConfigurationError(f"hidden_dims must be a list, got {self.hidden_dims!r}")
        for d in self.hidden_dims:
            check_int("hidden_dims entry", d, 1)
        if self.embedding_dim is not None:
            check_int("embedding_dim", self.embedding_dim, 1)
        check_int("pretrain_epochs", self.pretrain_epochs, 0)
        check_int("pretrain_batch_size", self.pretrain_batch_size, 1)
        check_real("pretrain_lr", self.pretrain_lr, positive=True)
        check_int("repeats", self.repeats, 1)
        check_int("seed", self.seed, 0)
        if not isinstance(self.out, str):
            raise ConfigurationError(f"out must be a path string, got {self.out!r}")
        if not isinstance(self.checkpoint, (str, type(None))):
            raise ConfigurationError(f"checkpoint must be a path string, got {self.checkpoint!r}")
        if "seed" in self.dekm:
            raise ConfigurationError(
                "dekm.seed is not a config key: each repeat runs with the top-level "
                "seed + repeat index; set seed instead"
            )
        unknown = set(self.dekm) - set(DekmConfig.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(f"unknown dekm config keys: {sorted(unknown)}")
        if "k" in self.dekm:  # the loop config's own checks, before any work
            try:
                self.dekm_config(self.seed)
            except ConfigurationError as exc:
                raise ConfigurationError(f"dekm config: {exc}") from exc
        kind = self.dataset.get("type")
        if kind == "synthetic":
            try:
                data.check_synthetic(**self.synthetic_args())
            except ConfigurationError as exc:
                raise ConfigurationError(f"dataset: {exc}") from exc
        for key in _PATH_KEYS.get(kind, ()):
            if not isinstance(self.dataset.get(key), str):
                raise ConfigurationError(
                    f"dataset: type {kind} needs {key} as a path string, "
                    f"got {self.dataset.get(key)!r}"
                )
        if kind == "csv" and not isinstance(self.dataset.get("has_labels", False), bool):
            raise ConfigurationError(
                f"dataset: has_labels must be true or false, got {self.dataset['has_labels']!r}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    def synthetic_args(self) -> dict:
        """``gen_synthetic`` arguments from the ``dataset`` spec, defaults
        filled in."""
        spec = self.dataset
        return {
            "k": spec.get("k", self.dekm.get("k", 4)),
            "per_cluster_n": spec.get("per_cluster_n", 500),
            "latent_dim": spec.get("latent_dim", 2),
            "ambient_dim": spec.get("ambient_dim", 10),
            "separation": spec.get("separation", 5.0),
            "seed": spec.get("seed", self.seed),
        }

    def dekm_config(self, seed: int, **overrides) -> DekmConfig:
        if "k" not in self.dekm:
            raise ConfigurationError("dekm.k (cluster count) is required")
        return DekmConfig(**{**self.dekm, **overrides, "seed": seed})

    def encoder_dims(self, input_dim: int) -> list[int]:
        e = self.embedding_dim if self.embedding_dim is not None else self.dekm.get("k")
        if e is None:
            raise ConfigurationError("set embedding_dim or dekm.k")
        return [input_dim, *self.hidden_dims, int(e)]


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    """Build a config from an optional JSON file and flat overrides.

    Overrides use the CLI flag names: top-level fields directly, DEKM-loop
    fields under their own names (iters -> dekm.max_outer_iters, strategy,
    batch_mode).
    """
    doc: dict = {}
    if path is not None:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as exc:  # ValueError: JSONDecodeError, UnicodeDecodeError
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigurationError(f"config root must be an object, got {type(doc).__name__}")

    if not isinstance(doc.get("dekm", {}), dict):
        raise ConfigurationError("dekm must be a mapping")
    dekm_fields = dict(doc.get("dekm", {}))
    mapping = {
        "iters": "max_outer_iters",
        "strategy": "strategy",
        "batch_mode": "batch_mode",
        "k": "k",
    }
    for flag, fieldname in mapping.items():
        if overrides.get(flag) is not None:
            dekm_fields[fieldname] = overrides[flag]
    doc["dekm"] = dekm_fields
    for key in ("seed", "out", "repeats", "checkpoint"):
        if overrides.get(key) is not None:
            doc[key] = overrides[key]

    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**doc)
