"""Experiment configuration: JSON file plus flat CLI overrides, fully
resolved and echoed into every output artifact for provenance."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

from .core import DekmConfig
from .errors import ConfigurationError


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
        if self.repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {self.repeats}")
        if not isinstance(self.dataset, dict):
            raise ConfigurationError("dataset must be a mapping")
        if "seed" in self.dekm:
            raise ConfigurationError(
                "dekm.seed is not a config key: each repeat runs with the top-level "
                "seed + repeat index; set seed instead"
            )
        unknown = set(self.dekm) - set(DekmConfig.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(f"unknown dekm config keys: {sorted(unknown)}")

    def to_dict(self) -> dict:
        return asdict(self)

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
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigurationError(f"config root must be an object, got {type(doc).__name__}")

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
