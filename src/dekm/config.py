"""Experiment configuration: JSON file plus flat CLI overrides, fully
resolved and echoed into every output artifact for provenance."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

from . import data
from .core import BATCH_MODES, STRATEGIES, DekmConfig
from .errors import ConfigurationError, check_int


# CLI flag -> (the config key it sets, its argparse keywords); a "dekm."
# key is a DekmConfig field. Each subcommand parses the flags it reads
# (cli.COMMANDS).
FLAGS = {
    "seed": ("seed", {"type": int, "help": "base seed; repeat r runs with seed + r"}),
    "out": ("out", {"help": "output directory"}),
    "iters": ("dekm.max_outer_iters", {"type": int, "help": "outer iteration budget"}),
    "strategy": ("dekm.strategy", {"choices": STRATEGIES, "help": "target strategy"}),
    "batch_mode": ("dekm.batch_mode", {"choices": BATCH_MODES, "help": "encoder update batching"}),
    "repeats": ("repeats", {"type": int, "help": "runs per command, one per seed"}),
    "k": ("dekm.k", {"type": int, "help": "cluster count"}),
    "checkpoint": ("checkpoint", {"help": "model checkpoint that run and ablate start from"}),
}


@dataclass
class ExperimentConfig:
    dataset: dict = field(default_factory=dict)
    hidden_dims: list[int] = field(default_factory=lambda: [500, 500, 2000])
    embedding_dim: int | None = None  # defaults to k
    pretrain_epochs: int = 200
    pretrain_batch_size: int = 256
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
        if "type" in self.dataset:  # an untyped spec is checked where it is read
            self.dataset_loader()

    def to_dict(self) -> dict:
        return asdict(self)

    def dataset_loader(self):
        """The zero-argument call that loads ``dataset``, as checked by
        ``data.dataset_loader``; a synthetic spec falls back on ``dekm.k``
        (else 4) and ``seed``."""
        try:
            return data.dataset_loader(self.dataset, self.dekm.get("k", 4), self.seed)
        except ConfigurationError as exc:
            raise ConfigurationError(f"dataset: {exc}") from exc

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
    """Build a config from an optional JSON file and flat overrides, keyed
    by the flag names in FLAGS; a None value sets nothing."""
    doc: dict = {}
    if path is not None:
        with data.open_input(path, what="config") as f:
            try:
                doc = json.load(f)
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                raise ConfigurationError(f"cannot read config {str(path)!r}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigurationError(f"config root must be an object, got {type(doc).__name__}")

    if not isinstance(doc.get("dekm", {}), dict):
        raise ConfigurationError("dekm must be a mapping")
    doc["dekm"] = dict(doc.get("dekm", {}))
    for flag, (key, _) in FLAGS.items():
        if overrides.get(flag) is not None:
            section, _, name = key.rpartition(".")
            (doc[section] if section else doc)[name] = overrides[flag]

    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**doc)
