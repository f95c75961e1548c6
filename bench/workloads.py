"""The benchmark's workloads.

Each workload builds an input from a seed with ``data.gen_synthetic``
(``setup``) and then runs one operation on it (``run``): pretraining plus
the DEKM loop through the library API, or one ``dekm ablate`` command in
process. Every layer is called through its module attribute so that the
tracer's wrappers see the call.

A run builds ``seeds_per_run`` inputs from its seed and runs each of them
once per round. Which clusters k-means merges, and so ACC and the k-means
work, changes from one input to the next far more than with the code; a run
that averages over several inputs is steadier from seed to seed than one
that sees a single input.

Outer-iteration budgets keep the work per operation the same at every seed.
Where the stop rule fires depends on the seed, and so would the run time:
``paper_loop`` and ``cli_ablate`` run one outer iteration, which ends before
the rule is first checked; at k=32 every reclustering moves some points, so
``many_clusters`` runs its whole budget (``core.stopped_early`` in the traced
run shows it if not).
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from dekm import autoencoder as ae
from dekm import cli, core, data

BATCH_SIZE = 256


@dataclass(frozen=True)
class Output:
    """What one operation produced, for the correctness checks."""

    fingerprint: bytes  # must be identical for every operation on the same input
    acc: float
    nmi: float
    bytes_written: int = 0


@dataclass(frozen=True)
class Workload:
    """Dataset and model sizes, and the floor for the run's mean ACC."""

    k: int
    per_cluster_n: int
    latent_dim: int
    ambient_dim: int
    separation: float
    hidden: tuple[int, ...]
    pretrain_epochs: int
    outer_iters: int
    acc_floor: float
    seeds_per_run: int

    def dataset(self, seed: int) -> data.Dataset:
        return data.gen_synthetic(
            k=self.k,
            per_cluster_n=self.per_cluster_n,
            latent_dim=self.latent_dim,
            ambient_dim=self.ambient_dim,
            separation=self.separation,
            seed=seed,
        )


@dataclass(frozen=True)
class Loop(Workload):
    """``ae.pretrain`` then ``core.run_dekm`` (``last_dim_Y``, mini-batch)."""

    def setup(self, seed: int, workdir: Path) -> data.Dataset:
        return self.dataset(seed)

    def run(self, ds: data.Dataset, seed: int, workdir: Path) -> Output:
        model = ae.xavier_init([self.ambient_dim, *self.hidden, self.k], seed)
        model, _ = ae.pretrain(
            model, ds.x, epochs=self.pretrain_epochs, batch_size=BATCH_SIZE, seed=seed
        )
        cfg = core.DekmConfig(
            k=self.k,
            max_outer_iters=self.outer_iters,
            inner_batch_size=BATCH_SIZE,
            strategy="last_dim_Y",
            batch_mode="mini_batch",
            seed=seed,
        )
        result, _, history = core.run_dekm(model, ds.x, cfg, labels=ds.labels)
        final = history.records[-1]
        return Output(result.assignments.tobytes(), final.acc, final.nmi)


@dataclass(frozen=True)
class CliAblate(Workload):
    """``dekm ablate`` on a CSV dataset written during setup."""

    inner_steps: int = 1
    repeats: int = 1

    def setup(self, seed: int, workdir: Path) -> Path:
        ds = self.dataset(seed)
        csv_path = workdir / "data.csv"
        data.save_csv(csv_path, ds.x, ds.labels)
        config = {
            "dataset": {"type": "csv", "path": str(csv_path), "has_labels": True},
            "hidden_dims": list(self.hidden),
            "pretrain_epochs": self.pretrain_epochs,
            "pretrain_batch_size": BATCH_SIZE,
            "dekm": {
                "k": self.k,
                "max_outer_iters": self.outer_iters,
                "inner_steps": self.inner_steps,
            },
            "repeats": self.repeats,
            "seed": seed,
        }
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(config))
        return config_path

    def run(self, config_path: Path, seed: int, workdir: Path) -> Output:
        out = workdir / "out"
        with redirect_stdout(io.StringIO()):
            code = cli.main(["ablate", "--config", str(config_path), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"dekm ablate exited with code {code}")
        table = (out / "ablation.csv").read_bytes()
        rows = [r.split(",") for r in table.decode().splitlines() if not r.startswith("#")]
        acc = float(rows[-1][rows[0].index("last_dim_Y")])
        final_nmi = {}  # records are in order, so the last one per repeat is the final one
        for line in (out / "history_last_dim_Y.jsonl").read_text().splitlines():
            rec = json.loads(line)
            final_nmi[rec["repeat"]] = rec["nmi"]
        nmi = sum(final_nmi.values()) / len(final_nmi)
        written = sum(p.stat().st_size for p in out.iterdir())
        return Output(table, acc, nmi, written)


# What each workload is for is its ``why`` in BENCHMARK.json.
WORKLOADS = {
    "paper_loop": Loop(
        k=10,
        per_cluster_n=1000,
        latent_dim=10,
        ambient_dim=784,
        separation=20.0,
        hidden=(500, 500, 2000),
        pretrain_epochs=1,
        outer_iters=1,
        acc_floor=0.6,
        # ACC on one input is 1.0, or about 0.85 when k-means merges a pair of
        # clusters, which it does on nearly half of the inputs; four per run
        # keep the run's mean from jumping between the two.
        seeds_per_run=4,
    ),
    "many_clusters": Loop(
        k=32,
        per_cluster_n=200,
        latent_dim=8,
        ambient_dim=32,
        separation=10.0,
        hidden=(64, 64),
        pretrain_epochs=20,
        outer_iters=10,
        acc_floor=0.6,
        seeds_per_run=4,
    ),
    "cli_ablate": CliAblate(
        k=4,
        per_cluster_n=500,
        latent_dim=2,
        ambient_dim=10,
        separation=5.0,
        hidden=(32, 32),
        pretrain_epochs=50,
        outer_iters=1,
        # 20 passes of encoder updates per run_dekm: k-means work depends on
        # the seed, and with fewer passes it set most of cluster_s's spread.
        inner_steps=20,
        repeats=3,
        acc_floor=0.6,
        seeds_per_run=6,
    ),
}
