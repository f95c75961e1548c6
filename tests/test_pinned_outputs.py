"""SHA-256 digests of whole runs: ``run_dekm`` on several loop shapes and the
``dekm`` CLI's output files.

The digests were recorded with the two-site loop (a copied final
encode+cluster block after the outer loop) and the per-command repeat loops
in the CLI; a refactor of that control flow must reproduce them exactly.
Runs that stop early were re-recorded when the loop began to return the
clustering of the pass where the label-change rule fires, instead of
encoding and clustering once more after it. The GEMM summation order
belongs to the BLAS kernel, so they hold for the BLAS build they were
recorded with (OpenBLAS, x86-64).
"""

import hashlib
import json

import numpy as np
import pytest

from dekm import autoencoder as ae
from dekm import cli, data
from dekm.core import DekmConfig, run_dekm


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _history_bytes(history) -> bytes:
    records = [{k: v for k, v in r.items() if k != "seconds"} for r in history.as_dicts()]
    doc = {"records": records, "stopped_early": history.stopped_early}
    return json.dumps(doc, sort_keys=True).encode()


@pytest.fixture(scope="module")
def pretrained():
    ds = data.gen_synthetic(
        k=4, per_cluster_n=40, latent_dim=2, ambient_dim=8, separation=3.0, seed=11
    )
    m = ae.xavier_init([8, 16, 4], seed=1)
    m, _ = ae.pretrain(m, ds.x, epochs=5, batch_size=32, seed=1)
    return ds, m


RUN_DEKM_CASES = {
    # changed fractions 0.1, 0.0625, 0.119: the budget runs out
    "whole_budget": (
        dict(max_outer_iters=4),
        "2875db2f95bceb9b3db3612c13a32b791137c48e95c5df43a8c40f6f13549a24",
    ),
    # stops at iteration 2 (0.0625 < 0.07); the final record repeats that
    # pass's clustering
    "early_stop": (
        dict(max_outer_iters=4, stop_fraction=0.07),
        "4b9be9c85a77b1099583467e5064611c553bb3d605a51e6cf8077131218e4650",
    ),
    "zero_iters": (
        dict(max_outer_iters=0),
        "f6e2676d0d902edd23656676dd7f9d6d3359048884a4faeaab7680d306216114",
    ),
    # stops early too (changed fraction 0.0 at iteration 2, ACC 0.681)
    "random_dim_Y": (
        dict(max_outer_iters=4, strategy="random_dim_Y"),
        "e88596eb8818ef4a3d389bd6bd77cd7860218f8536d90bd100801673096da30d",
    ),
    "all_dims_H": (
        dict(max_outer_iters=3, strategy="all_dims_H"),
        "2013effb746188013dd60f8a0a6f2b5901b6594a9e43f6cbb428278c18e24be1",
    ),
    "full_batch": (
        dict(max_outer_iters=4, batch_mode="full_batch", inner_steps=2),
        "0b2e938acdba88a7f1810ec043b92d7dda3ebf39b9f249ff77c9c31101fd44ae",
    ),
}


@pytest.mark.parametrize("case", sorted(RUN_DEKM_CASES))
def test_run_dekm_is_pinned(pretrained, case):
    ds, m = pretrained
    overrides, digest = RUN_DEKM_CASES[case]
    cfg = DekmConfig(k=4, inner_batch_size=32, seed=3, **overrides)
    result, model, history = run_dekm(m.copy(), ds.x, cfg, labels=ds.labels)
    got = _sha256(
        _history_bytes(history),
        result.assignments.astype("<i8").tobytes(),
        *(np.ascontiguousarray(p).tobytes() for p in model.encoder_params()),
    )
    assert got == digest


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pinned_cli")
    cfg = {
        "dataset": {
            "type": "synthetic",
            "k": 4,
            "per_cluster_n": 50,
            "latent_dim": 2,
            "ambient_dim": 8,
            "separation": 3.0,
            "seed": 42,
        },
        "hidden_dims": [12, 12],
        "pretrain_epochs": 8,
        "dekm": {"k": 4, "max_outer_iters": 3},
        "repeats": 2,
        "seed": 7,
    }
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    base = ["--config", str(cfg_path)]
    for argv in (
        ["pretrain", *base, "--out", str(tmp / "pretrain")],
        ["run", *base, "--out", str(tmp / "run")],
        ["run", *base, "--out", str(tmp / "run_ck"), "--repeats", "1",
         "--checkpoint", str(tmp / "pretrain" / "checkpoint.json")],
        ["ablate", *base, "--out", str(tmp / "ablate"), "--iters", "2"],
        # repeats and variants stop early at different iterations (3 to 7
        # records), so the ACC curves are padded
        ["ablate", *base, "--out", str(tmp / "ablate_ragged"), "--iters", "6", "--repeats", "3"],
    ):
        assert cli.main(argv) == 0
    return tmp


def _without_config_line(text: str) -> bytes:
    lines = text.splitlines(keepends=True)
    assert lines[0].startswith("# config:")
    return "".join(lines[1:]).encode()


def _results_bytes(path) -> bytes:
    doc = json.loads(path.read_text())
    doc.pop("timing")
    doc["config"].pop("out")
    doc["config"].pop("checkpoint")
    return json.dumps(doc, sort_keys=True).encode()


def _run_digest(out) -> str:
    return _sha256(
        _results_bytes(out / "results.json"),
        (out / "history.jsonl").read_bytes(),
        _without_config_line((out / "embedding.csv").read_text()),
    )


def test_cli_pretrain_is_pinned(cli_outputs):
    out = cli_outputs / "pretrain"
    doc = json.loads((out / "checkpoint.json").read_text())
    doc.pop("meta")
    got = _sha256(
        json.dumps(doc, sort_keys=True).encode(),
        _without_config_line((out / "loss.csv").read_text()),
    )
    assert got == "13bf27ff1e69bde79e5b64535fa3a8c29b5bf71392445dcd1de58d88e8091c33"


def test_cli_run_is_pinned(cli_outputs):
    assert _run_digest(cli_outputs / "run") == (
        "c36553b926820636aab2f94b0ed8c86244d91dc845d85ecc9b00d5ec97129f9a"
    )


def test_cli_run_from_checkpoint_is_pinned(cli_outputs):
    assert _run_digest(cli_outputs / "run_ck") == (
        "f2174a212cc04d6ae8c3a3d6dc2c38684a873fa83f2c85e1d65b07d4a75a31fc"
    )


CLI_ABLATE_DIGESTS = {
    # last_dim_Y_full stops early in repeat 0 (ACC 0.505, not a fresh
    # k-means restart's 0.705)
    "ablate": "abfffdfa6ce894a1b021288a0bb348a1ce3c732b8c5a6e50909b6f5da6002f4e",
    "ablate_ragged": "e82b188b231547b0312c164aa6199116a364060fcd883c915dd36d65c8085b09",
}


@pytest.mark.parametrize("name", sorted(CLI_ABLATE_DIGESTS))
def test_cli_ablate_is_pinned(cli_outputs, name):
    out = cli_outputs / name
    chunks = [_without_config_line((out / "ablation.csv").read_text())]
    for path in sorted(out.glob("history_*.jsonl")):
        chunks.append(path.name.encode())
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            rec.pop("seconds")  # wall-clock at the time these were recorded
            chunks.append(json.dumps(rec, sort_keys=True).encode())
    assert _sha256(*chunks) == CLI_ABLATE_DIGESTS[name]
