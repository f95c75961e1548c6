"""SHA-256 digests of whole runs: ``run_dekm`` on several loop shapes and the
``dekm`` CLI's output files.

The digests were recorded with the two-site loop (a copied final
encode+cluster block after the outer loop) and the per-command repeat loops
in the CLI; a refactor of that control flow must reproduce them exactly.
Runs that stop early were re-recorded when the loop began to return the
clustering of the pass where the label-change rule fires, instead of
encoding and clustering once more after it. Runs of the Y strategies were
re-recorded when their targets began to be built in the embedding space
(h moved along one eigenvector) instead of in y = V h and pulled back:
record counts, assignments, ACC, NMI and changed fractions are unchanged,
l4, inertia and weights move by rounding only, and the ablate digests lost
the retired all_dims_Y column and history file. The GEMM summation order
belongs to the BLAS kernel, so they hold only for the BLAS build they were
recorded with (OpenBLAS, x86-64) and for the runtime kernel that OpenBLAS
picked for the CPU (SkylakeX). Under ``OPENBLAS_CORETYPE=Haswell`` eleven
pins fail: the six ``test_run_dekm_is_pinned`` cases, both CLI run pins,
both ablate pins and ``test_pretrain_and_run_dekm_are_pinned`` in
``test_autoencoder.py``; the outputs move by rounding only.
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
        "1437839a2f7db8606e2c9889c15318cb64d48d923556435f00bd8fc633e64e8a",
    ),
    # stops at iteration 2 (0.0625 < 0.07); the final record repeats that
    # pass's clustering
    "early_stop": (
        dict(max_outer_iters=4, stop_fraction=0.07),
        "f1d5b7724b2d3105b4a2e30c04e1da75ad36ddbdcce7a428714a54a18512edf8",
    ),
    "zero_iters": (
        dict(max_outer_iters=0),
        "f6e2676d0d902edd23656676dd7f9d6d3359048884a4faeaab7680d306216114",
    ),
    # stops early too (changed fraction 0.0 at iteration 2, ACC 0.681)
    "random_dim_Y": (
        dict(max_outer_iters=4, strategy="random_dim_Y"),
        "cf01672b2719f95a09729a3463a4aa7bc9cc4c24a8ae2d5d5f00b56577fe9800",
    ),
    "all_dims_H": (
        dict(max_outer_iters=3, strategy="all_dims_H"),
        "2013effb746188013dd60f8a0a6f2b5901b6594a9e43f6cbb428278c18e24be1",
    ),
    "full_batch": (
        dict(max_outer_iters=4, batch_mode="full_batch", inner_steps=2),
        "cc8b3dd621e3e9f0e71621c3701ce3e420ecfafcb40fd9bb7dd25c85d9c8ef6f",
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
        model.encoder_flat.tobytes(),
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
        "9413589fdddf6ab6371cc8a1665a6c88603d282ce52c6fb4cc5544ec14510c64"
    )


def test_cli_run_from_checkpoint_is_pinned(cli_outputs):
    assert _run_digest(cli_outputs / "run_ck") == (
        "d2e34f364d235ceb12fb695830c08d27d7f30cdf8d88026d25104e520aea6417"
    )


CLI_ABLATE_DIGESTS = {
    # last_dim_Y_full stops early in repeat 0 (ACC 0.505, not a fresh
    # k-means restart's 0.705)
    "ablate": "c57d9380ea4e722d93917369befd439af59243fbc9e7e53711f6911f4297218f",
    "ablate_ragged": "0193b6419f3ed08b3d9f0caa4ab229806d93aebda7fb5bd3bdad4e9bb180158d",
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
