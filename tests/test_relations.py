"""Exact relations between runs of ``run_dekm`` and of ``dekm run``.

Both sides of each comparison run in the same process, on the same BLAS
kernel, so these hold bit for bit on any host, where the SHA-256 pins hold
only for the kernel they were recorded with. They do not catch a change
that moves every run alike; the pins do.
"""

import json
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from dekm import autoencoder as ae
from dekm import cli, data
from dekm.core import BATCH_MODES, STRATEGIES, DekmConfig, run_dekm

CASES = [(s, b) for s in STRATEGIES for b in BATCH_MODES]


# the data every relation runs on, as a dataset spec; it sets its own seed,
# so a run's top-level seed does not change the data
SYNTHETIC = {"k": 4, "per_cluster_n": 500, "latent_dim": 2, "ambient_dim": 10,
             "separation": 3.0, "seed": 42}


def _pretrained():
    ds = data.gen_synthetic(**SYNTHETIC)
    m = ae.xavier_init([10, 32, 32, 4], seed=0)
    m, _ = ae.pretrain(m, ds.x, epochs=5)
    return ds, m


@pytest.fixture(scope="module")
def pretrained():
    return _pretrained()


def _run(pretrained, strategy, batch_mode, labelled=True, **config):
    ds, m = pretrained
    cfg = DekmConfig(k=4, strategy=strategy, batch_mode=batch_mode, seed=3, **config)
    return run_dekm(m.copy(), ds.x, cfg, ds.labels if labelled else None)


@pytest.mark.parametrize("strategy,batch_mode", CASES)
def test_a_shorter_budget_runs_a_prefix_of_the_longer_run(pretrained, strategy, batch_mode):
    _, _, short = _run(pretrained, strategy, batch_mode, max_outer_iters=2)
    _, _, long = _run(pretrained, strategy, batch_mode, max_outer_iters=5)
    head, tail = short.as_dicts(), long.as_dicts()[: len(short.records)]
    # the short run's last record is its final clustering, with no l4
    assert head[-1]["l4"] is None
    head[-1]["l4"] = tail[-1]["l4"]
    assert head == tail


@pytest.mark.parametrize("strategy,batch_mode", CASES)
def test_labels_are_read_only(pretrained, strategy, batch_mode):
    res, model, history = _run(pretrained, strategy, batch_mode, max_outer_iters=5)
    ref_res, ref_model, ref_history = _run(
        pretrained, strategy, batch_mode, labelled=False, max_outer_iters=5
    )
    assert model.flat.tobytes() == ref_model.flat.tobytes()
    assert np.array_equal(res.assignments, ref_res.assignments)
    assert res.inertia == ref_res.inertia
    assert all(r.acc is not None for r in history.records)
    assert all(r.acc is None and r.nmi is None for r in ref_history.records)


@pytest.mark.parametrize("strategy,batch_mode", CASES)
def test_no_update_steps_leave_the_model_unchanged(pretrained, strategy, batch_mode):
    _, m = pretrained
    _, model, history = _run(pretrained, strategy, batch_mode, max_outer_iters=2, inner_steps=0)
    assert model.flat.tobytes() == m.flat.tobytes()
    assert history.updates >= 1  # the update phase ran, with no step in it


@pytest.mark.parametrize("batch_mode", BATCH_MODES)
def test_a_checkpoint_round_trip_gives_the_same_run(pretrained, tmp_path, batch_mode):
    ds, m = pretrained
    ae.save_checkpoint(tmp_path / "m.json", m)
    loaded, _ = ae.load_checkpoint(tmp_path / "m.json")
    cfg = DekmConfig(k=4, batch_mode=batch_mode, seed=3, max_outer_iters=3)
    res, model, history = run_dekm(loaded, ds.x, cfg, ds.labels)
    ref_res, ref_model, ref_history = run_dekm(m.copy(), ds.x, cfg, ds.labels)
    assert history.as_dicts() == ref_history.as_dicts()
    assert np.array_equal(res.assignments, ref_res.assignments)
    assert model.flat.tobytes() == ref_model.flat.tobytes()


def _dekm_run(tmp_path, name, config, *flags):
    """Run ``dekm run`` on ``config`` with ``flags``; return the records of
    its history.jsonl, its results.json and the rows of its embedding.csv
    below the config comment."""
    path, out = tmp_path / f"{name}.json", tmp_path / name
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path), "--out", str(out), *flags]) == 0
    history = [json.loads(line) for line in (out / "history.jsonl").read_text().splitlines()]
    results = json.loads((out / "results.json").read_text())
    return history, results, (out / "embedding.csv").read_text().splitlines()[1:]


# a small ``dekm run`` that pretrains each repeat's model with its own seed
SMALL_RUN = {
    "dataset": {"type": "synthetic", **SYNTHETIC, "per_cluster_n": 60},
    "hidden_dims": [12, 12],
    "pretrain_epochs": 5,
    "dekm": {"k": 4, "max_outer_iters": 3},
    "repeats": 2,
    "seed": 7,
}


def test_repeat_r_is_a_one_repeat_run_with_seed_s_plus_r(tmp_path):
    history, results, embedding = _dekm_run(tmp_path, "all", SMALL_RUN)
    for r in range(SMALL_RUN["repeats"]):
        seed = str(SMALL_RUN["seed"] + r)
        one_history, one_results, one_embedding = _dekm_run(
            tmp_path, f"one{r}", SMALL_RUN, "--repeats", "1", "--seed", seed
        )
        assert [dict(rec, repeat=r) for rec in one_history] == [
            rec for rec in history if rec["repeat"] == r
        ]
        assert dict(one_results["runs"][0], repeat=r) == results["runs"][r]
    assert one_embedding == embedding  # the last repeat's


# ablate column -> the strategy and batch mode of its runs
COLUMNS = {
    "last_dim_Y": ("last_dim_Y", "mini_batch"),
    "random_dim_Y": ("random_dim_Y", "mini_batch"),
    "random_dim_H": ("random_dim_H", "mini_batch"),
    "all_dims_H": ("all_dims_H", "mini_batch"),
    "last_dim_Y_full": ("last_dim_Y", "full_batch"),
}


def test_an_ablate_column_is_a_dekm_run_with_its_strategy_and_batch_mode(tmp_path):
    path, out = tmp_path / "ablate.json", tmp_path / "ablate"
    path.write_text(json.dumps(SMALL_RUN))
    assert cli.main(["ablate", "--config", str(path), "--out", str(out)]) == 0
    for name, (strategy, batch_mode) in COLUMNS.items():
        text = (out / f"history_{name}.jsonl").read_text()
        column = [json.loads(line) for line in text.splitlines()]
        assert all(rec.pop("variant") == name for rec in column)
        history, _, _ = _dekm_run(
            tmp_path, name, SMALL_RUN, "--strategy", strategy, "--batch-mode", batch_mode
        )
        assert column == history


def test_dekm_run_writes_the_records_of_run_dekm(pretrained, tmp_path):
    ds, m = pretrained
    start = tmp_path / "start.json"
    ae.save_checkpoint(start, m)
    config = {"dataset": {"type": "synthetic", **SYNTHETIC}, "hidden_dims": [32, 32],
              "dekm": {"k": 4, "max_outer_iters": 3}, "repeats": 2, "seed": 3}
    history, _, _ = _dekm_run(tmp_path, "run", config, "--checkpoint", str(start))
    expected = []
    for r in range(config["repeats"]):
        cfg = DekmConfig(**config["dekm"], seed=config["seed"] + r)
        _, _, h = run_dekm(m.copy(), ds.x, cfg, ds.labels)
        expected += [dict(rec, repeat=r) for rec in h.as_dicts()]
    assert history == expected


def _openblas_on_x86_64() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dicts mode
        return False
    return "openblas" in blas["name"].lower() and platform.machine().lower() in ("x86_64", "amd64")


@pytest.mark.skipif(not _openblas_on_x86_64(), reason="needs OpenBLAS on x86-64")
def test_the_relations_hold_under_the_haswell_kernel():
    # OpenBLAS picks its kernel when numpy loads, so a second kernel needs a
    # second process; it calls the relations above without pytest's start-up
    code = textwrap.dedent("""
        import contextlib, io, tempfile
        from pathlib import Path
        import test_relations as t
        pretrained = t._pretrained()
        for case in t.CASES:
            t.test_a_shorter_budget_runs_a_prefix_of_the_longer_run(pretrained, *case)
            t.test_labels_are_read_only(pretrained, *case)
            t.test_no_update_steps_leave_the_model_unchanged(pretrained, *case)
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            t.test_repeat_r_is_a_one_repeat_run_with_seed_s_plus_r(Path(tmp))
            t.test_dekm_run_writes_the_records_of_run_dekm(pretrained, Path(tmp))
            for batch_mode in t.BATCH_MODES:
                t.test_a_checkpoint_round_trip_gives_the_same_run(pretrained, Path(tmp), batch_mode)
            t.test_an_ablate_column_is_a_dekm_run_with_its_strategy_and_batch_mode(Path(tmp))
        print(len(t.CASES))
    """)
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(Path(ae.__file__).resolve().parents[1]), str(here)])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE="Haswell"),
    )
    assert done.returncode == 0, done.stderr[-3000:]
    assert done.stdout.strip() == str(len(CASES))
