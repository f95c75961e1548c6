"""Exact relations between runs of ``run_dekm``.

Both sides of each comparison run in the same process, on the same BLAS
kernel, so these hold bit for bit on any host, where the SHA-256 pins hold
only for the kernel they were recorded with. They do not catch a change
that moves every run alike; the pins do.
"""

import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from dekm import autoencoder as ae
from dekm import data
from dekm.core import BATCH_MODES, STRATEGIES, DekmConfig, run_dekm

CASES = [(s, b) for s in STRATEGIES for b in BATCH_MODES]


def _pretrained():
    ds = data.gen_synthetic(
        k=4, per_cluster_n=500, latent_dim=2, ambient_dim=10, separation=3.0, seed=42
    )
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


def _records(history):
    return [{k: v for k, v in r.items() if k != "seconds"} for r in history.as_dicts()]


@pytest.mark.parametrize("strategy,batch_mode", CASES)
def test_a_shorter_budget_runs_a_prefix_of_the_longer_run(pretrained, strategy, batch_mode):
    _, _, short = _run(pretrained, strategy, batch_mode, max_outer_iters=2)
    _, _, long = _run(pretrained, strategy, batch_mode, max_outer_iters=5)
    head, tail = _records(short), _records(long)[: len(short.records)]
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
        import test_relations as t
        pretrained = t._pretrained()
        for case in t.CASES:
            t.test_a_shorter_budget_runs_a_prefix_of_the_longer_run(pretrained, *case)
            t.test_labels_are_read_only(pretrained, *case)
            t.test_no_update_steps_leave_the_model_unchanged(pretrained, *case)
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
