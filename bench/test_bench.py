"""Tests of the benchmark itself, on tiny versions of its workloads."""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Output  # noqa: E402

TINY = {
    "paper_loop": dict(k=3, per_cluster_n=20, latent_dim=2, ambient_dim=12, hidden=(8,),
                       acc_floor=0.0, seeds_per_run=2),
    "many_clusters": dict(k=4, per_cluster_n=20, latent_dim=2, ambient_dim=8, hidden=(8,),
                          pretrain_epochs=2, outer_iters=2, acc_floor=0.0, seeds_per_run=2),
    "cli_ablate": dict(per_cluster_n=20, ambient_dim=6, hidden=(6,), pretrain_epochs=2,
                       inner_steps=1, repeats=1, acc_floor=0.0, seeds_per_run=2),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_reports_every_end_to_end_metric(name, tmp_path):
    result, record = harness.run(tiny(name), seed=3, seconds=0, trace=False, workdir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3  # one round of two inputs, then the first one again
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0
    assert record["environment"]["nproc"] >= 1


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    originals = [(t.module, t.attr, getattr(t.module, t.attr)) for t in tracing.LAYERS]
    result, record = harness.run(tiny(name), seed=3, seconds=0, trace=True, workdir=tmp_path)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["trace.overhead_s"]["value"] > 0
    for module, attr, fn in originals:
        assert getattr(module, attr) is fn, f"{attr} still wrapped"
    # Self times of all spans of a round add up to the durations of its operations.
    spans = record["rounds"][-1]["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_total = sum(end - start - c for (_, start, end, _), c in zip(spans, child))
    ops_total = sum(end - start for name, start, end, parent in spans if parent < 0)
    assert self_total == pytest.approx(ops_total, rel=1e-9)


def test_wrappers_are_restored_when_the_body_raises():
    originals = [(t.module, t.attr, getattr(t.module, t.attr)) for t in tracing.LAYERS]
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            assert getattr(tracing.LAYERS[0].module, tracing.LAYERS[0].attr) is not originals[0][2]
            1 / 0
    for module, attr, fn in originals:
        assert getattr(module, attr) is fn


@dataclasses.dataclass(frozen=True)
class Flaky:
    """Gives a different answer on every call after the first."""

    acc_floor: float = 0.5
    seeds_per_run: int = 1
    calls: list = dataclasses.field(default_factory=list)

    def setup(self, seed, workdir):
        return None

    def run(self, inputs, seed, workdir):
        self.calls.append(1)
        return Output(bytes([len(self.calls) > 1]), acc=0.9, nmi=0.9)


def test_a_changed_output_counts_as_failed(tmp_path):
    result, _ = harness.run(Flaky(), seed=0, seconds=0, trace=False, workdir=tmp_path)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)



@dataclasses.dataclass(frozen=True)
class Scored:
    """Input 0 scores ACC 0.3, input 1 scores 0.9: their mean is 0.6."""

    acc_floor: float
    seeds_per_run: int = 2

    def setup(self, seed, workdir):
        return 0.3 if seed % 2 == 0 else 0.9

    def run(self, acc, seed, workdir):
        return Output(b"", acc=acc, nmi=acc)


@pytest.mark.parametrize("floor, failed", [(0.55, 0), (0.65, 3)])
def test_the_acc_floor_is_on_the_mean_over_inputs(floor, failed, tmp_path):
    result, _ = harness.run(Scored(floor), seed=0, seconds=0, trace=False, workdir=tmp_path)
    assert (result["attempted"], result["failed"], result["correct"]) == (3, failed, not failed)
