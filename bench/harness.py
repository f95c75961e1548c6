"""Runs one workload: set-up, timed rounds, correctness checks, metrics.

A run builds ``seeds_per_run`` inputs from its seed. An operation is one
``Workload.run`` on one input; a round runs one operation on every input.
The run repeats rounds until the next one would end past ``seconds`` (at
least one) and reports, per operation, the median over rounds. If only one
round fits, the first input is run once more outside the rounds, so that
the determinism check always has a pair. Machine speed on a shared host
drifts over seconds, so a round of several operations averages over that
drift where a single short operation would not. With ``trace`` the first
round is untraced and every later one traced (at least one), so the traced
outputs are checked against untraced ones on the same inputs.

The benchmark is a closed loop with one caller in one process and no
queues, so there is no waiting time to report per layer.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import tracing
from workloads import WORKLOADS, Output

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
UNITS = {
    "end_to_end": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
    "per_layer": {m["name"]: m["unit"] for m in SPEC["per_layer"]},
}

_AE_PL = "pretrain_s @ paper_loop, total_s @ cli_ablate"
_AE_UPD = "cluster_s, update_samples_per_s @ paper_loop; none @ many_clusters"
_KM = "cluster_s @ many_clusters (about 2% of paper_loop)"
_LA = "cluster_s @ many_clusters; none @ paper_loop"
_CORE = "cluster_s, mostly @ cli_ablate"
_MET = "total_s @ cli_ablate"

# per-layer metric -> the end-to-end metric and workload it should move
MOVES = {
    "autoencoder.backprop_embedding.calls": _AE_UPD,
    "autoencoder.backprop_embedding.s": _AE_UPD,
    "autoencoder.backprop_embedding.gflop_per_s": _AE_UPD,
    "autoencoder.backprop_reconstruction.calls": _AE_PL,
    "autoencoder.backprop_reconstruction.s": _AE_PL,
    "autoencoder.backprop_reconstruction.gflop_per_s": _AE_PL,
    "autoencoder.adam_step.calls": _AE_PL + "; " + _AE_UPD,
    "autoencoder.adam_step.s": _AE_PL + "; " + _AE_UPD,
    "autoencoder.adam_step.mparam_per_s": _AE_PL + "; " + _AE_UPD,
    "autoencoder.encode.calls": _AE_UPD,
    "autoencoder.encode.s": _AE_UPD,
    "kmeans.kmeanspp_init.calls": _KM,
    "kmeans.kmeanspp_init.s": _KM,
    "kmeans.lloyd.calls": _KM,
    "kmeans.lloyd.s": _KM,
    "kmeans.lloyd.iterations": _KM,
    "kmeans.within_class_scatter.calls": _KM,
    "kmeans.within_class_scatter.s": _KM,
    "linalg.build_transform.calls": _LA,
    "linalg.build_transform.s": _LA,
    "linalg.build_transform.dim": _LA,
    "core.run_dekm.s": "cluster_s @ every workload",
    "core.run_dekm.self_s": _CORE,
    "core.representation_step.calls": _CORE,
    "core.representation_step.self_s": _CORE,
    "core.greedy_targets.s": _CORE,
    "core.greedy_loss.s": _CORE,
    "core.changed_fraction.s": _CORE,
    "core.outer_iters": _CORE,
    "core.stopped_early": _CORE,
    "metrics.acc.calls": _MET,
    "metrics.acc.s": _MET,
    "metrics.nmi.calls": _MET,
    "metrics.nmi.s": _MET,
    "metrics.hungarian.calls": _MET,
    "metrics.hungarian.s": _MET,
    "metrics.align_labels.calls": _MET,
    "metrics.align_labels.s": _MET,
    "data.gen_synthetic.s": "setup_s @ every workload",
    "data.load_csv.s": "total_s @ cli_ablate",
    "cli.main.self_s": "total_s @ cli_ablate",
    "cli.bytes_written": "total_s @ cli_ablate",
    "trace.overhead_s": "none: time inside the timing wrappers but outside the calls they time",
    "trace.unaccounted_s": "none: traced total_s not inside any layer span",
}

_TIMED = (
    "autoencoder.backprop_embedding",
    "autoencoder.backprop_reconstruction",
    "autoencoder.adam_step",
    "autoencoder.encode",
    "kmeans.kmeanspp_init",
    "kmeans.lloyd",
    "kmeans.within_class_scatter",
    "linalg.build_transform",
    "metrics.acc",
    "metrics.nmi",
    "metrics.hungarian",
    "metrics.align_labels",
)


@dataclass
class Round:
    """One operation on every input, each of which passed its checks."""

    traced: bool
    tracer: tracing.Tracer
    ops: int
    stats: dict = field(init=False)
    total_s: float = field(init=False)  # per operation

    def __post_init__(self):
        self.stats = self.tracer.stats()
        self.total_s = self.stats["bench.op"].s / self.ops


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def _end_to_end(rnd: Round) -> dict[str, float]:
    st, counts = rnd.stats, rnd.tracer.counts
    pretrain_s, cluster_s = st["autoencoder.pretrain"].s, st["core.run_dekm"].s
    return {
        "pretrain_s": pretrain_s / rnd.ops,
        "cluster_s": cluster_s / rnd.ops,
        "total_s": rnd.total_s,
        "pretrain_samples_per_s": _rate(counts["autoencoder.pretrain.samples"], pretrain_s),
        "update_samples_per_s": _rate(counts["core.run_dekm.samples"], cluster_s),
    }


def _per_layer(rnd: Round, bytes_written: int) -> dict[str, float]:
    """Per operation: counts and seconds are the round's divided by its
    operation count; rates are the round's."""
    st, counts, n = rnd.stats, rnd.tracer.counts, rnd.ops
    m = {}
    for name in _TIMED:
        m[f"{name}.calls"] = st[name].calls / n
        m[f"{name}.s"] = st[name].s / n
    for name in ("backprop_embedding", "backprop_reconstruction"):
        flop = counts[f"autoencoder.{name}.flop"]
        m[f"autoencoder.{name}.gflop_per_s"] = _rate(flop / 1e9, st[f"autoencoder.{name}"].s)
    m["autoencoder.adam_step.mparam_per_s"] = _rate(
        counts["autoencoder.adam_step.params"] / 1e6, st["autoencoder.adam_step"].s
    )
    m["kmeans.lloyd.iterations"] = counts["kmeans.lloyd.iterations"] / n
    m["linalg.build_transform.dim"] = _rate(
        counts["linalg.build_transform.dim"], st["linalg.build_transform"].calls
    )
    m["core.run_dekm.s"] = st["core.run_dekm"].s / n
    m["core.run_dekm.self_s"] = st["core.run_dekm"].self_s / n
    m["core.representation_step.calls"] = st["core.representation_step"].calls / n
    m["core.representation_step.self_s"] = st["core.representation_step"].self_s / n
    for name in ("greedy_targets", "greedy_loss", "changed_fraction"):
        m[f"core.{name}.s"] = st[f"core.{name}"].s / n
    m["core.outer_iters"] = counts["core.run_dekm.outer_iters"] / n
    m["core.stopped_early"] = counts["core.run_dekm.stopped_early"] / n
    m["data.load_csv.s"] = st["data.load_csv"].s / n
    m["cli.main.self_s"] = st["cli.main"].self_s / n
    m["cli.bytes_written"] = bytes_written
    m["trace.overhead_s"] = rnd.tracer.overhead_s / n
    m["trace.unaccounted_s"] = st["bench.op"].self_s / n
    return m


def _medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def environment() -> dict:
    """What the timings depend on besides the code."""
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas": {k: build.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": _commit(),
    }


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _check(output: Output, reference: Output | None, traced: bool) -> list[str]:
    problems = []
    if reference is not None:
        if output.fingerprint != reference.fingerprint:
            problems.append("output differs from the first operation on this input")
        if (output.acc, output.nmi) != (reference.acc, reference.nmi):
            what = "traced" if traced else "repeated"
            problems.append(f"{what} acc/nmi {output.acc}/{output.nmi} differ from "
                            f"{reference.acc}/{reference.nmi}")
    return problems


def run(wl, seed: int, seconds: float, trace: bool, workdir: Path, import_s: float = 0.0):
    """Run ``wl`` and return ``(result, record)``: the result line's object
    and a record with the environment, every operation and their spans."""
    seeds = [seed * wl.seeds_per_run + j for j in range(wl.seeds_per_run)]
    dirs = [workdir / f"input{j}" for j in range(len(seeds))]
    for d in dirs:
        d.mkdir(parents=True, exist_ok=True)
    setup_s, gen_s = [], []
    for _ in range(SETUP_REPEATS):
        with tracing.Tracer(tracing.LAYERS if trace else ()) as tr, tr.span("bench.setup"):
            inputs = [wl.setup(s, d) for s, d in zip(seeds, dirs)]
        setup_s.append(tr.stats()["bench.setup"].s)
        gen_s.append(tr.stats()["data.gen_synthetic"].s)

    rounds: list[Round] = []
    durations: list[float] = []
    attempted = failed = 0
    references: dict[int, Output] = {}  # first output per input

    def operate(j: int, tr: tracing.Tracer, traced: bool) -> bool:
        """Run input ``j`` once and check it; False if it failed."""
        nonlocal attempted, failed
        attempted += 1
        try:
            with tr.span("bench.op"):
                output = wl.run(inputs[j], seeds[j], dirs[j])
        except Exception:
            failed += 1
            traceback.print_exc()
            return False
        problems = _check(output, references.get(j), traced)
        if problems:
            failed += 1
            print(f"operation {attempted} failed: {'; '.join(problems)}", file=sys.stderr)
            return False
        references.setdefault(j, output)
        return True

    start = time.perf_counter()
    while len(durations) < (2 if trace else 1) or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        traced = trace and len(durations) > 0
        t0 = time.perf_counter()
        with tracing.Tracer(tracing.LAYERS if traced else tracing.TOP) as tr:
            passed = sum(operate(j, tr, traced) for j in range(len(seeds)))
        durations.append(time.perf_counter() - t0)
        if passed == len(seeds):
            rounds.append(Round(traced, tr, passed))
    if len(durations) == 1:
        operate(0, tracing.Tracer(()), False)  # the determinism check's pair

    # The floor is on the run's ACC, the mean over its inputs. On a few
    # generated inputs the generator's tanh squashes clusters together and the
    # method scores below the floor; that is its result there, not a fault.
    accs = [references[j].acc for j in sorted(references)]
    if len(accs) == len(seeds) and not statistics.mean(accs) >= wl.acc_floor:
        print(f"acc {statistics.mean(accs)} is below the floor {wl.acc_floor}", file=sys.stderr)
        failed = attempted  # every operation went into the mean

    def relative(spans):
        return [[n, s - spans[0][1], e - spans[0][1], p] for n, s, e, p in spans]

    record = {
        "environment": environment(),
        "setup_s": setup_s,
        "import_s": import_s,
        "acc_per_input": accs,
        "rounds": [{"traced": r.traced, "spans": relative(r.tracer.spans)} for r in rounds],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}
    untraced = [r for r in rounds if not r.traced]
    traced_rounds = [r for r in rounds if r.traced]
    if not untraced or (trace and not traced_rounds):
        result["correct"] = False
        return result, record

    if trace:
        written = statistics.mean(out.bytes_written for out in references.values())
        values = _medians([_per_layer(r, written) for r in traced_rounds])
        values["data.gen_synthetic.s"] = statistics.median(gen_s) / len(seeds)  # made in set-up
        units = UNITS["per_layer"]
    else:
        values = _medians([_end_to_end(r) for r in untraced])
        values["acc"] = statistics.mean(out.acc for out in references.values())
        values["nmi"] = statistics.mean(out.nmi for out in references.values())
        values["setup_s"] = import_s + statistics.median(setup_s)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = UNITS["end_to_end"]
    if set(values) != set(units):
        raise AssertionError(f"metric names out of step: {sorted(set(values) ^ set(units))}")
    result["metrics"] = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    return result, record


def main(workload: str, seed: int, seconds: float, trace: bool, import_s: float) -> int:
    if workload not in WORKLOADS:
        print(f"error: unknown workload {workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[workload]
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{workload}-seed{seed}-{os.getpid()}"
    try:
        result, record = run(wl, seed, seconds, trace, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["workload"], record["seed"], record["result"] = workload, seed, result
    trace_path = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    trace_path.write_text(json.dumps(record))

    env = record["environment"]
    print(f"workload {workload}: {WHY[workload]}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.3f}) on {wl.seeds_per_run} "
          f"inputs; per-operation medians over {len(record['rounds'])} rounds; "
          f"spans in {trace_path.relative_to(ROOT)}")
    for name, metric in result["metrics"].items():
        moves = f"  moves {MOVES[name]}" if trace else ""
        print(f"  {name:46s} {metric['value']:>14.6g} {metric['unit']}{moves}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
