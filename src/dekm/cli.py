"""Command-line entry point.

Subcommands: pretrain, run, ablate, eval, gen-synth. Configuration comes
from a JSON file (--config) with flat flag overrides; every artifact embeds
the resolved config for provenance. Timing lives in a separate section of
results.json so determinism checks can hash the rest.
"""

import os

# Cap BLAS parallelism before numpy is imported anywhere in this process.
_threads = os.environ.get("DEKM_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import autoencoder as ae
from . import core, data, metrics
from .config import FLAGS, ExperimentConfig, load_config
from .errors import ConfigurationError, DekmError


def _json_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _config_comment(cfg: ExperimentConfig) -> str:
    return "# config: " + json.dumps(cfg.to_dict(), sort_keys=True) + "\n"


def _pretrain(cfg: ExperimentConfig, ds: data.Dataset, seed: int):
    model = ae.xavier_init(cfg.encoder_dims(ds.d), seed)
    return ae.pretrain(
        model,
        ds.x,
        epochs=cfg.pretrain_epochs,
        batch_size=cfg.pretrain_batch_size,
        seed=seed,
        lr=cfg.pretrain_lr,
    )


def _start_model(cfg: ExperimentConfig, ds: data.Dataset):
    """Return ``start(seed)``, which gives the model a run starts from: a
    copy of the checkpoint, read and checked once here, or else a model
    pretrained with ``seed``."""
    if cfg.checkpoint is None:
        return lambda seed: _pretrain(cfg, ds, seed)[0]
    model, _ = ae.load_checkpoint(cfg.checkpoint)
    if model.dims != cfg.encoder_dims(ds.d):
        raise ConfigurationError(
            f"checkpoint dims {model.dims} != config dims {cfg.encoder_dims(ds.d)}"
        )
    return lambda seed: model.copy()


def cmd_pretrain(cfg: ExperimentConfig) -> int:
    if cfg.checkpoint is not None:
        raise ConfigurationError("pretrain writes a checkpoint and cannot start from one")
    ds = cfg.dataset_loader()()
    out = data.output_dir(cfg.out, "checkpoint.json", "loss.csv")
    model, losses = _pretrain(cfg, ds, cfg.seed)
    ae.save_checkpoint(
        out / "checkpoint.json",
        model,
        meta={"config": cfg.to_dict(), "seed": cfg.seed, "dataset": ds.name},
    )
    lines = [_config_comment(cfg), "epoch,sum_loss,mean_loss\n"]
    for i, loss in enumerate(losses):
        lines.append(f"{i},{loss!r},{loss / ds.n!r}\n")
    data.write_text(out / "loss.csv", "".join(lines))
    print(f"wrote {out / 'checkpoint.json'} and {out / 'loss.csv'}")
    return 0


def _run_repeats(cfg: ExperimentConfig, ds: data.Dataset, start, tags=None, **overrides):
    """Run the DEKM loop once per repeat ``r`` with seed ``cfg.seed + r``,
    from the model ``start(seed)`` and with ``overrides`` applied to
    the loop config.

    Returns the per-repeat (history, seconds) pairs, the last repeat's
    result, and the history.jsonl text: every record tagged with its repeat
    and ``tags``, timing blanked so the file is deterministic.
    """
    runs, lines = [], []
    for r in range(cfg.repeats):
        seed = cfg.seed + r
        t0 = time.perf_counter()
        result, _, history = core.run_dekm(
            start(seed), ds.x, cfg.dekm_config(seed, **overrides), labels=ds.labels
        )
        runs.append((history, time.perf_counter() - t0))
        for rec in history.as_dicts():
            rec.update(tags or {}, repeat=r, seconds=None)
            lines.append(json.dumps(rec, sort_keys=True) + "\n")
    return runs, result, "".join(lines)


def cmd_run(cfg: ExperimentConfig) -> int:
    ds = cfg.dataset_loader()()
    start = _start_model(cfg, ds)
    out = data.output_dir(cfg.out, "results.json", "history.jsonl", "embedding.csv")
    runs, last_result, history_text = _run_repeats(cfg, ds, start)
    summaries = [
        {
            "repeat": r,
            "seed": cfg.seed + r,
            "acc": history.records[-1].acc,
            "nmi": history.records[-1].nmi,
            "inertia": history.records[-1].inertia,
            "outer_iterations": len(history.records) - 1,
            "stopped_early": history.stopped_early,
        }
        for r, (history, _) in enumerate(runs)
    ]
    timing = [seconds for _, seconds in runs]

    def agg(key):
        vals = [run[key] for run in summaries if run[key] is not None]
        if not vals:
            return {"mean": None, "std": None}
        return {"mean": float(np.mean(vals)), "std": float(np.std(vals))}

    results = {
        "config": cfg.to_dict(),
        "runs": summaries,
        "aggregate": {"acc": agg("acc"), "nmi": agg("nmi"), "inertia": agg("inertia")},
        "timing": {"per_run_seconds": timing, "total_seconds": sum(timing)},
    }
    data.write_text(out / "results.json", _json_dumps(results))
    data.write_text(out / "history.jsonl", history_text)

    h = runs[-1][0].embedding
    header = ",".join([f"h{j}" for j in range(h.shape[1])] + ["cluster"]) + "\n"
    data.save_csv(out / "embedding.csv", h, last_result.assignments, _config_comment(cfg) + header)
    print(f"wrote {out / 'results.json'}, {out / 'history.jsonl'}, {out / 'embedding.csv'}")
    for run in summaries:
        print(f"  repeat {run['repeat']}: acc={run['acc']} nmi={run['nmi']}")
    return 0


# column name -> (strategy, batch mode)
ABLATION_VARIANTS = {
    "last_dim_Y": ("last_dim_Y", "mini_batch"),
    "random_dim_Y": ("random_dim_Y", "mini_batch"),
    "random_dim_H": ("random_dim_H", "mini_batch"),
    "all_dims_H": ("all_dims_H", "mini_batch"),
    "last_dim_Y_full": ("last_dim_Y", "full_batch"),
}


def cmd_ablate(cfg: ExperimentConfig) -> int:
    ds = cfg.dataset_loader()()
    if ds.labels is None:
        raise ConfigurationError("ablation needs a labeled dataset to compare ACC curves")
    start = _start_model(cfg, ds)
    histories = [f"history_{name}.jsonl" for name in ABLATION_VARIANTS]
    out = data.output_dir(cfg.out, *histories, "ablation.csv")

    # One pretrained model per repeat seed, shared across all variants so
    # every curve starts from the same iteration-0 clustering.
    base_models = {seed: start(seed) for seed in range(cfg.seed, cfg.seed + cfg.repeats)}

    acc_runs = {}
    for name, (strategy, batch_mode) in ABLATION_VARIANTS.items():
        runs, _, history_text = _run_repeats(
            cfg,
            ds,
            lambda seed: base_models[seed].copy(),
            {"variant": name},
            strategy=strategy,
            batch_mode=batch_mode,
        )
        data.write_text(out / f"history_{name}.jsonl", history_text)
        acc_runs[name] = [[rec.acc for rec in history.records] for history, _ in runs]

    # A run that stopped early keeps its final ACC up to the longest run.
    depth = max(len(c) for per_repeat in acc_runs.values() for c in per_repeat)
    curves = {
        name: np.mean([c + [c[-1]] * (depth - len(c)) for c in per_repeat], axis=0)
        for name, per_repeat in acc_runs.items()
    }
    lines = [_config_comment(cfg), ",".join(["iter", *curves]) + "\n"]
    for i in range(depth):
        row = [str(i)] + [repr(float(c[i])) for c in curves.values()]
        lines.append(",".join(row) + "\n")
    data.write_text(out / "ablation.csv", "".join(lines))
    print(f"wrote {out / 'ablation.csv'}")
    for name, c in curves.items():
        print(f"  {name}: final mean ACC {c[-1]:.4f}")
    return 0


def cmd_eval(labels_path, assignments_path, out_dir) -> int:
    g = data.load_labels(labels_path)
    c = data.load_labels(assignments_path)
    doc = {
        "inputs": {"labels": str(labels_path), "assignments": str(assignments_path)},
        "acc": metrics.acc(g, c),
        "nmi": metrics.nmi(g, c),
    }
    out = data.output_dir(out_dir, "metrics.json")
    data.write_text(out / "metrics.json", _json_dumps(doc))
    print(f"acc={doc['acc']:.6f} nmi={doc['nmi']:.6f}")
    return 0


def cmd_gen_synth(cfg: ExperimentConfig) -> int:
    spec = {"type": "synthetic", **cfg.dataset}
    if spec["type"] != "synthetic":
        raise ConfigurationError("gen-synth requires a synthetic dataset spec")
    cfg = dataclasses.replace(cfg, dataset=spec)  # checks the spec as typed
    ds = cfg.dataset_loader()()
    out = data.output_dir(cfg.out, "data.csv", "metadata.json")
    data.save_csv(out / "data.csv", ds.x, ds.labels)
    meta = {k: v for k, v in ds.meta.items() if k != "latent"}
    data.write_text(out / "metadata.json", _json_dumps({"config": cfg.to_dict(), "dataset": meta}))
    print(f"wrote {out / 'data.csv'} ({ds.n} x {ds.d}) and {out / 'metadata.json'}")
    return 0


# The subcommands that read an experiment config, each with its handler and
# the FLAGS it reads; eval reads two label files.
COMMANDS = {
    "pretrain": (cmd_pretrain, ("seed", "out", "k", "checkpoint")),
    "run": (cmd_run, tuple(FLAGS)),
    "ablate": (cmd_ablate, ("seed", "out", "iters", "repeats", "k", "checkpoint")),
    "gen-synth": (cmd_gen_synth, ("seed", "out", "k")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dekm",
        description="Deep embedded K-means: pretrain, run, ablate, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment config")
        for flag in flags:
            p.add_argument("--" + flag.replace("_", "-"), **FLAGS[flag][1])

    p_eval = sub.add_parser("eval")
    p_eval.add_argument("labels", help="ground-truth label file, one integer per line")
    p_eval.add_argument("assignments", help="cluster assignment file, one integer per line")
    p_eval.add_argument("--out", default="out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args.labels, args.assignments, args.out)
        return COMMANDS[args.command][0](load_config(args.config, vars(args)))
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DekmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
