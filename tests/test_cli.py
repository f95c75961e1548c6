import base64
import json
import re
from pathlib import Path

import numpy as np
import pytest

from dekm import cli, core
from dekm.config import ExperimentConfig


@pytest.fixture
def small_config(tmp_path):
    cfg = {
        "dataset": {
            "type": "synthetic",
            "k": 4,
            "per_cluster_n": 60,
            "latent_dim": 2,
            "ambient_dim": 8,
            "separation": 5.0,
            "seed": 42,
        },
        "hidden_dims": [12, 12],
        "pretrain_epochs": 10,
        "dekm": {"k": 4, "max_outer_iters": 3},
        "repeats": 2,
        "seed": 7,
        "out": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path


def read_results(out_dir):
    return json.loads((out_dir / "results.json").read_text())


def test_pretrain_writes_checkpoint_and_loss_log(small_config):
    cfg_path, tmp = small_config
    assert cli.main(["pretrain", "--config", str(cfg_path)]) == 0
    out = tmp / "out"
    assert (out / "checkpoint.json").exists()
    lines = (out / "loss.csv").read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "epoch,sum_loss,mean_loss"
    assert len(lines) == 2 + 10  # one row per epoch


def test_pretrain_deterministic_checkpoint(small_config):
    cfg_path, tmp = small_config
    cli.main(["pretrain", "--config", str(cfg_path), "--out", str(tmp / "a")])
    cli.main(["pretrain", "--config", str(cfg_path), "--out", str(tmp / "b")])
    a = json.loads((tmp / "a" / "checkpoint.json").read_text())
    b = json.loads((tmp / "b" / "checkpoint.json").read_text())
    for key in ("dims", "enc_w", "enc_b", "dec_w", "dec_b"):
        assert a[key] == b[key]


def test_missing_dataset_exits_with_config_error(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"dekm": {"k": 2}, "out": str(tmp_path / "o")}))
    assert cli.main(["pretrain", "--config", str(cfg)]) == 2
    assert not (tmp_path / "o" / "checkpoint.json").exists()


def test_run_outputs_and_repeats(small_config):
    cfg_path, tmp = small_config
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    out = tmp / "out"
    results = read_results(out)
    assert len(results["runs"]) == 2
    assert {"acc", "nmi", "inertia"} <= set(results["aggregate"])
    phases = results["timing"]["per_run_phase_seconds"]
    assert [sorted(p) for p in phases] == [sorted(core.PHASES)] * 2
    assert results["config"]["seed"] == 7
    history = [json.loads(l) for l in (out / "history.jsonl").read_text().splitlines()]
    assert {rec["repeat"] for rec in history} == {0, 1}
    emb_lines = (out / "embedding.csv").read_text().splitlines()
    assert emb_lines[0].startswith("# config:")
    assert emb_lines[1].split(",")[-1] == "cluster"
    assert len(emb_lines) == 2 + 240


def test_run_writes_the_final_embedding_without_encoding_again(small_config, monkeypatch):
    cfg_path, tmp = small_config
    encodes, at_return = [], []
    encode, run_dekm = cli.ae.encode, cli.core.run_dekm

    def counted_run_dekm(*a, **kw):
        out = run_dekm(*a, **kw)
        at_return.append(len(encodes))
        return out

    monkeypatch.setattr(cli.ae, "encode", lambda *a: encodes.append(1) or encode(*a))
    monkeypatch.setattr(cli.core, "run_dekm", counted_run_dekm)
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp / "e")]) == 0
    assert len(at_return) == 2 and at_return[-1] == len(encodes)


def test_run_zero_iters_is_baseline(small_config):
    cfg_path, tmp = small_config
    cli.main(["run", "--config", str(cfg_path), "--iters", "0", "--out", str(tmp / "z")])
    results = read_results(tmp / "z")
    assert all(r["outer_iterations"] == 0 for r in results["runs"])


def test_run_deterministic_results_json(small_config):
    cfg_path, tmp = small_config
    cli.main(["run", "--config", str(cfg_path), "--out", str(tmp / "r1")])
    cli.main(["run", "--config", str(cfg_path), "--out", str(tmp / "r2")])
    a, b = read_results(tmp / "r1"), read_results(tmp / "r2")
    a.pop("timing"), b.pop("timing")
    b["config"]["out"] = a["config"]["out"]
    assert a == b


def test_run_from_checkpoint(small_config):
    cfg_path, tmp = small_config
    cli.main(["pretrain", "--config", str(cfg_path), "--out", str(tmp / "ck")])
    rc = cli.main(
        [
            "run",
            "--config",
            str(cfg_path),
            "--checkpoint",
            str(tmp / "ck" / "checkpoint.json"),
            "--out",
            str(tmp / "rck"),
        ]
    )
    assert rc == 0
    assert (tmp / "rck" / "results.json").exists()


def test_ablate_outputs_aligned_curves(small_config):
    cfg_path, tmp = small_config
    rc = cli.main(
        ["ablate", "--config", str(cfg_path), "--repeats", "1", "--iters", "2",
         "--out", str(tmp / "ab")]
    )
    assert rc == 0
    lines = (tmp / "ab" / "ablation.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header[0] == "iter"
    assert set(header[1:]) == {
        "last_dim_Y",
        "random_dim_Y",
        "random_dim_H",
        "all_dims_H",
        "last_dim_Y_full",
    }
    widths = {len(l.split(",")) for l in lines[1:]}
    assert widths == {len(header)}
    # all variants share the pretrained model, so iteration-0 ACC is identical
    first = lines[2].split(",")[1:]
    assert len(set(first)) == 1


def test_eval_identical_and_permuted(tmp_path):
    g = tmp_path / "g.txt"
    c = tmp_path / "c.txt"
    g.write_text("0\n0\n1\n1\n2\n2\n")
    c.write_text("1\n1\n2\n2\n0\n0\n")
    assert cli.main(["eval", str(g), str(c), "--out", str(tmp_path / "m")]) == 0
    doc = json.loads((tmp_path / "m" / "metrics.json").read_text())
    assert doc["acc"] == 1.0
    assert doc["nmi"] == pytest.approx(1.0)


def test_eval_length_mismatch(tmp_path):
    g = tmp_path / "g.txt"
    c = tmp_path / "c.txt"
    g.write_text("0\n1\n")
    c.write_text("0\n1\n1\n")
    assert cli.main(["eval", str(g), str(c), "--out", str(tmp_path / "m")]) == 1


def test_gen_synth_writes_dataset(small_config):
    cfg_path, tmp = small_config
    assert cli.main(["gen-synth", "--config", str(cfg_path), "--out", str(tmp / "gs")]) == 0
    from dekm import data

    ds = data.load_csv(tmp / "gs" / "data.csv", has_labels_column=True)
    assert ds.x.shape == (240, 8)
    meta = json.loads((tmp / "gs" / "metadata.json").read_text())
    spec = json.loads(cfg_path.read_text())["dataset"]
    assert meta["dataset"] == {key: v for key, v in spec.items() if key != "type"}
    assert "config" in meta


@pytest.mark.parametrize(
    "key, value",
    [
        ("per_cluster_n", "10"),
        ("separation", "x"),
        ("separation", float("nan")),
        ("k", True),
        ("latent_dim", 0),
        ("seed", -2),
        ("seperation", 5.0),  # not a synthetic key
    ],
)
@pytest.mark.parametrize("typed", [True, False])
def test_gen_synth_rejects_bad_dataset_values(small_config, capsys, key, value, typed):
    # typed: the spec says "type": "synthetic"; untyped: gen-synth fills the
    # type in. Either way the config rejects the spec when built.
    cfg_path, tmp = small_config
    cfg = json.loads(cfg_path.read_text())
    cfg["dataset"][key] = value
    if not typed:
        del cfg["dataset"]["type"]
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["gen-synth", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err
    assert not (tmp / "out").exists()


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"bogus": 1, "dekm": {"k": 2}}))
    assert cli.main(["pretrain", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "command, key",
    [
        pytest.param("pretrain", "max_iters", id="pretrain"),
        pytest.param("run", "max_iters", id="run"),
        # not a DekmConfig field: old configs that still set it exit 2
        pytest.param("pretrain", "reset_optimizer", id="pretrain-reset_optimizer"),
        pytest.param("run", "reset_optimizer", id="run-reset_optimizer"),
    ],
)
def test_unknown_dekm_key_is_a_config_error(small_config, capsys, command, key):
    cfg_path, tmp = small_config
    cfg = json.loads(cfg_path.read_text())
    cfg["dekm"][key] = 5
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cell", ["0.5", "abc", "inf", "1e300"])
def test_eval_rejects_non_integral_labels(tmp_path, capsys, cell):
    g = tmp_path / "g.txt"
    c = tmp_path / "c.txt"
    g.write_text(f"0\n\n{cell}\n")
    c.write_text("0\n1\n")
    assert cli.main(["eval", str(g), str(c), "--out", str(tmp_path / "m")]) == 1
    err = capsys.readouterr().err
    assert "g.txt':3" in err
    assert "Traceback" not in err


def test_ablate_histories_are_deterministic(small_config):
    cfg_path, tmp = small_config
    for out in ("a1", "a2"):
        argv = ["ablate", "--config", str(cfg_path), "--iters", "2", "--out", str(tmp / out)]
        assert cli.main(argv) == 0
    histories = sorted(p.name for p in (tmp / "a1").glob("history_*.jsonl"))
    assert len(histories) == 5
    for name in histories:
        assert (tmp / "a1" / name).read_bytes() == (tmp / "a2" / name).read_bytes()
    tables = [(tmp / out / "ablation.csv").read_text().splitlines() for out in ("a1", "a2")]
    assert tables[0][0].startswith("# config:")  # differs only in "out"
    assert tables[0][1:] == tables[1][1:]


def _break_checkpoint(path, case):
    if case == "missing":
        path.unlink()
        return
    doc = json.loads(path.read_text())
    if case == "not_json":
        path.write_text("{not json")
        return
    if case == "missing_key":
        del doc["dec_b"]
    elif case == "corrupt_base64":
        doc["enc_w"][0]["data"] = doc["enc_w"][0]["data"][:-3]
    elif case == "shape_mismatch":
        # a well-formed 12x7 array where the dims call for 12x12
        doc["enc_w"][1] = {"shape": [12, 7], "data": base64.b64encode(bytes(12 * 7 * 8)).decode()}
    elif case == "non_finite":
        nan = np.full(12, np.nan, dtype="<f8")
        doc["enc_b"][0] = {"shape": [12], "data": base64.b64encode(nan.tobytes()).decode()}
    elif case == "fractional_dims":
        doc["dims"][1] += 0.5  # int() would truncate it back to the saved width
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "case, code",
    [("missing", 2), ("not_json", 1), ("missing_key", 1), ("corrupt_base64", 1),
     ("shape_mismatch", 1), ("non_finite", 1), ("fractional_dims", 1)],
)
def test_bad_checkpoint_fails_at_the_boundary(small_config, capsys, case, code):
    cfg_path, tmp = small_config
    assert cli.main(["pretrain", "--config", str(cfg_path), "--out", str(tmp / "ck")]) == 0
    ck = tmp / "ck" / "checkpoint.json"
    _break_checkpoint(ck, case)
    capsys.readouterr()
    argv = ["run", "--config", str(cfg_path), "--checkpoint", str(ck), "--out", str(tmp / "r")]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and "checkpoint" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_the_checkpoint_is_read_once_per_command(small_config, monkeypatch, command):
    cfg_path, tmp = small_config
    assert cli.main(["pretrain", "--config", str(cfg_path), "--out", str(tmp / "ck")]) == 0
    loads = []
    load = cli.ae.load_checkpoint
    monkeypatch.setattr(cli.ae, "load_checkpoint", lambda *a: loads.append(1) or load(*a))
    ck = str(tmp / "ck" / "checkpoint.json")
    argv = [command, "--config", str(cfg_path), "--checkpoint", ck, "--repeats", "3",
            "--iters", "2", "--out", str(tmp / "r")]
    assert cli.main(argv) == 0
    assert len(loads) == 1


def test_each_repeat_starts_from_the_unchanged_checkpoint(small_config):
    cfg_path, tmp = small_config
    assert cli.main(["pretrain", "--config", str(cfg_path), "--out", str(tmp / "ck")]) == 0
    base = ["run", "--config", str(cfg_path), "--checkpoint", str(tmp / "ck" / "checkpoint.json")]
    assert cli.main([*base, "--repeats", "3", "--out", str(tmp / "all")]) == 0
    runs = read_results(tmp / "all")["runs"]
    for r in range(3):
        out = tmp / f"one{r}"
        assert cli.main([*base, "--repeats", "1", "--seed", str(7 + r), "--out", str(out)]) == 0
        alone = read_results(out)["runs"][0]
        assert {**alone, "repeat": r} == runs[r]


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_checkpoint_must_match_the_config_dims(small_config, capsys, command):
    cfg_path, tmp = small_config
    assert cli.main(["pretrain", "--config", str(cfg_path), "--out", str(tmp / "ck")]) == 0
    cfg = json.loads(cfg_path.read_text())
    cfg.update(hidden_dims=[500], embedding_dim=7)
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    argv = [command, "--config", str(cfg_path), "--out", str(tmp / "r"),
            "--checkpoint", str(tmp / "ck" / "checkpoint.json")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "[8, 12, 12, 4]" in err and "[8, 500, 7]" in err
    assert "Traceback" not in err
    assert not list((tmp / "r").glob("*.*"))


def test_dekm_seed_key_is_rejected(small_config, capsys):
    cfg_path, tmp = small_config
    cfg = json.loads(cfg_path.read_text())
    cfg["dekm"]["seed"] = 5
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "dekm.seed" in err and "top-level seed" in err
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_pretrain_rejects_a_checkpoint(small_config, capsys, where):
    cfg_path, tmp = small_config
    argv = ["pretrain", "--config", str(cfg_path)]
    if where == "flag":
        argv += ["--checkpoint", str(tmp / "ck.json")]
    else:
        cfg = json.loads(cfg_path.read_text())
        cfg["checkpoint"] = str(tmp / "ck.json")
        cfg_path.write_text(json.dumps(cfg))
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "checkpoint" in err and "Traceback" not in err
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("command", ["run", "ablate", "pretrain"])
def test_an_empty_checkpoint_path_is_read_like_any_other(
    small_config, monkeypatch, capsys, command
):
    cfg_path, tmp = small_config
    cfg = json.loads(cfg_path.read_text())
    cfg["checkpoint"] = ""
    cfg_path.write_text(json.dumps(cfg))
    pretrained = []
    monkeypatch.setattr(cli.ae, "pretrain", lambda *a, **kw: pretrained.append(a))
    assert cli.main([command, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "checkpoint" in err
    assert "Traceback" not in err
    assert not pretrained
    assert not (tmp / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("repeats", "3"),
        ("seed", "1"),
        ("seed", -1),
        ("hidden_dims", "ab"),
        ("hidden_dims", [12, 0]),
        ("pretrain_lr", "nan"),
        ("pretrain_lr", -1.0),
        ("pretrain_epochs", -3),
        ("pretrain_batch_size", 0),
        ("embedding_dim", 0),
        ("embedding_dim", -2),
        ("dekm", [1]),
        ("checkpoint", 5),
        ("checkpoint", "ck\x00.json"),
        ("out", 5),
        ("out", "o\x00ut"),
        ("dekm.max_outer_iters", -1),
        ("dekm.k", "2"),
        ("dekm.lr", "x"),
    ],
)
def test_bad_config_values_fail_at_the_boundary(small_config, capsys, key, value):
    cfg_path, tmp = small_config
    cfg = json.loads(cfg_path.read_text())
    if key.startswith("dekm."):
        cfg["dekm"][key[len("dekm."):]] = value
    else:
        cfg[key] = value
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key.split(".")[-1] in err
    assert "Traceback" not in err
    assert not (tmp / "out").exists()


def test_retired_all_dims_Y_strategy_exits_2(small_config, capsys):
    # all_dims_Y minimised ||V h - V c||^2 = ||h - c||^2, the all_dims_H loss
    cfg_path, tmp = small_config
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", str(cfg_path), "--strategy", "all_dims_Y"])
    assert exc.value.code == 2
    capsys.readouterr()
    cfg = json.loads(cfg_path.read_text())
    cfg["dekm"]["strategy"] = "all_dims_Y"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "'all_dims_Y'" in err and "all_dims_H" in err and "last_dim_Y" in err
    assert "Traceback" not in err
    assert not (tmp / "out").exists()


# case, exit code, what the error message names
BOUNDARY_CASES = [
    ("csv_without_path", 2, "path"),
    ("csv_path_not_a_string", 2, "path"),
    ("csv_has_labels_not_a_bool", 2, "has_labels"),
    ("idx_without_images", 2, "images"),
    ("missing_csv", 2, "nope.csv"),
    ("missing_idx", 2, "nope.idx"),
    ("csv_is_a_directory", 2, "a_dir"),
    ("non_utf8_csv", 1, "bad.csv"),
    ("missing_eval_labels", 2, "nope.txt"),
    ("non_utf8_eval_labels", 1, "bad.csv"),
    ("non_utf8_config", 2, "bad.json"),
    ("type_not_a_string", 2, "type"),
    ("nul_in_csv_path", 2, "nul\\x00.csv"),
    ("nul_in_idx_images", 2, "nul\\x00.idx"),
    ("nul_in_idx_labels", 2, "nul\\x00.idx"),
]


@pytest.mark.parametrize("case, code, named", BOUNDARY_CASES, ids=[c[0] for c in BOUNDARY_CASES])
def test_bad_dataset_specs_and_unreadable_inputs_fail_at_the_boundary(
    small_config, capsys, case, code, named
):
    cfg_path, tmp = small_config
    good, bad = tmp / "good.csv", tmp / "bad.csv"
    good.write_text("0.5,0\n0.25,1\n")
    bad.write_bytes(b"0.5,0\n\xff\xfe,1\n")
    (tmp / "a_dir").mkdir()
    specs = {
        "csv_without_path": {"type": "csv"},
        "csv_path_not_a_string": {"type": "csv", "path": [str(good)]},
        "csv_has_labels_not_a_bool": {"type": "csv", "path": str(good), "has_labels": "yes"},
        "idx_without_images": {"type": "idx", "labels": str(tmp / "nope.idx")},
        "missing_csv": {"type": "csv", "path": str(tmp / "nope.csv")},
        "missing_idx": {"type": "idx", "images": str(tmp / "nope.idx"), "labels": str(good)},
        "csv_is_a_directory": {"type": "csv", "path": str(tmp / "a_dir")},
        "non_utf8_csv": {"type": "csv", "path": str(bad)},
        "type_not_a_string": {"type": ["csv"], "path": str(good)},
        "nul_in_csv_path": {"type": "csv", "path": str(tmp / "nul\x00.csv")},
        "nul_in_idx_images": {"type": "idx", "images": str(tmp / "nul\x00.idx"), "labels": str(good)},
        "nul_in_idx_labels": {"type": "idx", "images": str(good), "labels": str(tmp / "nul\x00.idx")},
    }
    if case in specs:
        cfg = json.loads(cfg_path.read_text())
        cfg["dataset"] = specs[case]
        cfg_path.write_text(json.dumps(cfg))
        argv = ["run", "--config", str(cfg_path)]
    elif case == "non_utf8_config":
        (tmp / "bad.json").write_bytes(b'{"dekm": {"k": 2}, "out": "\xff"}')
        argv = ["run", "--config", str(tmp / "bad.json")]
    else:
        labels = tmp / ("nope.txt" if case == "missing_eval_labels" else "bad.csv")
        argv = ["eval", str(labels), str(good), "--out", str(tmp / "out")]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("key", ["dataset.path", "checkpoint", "out"])
def test_a_nul_byte_in_a_path_is_shown_escaped(small_config, capsys, key):
    # a raw NUL on stderr is invisible; the message shows the path's repr
    cfg_path, tmp = small_config
    cfg = json.loads(cfg_path.read_text())
    bad = str(tmp / "a\x00b")
    if key == "dataset.path":
        cfg["dataset"] = {"type": "csv", "path": bad}
    else:
        cfg[key] = bad
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(bad) in err
    assert "\\x00" in err and "\x00" not in err
    assert "Traceback" not in err


def test_a_newline_in_a_csv_path_keeps_the_format_error_on_one_line(small_config, capsys):
    cfg_path, tmp = small_config
    bad = tmp / "a\nb.csv"
    bad.write_text("0.5,x\n")
    cfg = json.loads(cfg_path.read_text())
    cfg["dataset"] = {"type": "csv", "path": str(bad)}
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{str(bad)!r}:1: column 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "ablate"])
@pytest.mark.parametrize(
    "spec, key",
    [
        ({"type": "csv", "path": "data.csv", "has_label": True}, "has_label"),
        ({"type": "synthetic", "k": 4, "seperation": 5.0}, "seperation"),
        ({"type": "idx", "images": "data.csv", "label": "data.csv"}, "label"),
    ],
    ids=["csv", "synthetic", "idx"],
)
def test_unknown_dataset_keys_exit_2_naming_the_key(small_config, capsys, command, spec, key):
    # a misspelt key would otherwise be ignored: has_label trains on the
    # label column as a feature
    cfg_path, tmp = small_config
    (tmp / "data.csv").write_text("0.5,0.1,0\n0.25,0.2,1\n")
    spec = {k: str(tmp / v) if v == "data.csv" else v for k, v in spec.items()}
    cfg = json.loads(cfg_path.read_text())
    cfg["dataset"] = spec
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "path_under_a_file"])
@pytest.mark.parametrize("command", ["pretrain", "run", "ablate", "gen-synth", "eval"])
def test_out_naming_a_file_exits_2_without_a_traceback(small_config, capsys, command, under):
    cfg_path, tmp = small_config
    blocker = tmp / "blocker"
    blocker.write_text("keep\n")
    out = blocker / "sub" if under else blocker
    if command == "eval":
        labels = tmp / "labels.txt"
        labels.write_text("0\n1\n")
        argv = ["eval", str(labels), str(labels), "--out", str(out)]
    else:
        argv = [command, "--config", str(cfg_path), "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(blocker) in err
    assert "Traceback" not in err
    assert blocker.read_text() == "keep\n"


@pytest.mark.parametrize(
    "command, blocked",
    [("eval", "metrics.json"), ("run", "results.json"), ("pretrain", "checkpoint.json"),
     ("gen-synth", "data.csv"), ("ablate", "ablation.csv")],
)
def test_an_output_file_that_cannot_be_opened_exits_2_without_a_traceback(
    small_config, monkeypatch, capsys, command, blocked
):
    # checked before any training: nothing is pretrained and no file written
    cfg_path, tmp = small_config
    out = tmp / "o"
    (out / blocked).mkdir(parents=True)
    pretrained = []
    monkeypatch.setattr(cli.ae, "pretrain", lambda *a, **kw: pretrained.append(a))
    if command == "eval":
        labels = tmp / "labels.txt"
        labels.write_text("0\n1\n")
        argv = ["eval", str(labels), str(labels), "--out", str(out)]
    else:
        argv = [command, "--config", str(cfg_path), "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out / blocked) in err
    assert "Traceback" not in err
    assert not pretrained
    assert [p.name for p in out.iterdir()] == [blocked]


@pytest.mark.parametrize(
    "keys, message",
    [
        ({"pretrain_lr": 1e300}, "non-finite training loss"),
        ({"dekm": {"k": 4, "max_outer_iters": 3, "lr": 1e300}}, "embedding contains non-finite values"),
    ],
    ids=["pretrain_lr", "dekm_lr"],
)
def test_a_diverging_run_prints_only_its_error_line(small_config, capsys, keys, message):
    # numpy's overflow warnings (errors under this suite's filter) stay quiet
    cfg_path, _ = small_config
    cfg = {**json.loads(cfg_path.read_text()), **keys, "repeats": 1}
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["pretrain", "run", "ablate"])
@pytest.mark.parametrize("key, value", [
    ("hidden_dims", [10**30]),
    ("embedding_dim", 2**63),
    ("embedding_dim", 10**40),
    ("dekm.k", 2**63),
    ("dekm.k", 10**40),
], ids=["hidden_dims-1e30", "embedding_dim-2**63", "embedding_dim-1e40", "k-2**63", "k-1e40"])
def test_a_model_numpy_cannot_hold_exits_2(small_config, capsys, command, key, value):
    cfg_path, _ = small_config
    cfg = json.loads(cfg_path.read_text())
    if key.startswith("dekm."):
        cfg["dekm"][key[len("dekm."):]] = value
    else:
        cfg[key] = value
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a model of layer widths [8, ") and err.count("\n") == 1
    assert "is too large" in err


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 61.0 TiB for an array with shape (8388608000000,) and data type float64",
     "Unable to allocate 61.0 TiB for an array with shape (8388608000000,) and data type float64"),
    ("", "out of memory"),
], ids=["numpy", "bare"])
def test_running_out_of_memory_prints_one_error_line(
    small_config, monkeypatch, capsys, message, line
):
    def no_memory(dims, seed):  # the model allocation, failing as np.zeros does
        raise MemoryError(message)

    monkeypatch.setattr(cli.ae, "xavier_init", no_memory)
    cfg_path, _ = small_config
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"


# flag -> (its value on the command line, the config key it sets, the value
# it sets there), written out independently of dekm.config.FLAGS
FLAG_VALUES = {
    "seed": ("11", ("seed",), 11),
    "out": ("elsewhere", ("out",), "elsewhere"),
    "iters": ("5", ("dekm", "max_outer_iters"), 5),
    "strategy": ("random_dim_H", ("dekm", "strategy"), "random_dim_H"),
    "batch_mode": ("full_batch", ("dekm", "batch_mode"), "full_batch"),
    "repeats": ("4", ("repeats",), 4),
    "k": ("3", ("dekm", "k"), 3),
    "checkpoint": ("ck.json", ("checkpoint",), "ck.json"),
}
# the flags each subcommand reads, besides --config
READS = {
    "pretrain": {"seed", "out", "k", "checkpoint"},
    "run": set(FLAG_VALUES),
    "ablate": set(FLAG_VALUES) - {"strategy", "batch_mode"},
    "gen-synth": {"seed", "out", "k"},
}
FLAG_PAIRS = [(command, flag) for command in READS for flag in ["config", *FLAG_VALUES]]


def _option(flag):
    return "--" + flag.replace("_", "-")


@pytest.mark.parametrize("command, flag", FLAG_PAIRS, ids=[f"{c}-{f}" for c, f in FLAG_PAIRS])
def test_each_subcommand_parses_only_the_flags_it_reads(
    small_config, monkeypatch, capsys, command, flag
):
    cfg_path, _ = small_config
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--help", "--config", *map(_option, READS[command])}

    seen = []

    def handler(cfg):
        seen.append(cfg)
        return 0

    monkeypatch.setitem(cli.COMMANDS, command, (handler, cli.COMMANDS[command][1]))
    argv = [command, "--config", str(cfg_path)]
    doc = json.loads(cfg_path.read_text())
    if flag != "config":
        value, (*section, key), typed = FLAG_VALUES[flag]
        argv += [_option(flag), value]
        (doc[section[0]] if section else doc)[key] = typed
    if flag == "config" or flag in READS[command]:
        assert cli.main(argv) == 0
        assert seen == [ExperimentConfig(**doc)]
        return
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert _option(flag) in capsys.readouterr().err
    assert not seen


def test_the_readme_table_lists_the_flags_each_subcommand_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z-]+)` +\| (`--[^`]*`) +\|$", readme, re.MULTILINE)
    table = {command: cell.strip("`").split() for command, cell in rows}
    assert table == {
        command: [_option(flag) for flag in flags] for command, (_, flags) in cli.COMMANDS.items()
    }
