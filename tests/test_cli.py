import ast
import csv
import json
from pathlib import Path

import numpy as np
import pytest

from tera import cli, training
from tera.adapters import FrozenFactorStore, init_lora, load_checkpoint, save_checkpoint
from tera.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_MISSING, EXIT_OK, EXIT_VIOLATED, main
from tera.tensor_ops import TensorizationScheme, format_scheme, parse_scheme, parse_shape

from checkpoint_docs import malformed_doc, valid_doc, write


class TestParsers:
    def test_shape(self):
        assert parse_shape("64x64") == (64, 64)
        assert parse_shape("4096X1024") == (4096, 1024)
        for bad in ["64", "ax4", "64x64x64", "1x8"]:
            with pytest.raises(ValueError):
                parse_shape(bad)

    def test_two_sided(self):
        s = parse_scheme("64,64|64,64")
        assert s.mode_sizes == (64, 64, 64, 64)
        assert s.split == 2

    def test_one_sided(self):
        s = parse_scheme("64|4,4,4")
        assert s.mode_sizes == (64, 4, 4, 4)
        assert s.split == 1
        assert s.rows == 64 and s.cols == 64

    def test_power_shorthand(self):
        s = parse_scheme("2^3|2^3")
        assert s.mode_sizes == (2,) * 6
        s = parse_scheme("2^24", split=12)
        assert s.rows == 4096 and s.cols == 4096

    def test_mixed_tokens(self):
        s = parse_scheme("64|2^2,4")
        assert s.mode_sizes == (64, 2, 2, 4)

    def test_bare_group_needs_split(self):
        with pytest.raises(ValueError):
            parse_scheme("2^24")

    def test_bad_tokens(self):
        for bad in ["a|b", "4,|4", "2^x|2", "4^0|4"]:
            with pytest.raises(ValueError):
                parse_scheme(bad)

    def test_invalid_scheme_values(self):
        with pytest.raises(ValueError):
            parse_scheme("1,4|4")  # mode size 1

    def test_format_round_trip(self):
        for spec in ["64|4,4,4", "2,4|2,4", "16,4|8,8"]:
            assert format_scheme(parse_scheme(spec)) == spec


class TestParamCount:
    def test_reference_counts_at_4096(self, capsys, tmp_path):
        rc = main(
            ["param-count", "--shape", "4096x4096", "--scheme", "64,64|64,64",
             "--out", str(tmp_path)]
        )
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        table = {l.split()[0]: l.split()[1] for l in lines[1:]}
        assert table["tera"] == "256"
        assert table["vera_full_rank"] == "8192"
        csv = (tmp_path / "param_counts.csv").read_text().strip().split("\n")
        assert csv[0] == "family,params,detail"
        assert csv[1].startswith("tera,256,")
        assert (tmp_path / "resolved_config.json").exists()

    def test_deep_tensorization(self, capsys):
        rc = main(["param-count", "--shape", "4096x4096", "--scheme", "2^24",
                   "--split", "12"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "tera" in out and " 48 " in out.replace("48", " 48 ", 1)

    def test_lora_rank_one(self, capsys):
        rc = main(["param-count", "--shape", "4096x4096",
                   "--scheme", "64,64|64,64", "--rank", "1"])
        assert rc == EXIT_OK
        table = capsys.readouterr().out
        row = [l for l in table.split("\n") if l.startswith("lora")][0]
        assert row.split()[1] == "8192"

    def test_mismatched_scheme_exits_2(self, capsys):
        rc = main(["param-count", "--shape", "16x16", "--scheme", "9,9|4"])
        assert rc == EXIT_CONFIG
        assert "tensorizes" in capsys.readouterr().err

    def test_missing_flags_exit_2(self, capsys):
        rc = main(["param-count", "--shape", "16x16"])
        assert rc == EXIT_CONFIG
        assert "--scheme" in capsys.readouterr().err

    @pytest.mark.parametrize("rank", ["0", "-3"])
    def test_rank_below_one_exits_2(self, tmp_path, capsys, rank):
        rc = main(["param-count", "--shape", "16x16", "--scheme", "16|4,4",
                   "--rank", rank, "--out", str(tmp_path / "pc")])
        assert rc == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: rank must be >= 1")
        assert not (tmp_path / "pc" / "param_counts.csv").exists()


def run_fit(tmp_path, name, *extra):
    out = tmp_path / name
    rc = main(
        ["fit", "--family", "tera", "--shape", "16x16", "--scheme", "16|4,4",
         "--target", "planted", "--max-steps", "1500", "--out", str(out), *extra]
    )
    return rc, out


class TestFit:
    def test_planted_recovery_under_tolerance(self, tmp_path, capsys):
        rc, out = run_fit(tmp_path, "run")
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["final_relative_residual"] < 1e-3
        assert (out / "checkpoint.json").exists()
        assert (out / "loss.csv").exists()
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["command"] == "fit"
        assert resolved["family"] == "tera"

    def test_rerun_byte_identical_csv(self, tmp_path, capsys):
        _, out1 = run_fit(tmp_path, "a")
        _, out2 = run_fit(tmp_path, "b")
        assert (out1 / "loss.csv").read_bytes() == (out2 / "loss.csv").read_bytes()
        assert (out1 / "report.json").read_text() != ""  # sanity

    def test_phase_timings_go_to_the_report_only(self, tmp_path, capsys):
        _, out = run_fit(tmp_path, "run", "--max-steps", "20")
        timings = json.loads((out / "report.json").read_text())["timings"]
        assert sorted(timings) == ["objective_s", "optimizer_s", "report_s"]
        assert (out / "loss.csv").read_text().split("\n")[0] == "step,loss"

    def test_checkpoint_reloads_to_same_delta(self, tmp_path, capsys):
        _, out = run_fit(tmp_path, "run")
        store = FrozenFactorStore(0)
        adapter = load_checkpoint(out / "checkpoint.json", store=store)
        assert adapter.scheme.mode_sizes == (16, 4, 4)

    def test_divergence_exit_3_with_diagnostics(self, tmp_path, capsys):
        out = tmp_path / "div"
        rc = main(
            ["fit", "--family", "tera", "--shape", "16x16",
             "--optimizer", "sgd-momentum", "--lr", "1e6",
             "--warmup-steps", "0", "--max-steps", "100", "--out", str(out)]
        )
        assert rc == EXIT_DIVERGED
        assert (out / "report.json").exists()
        assert (out / "loss.csv").exists()
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["lora", "tera"])
    def test_non_finite_divergence_writes_partial_report(self, tmp_path, capsys, family):
        # the last deltas are non-finite: their rank is recorded as null
        out = tmp_path / "div"
        with np.errstate(all="ignore"):
            rc = main(["fit", "--family", family, "--shape", "16x16", "--lr", "1e308",
                       "--optimizer", "sgd-momentum", "--warmup-steps", "0",
                       "--out", str(out)])
        assert rc == EXIT_DIVERGED
        assert "diverged" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["delta_ranks"] == {"adapter": None}
        assert (out / "loss.csv").exists()
        assert not (out / "checkpoint.json").exists()

    def test_vera_budget_matching(self, tmp_path, capsys):
        out = tmp_path / "vera"
        rc = main(
            ["fit", "--family", "vera", "--shape", "16x16",
             "--match-budget-of", "tera:16|4,4", "--max-steps", "5",
             "--out", str(out)]
        )
        assert rc == EXIT_OK
        # tera budget 16+4+4 = 24; vera 16 + r = 24 at r = 8
        report = json.loads((out / "report.json").read_text())
        assert report["trainable_param_count"] == 24

    def test_budget_matching_infeasible_exits_2(self, tmp_path, capsys):
        rc = main(
            ["fit", "--family", "vera", "--shape", "16x16",
             "--match-budget-of", "tera:2,2|2,2", "--max-steps", "5",
             "--out", str(tmp_path / "x")]
        )
        assert rc == EXIT_CONFIG

    def test_low_rank_family_needs_no_scheme(self, tmp_path, capsys):
        # 32 has no one-sided split into modes of 4; lora never uses one
        rc = main(
            ["fit", "--family", "lora", "--shape", "32x32", "--max-steps", "5",
             "--out", str(tmp_path / "lora")]
        )
        assert rc == EXIT_OK

    def test_budget_matching_wrong_family_exits_2(self, tmp_path, capsys):
        rc = main(
            ["fit", "--family", "lora", "--shape", "16x16",
             "--match-budget-of", "tera:16|4,4", "--max-steps", "5",
             "--out", str(tmp_path / "x")]
        )
        assert rc == EXIT_CONFIG

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "family": "tera", "shape": "16x16", "scheme": "16|4,4",
            "target": "planted", "max_steps": 40,
            "out": str(tmp_path / "from_config"),
        }))
        rc = main(["fit", "--config", str(config)])
        assert rc == EXIT_OK
        report = json.loads(
            (tmp_path / "from_config" / "report.json").read_text()
        )
        assert len(report["loss_curve"]) == 41

        rc = main(["fit", "--config", str(config), "--max-steps", "10",
                   "--out", str(tmp_path / "override")])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "override" / "report.json").read_text())
        assert len(report["loss_curve"]) == 11

    def test_config_key_naming_no_flag_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"family": "tera", "learning_rate": 5.0, "max_step": 3}
        ))
        out = tmp_path / "run"
        rc = main(["fit", "--config", str(config), "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "learning_rate" in err and "max_step" in err
        assert "family" not in err.split(":")[-1]
        assert not out.exists()

    @pytest.mark.parametrize("doc, key", [
        ({"family": "lora", "max_steps": 2.5}, "max_steps"),
        ({"family": "lora", "lr": [1]}, "lr"),
        ({"family": "lora", "shape": 64}, "shape"),
        ({"family": "lora", "max_steps": None}, "max_steps"),
        ({"family": "lora", "lr": "fast"}, "lr"),
        ({"family": "lorra"}, "family"),
        ({"family": "lora", "format_version": 99}, "format_version"),
        ({"family": "lora", "format_version": "1"}, "format_version"),
        ({"family": "lora", "command": "verify"}, "command"),
    ])
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys, doc, key):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "run"
        rc = main(["fit", "--config", str(config), "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err
        assert not out.exists()

    def test_config_values_take_their_flag_types(self, tmp_path, capsys):
        # a string goes through the flag's type, as on the command line; an
        # integer is a valid float
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"family": "lora", "shape": "8x8", "lr": "0.05", "weight_decay": 0,
             "max_steps": "3"}))
        out = tmp_path / "run"
        assert main(["fit", "--config", str(config), "--out", str(out)]) == EXIT_OK
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["lr"] == 0.05 and resolved["max_steps"] == 3
        assert type(resolved["weight_decay"]) is float

    def test_resolved_config_is_accepted_back(self, tmp_path, capsys):
        first = tmp_path / "first"
        rc = main(["fit", "--family", "vera", "--shape", "16x16", "--rank", "3",
                   "--max-steps", "5", "--out", str(first)])
        assert rc == EXIT_OK
        again = tmp_path / "again"
        rc = main(["fit", "--config", str(first / "resolved_config.json"),
                   "--out", str(again)])
        assert rc == EXIT_OK
        assert (again / "loss.csv").read_bytes() == (first / "loss.csv").read_bytes()
        resolved = json.loads((again / "resolved_config.json").read_text())
        assert resolved["rank"] == 3 and resolved["out"] == str(again)

    def test_tera_iden_is_named_alike_everywhere(self, tmp_path, capsys):
        out = tmp_path / "iden"
        rc = main(["fit", "--family", "tera_iden", "--shape", "16x16",
                   "--max-steps", "3", "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["family"] == "tera_iden"
        capsys.readouterr()
        assert main(["checkpoint", "inspect", str(out / "checkpoint.json")]) == EXIT_OK
        assert "family: tera_iden" in capsys.readouterr().out
        ranks = tmp_path / "ranks"
        assert main(["rank-report", str(out / "checkpoint.json"),
                     "--out", str(ranks)]) == EXIT_OK
        assert "checkpoint,tera_iden," in (ranks / "ranks.csv").read_text()

    @pytest.mark.parametrize("flags, field", [
        (["--lr", "inf"], "learning_rate"),
        (["--lr", "-0.1"], "learning_rate"),
        (["--weight-decay", "nan"], "weight_decay"),
        (["--family", "lora", "--rank", "0"], "rank"),
        (["--family", "vera", "--rank", "0"], "rank"),
        (["--family", "hira", "--rank", "0"], "rank"),
        (["--family", "vera", "--match-budget-of", "lora:16|4,4"], "--match-budget-of"),
        (["--shape", "32x32"], "no default scheme for 32x32"),
    ])
    def test_bad_setting_exits_2_without_checkpoint(self, tmp_path, capsys, flags, field):
        out = tmp_path / "run"
        rc = main(["fit", "--family", "tera", "--shape", "16x16", "--max-steps", "3",
                   *flags, "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (out / "checkpoint.json").exists()
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("text, message", [
        ("{not json", "bad config file"),
        ('["family", "lora"]', "must hold a JSON object"),
    ])
    def test_config_file_that_is_no_json_object_exits_2(self, tmp_path, capsys, text, message):
        config = tmp_path / "run.json"
        config.write_text(text)
        assert main(["fit", "--config", str(config), "--out", str(tmp_path / "run")]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, doc, key", [
        (["verify", "--bound", "expressivity", "--instances", "1", "--sweeps", "2"],
         {"planted": True}, None),
        (["verify", "--bound", "expressivity"], {"planted": 1}, "planted"),
        (["ablate", "--shape", "16x16", "--targets", "1", "--max-steps", "2"],
         {"schemes": ["16|4,4"]}, None),
        (["ablate", "--shape", "16x16"], {"schemes": "16|4,4"}, "schemes"),
        (["ablate", "--shape", "16x16"], {"schemes": [16]}, "schemes"),
    ])
    def test_switch_and_list_config_values(self, tmp_path, capsys, argv, doc, key):
        # a switch takes a boolean and a list flag a list of its own type
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "run"
        rc = main(argv + ["--config", str(config), "--out", str(out)])
        if key is None:
            assert rc == EXIT_OK
            resolved = json.loads((out / "resolved_config.json").read_text())
            assert {k: resolved[k] for k in doc} == doc
        else:
            assert rc == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("error: ") and repr(key) in err
            assert not out.exists()

    def test_missing_config_file_exits_5(self, tmp_path, capsys):
        rc = main(["fit", "--config", str(tmp_path / "nope.json")])
        assert rc == EXIT_MISSING


class TestMlpFit:
    def test_mlp_run_writes_layer_checkpoints(self, tmp_path, capsys):
        out = tmp_path / "mlp"
        rc = main(
            ["fit", "--task", "mlp", "--family", "lora", "--rank", "4",
             "--layer-sizes", "16,16,16,16", "--n-classes", "4",
             "--n-train", "256", "--n-test", "128", "--pretrain-steps", "200",
             "--max-steps", "100", "--out", str(out)]
        )
        assert rc == EXIT_OK
        for layer in range(3):
            assert (out / f"checkpoint_layer{layer}.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert "target_test_accuracy" in report["metrics"]

    def test_norms_go_to_the_report_only_and_reruns_keep_the_csv(self, tmp_path, capsys):
        # a stacked tera fit: gradient and trainable norms per layer in
        # report.json, and loss.csv byte-identical across reruns
        def fit(name):
            out = tmp_path / name
            rc = main(["fit", "--task", "mlp", *SMALL_MLP[4:], "--family", "tera",
                       "--max-steps", "9", "--out", str(out)])
            assert rc == EXIT_OK
            return out

        first, second = fit("a"), fit("b")
        assert (first / "loss.csv").read_bytes() == (second / "loss.csv").read_bytes()
        assert (first / "loss.csv").read_text().split("\n")[0] == "step,loss"
        norms = json.loads((first / "report.json").read_text())["norms"]
        assert norms["steps"] == [0, 1, 2, 4, 8, 9]
        for key in ("gradient", "trainable"):
            assert sorted(norms[key]) == ["layer0", "layer1"]
            assert all(len(v) == 6 for v in norms[key].values())

    @pytest.mark.parametrize("flag, name", [
        ("--n-classes=-3", "n_classes"),
        ("--n-classes=0", "n_classes"),
        ("--n-classes=1", "n_classes"),
        ("--n-classes=17", "n_classes"),
        ("--n-train=0", "n_train"),
        ("--n-test=0", "n_test"),
        ("--layer-sizes=16,-2", "layer_sizes"),
        ("--layer-sizes=64,abc", "--layer-sizes"),
        ("--pretrain-steps=-5", "pretrain_steps"),
    ])
    def test_sizes_that_make_no_task_exit_2(self, tmp_path, capsys, flag, name):
        out = tmp_path / "mlp"
        rc = main(["fit", "--task", "mlp", *SMALL_MLP, flag, "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert not (out / "report.json").exists()

    def test_pretraining_divergence_exits_3(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "mlp"
        non_finite_mlp_loss(monkeypatch)
        rc = main(["fit", "--task", "mlp", *SMALL_MLP, "--out", str(out)])
        assert rc == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert err.startswith("error: diverged at step 0")
        assert "Traceback" not in err
        assert (out / "resolved_config.json").exists()
        assert not (out / "report.json").exists()
        assert not list(out.glob("checkpoint_layer*.json"))


# a small MLP fit: 16-wide layers, 4 classes, a few steps
SMALL_MLP = ["--family", "lora", "--rank", "2", "--layer-sizes", "16,16,16",
             "--n-classes", "4", "--n-train", "32", "--n-test", "16",
             "--pretrain-steps", "5", "--max-steps", "3"]


def non_finite_mlp_loss(monkeypatch):
    """Make every MLP loss NaN, as a diverging training would see it."""
    original = training._mlp_loss_and_grads

    def diverging(*args):
        _, grads = original(*args)
        return float("nan"), grads

    monkeypatch.setattr(training, "_mlp_loss_and_grads", diverging)


class TestRankReport:
    def make_checkpoints(self, tmp_path):
        paths = []
        for i, rank in enumerate([2, 4]):
            lora = init_lora(16, 16, rank, seed=i)
            rng = np.random.default_rng(i)
            lora.b[:] = rng.standard_normal(lora.b.shape)
            p = tmp_path / f"layer{i}.json"
            save_checkpoint(lora, p)
            paths.append(str(p))
        return paths

    def test_ranks_capped_by_r(self, tmp_path, capsys):
        paths = self.make_checkpoints(tmp_path)
        out = tmp_path / "ranks"
        rc = main(["rank-report", *paths, "--out", str(out)])
        assert rc == EXIT_OK
        lines = (out / "ranks.csv").read_text().strip().split("\n")
        assert lines[0] == "layer,family,rank,max_rank,tolerance"
        assert lines[1] == "layer0,lora,2,2,1e-08"
        assert lines[2] == "layer1,lora,4,4,1e-08"

    def test_comma_in_checkpoint_stem_is_quoted(self, tmp_path, capsys):
        lora = init_lora(16, 16, 2, seed=0)
        lora.b[:] = np.random.default_rng(0).standard_normal(lora.b.shape)
        comma = tmp_path / "a,b.json"
        save_checkpoint(lora, comma)
        out = tmp_path / "ranks"
        rc = main(["rank-report", str(comma), "--out", str(out)])
        assert rc == EXIT_OK
        with open(out / "ranks.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["layer", "family", "rank", "max_rank", "tolerance"]
        assert rows[1] == ["a,b", "lora", "2", "2", "1e-08"]

    def test_labels_flag(self, tmp_path, capsys):
        paths = self.make_checkpoints(tmp_path)
        out = tmp_path / "ranks"
        rc = main(["rank-report", *paths, "--labels", "q,v", "--out", str(out)])
        assert rc == EXIT_OK
        assert "q,lora" in (out / "ranks.csv").read_text()

    def test_label_count_mismatch_exits_2(self, tmp_path, capsys):
        paths = self.make_checkpoints(tmp_path)
        rc = main(["rank-report", *paths, "--labels", "q",
                   "--out", str(tmp_path / "r")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("rel_tol", ["2", "0"])
    def test_rel_tol_outside_unit_interval_exits_2(self, tmp_path, capsys, rel_tol):
        paths = self.make_checkpoints(tmp_path)
        rc = main(["rank-report", *paths, "--rel-tol", rel_tol,
                   "--out", str(tmp_path / "ranks")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rel_tol" in err
        assert not (tmp_path / "ranks" / "ranks.csv").exists()

    def test_missing_checkpoint_exits_5(self, tmp_path, capsys):
        rc = main(["rank-report", str(tmp_path / "ghost.json"),
                   "--out", str(tmp_path / "r")])
        assert rc == EXIT_MISSING

    def test_hira_mlp_checkpoint_round_trip(self, tmp_path, capsys):
        out = tmp_path / "mlp"
        rc = main(
            ["fit", "--task", "mlp", "--family", "hira", "--rank", "2",
             "--layer-sizes", "16,16,16,16", "--n-classes", "4",
             "--n-train", "256", "--n-test", "128", "--pretrain-steps", "200",
             "--max-steps", "60", "--out", str(out)]
        )
        assert rc == EXIT_OK
        ranks_out = tmp_path / "ranks"
        rc = main(["rank-report", str(out / "checkpoint_layer0.json"),
                   "--out", str(ranks_out)])
        assert rc == EXIT_OK
        row = (ranks_out / "ranks.csv").read_text().strip().split("\n")[1]
        assert row.split(",")[1] == "hira"

    def test_hira_base_weight_whose_pretraining_diverges_exits_2(
            self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "mlp"
        rc = main(["fit", "--task", "mlp", *SMALL_MLP, "--family", "hira",
                   "--out", str(out)])
        assert rc == EXIT_OK
        non_finite_mlp_loss(monkeypatch)
        checkpoint = str(out / "checkpoint_layer0.json")
        for argv in (["rank-report", checkpoint, "--out", str(tmp_path / "ranks")],
                     ["checkpoint", "inspect", checkpoint]):
            capsys.readouterr()
            assert main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("error: cannot rebuild the base weight")
            assert "diverged" in err


class TestVerify:
    def test_params_bound(self, tmp_path, capsys):
        out = tmp_path / "v"
        rc = main(["verify", "--bound", "params", "--shape", "64x64",
                   "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads((out / "param_count_bound.json").read_text())
        assert doc["verdict"] == "holds"
        assert doc["terms"]["min_params"] == 24  # 2x6 twos

    def test_rank_bound(self, tmp_path, capsys):
        out = tmp_path / "v"
        rc = main(["verify", "--bound", "rank", "--trials", "25",
                   "--scheme", "4,4|4,4", "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads((out / "rank_bound.json").read_text())
        assert doc["verdict"] == "holds"
        assert doc["rhs"] == 16.0

    def test_expressivity_planted_all_hold(self, tmp_path, capsys):
        out = tmp_path / "v"
        rc = main(["verify", "--bound", "expressivity", "--instances", "5",
                   "--planted", "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads((out / "expressivity_bound.json").read_text())
        assert doc["holds"] == 5
        assert doc["violated"] == 0
        csv = (out / "expressivity_instances.csv").read_text().strip().split("\n")
        assert csv[0] == "instance,verdict,lhs,rhs,slack"
        assert len(csv) == 6

    def test_expressivity_polish_on_record_in_the_json_only(self, tmp_path, capsys):
        out = tmp_path / "v"
        rc = main(["verify", "--bound", "expressivity", "--instances", "3",
                   "--planted", "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads((out / "expressivity_bound.json").read_text())
        for report in doc["reports"]:
            terms = report["terms"]
            assert terms["als_value_before_polish"] >= report["lhs"]
            assert isinstance(terms["als_polish_steps"], int)
            assert 0 <= terms["als_polish_steps"] <= 200
        assert any(r["terms"]["als_polish_steps"] > 0 for r in doc["reports"])
        header = (out / "expressivity_instances.csv").read_text().split("\n")[0]
        assert header == "instance,verdict,lhs,rhs,slack"

    def test_expressivity_als_stop_on_record_in_the_json_only(self, tmp_path, capsys):
        # planted targets hand over at the floor; random ones run every
        # sweep, stalled or still falling; either way the CSV keeps its columns
        for planted in (True, False):
            out = tmp_path / ("planted" if planted else "random")
            rc = main(["verify", "--bound", "expressivity", "--instances", "3",
                       "--out", str(out)] + (["--planted"] if planted else []))
            assert rc == EXIT_OK
            doc = json.loads((out / "expressivity_bound.json").read_text())
            stops = [r["terms"]["als_stop"] for r in doc["reports"]]
            if planted:
                assert stops == ["floor"] * 3
            else:
                assert set(stops) <= {"stalled", "sweeps"}
            csv = (out / "expressivity_instances.csv").read_text()
            assert csv.split("\n")[0] == "instance,verdict,lhs,rhs,slack"
            assert "als_stop" not in csv

    def test_expressivity_planted_escalates_past_a_swamp(self, tmp_path, capsys):
        # Instance 5 stalls at 3 and 6 extra ALS starts and holds at 12.
        out = tmp_path / "v"
        rc = main(["verify", "--bound", "expressivity", "--instances", "6",
                   "--planted", "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads((out / "expressivity_bound.json").read_text())
        assert doc["holds"] == 6
        starts = [r["terms"]["als_extra_starts"] for r in doc["reports"]]
        assert starts == [3, 3, 3, 3, 3, 12]

    def test_expressivity_csv_deterministic(self, tmp_path, capsys):
        outs = []
        for name in ["v1", "v2"]:
            out = tmp_path / name
            rc = main(["verify", "--bound", "expressivity", "--instances", "3",
                       "--out", str(out)])
            assert rc == EXIT_OK
            outs.append((out / "expressivity_instances.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_expressivity_json_has_one_format_version(self, tmp_path, capsys):
        # the suite carries format_version; its nested instance reports do not
        outs = []
        for name in ["v1", "v2"]:
            out = tmp_path / name
            rc = main(["verify", "--bound", "expressivity", "--instances", "3",
                       "--out", str(out)])
            assert rc == EXIT_OK
            outs.append((out / "expressivity_bound.json").read_bytes())
        assert outs[0] == outs[1]
        assert outs[0].count(b'"format_version"') == 1
        doc = json.loads(outs[0])
        assert doc["format_version"] == 1 and len(doc["reports"]) == 3
        assert all("format_version" not in r for r in doc["reports"])

    def test_instances_below_one_exit_2(self, tmp_path, capsys):
        out = tmp_path / "v"
        rc = main(["verify", "--bound", "expressivity", "--instances", "-1",
                   "--out", str(out)])
        assert rc == EXIT_CONFIG
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.startswith("error: instances must be at least 1")
        assert not (out / "expressivity_bound.json").exists()

    def test_unknown_bound_via_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"bound": "bogus", "out": str(tmp_path)}))
        rc = main(["verify", "--config", str(config)])
        assert rc == EXIT_CONFIG


class TestAblate:
    def test_frontier_rows(self, tmp_path, capsys):
        out = tmp_path / "abl"
        rc = main(
            ["ablate", "--schemes", "16|4,4", "2^4|2^4", "--shape", "16x16",
             "--targets", "2", "--max-steps", "60", "--out", str(out)]
        )
        assert rc == EXIT_OK
        with open(out / "ablation.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["scheme", "family", "params",
                           "mean_final_relative_residual"]
        body = rows[1:]
        # both families at both schemes
        assert len(body) == 4
        by_key = {(r[0], r[1]): int(r[2]) for r in body}
        assert by_key[("16|4,4", "tera")] == by_key[("16|4,4", "tera_iden")]
        # deeper tensorization has fewer parameters
        assert by_key[("2,2,2,2|2,2,2,2", "tera")] < by_key[("16|4,4", "tera")]

    def test_infeasible_scheme_skipped(self, tmp_path, capsys):
        out = tmp_path / "abl"
        rc = main(
            ["ablate", "--schemes", "16|4,4", "16|2,2,2,2", "9|3,3", "--shape", "16x16",
             "--families", "tera,lora,vera", "--targets", "1", "--max-steps", "20",
             "--out", str(out)]
        )
        assert rc == EXIT_OK
        err = capsys.readouterr().err
        assert "skipping scheme '9|3,3'" in err
        # one warning per skipped family, not one per scheme
        assert err.count("skipping family 'lora'") == err.count("skipping family 'vera'") == 1
        body = (out / "ablation.csv").read_text()
        assert "9|3,3" not in body and "lora" not in body

    def test_skipped_family_warned_when_no_scheme_parses(self, tmp_path, capsys):
        out = tmp_path / "abl"
        rc = main(["ablate", "--schemes", "bad", "--shape", "16x16", "--families", "tera,lora",
                   "--targets", "1", "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "skipping scheme 'bad'" in err and err.count("skipping family 'lora'") == 1
        assert err.splitlines()[-1] == "error: no scheme to ablate"
        assert not out.exists()

    def test_no_tensor_network_family_exits_2(self, tmp_path, capsys):
        out = tmp_path / "abl"
        rc = main(["ablate", "--schemes", "16|4,4", "--shape", "16x16", "--families", "lora",
                   "--targets", "1", "--out", str(out)])
        assert rc == EXIT_CONFIG
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.count("skipping family 'lora'") == 1
        assert err.splitlines()[-1] == "error: no tensor-network family to ablate"
        assert not out.exists()

    def test_targets_below_one_exit_2(self, tmp_path, capsys):
        out = tmp_path / "abl"
        rc = main(["ablate", "--schemes", "16|4,4", "--shape", "16x16",
                   "--targets", "0", "--out", str(out)])
        assert rc == EXIT_CONFIG
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.startswith("error: targets must be at least 1")
        assert not (out / "ablation.csv").exists()

    def test_rerun_byte_identical(self, tmp_path, capsys):
        blobs = []
        for name in ["a", "b"]:
            out = tmp_path / name
            main(["ablate", "--schemes", "16|4,4", "--shape", "16x16",
                  "--targets", "1", "--max-steps", "30", "--out", str(out)])
            blobs.append((out / "ablation.csv").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("args, flag", [
        # the tensor-network families take no adapter seed
        (["ablate", "--schemes", "16|4,4", "--shape", "16x16", "--targets", "1",
          "--max-steps", "5"], "--adapter-seed"),
        # the optimizer draws no random numbers
        (["ablate", "--schemes", "16|4,4", "--shape", "16x16", "--targets", "1",
          "--max-steps", "5"], "--opt-seed"),
        (["fit", "--family", "tera", "--shape", "16x16", "--max-steps", "5"], "--opt-seed"),
        # the 2^16 cap bounds the enumeration, so a limit binds nothing
        (["verify", "--bound", "params", "--shape", "64x64"], "--enumeration-limit"),
    ])
    def test_seed_that_drives_nothing_is_no_setting(self, tmp_path, capsys, args, flag):
        # neither the flag nor a config key naming it is accepted
        key = flag[2:].replace("-", "_")
        with pytest.raises(SystemExit) as exc:
            main(args + [flag, "7", "--out", str(tmp_path / "flag")])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "flag").exists()

        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: 7}))
        rc = main(args + ["--config", str(config), "--out", str(tmp_path / "key")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "key").exists()

        assert main(args + ["--out", str(tmp_path / "run")]) == EXIT_OK
        resolved = json.loads((tmp_path / "run" / "resolved_config.json").read_text())
        assert key not in resolved


class TestCheckpointInspect:
    def test_inspect_prints_summary(self, tmp_path, capsys):
        lora = init_lora(8, 8, 2, seed=0)
        path = tmp_path / "ck.json"
        save_checkpoint(lora, path)
        rc = main(["checkpoint", "inspect", str(path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "family: lora" in out
        assert "shape: 8x8" in out
        assert "trainable_params: 32" in out

    @pytest.mark.parametrize("family, lines", [
        ("vera", ["family: vera", "rank: 2", "master_seed: 3"]),
        ("hira", ["family: hira", "rank: 2", 'w0_provenance: {"kind": "synthetic", "seed": 5}']),
    ])
    def test_inspect_prints_the_family_fields(self, tmp_path, capsys, family, lines):
        path = write(valid_doc(family), tmp_path / "ck.json")
        assert main(["checkpoint", "inspect", str(path)]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        assert all(line in printed for line in lines)

    def test_missing_exits_5(self, tmp_path, capsys):
        rc = main(["checkpoint", "inspect", str(tmp_path / "none.json")])
        assert rc == EXIT_MISSING

    def test_corrupt_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        rc = main(["checkpoint", "inspect", str(path)])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("case", [
        "tera-fewer-d-vectors-than-modes", "tera-no-scheme", "tera-no-master-seed",
        "tera-nan-d", "tera-not-an-object", "lora-rank-disagrees-with-a",
        "vera-d-length-differs-from-rank", "hira-no-w0",
    ])
    def test_malformed_document_exits_2(self, tmp_path, capsys, case):
        path = write(malformed_doc(case), tmp_path / "bad.json")
        for argv in (["checkpoint", "inspect", str(path)],
                     ["rank-report", str(path), "--out", str(tmp_path / "ranks")]):
            assert main(argv) == EXIT_CONFIG
            assert capsys.readouterr().err.startswith("error: ")


class TestUnreadablePaths:
    @pytest.mark.parametrize("case", [
        "inspect-a-directory", "rank-report-a-directory", "config-a-directory",
        "out-an-existing-file",
    ])
    def test_os_error_exits_2(self, tmp_path, capsys, case):
        directory = tmp_path / "dir"
        directory.mkdir()
        existing = tmp_path / "file.txt"
        existing.write_text("x")
        argv = {
            "inspect-a-directory": ["checkpoint", "inspect", str(directory)],
            "rank-report-a-directory":
                ["rank-report", str(directory), "--out", str(tmp_path / "r")],
            "config-a-directory": ["fit", "--config", str(directory)],
            "out-an-existing-file":
                ["fit", "--family", "lora", "--max-steps", "1", "--out", str(existing)],
        }[case]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


def test_cli_imports_no_private_library_name():
    # the command line reaches the library through its public names only
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        if node.level > 0 or (node.module or "").split(".")[0] == "tera"
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []
