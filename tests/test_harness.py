import json
import math
from pathlib import Path

import pytest

from hvsinglet import harness
from hvsinglet.cli import main
from hvsinglet.harness import (
    ConfigError,
    SCAN_CSV_HEADER,
    parse_angle,
    parse_config,
    parse_model,
    report_to_json,
    run_scan,
    run_single,
    run_verify,
    scan_rows_to_csv,
)
from hvsinglet.geometry import X, Y, Z
from hvsinglet.inequalities import ViolationWindow, margin, scan_values
from hvsinglet.models import FIELD_READERS, HiddenState, ModelFamily, ModelParams, Settings, joint

FAST_VERIFY = {"trials": 3, "mc_trial_n": 2000, "cases": 500, "mc_n": 20_000}
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CHSH_ETA_SCAN = json.loads((CONFIGS / "chsh_eta_scan.json").read_text())


class TestParsing:
    def test_angle_plain_number_is_radians(self):
        assert parse_angle(0.5) == 0.5

    def test_angle_degree_suffix(self):
        assert parse_angle("90deg") == pytest.approx(math.pi / 2, abs=1e-15)

    def test_angle_radian_suffix(self):
        assert parse_angle("1.25rad") == 1.25

    def test_angle_garbage_rejected(self):
        with pytest.raises(ValueError, match="angle must be a finite number, got 'ninety'"):
            parse_angle("ninety")
        with pytest.raises(ConfigError, match="phi must be a finite number, got 'ninety'"):
            parse_config({"task": "leggett", "phi": "ninety"})

    def test_model_defaults_to_qm(self):
        assert parse_model({}).family is ModelFamily.QM

    def test_model_full_blocks(self):
        p = parse_model({
            "family": "fhv", "eta": 0.25,
            "f": {"coeff": 0.3, "power": 3},
        })
        assert p.eta == 0.25
        assert p.f_spec.power == 3
        shv = parse_model({
            "family": "shv",
            "p": {"kind": "cap", "axis": [0, 0, 1], "half_angle": "30deg", "pm": 0.4},
        })
        assert shv.p_m == 0.4

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_model({"family": "qm", "bogus": 1})
        with pytest.raises(ConfigError):
            parse_config({"task": "prob", "nonsense": {}})

    def test_bad_family_rejected(self):
        with pytest.raises(ValueError, match="unknown model family 'bohm'"):
            parse_model({"family": "bohm"})
        with pytest.raises(ConfigError, match="unknown model family 'bohm'"):
            parse_config({"task": "chsh", "model": {"family": "bohm"}})

    @pytest.mark.parametrize("tag", ["bhv", "lhv"])
    def test_comparison_class_is_no_family(self, tag, capsys):
        assert main(["chsh", "--model", tag]) == 2
        assert capsys.readouterr().err == (
            f"error: invalid configuration: unknown model family {tag!r}\n")

    def test_model_readers_are_the_models_field_table(self):
        entries = {key: e for key, e in harness.CONFIG["model"].items() if key != "family"}
        assert {e.field or key for key, e in entries.items()} == set(FIELD_READERS)
        for key, entry in entries.items():
            assert entry.readers is FIELD_READERS[entry.field or key]

    def test_settings_vectors_normalized(self):
        cfg = parse_config({"task": "prob", "settings": {"a": [0, 0, 2], "b": [1, 1, 0]}})
        assert cfg.a.z == 1.0
        assert cfg.b.x == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_task_requirements(self):
        with pytest.raises(ConfigError):
            parse_config({"task": "leggett"})  # needs phi
        with pytest.raises(ConfigError):
            parse_config({"task": "scan"})  # needs scan block

    def test_invalid_model_parameters_name_the_constraint(self):
        with pytest.raises(ConfigError, match=r"f coeff must lie in \[0, 0.5\]"):
            parse_config({"task": "prob", "model": {"family": "fhv", "f": {"coeff": 0.9}}})
        with pytest.raises(ConfigError, match="positivity"):
            parse_config({"task": "prob", "model": {"family": "thv", "zeta": 2.5}})


class TestRunSingle:
    def test_prob_qm_golden(self):
        cfg = parse_config({
            "task": "prob",
            "settings": {"a": [0, 0, 1], "b": [0, 0, 1]},
        })
        doc = run_single(cfg)
        assert doc["table"] == {"++": 0.0, "+-": 0.5, "-+": 0.5, "--": 0.0}
        assert doc["hidden"] is None

    def test_prob_hidden_from_config(self):
        cfg = parse_config({
            "task": "prob",
            "model": {"family": "thv", "zeta": 1.0},
            "hidden": {"u": [0, 0, 1]},
            "settings": {"a": [0, 0, 1], "b": [0, 0, 1]},
        })
        doc = run_single(cfg)
        assert doc["hidden_origin"] == "config"
        assert doc["table"]["++"] == pytest.approx(0.25, abs=1e-15)

    def test_prob_hidden_sampled_and_echoed(self):
        cfg = parse_config({
            "task": "prob",
            "model": {"family": "fhv", "eta": 1.0},
            "sampling": {"seed": 9},
        })
        doc = run_single(cfg)
        assert doc["hidden_origin"] == "sampled"
        assert set(doc["hidden"]) == {"u", "v"}
        again = run_single(cfg)
        assert doc == again  # seed fixed, so the sampled state repeats

    def test_chsh_fhv_hand_value(self):
        cfg = parse_config({"task": "chsh", "model": {"family": "fhv", "eta": 0.2}})
        doc = run_single(cfg)
        assert doc["value"] == pytest.approx(2 * math.sqrt(2) / 1.2, abs=1e-12)
        assert doc["violated"] is True

    def test_correlator_with_mc(self):
        cfg = parse_config({
            "task": "correlator",
            "model": {"family": "fhv", "eta": 0.5},
            "settings": {"a": [1, 0, 0], "b": [0, 1, 0]},
            "sampling": {"n": 5000, "seed": 1},
        })
        doc = run_single(cfg)
        assert doc["analytic"] == pytest.approx(0.0, abs=1e-15)
        assert abs(doc["mc"]["mean"]) <= 5 * doc["mc"]["stderr"]


class TestRunScan:
    def test_csv_header_frozen(self):
        assert SCAN_CSV_HEADER == (
            "variable,value_of_variable,inequality,value,bound,margin,violated"
        )

    def test_chsh_eta_scan_crosses_at_closed_form(self):
        cfg = parse_config({
            "task": "scan",
            "model": {"family": "fhv"},
            "scan": {"inequality": "chsh", "variable": "eta",
                     "start": 0.0, "stop": 1.0, "steps": 101},
        })
        rows = run_scan(cfg)
        flips = [
            (rows[i]["value_of_variable"], rows[i + 1]["value_of_variable"])
            for i in range(len(rows) - 1)
            if rows[i]["violated"] and not rows[i + 1]["violated"]
        ]
        assert len(flips) == 1
        lo, hi = flips[0]
        root = math.sqrt(2) - 1
        assert lo <= root <= hi

    def test_leggett_phi_scan_crossing(self):
        cfg = parse_config({
            "task": "scan",
            "model": {"family": "qm"},
            "scan": {"inequality": "leggett", "variable": "phi",
                     "start": 0.0, "stop": math.pi / 2, "steps": 100},
        })
        rows = run_scan(cfg)
        crossing = 2 * math.asin(1 / math.pi)
        grid = math.pi / 2 / 99
        for row, nxt in zip(rows, rows[1:]):
            if row["violated"] and not nxt["violated"]:
                assert abs(row["value_of_variable"] - crossing) <= grid
                break
        else:
            pytest.fail("no zero crossing found")

    def test_degenerate_range_repeats_rows(self):
        cfg = parse_config({
            "task": "scan",
            "model": {"family": "fhv"},
            "scan": {"inequality": "chsh", "variable": "eta",
                     "start": 0.3, "stop": 0.3, "steps": 2},
        })
        rows = run_scan(cfg)
        assert len(rows) == 2
        assert rows[0] == rows[1]

    def test_csv_golden_shape(self):
        cfg = parse_config({
            "task": "scan",
            "model": {"family": "fhv"},
            "scan": {"inequality": "chsh", "variable": "eta",
                     "start": 0.0, "stop": 0.0, "steps": 2},
        })
        text = scan_rows_to_csv(run_scan(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == SCAN_CSV_HEADER
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[0] == "eta"
        assert fields[2] == "chsh"
        assert fields[6] == "true"
        assert float(fields[3]) == pytest.approx(2 * math.sqrt(2), abs=1e-12)


@pytest.fixture(scope="module")
def fast_report():
    cfg = parse_config({"task": "verify", "verify": FAST_VERIFY})
    return run_verify(cfg)


class TestRunVerify:
    def test_all_pass_and_two_flagged(self, fast_report):
        assert fast_report.n_failed == 0
        flagged = {c.id for c in fast_report.claims
                   if c.status == "discrepancy-flagged"}
        assert flagged == {"chsh.thv.quoted_slope", "branciard.fhv.window_center_quoted"}

    def test_report_schema_frozen(self, fast_report):
        doc = fast_report.as_dict()
        assert set(doc) == {"suite", "claims", "seed", "versions"}
        claim = doc["claims"][0]
        assert set(claim) == {
            "id", "description", "reference", "computed",
            "abs_diff", "tolerance", "status", "note",
        }

    def test_byte_identical_reruns(self):
        cfg = parse_config({
            "task": "verify",
            "sampling": {"seed": 5},
            "verify": {"trials": 2, "mc_trial_n": 1000, "cases": 200, "mc_n": 5000},
        })
        a = report_to_json(run_verify(cfg).as_dict())
        b = report_to_json(run_verify(cfg).as_dict())
        assert a == b

    def test_zero_sigma_fails_every_mc_claim(self):
        cfg = parse_config({
            "task": "verify",
            "verify": dict(FAST_VERIFY, sigma=0.0),
        })
        report = run_verify(cfg)
        failing = {c.id for c in report.claims if c.status == "fail"}
        assert failing == {
            "props.fhv_marginal_zero_mean",
            "mc.fhv.consistency",
            "mc.shv.consistency",
            "mc.thv.consistency",
            "mc.qm.consistency",
        }

    def test_nan_window_ends_fail_their_claims(self, monkeypatch):
        # a NaN error must fail its claim, not vanish in the fold over trials
        def nan_windows(name, models, variable, *args, **kwargs):
            return [ViolationWindow(variable, math.nan, math.nan, True) for _ in models]

        monkeypatch.setattr(harness, "_violation_windows", nan_windows)
        cfg = parse_config({"task": "verify", "verify": {
            "trials": 2, "mc_trial_n": 1000, "cases": 200, "mc_n": 5000}})
        report = run_verify(cfg)
        for claim_id in ("leggett.fhv.window_endpoints", "branciard.fhv.window_derived"):
            assert report.claim(claim_id).status == "fail"
            assert math.isnan(report.claim(claim_id).computed)


class TestCli:
    def test_verify_exit_codes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main([
            "verify", "--config", _write_cfg(tmp_path, {"verify": FAST_VERIFY}),
            "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["suite"]["failed"] == 0

    def test_invalid_config_exit_2(self, capsys):
        assert main(["prob", "--model", "bogus"]) == 2

    def test_unwritable_output_exit_3(self, capsys):
        rc = main(["prob", "--model", "qm", "--out", "/nonexistent-dir/x.json"])
        assert rc == 3

    def test_scan_stdout(self, capsys, tmp_path):
        rc = main([
            "scan",
            "--config", _write_cfg(tmp_path, {
                "model": {"family": "fhv"},
                "scan": {"inequality": "chsh", "variable": "eta",
                         "start": 0.0, "stop": 0.5, "steps": 3},
            }),
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == SCAN_CSV_HEADER
        assert len(lines) == 4

    def test_degree_phi_override(self, capsys):
        rc = main(["branciard", "--model", "qm", "--phi", "60deg"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(2 * math.cos(math.pi / 6), abs=1e-12)


class TestInvalidInputExit2:
    @pytest.mark.parametrize("argv", [
        ["leggett", "--phi", "4"],
        ["leggett", "--phi", "nan"],
        ["leggett", "--phi=-200deg"],
        ["branciard", "--phi=-0.5"],
        ["branciard", "--phi", "inf"],
        ["correlator", "--n", "50"],
        ["correlator", "--model", "shv", "--pm", "nan"],
        ["chsh", "--model", "fhv", "--eta", "nan"],
        ["chsh", "--phi", "0.3"],
        ["scan", "--config", str(CONFIGS / "chsh_eta_scan.json"), "--model", "thv"],
        ["scan", "--config", str(CONFIGS / "chsh_eta_scan.json"), "--phi", "0.3"],
        ["scan", "--config", str(CONFIGS / "leggett_phi_scan.json"), "--phi", "0.3"],
        ["verify", "--format", "csv"],
        ["chsh", "--model", "shv", "--eta", "0.5"],
        ["chsh", "--model", "qm", "--zeta", "1"],
        ["chsh", "--model", "fhv", "--eta", "0.1", "--pm", "0.7"],
        ["chsh", "--n", "500", "--shards", "3"],
        ["leggett", "--phi", "0.3", "--n", "500"],
        ["prob", "--shards", "2"],
        ["correlator", "--shards", "3"],
        ["correlator", "--seed", "4"],
        ["prob", "--seed", "4"],
        ["scan", "--config", str(CONFIGS / "chsh_eta_scan.json"), "--seed", "99"],
        ["chsh", "--seed", "1"],
        ["leggett", "--phi", "0.3", "--seed", "1"],
        ["branciard", "--phi", "0.3", "--seed", "1"],
        ["correlator", "--n", "1.5"],
        ["correlator", "--eta", "x"],
        ["correlator", "--model", "fhv", "--eta", "x"],
        ["correlator", "--format", "xml"],
        ["correlator", "--n", "500", "--seed", "x"],
        ["correlator", "--model", "shv", "--pm", "x"],
        ["scan", "--config", str(CONFIGS / "chsh_eta_scan.json"), "--eta", "0.7"],
        ["verify", "--model", "shv"],
        ["verify", "--eta", "0.1"],
        ["verify", "--zeta", "0.5"],
        ["verify", "--pm", "0.7"],
        ["scan", "--config", {**CHSH_ETA_SCAN, "model": {
            "family": "fhv", "f": {"coeff": 0.5, "power": 1}}}],
        ["scan", "--config", {**CHSH_ETA_SCAN, "model": {
            "family": "fhv", "f_b": {"coeff": 0.5, "power": 1}}}],
    ])
    def test_rejected_with_one_line(self, argv, capsys, tmp_path):
        # a dict stands for a config file holding it
        argv = [_write_cfg(tmp_path, a) if isinstance(a, dict) else a for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("doc", [
        {"model": {"family": "qm"}, "scan": {"inequality": "leggett", "variable": "eta",
                                             "start": 0.0, "stop": 0.1, "steps": 3}},
        {"model": {"family": "fhv"}, "scan": {"inequality": "chsh", "variable": "zeta",
                                              "start": 0.0, "stop": 1.0, "steps": 3}},
        {"model": {"family": "thv"}, "scan": {"inequality": "chsh", "variable": "p_m",
                                              "start": 0.0, "stop": 1.0, "steps": 3}},
        {"scan": {"inequality": "branciard", "variable": "phi",
                  "start": -0.5, "stop": 1.0, "steps": 3}},
        {"scan": {"inequality": "leggett", "variable": "phi",
                  "start": 0.0, "stop": "190deg", "steps": 3}},
        {"scan": {"inequality": "leggett", "variable": "phi",
                  "start": 0.0, "stop": 1.0, "steps": "many"}},
        {"model": {"family": "shv", "p": {"kind": "cap", "pm": "nan"}},
         "scan": {"inequality": "chsh", "variable": "p_m",
                  "start": 0.0, "stop": 1.0, "steps": 3}},
        {"model": {"family": "fhv"}, "sampling": {"seed": 1.5},
         "scan": {"inequality": "chsh", "variable": "eta",
                  "start": 0.0, "stop": 1.0, "steps": 3}},
        {"model": {"family": "fhv"}, "output": {"format": "xml"},
         "scan": {"inequality": "chsh", "variable": "eta",
                  "start": 0.0, "stop": 1.0, "steps": 3}},
        {"model": {"family": "fhv", "eta": 0.7},
         "scan": {"inequality": "chsh", "variable": "eta",
                  "start": 0.0, "stop": 1.0, "steps": 3}},
        {"model": {"family": "thv", "zeta": 0.5},
         "scan": {"inequality": "leggett", "variable": "zeta",
                  "start": 0.0, "stop": 1.0, "steps": 3}, "phi": 0.3},
        {"model": {"family": "shv", "p": {"kind": "cap", "pm": 0.3}},
         "scan": {"inequality": "chsh", "variable": "p_m",
                  "start": 0.0, "stop": 1.0, "steps": 3}},
    ])
    def test_scan_config_rejected(self, doc, tmp_path, capsys):
        assert main(["scan", "--config", _write_cfg(tmp_path, doc)]) == 2

    def test_pm_flag_on_a_p_m_scan_rejected(self, tmp_path, capsys):
        doc = {"model": {"family": "shv"}, "scan": {"inequality": "chsh", "variable": "p_m",
                                                    "start": 0.0, "stop": 1.0, "steps": 3}}
        assert main(["scan", "--config", _write_cfg(tmp_path, doc), "--pm", "0.3"]) == 2
        assert capsys.readouterr().err == ("error: invalid configuration: p_m is the scan "
                                           "variable; a fixed p_m would be ignored\n")

    def test_constant_p0_on_a_p_m_scan_accepted(self, tmp_path, capsys):
        # the scan rescales p0 to each p_m and keeps its direction
        doc = {"model": {"family": "shv", "p": {"p0": [0.3, 0.4, 0.5]}},
               "scan": {"inequality": "leggett", "variable": "p_m",
                        "start": 0.0, "stop": 1.0, "steps": 3}, "phi": 1.0}
        assert main(["scan", "--config", _write_cfg(tmp_path, doc)]) == 0
        assert capsys.readouterr().err == ""

    def test_verify_rejects_a_model_it_would_ignore(self):
        with pytest.raises(ConfigError, match="not by verify"):
            parse_config({"task": "verify", "model": {"family": "qm"}})
        # an empty model block sets nothing, so verify still takes it
        empty = parse_config({"task": "verify", "model": {}})
        assert empty == parse_config({"task": "verify"})

    def test_flag_values_parse_as_config_values(self, tmp_path, capsys):
        assert main(["correlator", "--n", "1e5", "--out", str(tmp_path / "flag.json")]) == 0
        doc = {"sampling": {"n": 1e5}}
        assert main(["correlator", "--config", _write_cfg(tmp_path, doc),
                     "--out", str(tmp_path / "file.json")]) == 0
        flag = (tmp_path / "flag.json").read_text()
        assert json.loads(flag)["mc"]["n"] == 100_000
        assert flag == (tmp_path / "file.json").read_text()

    def test_scan_sampling_seed_rejected(self, tmp_path, capsys):
        doc = {**json.loads((CONFIGS / "chsh_eta_scan.json").read_text()),
               "sampling": {"seed": 99}}
        assert main(["scan", "--config", _write_cfg(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration:") and err.count("\n") == 1

    @pytest.mark.parametrize("doc", [
        {"model": {"family": "qm"}, "hidden": {"u": [0, 0, 1]}},
        {"model": {"family": "fhv"}, "hidden": {"u": [0, 0, 1], "v": [1, 0, 0], "p": [0, 0, 1]}},
        {"model": {"family": "shv"}, "hidden": {"p": [0, 0, 0.5], "u": [0, 0, 1]}},
        {"model": {"family": "shv"}, "hidden": {"p": [0, 0, 0.5], "v": [0, 0, 1]}},
        {"model": {"family": "thv"}, "hidden": {"u": [0, 0, 1], "p": [0, 0, 1]}},
        {"model": {"family": "thv"}, "hidden": {"u": [0, 0, 1], "v": [0, 0, 1]}},
        {"model": {"family": "fhv"}, "sampling": {"seed": 3},
         "hidden": {"u": [0, 0, 1], "v": [1, 0, 0]}},
    ], ids=["hidden-on-qm", "p-on-fhv", "u-on-shv", "v-on-shv", "p-on-thv", "thv-v-not-minus-u",
            "seed-with-hidden"])
    def test_prob_input_the_run_ignores_rejected(self, doc, tmp_path, capsys):
        assert main(["prob", "--config", _write_cfg(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration:") and err.count("\n") == 1

    @pytest.mark.parametrize("model", [
        {"family": "qm", "f": {"coeff": 0.2}},
        {"family": "thv", "f_b": {"power": 3}},
        {"family": "fhv", "p": {"kind": "constant"}},
    ], ids=["f-on-qm", "f_b-on-thv", "p-on-fhv"])
    def test_model_key_of_another_family_rejected(self, model, tmp_path, capsys):
        assert main(["chsh", "--config", _write_cfg(tmp_path, {"model": model})]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration:") and err.count("\n") == 1
        assert "model ignores it" in err

    @pytest.mark.parametrize("task,doc", [
        ("chsh", {"task": "scan", "model": {"family": "fhv"},
                  "scan": {"inequality": "chsh", "variable": "eta",
                           "start": 0.0, "stop": 1.0, "steps": 3}}),
        ("correlator", {"task": "prob"}),
        ("correlator", {"model": {"family": "fhv"},
                        "hidden": {"u": [0, 0, 1], "v": [0, 0, 1]}}),
        ("leggett", {"phi": 0.3, "settings": {"a": [1, 0, 0]}}),
        ("scan", {"model": {"family": "fhv"}, "settings": {"b": [0, 1, 0]},
                  "scan": {"inequality": "chsh", "variable": "eta",
                           "start": 0.0, "stop": 1.0, "steps": 3}}),
        ("correlator", {"settings": {"a": [1, 0, 0], "b": [0, 1, 0],
                                     "a_prime": [0, 0, 1]}}),
        ("prob", {"settings": {"b_prime": [0, 0, 1]}}),
        ("chsh", {"scan": {"inequality": "chsh", "variable": "eta",
                           "start": 0.0, "stop": 1.0, "steps": 3}}),
        ("scan", {"model": {"family": "fhv"}, "verify": {"trials": 3},
                  "scan": {"inequality": "chsh", "variable": "eta",
                           "start": 0.0, "stop": 1.0, "steps": 3}}),
        ("verify", {"sampling": {"n": 1000}}),
    ], ids=["task-mismatch", "task-mismatch-single", "hidden-off-prob", "a-on-leggett",
            "b-on-scan", "a_prime-off-chsh", "b_prime-off-chsh", "scan-off-scan",
            "verify-off-verify", "n-on-verify"])
    def test_config_a_task_ignores_rejected(self, task, doc, tmp_path, capsys):
        assert main([task, "--config", _write_cfg(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,doc", [
        (["prob"], {"task": "prob", "model": {"family": "fhv"},
                    "settings": {"a": [1, 0, 0], "b": [0, 1, 0]},
                    "hidden": {"u": [0, 0, 1], "v": [0, 0, 1]}}),
        (["correlator", "--n", "500", "--shards", "2"],
         {"settings": {"a": [1, 0, 0], "b": [0, 1, 0]}}),
        (["chsh"], {"settings": {"a": [1, 0, 0], "b": [0, 1, 0],
                                 "a_prime": [0, 0, 1], "b_prime": [0, 0, 1]}}),
        (["prob", "--seed", "3"], {"model": {"family": "fhv"}}),
        (["prob"], {"model": {"family": "thv", "zeta": 1.0},
                    "hidden": {"u": [0, 0, 1], "v": [0, 0, -1]}}),
        (["correlator", "--n", "500", "--seed", "3"], {}),
    ], ids=["prob", "correlator", "chsh", "prob-seed", "thv-v-is-minus-u", "correlator-seed"])
    def test_entries_the_task_reads_accepted(self, argv, doc, tmp_path, capsys):
        assert main([*argv, "--config", _write_cfg(tmp_path, doc)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("block", [5, "abc", [["x"]]], ids=["int", "str", "list"])
    def test_non_object_block_rejected(self, block):
        for key in ("settings", "sampling", "verify", "output", "hidden", "scan"):
            with pytest.raises(ConfigError, match="must be an object"):
                parse_config({"task": "prob", key: block})
        with pytest.raises(ConfigError, match="must be an object"):
            parse_model({"family": "fhv", "f": block})

    @pytest.mark.parametrize("doc", [
        {"task": "prob", "model": {"family": "shv"},
         "hidden": {"p": [0, 0, 0.1], "u": [0, 0, 1]}},
        {"task": "prob", "model": {"family": "fhv"},
         "hidden": {"u": [0, 0, 1], "p": [0, 0, 1]}},
        {"task": "prob", "model": {"family": "fhv"}, "hidden": {"u": [0, 0, 1]}},
        {"task": "prob", "model": {"family": "fhv"}, "hidden": {"v": [0, 0, 1]}},
        {"task": "prob", "model": {"family": "thv"}, "hidden": {"v": [0, 0, -1]}},
        {"task": "prob", "model": {"family": "shv"}, "hidden": {}},
        {"task": "prob", "model": {"family": "thv"},
         "hidden": {"u": [0, 0, 1], "v": [1, 0, 0]}},
        {"task": "chsh", "settings": {"a": [1, 0, 0], "b": [0, 1, 0]}},
        {"task": "chsh", "settings": {"a_prime": [1, 0, 0], "b_prime": [0, 1, 0]}},
        {"task": "prob", "model": {"family": "shv"}, "hidden": {"p": [0, 0, 0.9]}},
    ], ids=["u-on-shv", "p-on-fhv", "fhv-without-v", "fhv-without-u", "thv-without-u",
            "shv-without-p", "thv-v-not-minus-u", "chsh-a-b-only", "chsh-primes-only",
            "p-beyond-pm"])
    def test_parse_config_alone_rejects_what_a_run_would(self, doc):
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_hidden_block_is_parsed(self):
        cfg = parse_config({"task": "prob", "model": {"family": "thv", "zeta": 1.0},
                            "hidden": {"u": [0, 0, 2]}})
        assert cfg.hidden.u.z == 1.0 and cfg.hidden.v.z == -1.0

    def test_bad_verify_knobs_rejected(self, capsys):
        with pytest.raises(ConfigError):
            parse_config({"task": "verify", "verify": {"mc_trial_n": 50}})
        with pytest.raises(ConfigError):
            parse_config({"task": "verify", "verify": {"trials": "lots"}})

    def test_fixed_phi_on_a_parameter_scan_is_used(self):
        cfg = parse_config({
            "task": "scan", "model": {"family": "thv"}, "phi": 1.2,
            "scan": {"inequality": "branciard", "variable": "zeta",
                     "start": 0.0, "stop": 1.0, "steps": 3},
        })
        assert {row["bound"] for row in run_scan(cfg)} == {
            2.0 - (2.0 / 3.0) * math.sin(0.6)}

    def test_domain_edges_accepted(self, capsys):
        assert main(["leggett", "--phi=-180deg"]) == 0
        assert main(["branciard", "--phi", "0"]) == 0
        assert main(["branciard", "--phi", "180deg"]) == 0


def _scan_doc(inequality, variable, family="qm", start=0.1, **entries):
    return {"task": "scan", "model": {"family": family}, **entries,
            "scan": {"inequality": inequality, "variable": variable, "start": start,
                     "stop": 0.5, "steps": 3}}


QM, FHV, THV, SHV = (ModelParams.qm(), ModelParams.fhv(0.0), ModelParams.thv(0.0),
                     ModelParams.shv())
PAIR = Settings(X, Y)
# Each rule that ties arguments together, as a config document (with its
# --pm value) and as the call of the library entry point that owns the rule.
MOVED_RULES = {
    "leggett-without-phi": ({"task": "leggett"}, None, lambda: margin("leggett", QM)),
    "branciard-phi-domain": ({"task": "branciard", "phi": -0.5}, None,
                             lambda: margin("branciard", QM, phi=-0.5)),
    "phi-on-a-chsh-scan": (_scan_doc("chsh", "eta", "fhv", phi=0.3), None,
                           lambda: scan_values("chsh", FHV, "eta", [0.1, 0.5], phi=0.3)),
    "chsh-phi-scan": (_scan_doc("chsh", "phi"), None,
                      lambda: scan_values("chsh", QM, "phi", [0.1, 0.5])),
    "phi-scan-range": (_scan_doc("branciard", "phi", start=-0.5), None,
                       lambda: scan_values("branciard", QM, "phi", [-0.5, 0.5])),
    "fixed-phi-on-a-phi-scan": (_scan_doc("leggett", "phi", phi=2.0), None,
                                lambda: scan_values("leggett", QM, "phi", [0.1, 0.5], phi=2.0)),
    "fixed-phi-domain": (_scan_doc("leggett", "eta", "fhv", phi=4.0), None,
                         lambda: scan_values("leggett", FHV, "eta", [0.1, 0.5], phi=4.0)),
    "scan-variable-unread": (_scan_doc("leggett", "zeta", "fhv", phi=0.3), None,
                             lambda: scan_values("leggett", FHV, "zeta", [0.1, 0.5], phi=0.3)),
    "scan-range": (_scan_doc("chsh", "eta", "fhv", start=-1.0), None,
                   lambda: scan_values("chsh", FHV, "eta", [-1.0, 0.5])),
    "pm-unread": ({"task": "chsh", "model": {"family": "fhv"}}, "0.3",
                  lambda: FHV.with_pm(0.3)),
    "model-field-unread": ({"task": "chsh", "model": {"family": "thv", "eta": 0.2}}, None,
                           lambda: ModelParams(ModelFamily.THV, eta=0.2)),
    "hidden-on-qm": ({"task": "prob", "hidden": {"u": [0, 0, 1]}}, None,
                     lambda: joint(QM, HiddenState(u=Z), PAIR)),
    "hidden-vector-missing": ({"task": "prob", "model": {"family": "fhv"},
                               "hidden": {"u": [0, 0, 1]}}, None,
                              lambda: joint(FHV, HiddenState(u=Z), PAIR)),
    "hidden-vector-unread": ({"task": "prob", "model": {"family": "fhv"},
                              "hidden": {"u": [0, 0, 1], "v": [0, 0, 1], "p": [0, 0, 1]}}, None,
                             lambda: joint(FHV, HiddenState(u=Z, v=Z, p=(0, 0, 1)), PAIR)),
    "thv-v-not-minus-u": ({"task": "prob", "model": {"family": "thv"},
                           "hidden": {"u": [0, 0, 1], "v": [0, 0, 1]}}, None,
                          lambda: joint(THV, HiddenState(u=Z, v=Z), PAIR)),
    "hidden-p-beyond-pm": ({"task": "prob", "model": {"family": "shv"},
                            "hidden": {"p": [0, 0, 0.9]}}, None,
                           lambda: joint(SHV, HiddenState.carrier((0, 0, 0.9)), PAIR)),
}


@pytest.mark.parametrize("doc, pm, call", MOVED_RULES.values(), ids=MOVED_RULES.keys())
def test_each_cross_argument_rule_has_one_message(doc, pm, call):
    # parse_config calls the library's check, so the two cannot drift apart
    with pytest.raises(ConfigError) as config:
        parse_config(doc, pm=pm)
    with pytest.raises(ValueError) as library:
        call()
    assert str(config.value) == str(library.value)
    assert "\n" not in str(library.value)


def _write_cfg(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)
