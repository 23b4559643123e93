"""Bench plumbing: configs, determinism, report files, CLI subcommands."""

import json

import numpy as np
import pytest

from noisylab.bench import (
    ExperimentConfig,
    TrialReport,
    run_scenario,
    scenario_names,
    write_report,
    render_text,
)
from noisylab.bench.cli import main
from noisylab.bench.scenarios import binom_ci, chisquare_vs_binomial, two_sample_chi2
from noisylab.learn import AmplifyParams


class TestExperimentConfig:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ExperimentConfig(scenario="does-not-exist")

    def test_trials_lower_bound(self):
        with pytest.raises(ValueError, match="trial count"):
            ExperimentConfig(scenario="round-lemma", trials=0)

    def test_from_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"scenario": "round-lemma", "trials": 5, "seed": 3, "params": {"w": 100}})
        )
        cfg = ExperimentConfig.from_file(cfg_path)
        assert cfg.scenario == "round-lemma" and cfg.trials == 5 and cfg.seed == 3
        assert cfg.params == {"w": 100}
        # Command-line overrides win; None overrides are ignored.
        cfg2 = ExperimentConfig.from_file(cfg_path, trials=9, seed=None)
        assert cfg2.trials == 9 and cfg2.seed == 3

    def test_undeclared_param_rejected(self):
        with pytest.raises(ValueError, match="unknown params") as exc:
            ExperimentConfig(scenario="round-lemma", params={"kapa": 0.9, "w": 100})
        assert "['kapa']" in str(exc.value) and "['kappa', 'w']" in str(exc.value)

    def test_non_object_params_rejected(self):
        with pytest.raises(ValueError, match="params must be a JSON object"):
            ExperimentConfig(scenario="round-lemma", params=[("kappa", 0.9)])


class TestRunScenario:
    def test_single_trial_single_record(self):
        rep = run_scenario(ExperimentConfig(scenario="nasty-budget-law", trials=1, seed=0))
        assert rep.scenario == "nasty-budget-law"
        assert len(rep.records) == 1

    def test_deterministic_reports(self, tmp_path):
        cfg = ExperimentConfig(scenario="round-lemma", trials=10, seed=42)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a.to_json_dict() == b.to_json_dict()
        assert a.records == b.records
        # Byte-identical files.
        pa = write_report(a, tmp_path / "a")
        pb = write_report(b, tmp_path / "b")
        for fa, fb in zip(pa, pb):
            assert fa.read_bytes() == fb.read_bytes()

    def test_config_echoed_in_report(self):
        cfg = ExperimentConfig(scenario="round-lemma", trials=2, seed=1)
        rep = run_scenario(cfg)
        assert rep.config["scenario"] == "round-lemma"
        assert rep.config["seed"] == 1

    def test_every_scenario_registered(self):
        names = scenario_names()
        for expected in (
            "ice-filter-unit", "nasty-budget-law", "amplify-concentration",
            "badamplify", "codes-suite", "sep-learner", "sep-adversary",
            "round-lemma", "ice-coupling", "ice-learner", "reduction-demos",
        ):
            assert expected in names

    def test_badamplify_mixture_uses_guarantee_group_count(self):
        # The mixture arm must run the group count its verdict's guarantee
        # needs, not the holdout arm's k.
        rep = run_scenario(ExperimentConfig(scenario="badamplify", trials=2, seed=3))
        assert rep.aggregate["amplify_k"] == AmplifyParams.auto(0.1, 0.01).k

    def test_param_cast_to_its_default_type(self):
        # A JSON float for an integer parameter runs the same scenario.
        as_int, as_float = (
            run_scenario(ExperimentConfig(scenario="round-lemma", params={"w": w}, trials=5))
            for w in (200, 200.0)
        )
        assert as_float.records == as_int.records
        assert as_float.aggregate == as_int.aggregate
        assert as_float.verdicts == as_int.verdicts

    def test_sep_adversary_single_trial(self):
        # One trial runs only the first concept, so the second's counts are 0.
        rep = run_scenario(
            ExperimentConfig(scenario="sep-adversary", params={"sim_trials": 20}, trials=1)
        )
        assert rep.aggregate["independence_pvalue"] == 1.0


class TestReports:
    def test_write_and_render(self, tmp_path):
        rep = TrialReport(
            scenario="demo",
            config={"seed": 0},
            records=[{"trial": 0, "x": 1.5}, {"trial": 1, "x": np.float64(2.5)}],
            aggregate={"mean_x": 2.0},
            verdicts={"ok": True, "bad": False},
        )
        csv_path, json_path = write_report(rep, tmp_path)
        assert csv_path.name == "demo_trials.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "schema_version,trial,x"
        assert len(lines) == 3
        data = json.loads(json_path.read_text())
        assert data["schema_version"] == 1
        assert data["verdicts"] == {"ok": True, "bad": False}
        text = render_text(json_path)
        assert "[PASS] ok" in text and "[FAIL] bad" in text


class TestStatsHelpers:
    def test_binom_ci_contains_truth(self):
        lo, hi = binom_ci(50, 100)
        assert lo < 0.5 < hi
        lo, hi = binom_ci(0, 100)
        assert lo == 0.0 and hi < 0.1

    def test_chisquare_detects_mismatch(self):
        gen = np.random.default_rng(0)
        good = gen.binomial(100, 0.2, size=2000)
        bad = gen.binomial(100, 0.3, size=2000)
        assert chisquare_vs_binomial(good, 100, 0.2) > 1e-3
        assert chisquare_vs_binomial(bad, 100, 0.2) < 1e-3

    def test_two_sample_chi2_drops_zero_rows(self):
        assert two_sample_chi2(np.array([5, 0, 7]), np.zeros(3, dtype=np.int64)) == 1.0
        assert two_sample_chi2(np.array([5, 0]), np.array([6, 0])) == 1.0
        assert two_sample_chi2(np.array([50, 0, 5]), np.array([5, 0, 50])) < 1e-3


class TestCli:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "round-lemma" in out

    def test_run_writes_reports(self, tmp_path, capsys):
        rc = main([
            "run", "round-lemma", "--trials", "20", "--seed", "1",
            "--out", str(tmp_path / "rep"),
        ])
        assert rc == 0
        assert (tmp_path / "rep" / "round-lemma_trials.csv").exists()
        assert (tmp_path / "rep" / "round-lemma_aggregate.json").exists()
        assert "[PASS]" in capsys.readouterr().out

    def test_run_with_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "round-lemma", "trials": 5, "seed": 2}))
        rc = main([
            "run", "round-lemma", "--config", str(cfg), "--out", str(tmp_path / "rep"),
        ])
        assert rc == 0

    def test_run_config_scenario_mismatch(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "round-lemma"}))
        rc = main([
            "run", "nasty-budget-law", "--config", str(cfg), "--out", str(tmp_path / "rep"),
        ])
        assert rc == 2

    def test_codes_gen_and_decode(self, tmp_path, capsys):
        code_path = tmp_path / "code.txt"
        assert main([
            "codes", "gen", "--rho", "0.5", "--w", "8", "--seed", "3",
            "--out", str(code_path),
        ]) == 0
        capsys.readouterr()
        # Decode an erasure of a real codeword and expect its message back.
        from noisylab.codes import GeneratorMatrix, encode, mask_to_signs

        G = GeneratorMatrix.from_text(code_path.read_text())
        cw = encode(G, mask_to_signs(6, G.rows))
        word = "??" + "".join("+" if b == 1 else "-" for b in cw.bits[2:])
        assert main(["codes", "decode", "--code", str(code_path), "--word", word]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        expected = "".join("+" if b == 1 else "-" for b in cw.message)
        assert expected in out

    def test_codes_decode_inconsistent_erasure_word(self, tmp_path, capsys):
        code_path = tmp_path / "code.txt"
        code_path.write_text("w=3 rows=1\n7\n")  # repetition code {+++, ---}
        assert main(["codes", "decode", "--code", str(code_path), "--word", "+?-"]) == 1
        assert capsys.readouterr().out.strip() == "no consistent messages"

    def test_codes_decode_beyond_listing_limit(self, tmp_path, capsys):
        # An all-erased word of a rank-32 code has 2^32 solutions: a cap that
        # admits them still stops at the decoder's 2^24 listing limit.
        code_path = tmp_path / "code.txt"
        main(["codes", "gen", "--rho", "0.5", "--w", "64", "--seed", "3", "--out", str(code_path)])
        capsys.readouterr()
        rc = main([
            "codes", "decode", "--code", str(code_path),
            "--word", "?" * 64, "--cap", str(2**33),
        ])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: solution space 2^32 exceeds the listing limit 2^24"]

    def test_codes_decode_bitflip(self, tmp_path, capsys):
        code_path = tmp_path / "code.txt"
        main(["codes", "gen", "--rho", "0.5", "--w", "8", "--seed", "3", "--out", str(code_path)])
        capsys.readouterr()
        rc = main([
            "codes", "decode", "--code", str(code_path),
            "--word", "++++++++", "--radius", "8", "--cap", "16",
        ])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 16

    def test_report_render_subcommand(self, tmp_path, capsys):
        main(["run", "round-lemma", "--trials", "5", "--out", str(tmp_path)])
        capsys.readouterr()
        rc = main(["report", "render", str(tmp_path / "round-lemma_aggregate.json")])
        assert rc == 0
        assert "verdicts:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param("codes decode --code {bad} --word ++++++++", id="code-unparsable"),
        pytest.param("codes decode --code {missing} --word +", id="code-missing"),
        pytest.param("codes decode --code {code} --word +++", id="word-length"),
        pytest.param("codes decode --code {code} --word +x++++++", id="word-symbol"),
        pytest.param("codes decode --code {code} --word ???????? --cap 4", id="list-cap"),
        pytest.param("run round-lemma --config {typo}", id="config-unknown-key"),
        pytest.param("run no-such-scenario", id="unknown-scenario"),
        pytest.param("run sep-learner --config {param}", id="scenario-param"),
        pytest.param("run round-lemma --config {kapa}", id="scenario-unknown-param"),
        pytest.param("run round-lemma --config {null}", id="scenario-param-type"),
        pytest.param("run round-lemma --config {frac}", id="scenario-param-fraction"),
        pytest.param("codes gen --rho 1.5 --w 12", id="codes-gen-rate"),
        pytest.param("codes gen --rho 0.3 --w 12", id="codes-gen-rows"),
        pytest.param("codes gen --rho 0.5 --w 80", id="codes-gen-length"),
        pytest.param("report render {missing}", id="report-missing"),
        pytest.param("report render {bad}", id="report-malformed"),
        pytest.param("report render {listed}", id="report-not-object"),
        pytest.param("report render {unnamed}", id="report-no-scenario"),
        pytest.param("run round-lemma --config {trials_str}", id="config-trials-str"),
        pytest.param("run round-lemma --config {trials_bool}", id="config-trials-bool"),
        pytest.param("run round-lemma --config {seed_str}", id="config-seed-str"),
        pytest.param("run round-lemma --config {seed_bool}", id="config-seed-bool"),
    ],
)
def test_cli_bad_input_is_one_error_line(argv, tmp_path, capsys):
    code, bad, typo = tmp_path / "code.txt", tmp_path / "bad.txt", tmp_path / "typo.json"
    param, kapa, null, frac = (
        tmp_path / f"{name}.json" for name in ("param", "kapa", "null", "frac")
    )
    main(["codes", "gen", "--rho", "0.5", "--w", "8", "--seed", "3", "--out", str(code)])
    bad.write_text("w=8 rows=1\nzz\n")
    typo.write_text(json.dumps({"scenario": "round-lemma", "trails": 5}))
    param.write_text(json.dumps({"scenario": "sep-learner", "params": {"w": 7}}))
    kapa.write_text(json.dumps({"scenario": "round-lemma", "params": {"kapa": 0.9}}))
    null.write_text(json.dumps({"scenario": "round-lemma", "params": {"w": None}}))
    frac.write_text(json.dumps({"scenario": "round-lemma", "params": {"w": 200.7}}))
    listed, unnamed = tmp_path / "listed.json", tmp_path / "unnamed.json"
    listed.write_text("[1]")
    unnamed.write_text(json.dumps({"schema_version": 1, "n_records": 0}))
    fields = {"trials_str": ("trials", "5"), "trials_bool": ("trials", True),
              "seed_str": ("seed", "x"), "seed_bool": ("seed", False)}
    for name, (key, value) in fields.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"scenario": "round-lemma", key: value}))
    capsys.readouterr()
    args = argv.format(
        code=code, bad=bad, typo=typo, param=param, kapa=kapa, null=null, frac=frac, listed=listed,
        unnamed=unnamed, missing=tmp_path / "none",
        **{name: tmp_path / f"{name}.json" for name in fields},
    ).split()
    assert main(args) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    if "typo" in argv:
        assert "trails" in err[0] and "trials" in err[0]
    if "kapa" in argv:
        assert "kapa" in err[0] and "kappa" in err[0]
    if "frac" in argv:
        assert "200.7" in err[0] and "integer" in err[0]
