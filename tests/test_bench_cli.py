"""Bench plumbing: configs, determinism, report files, CLI subcommands."""

import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from noisylab.bench import (
    ExperimentConfig,
    TrialReport,
    run_scenario,
    scenario_names,
    write_report,
    render_text,
)
from noisylab.bench import scenarios
from noisylab.bench.cli import main
from noisylab.bench.scenarios import (
    _SCENARIOS,
    _Z99,
    binom_ci,
    chisquare_vs_binomial,
    two_sample_chi2,
)
from noisylab.codes import gen_random_linear_code
import noisylab.core as core
from noisylab.icesep import IceSepParams
from noisylab.learn import AmplifyParams
from noisylab.sep import SepParams
from helpers import erasure_roundtrip_reference
from test_acceptance import RUNS
from test_golden import CASES as GOLDEN_CASES


class TestExperimentConfig:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ExperimentConfig(scenario="does-not-exist")

    def test_trials_lower_bound(self):
        with pytest.raises(ValueError, match=r"^trials must be in \[1, inf\), got 0$"):
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
        rep = run_scenario(ExperimentConfig(scenario="round-lemma", trials=1, seed=0))
        assert rep.scenario == "round-lemma"
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

    @pytest.mark.parametrize(
        "w,max_erasures,patterns,blocks",
        [(12, 0, 1, 1), (12, 3, 299, 1), (16, 3, 697, 3)],
        ids=["no-erasures", "benchmark-size", "three-blocks"],
    )
    def test_codes_suite_erasure_check_matches_per_pattern_reference(
        self, w, max_erasures, patterns, blocks
    ):
        # At w = 16 the 697 patterns of 256 messages each fill blocks of 256,
        # 256 and 185 patterns, so a block cut that drops or repeats a pattern
        # changes the decode count.
        assert patterns == sum(math.comb(w, size) for size in range(max_erasures + 1))
        per_block = scenarios._ERASURE_BLOCK_ENTRIES >> (w // 2)
        assert -(-patterns // per_block) == blocks
        params = {"codes": 3, "w": w, "rho": 0.5, "max_erasures": max_erasures,
                  "bitflip_codes": 1, "low_weight_codes": 1}
        rep = run_scenario(ExperimentConfig("codes-suite", params, seed=5))
        expected = [
            erasure_roundtrip_reference(
                gen_random_linear_code(0.5, w, core.RngHandle(5).split(0, ci)), max_erasures
            )
            for ci in range(3)
        ]
        assert rep.aggregate["erasure_decodes"] == sum(decodes for decodes, _ in expected)
        assert rep.verdicts["erasure_roundtrip"] == all(ok for _, ok in expected)
        assert rep.verdicts["erasure_roundtrip"]

    @pytest.mark.parametrize("fault", ["drop-solution", "swap-rows"])
    def test_codes_suite_erasure_oracle_catches_one_wrong_decode(self, fault, monkeypatch):
        # The decoder as the scenario sees it gets one pattern wrong: the
        # first with two words of two solutions or more. Erasing 5 of 8
        # positions of a rate-1/2 code leaves at most 3 visible, so such
        # patterns exist.
        decode = scenarios.erasure_list_decode_many
        faulted = []

        def faulty(G, erased, words, cap):
            consistent, solutions = decode(G, erased, words, cap)
            if not faulted and min(solutions.shape) >= 2:
                faulted.append(erased)
                solutions = solutions.copy()
                if fault == "drop-solution":  # row 0 lists its first solution twice
                    solutions[0, -1] = solutions[0, 0]
                else:
                    solutions[[0, 1]] = solutions[[1, 0]]
            return consistent, solutions

        params = {"codes": 1, "w": 8, "rho": 0.5, "max_erasures": 5,
                  "bitflip_codes": 1, "low_weight_codes": 1}
        cfg = ExperimentConfig("codes-suite", params, seed=5)
        assert all(run_scenario(cfg).verdicts.values())
        monkeypatch.setattr(scenarios, "erasure_list_decode_many", faulty)
        verdicts = run_scenario(cfg).verdicts
        assert len(faulted) == 1
        assert verdicts == {
            "erasure_roundtrip": False, "bitflip_oracle": True, "low_weight_oracle": True,
        }

    @pytest.mark.parametrize(
        "w,max_erasures", [(16, 3), (12, 3)], ids=["three-blocks", "benchmark-size"]
    )
    def test_codes_suite_decodes_every_pattern_word_once(self, w, max_erasures, monkeypatch):
        # The decoder is handed each (pattern, distinct punctured word) pair of
        # every pattern exactly once, in calls of at most one chunk of words,
        # and the words it is handed sum to erasure_decodes. A chunk cut that
        # drops or repeats a pattern leaves the verdict True; only this shows it.
        decode = scenarios.erasure_list_decode_many
        handed, calls = [], []

        def counting(G, erased, words, cap):
            calls.append(len(words))
            handed.extend(zip(np.broadcast_to(erased, len(words)).tolist(), words.tolist()))
            return decode(G, erased, words, cap)

        monkeypatch.setattr(scenarios, "erasure_list_decode_many", counting)
        params = {"codes": 1, "w": w, "rho": 0.5, "max_erasures": max_erasures,
                  "bitflip_codes": 1, "low_weight_codes": 1}
        rep = run_scenario(ExperimentConfig("codes-suite", params, seed=5))
        assert rep.verdicts["erasure_roundtrip"]
        assert sum(calls) == len(handed) == rep.aggregate["erasure_decodes"]
        assert max(calls) <= scenarios._ERASURE_CHUNK_WORDS < sum(calls) / 4  # several chunks
        G = gen_random_linear_code(0.5, w, core.RngHandle(5).split(0, 0))
        expected = set()
        for size in range(max_erasures + 1):
            for pattern in itertools.combinations(range(w), size):
                mask = sum(1 << j for j in pattern)
                words = np.unique(G.codeword_masks & np.uint64(((1 << w) - 1) ^ mask))
                expected.update((mask, word) for word in words.tolist())
        assert len(set(handed)) == len(handed) and set(handed) == expected

    def test_codes_suite_unequal_groups_count_their_words_and_fail(self, monkeypatch):
        # A table that is no linear code: message 1 takes message 0's word,
        # so with nothing erased that word has two messages and the others
        # one. Such a pattern counts its words and fails without a decode.
        gen = scenarios.gen_random_linear_code
        codes = []

        def nonlinear(rho, w, rng):
            G = gen(rho, w, rng)
            table = G.codeword_masks.copy()
            table[1] = table[0]
            G.__dict__["codeword_masks"] = table  # the cached_property's slot
            codes.append(G)
            return G

        monkeypatch.setattr(scenarios, "gen_random_linear_code", nonlinear)
        params = {"codes": 2, "w": 12, "rho": 0.5, "max_erasures": 2,
                  "bitflip_codes": 1, "low_weight_codes": 1}
        rep = run_scenario(ExperimentConfig("codes-suite", params, seed=5))
        expected = [erasure_roundtrip_reference(G, 2) for G in codes[:2]]
        assert rep.aggregate["erasure_decodes"] == sum(decodes for decodes, _ in expected)
        assert not rep.verdicts["erasure_roundtrip"]

    @settings(max_examples=150, deadline=None)
    @given(
        w=st.integers(1, 64),
        rho=st.floats(0, 1, exclude_min=True, exclude_max=True),
        max_erasures=st.integers(0, 70),
        codes=st.integers(1, 10**5),
        bitflip_codes=st.integers(1, 10**5),
        low_weight_codes=st.integers(1, 10**5),
    )
    # Exactly 2^16 patterns: at the pattern limit, so inside it.
    @example(w=16, rho=0.25, max_erasures=16, codes=1, bitflip_codes=1, low_weight_codes=1)
    def test_codes_suite_prechecks_pass_or_raise_one_error(self, **params):
        # An in-range config either passes every limit, and reaches its first
        # code draw, or is one ValueError: the first limit it breaks, with the
        # limits computed here apart from the scenario.
        w, k = params["w"], round(params["rho"] * params["w"])
        patterns = sum(math.comb(w, size) for size in range(min(params["max_erasures"], w) + 1))
        breaches = [
            message
            for message, broken in [
                ("exceeds 24 rows", k > 24),
                ("message bits per code, over the limit of 524288", k * 2**k > 2**19),
                ("erasure patterns of at most", patterns > 2**16),
                ("(pattern, message) pairs exceed the limit of 4194304",
                 params["codes"] * patterns * 2**k > 2**22),
            ]
            if broken
        ]

        class Drawn(Exception):
            pass

        def first_draw(rho, w, rng):
            raise Drawn

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scenarios, "gen_random_linear_code", first_draw)
            with pytest.raises((Drawn, ValueError)) as exc:
                run_scenario(ExperimentConfig("codes-suite", params))
        if breaches:
            assert exc.type is ValueError and breaches[0] in str(exc.value), (params, exc.value)
        else:
            assert exc.type is Drawn, (params, exc.value)

    def test_badamplify_mixture_uses_guarantee_group_count(self):
        # The mixture arm must run the group count its verdict's guarantee
        # needs, not the holdout arm's k.
        rep = run_scenario(ExperimentConfig(scenario="badamplify", trials=2, seed=3))
        assert rep.aggregate["amplify_k"] == AmplifyParams.auto(0.1, 0.01).k

    def test_badamplify_partial_coin_chunk(self, tmp_path):
        # Trial t draws from rng.split(t) alone, its base learner's coins
        # included, so the first 5 of 17 trials write the golden 5-trial rows,
        # and the first 9 a 9-trial run's records.
        params = {"eps": 0.3, "eta": 0.25, "n": 60, "k": 10, "n_test": 40}
        runs = {
            trials: run_scenario(
                ExperimentConfig(scenario="badamplify", params=params, trials=trials, seed=3)
            )
            for trials in (9, 17)
        }
        assert runs[17].records[:9] == runs[9].records
        assert any(r["bad_output"] for r in runs[17].records[9:])
        csv_path, _ = write_report(runs[17], tmp_path)
        golden = Path(__file__).parent / "golden" / "badamplify_trials.csv"
        want = golden.read_text().splitlines()
        assert csv_path.read_text().splitlines()[: len(want)] == want

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

    def test_nan_is_not_written(self, tmp_path):
        rep = TrialReport(scenario="demo", config={}, aggregate={"p": float("nan")})
        with pytest.raises(ValueError, match="JSON compliant"):
            write_report(rep, tmp_path)


class TestStatsHelpers:
    def test_binom_ci_contains_truth(self):
        lo, hi = binom_ci(50, 100)
        assert lo < 0.5 < hi
        lo, hi = binom_ci(0, 100)
        assert lo == 0.0 and hi < 0.1

    def test_z99_is_ndtri(self):
        z = special.ndtri(0.995)
        assert _Z99 == z and type(_Z99) is type(z)

    @pytest.mark.parametrize(
        "sizes",
        [range(1, 201), sorted({trials for _, trials, _ in RUNS.values()})],
        ids=["n-up-to-200", "acceptance-trials"],
    )
    def test_binom_ci_is_scipy_wilson(self, sizes):
        # The hypothesised proportion enters binomtest's p-value, not its
        # interval; at the observed rate the p-value takes a shortcut.
        for n in sizes:
            for k in range(n + 1):
                ci = stats.binomtest(k, n, k / n).proportion_ci(0.99, method="wilson")
                assert binom_ci(k, n) == (ci.low, ci.high), (k, n)

    def test_chisquare_detects_mismatch(self):
        gen = np.random.default_rng(0)
        good = gen.binomial(100, 0.2, size=2000)
        bad = gen.binomial(100, 0.3, size=2000)
        assert chisquare_vs_binomial(good, 100, 0.2) > 1e-3
        assert chisquare_vs_binomial(bad, 100, 0.2) < 1e-3

    @pytest.mark.parametrize("trials", [1, 5, 10])
    def test_chisquare_needs_two_pooled_bins(self, trials):
        # At Bin(100, 0.2), ten draws or fewer pool into a single bin.
        draws = np.full(trials, 20)
        with pytest.raises(ValueError, match="fewer than 2 bins"):
            chisquare_vs_binomial(draws, 100, 0.2)
        assert 0 <= chisquare_vs_binomial(np.full(20, 20), 100, 0.2) <= 1

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
        cw = encode(G, 6)
        word = "??" + "".join("+" if b == 1 else "-" for b in cw.bits[2:])
        assert main(["codes", "decode", "--code", str(code_path), "--word", word]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        expected = "".join("+" if b == 1 else "-" for b in mask_to_signs(6, G.rows))
        assert expected in out

    def test_codes_gen_writes_exactly_the_code_text(self, tmp_path, capsys):
        from noisylab.codes import GeneratorMatrix

        code_path = tmp_path / "code.txt"
        gen = ["codes", "gen", "--rho", "0.5", "--w", "8", "--seed", "3"]
        main([*gen, "--out", str(code_path)])
        text = code_path.read_text()
        assert GeneratorMatrix.from_text(text).to_text() == text
        capsys.readouterr()
        main(gen)
        assert capsys.readouterr().out == text

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
        pytest.param("codes decode --code {extra_key} --word ++++++++", id="code-unknown-key"),
        pytest.param("codes decode --code {repeated_key} --word ++++++++",
                     id="code-repeated-key"),
        pytest.param("codes decode --code {signed_w} --word ++++++++", id="code-signed-header"),
        pytest.param("codes decode --code {prefixed_row} --word ++++++++", id="code-row-prefix"),
        pytest.param("codes decode --code {underscored_row} --word ++++++++",
                     id="code-row-underscore"),
        pytest.param("codes decode --code {signed_row} --word ++++++++", id="code-row-sign"),
        pytest.param("codes decode --code {code} --word +++", id="word-length"),
        pytest.param("codes decode --code {code} --word +x++++++", id="word-symbol"),
        pytest.param("codes decode --code {code} --word ???????? --cap 4", id="list-cap"),
        pytest.param("codes decode --code {code} --word ++++++++ --radius -1",
                     id="decode-negative-radius"),
        pytest.param("codes decode --code {code} --word ???????? --cap 0", id="decode-zero-cap"),
        pytest.param("run round-lemma --config {typo}", id="config-unknown-key"),
        pytest.param("run no-such-scenario", id="unknown-scenario"),
        pytest.param("run sep-learner --config {param}", id="scenario-param"),
        pytest.param("run round-lemma --config {kapa}", id="scenario-unknown-param"),
        pytest.param("run round-lemma --config {null}", id="scenario-param-type"),
        pytest.param("run round-lemma --config {frac}", id="scenario-param-fraction"),
        pytest.param("run round-lemma --config {boolean}", id="scenario-param-bool"),
        pytest.param("run round-lemma --config {huge}", id="scenario-param-int-infinity"),
        pytest.param("run round-lemma --config {huge_float}", id="scenario-param-float-infinity"),
        pytest.param("run round-lemma --config {kappa5}", id="round-lemma-kappa-range"),
        pytest.param("run round-lemma --config {kappa_huge}", id="round-lemma-kappa-huge"),
        pytest.param("run amplify-concentration --config {eps_neg}", id="amplify-eps-range"),
        pytest.param("run ice-filter-unit --config {rows}", id="ice-filter-unit-row-limit"),
        pytest.param("run nasty-budget-law --config {sig_neg}", id="nasty-budget-law-significance"),
        pytest.param("run sep-adversary --config {sig2}", id="sep-adversary-significance"),
        pytest.param("run sep-learner --config {tau_neg}", id="sep-learner-negative-tau"),
        pytest.param("run sep-learner --config {tau5}", id="sep-learner-tau-above-one"),
        pytest.param("run sep-learner --config {d40}", id="sep-learner-value-side-size"),
        pytest.param("run codes-suite --config {w63}", id="codes-suite-table-rows-w63"),
        pytest.param("run codes-suite --config {w64}", id="codes-suite-table-rows-w64"),
        pytest.param("run codes-suite --config {w70}", id="codes-suite-word-length"),
        pytest.param("run codes-suite --config {patterns}", id="codes-suite-pattern-limit"),
        pytest.param("run codes-suite --config {pairs}", id="codes-suite-work-limit"),
        pytest.param("run codes-suite --config {codes_pairs}", id="codes-suite-work-over-codes"),
        pytest.param("run codes-suite --config {oracle_w32}", id="codes-suite-oracle-limit-w32"),
        pytest.param("run codes-suite --config {oracle_w36}", id="codes-suite-oracle-limit-w36"),
        pytest.param("run codes-suite --config {oracle_w44}", id="codes-suite-oracle-limit-w44"),
        pytest.param("run ice-coupling --config {filler_far}", id="ice-coupling-filler-outside"),
        pytest.param("codes gen --rho 1.5 --w 12", id="codes-gen-rate"),
        pytest.param("codes gen --rho 0.3 --w 12", id="codes-gen-rows"),
        pytest.param("codes gen --rho 0.5 --w 80", id="codes-gen-length"),
        pytest.param("codes gen --rho 0.5 --w 12 --seed -3", id="codes-gen-negative-seed"),
        pytest.param("run round-lemma --seed -1", id="run-negative-seed"),
        pytest.param("run round-lemma --out {code}", id="run-out-is-a-file"),
        pytest.param("report render {missing}", id="report-missing"),
        pytest.param("report render {bad}", id="report-malformed"),
        pytest.param("report render {listed}", id="report-not-object"),
        pytest.param("report render {unnamed}", id="report-no-scenario"),
        pytest.param("run round-lemma --config {trials_str}", id="config-trials-str"),
        pytest.param("run round-lemma --config {trials_bool}", id="config-trials-bool"),
        pytest.param("run round-lemma --config {seed_str}", id="config-seed-str"),
        pytest.param("run round-lemma --config {seed_bool}", id="config-seed-bool"),
        pytest.param("run round-lemma --config {seed_neg}", id="config-negative-seed"),
        pytest.param("run round-lemma --config {out_int}", id="config-out-int"),
        pytest.param("run sep-adversary --config {weightless}", id="sep-adversary-no-codeword"),
        pytest.param("run sep-learner --config {sep_n0}", id="sep-learner-zero-n"),
        pytest.param("run ice-coupling --config {domain0}", id="ice-coupling-empty-domain"),
        pytest.param("run badamplify --config {k0}", id="badamplify-zero-k"),
        pytest.param("run nasty-budget-law --trials 5", id="nasty-budget-law-few-trials"),
    ],
)
def test_cli_bad_input_is_one_error_line(argv, tmp_path, capsys):
    code, bad, typo = tmp_path / "code.txt", tmp_path / "bad.txt", tmp_path / "typo.json"
    param, kapa, null, frac = (
        tmp_path / f"{name}.json" for name in ("param", "kapa", "null", "frac")
    )
    main(["codes", "gen", "--rho", "0.5", "--w", "8", "--seed", "3", "--out", str(code)])
    bad.write_text("w=8 rows=1\nzz\n")
    # Code texts that int() would read but to_text never writes, and the
    # message each gives after "malformed serialized code: ".
    code_texts = {
        "extra_key": ("w=8 rows=1 extra=1\n0f\n",
                      "unknown header key 'extra' (expected w and rows)"),
        "repeated_key": ("w=8 rows=1 rows=1\n0f\n", "header key 'rows' repeated"),
        "signed_w": ("w=+8 rows=1\n0f\n", "header w='+8' is not decimal digits"),
        "prefixed_row": ("w=8 rows=1\n0x5\n", "row '0x5' is not hex digits"),
        "underscored_row": ("w=8 rows=1\n5_5\n", "row '5_5' is not hex digits"),
        "signed_row": ("w=8 rows=1\n+5\n", "row '+5' is not hex digits"),
    }
    for name, (text, _) in code_texts.items():
        (tmp_path / f"{name}.txt").write_text(text)
    typo.write_text(json.dumps({"scenario": "round-lemma", "trails": 5}))
    param.write_text(json.dumps({"scenario": "sep-learner", "params": {"w": 7}}))
    kapa.write_text(json.dumps({"scenario": "round-lemma", "params": {"kapa": 0.9}}))
    null.write_text(json.dumps({"scenario": "round-lemma", "params": {"w": None}}))
    frac.write_text(json.dumps({"scenario": "round-lemma", "params": {"w": 200.7}}))
    # Raw JSON params, their scenario and the one error line each gives. JSON
    # has no infinity literal, but 1e400 overflows to one.
    raw = {
        "boolean": ("round-lemma", '{"w": true, "kappa": false}',
                    "param 'w' must be an integer, got True"),
        "huge": ("round-lemma", '{"w": 1e400}', "param 'w' must be an integer, got inf"),
        "huge_float": ("round-lemma", '{"kappa": -1e400}',
                       "param 'kappa' must be a finite number, got -inf"),
        "kappa5": ("round-lemma", '{"kappa": 5}', "kappa must be in (0, 1), got 5"),
        "kappa_huge": ("round-lemma", '{"kappa": 1e308}', "kappa must be in (0, 1), got 1e+308"),
        "eps_neg": ("amplify-concentration", '{"eps": -1}', "eps must be in [0, 1), got -1"),
        "k0": ("badamplify", '{"k": 0}', "k must be in [1, inf), got 0"),
        "sep_n0": ("sep-learner", '{"n": 0}', "n must be in [1, inf), got 0"),
        "domain0": ("ice-coupling", '{"domain": 0}', "domain must be in [1, inf), got 0"),
        # Probed values that once passed vacuously, or (d and w) tried to
        # allocate 16 TiB or 32 GiB, or overflowed.
        "sig_neg": ("nasty-budget-law", '{"significance": -1}',
                    "significance must be in (0, 1), got -1"),
        "sig2": ("sep-adversary", '{"significance": 2}', "significance must be in (0, 1), got 2"),
        "tau_neg": ("sep-learner", '{"tau": -1}', "tau must be in (0, 1), got -1"),
        "tau5": ("sep-learner", '{"tau": 5}', "tau must be in (0, 1), got 5"),
        "d40": ("sep-learner", '{"d": 40}', "d must be in [0, 20], got 40"),
        "w63": ("codes-suite", '{"w": 63}', "rho*w = 31.5 exceeds 24 rows: the checks "
                "enumerate all 2^(rho*w) messages"),
        "w64": ("codes-suite", '{"w": 64}', "rho*w = 32 exceeds 24 rows: the checks "
                "enumerate all 2^(rho*w) messages"),
        "w70": ("codes-suite", '{"w": 70}', "w must be in [1, 64], got 70"),
        # 2^30 erasure patterns: rejected before the pattern list is built.
        "patterns": ("codes-suite", '{"w": 30, "max_erasures": 30}',
                     "1073741824 erasure patterns of at most 30 of 30 positions "
                     "exceed the limit of 65536"),
        # 3,683 patterns of 2^14 messages each: about half an hour of
        # erasure checks, rejected before the first code is drawn.
        "pairs": ("codes-suite", '{"w": 28, "codes": 86, "bitflip_codes": 60}',
                  "86 codes times 3683 erasure patterns times 2^14 messages = 5189435392 "
                  "(pattern, message) pairs exceed the limit of 4194304"),
        # 3,000 codes of 3,674,112 pairs each, about a second per code: every
        # code is inside the limit, their sum an hour over it.
        "codes_pairs": ("codes-suite", '{"w": 22, "codes": 3000}',
                        "3000 codes times 1794 erasure patterns times 2^11 messages = "
                        "11022336000 (pattern, message) pairs exceed the limit of 4194304"),
        # Each inside the pair limit, but the low-weight oracle's (2^k, k)
        # message-bit table of one code took 58 MB at w = 32 and 129 MB at
        # w = 36, and would take gigabytes at w = 44 (never run past the check).
        "oracle_w32": ("codes-suite", '{"w": 32, "max_erasures": 0, "codes": 1, '
                       '"bitflip_codes": 1, "low_weight_codes": 1}',
                       "rho*w = 16 rows give 2^16 messages of 16 bits = 1048576 message bits "
                       "per code, over the limit of 524288"),
        "oracle_w36": ("codes-suite", '{"w": 36, "max_erasures": 0, "codes": 1, '
                       '"bitflip_codes": 1, "low_weight_codes": 1}',
                       "rho*w = 18 rows give 2^18 messages of 18 bits = 4718592 message bits "
                       "per code, over the limit of 524288"),
        "oracle_w44": ("codes-suite", '{"w": 44, "max_erasures": 0, "codes": 1}',
                       "rho*w = 22 rows give 2^22 messages of 22 bits = 92274688 message bits "
                       "per code, over the limit of 524288"),
        # The filler point must lie in the domain: 20 is one past its end.
        "filler_far": ("ice-coupling", '{"filler_point": 20}',
                       "filler_point must be < domain = 20, got 20"),
        # 6^40 rows: rejected before anything is allocated.
        "rows": ("ice-filter-unit", '{"max_len": 40}',
                 "(2*domain_points)^max_len = 6^40 samples of the longest length "
                 "exceed the limit of 65536 rows"),
    }
    for name, (scenario, text, _) in raw.items():
        (tmp_path / f"{name}.json").write_text(f'{{"scenario": "{scenario}", "params": {text}}}')
    # eta_N * w = 0.24: the only codeword of weight <= 0.24 is the zero word.
    weightless = tmp_path / "weightless.json"
    weightless.write_text(json.dumps({"scenario": "sep-adversary", "params": {
        "eta_N": 0.01, "eta_M": 0.005, "n": 500, "sim_trials": 2, "sim_n": 50}}))
    listed, unnamed = tmp_path / "listed.json", tmp_path / "unnamed.json"
    listed.write_text("[1]")
    unnamed.write_text(json.dumps({"schema_version": 1, "n_records": 0}))
    fields = {"trials_str": ("trials", "5"), "trials_bool": ("trials", True),
              "seed_str": ("seed", "x"), "seed_bool": ("seed", False), "seed_neg": ("seed", -1),
              "out_int": ("out", 5)}
    for name, (key, value) in fields.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"scenario": "round-lemma", key: value}))
    capsys.readouterr()
    args = argv.format(
        code=code, bad=bad, typo=typo, param=param, kapa=kapa, null=null, frac=frac, listed=listed,
        unnamed=unnamed, weightless=weightless, missing=tmp_path / "none",
        **{name: tmp_path / f"{name}.json" for name in (*fields, *raw)},
        **{name: tmp_path / f"{name}.txt" for name in code_texts},
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
    for name, (_, _, message) in raw.items():
        if f"{{{name}}}" in argv:
            assert err == [f"error: {message}"]
    if "out_int" in argv:
        assert "out" in err[0] and "5" in err[0]
    if "weightless" in argv:
        assert "nonzero codeword" in err[0]
    if "nasty-budget-law --trials 5" in argv:
        assert "5 trials" in err[0] and "fewer than 2 bins" in err[0]
    if "--radius -1" in argv:
        assert err == ["error: decoding radius must be in [0, inf), got -1"]
    if "--cap 0" in argv:
        assert err == ["error: list cap must be in [1, inf), got 0"]
    for name, (_, message) in code_texts.items():
        if f"{{{name}}}" in argv:
            assert err == [f"error: malformed serialized code: {message}"]
    if "--seed -3" in argv:
        assert err == ["error: seed must be in [0, inf), got -3"]
    if "--out" in argv:
        assert "File exists" in err[0] and str(code) in err[0]
    if "--seed -1" in argv or "seed_neg" in argv:
        assert err == ["error: seed must be in [0, inf), got -1"]


def _ends(interval: str, kind: type) -> tuple[tuple, tuple]:
    """The ``(value, closed)`` ends of an interval text, read apart from the
    program's own parser; an ``inf`` end has value ``None``."""
    low, high = (text.strip() for text in interval[1:-1].split(","))

    def read(text):
        return None if text.lstrip("-") == "inf" else kind(text)

    return (read(low), interval[0] == "["), (read(high), interval[-1] == "]")


def _inside(value, interval: str) -> bool:
    (low, low_closed), (high, high_closed) = _ends(interval, type(value))
    return (low is None or (low <= value if low_closed else low < value)) and (
        high is None or (value <= high if high_closed else value < high)
    )


def _past(end, closed: bool, step: int):
    """The value just past an interval end, ``step`` -1 below it and +1 above
    it: the end itself when it is open, else one integer or one float ulp
    beyond it."""
    if not closed:
        return end
    return end + step if isinstance(end, int) else math.nextafter(end, step * math.inf)


# Every declared parameter, as (scenario, param, default, interval).
DECLARED = [
    (name, param, default, _SCENARIOS[name][2][param])
    for name in scenario_names()
    for param, default in sorted(_SCENARIOS[name][1].items())
]


def _finite_ends(side: int, step: int) -> list[tuple]:
    """Every finite lower (side 0, step -1) or upper (side 1, step +1) end of
    a declared interval, as (scenario, param, interval, the value just past
    that end)."""
    ends = []
    for name, param, default, interval in DECLARED:
        end, closed = _ends(interval, type(default))[side]
        if end is not None:
            ends.append((name, param, interval, _past(end, closed, step)))
    return ends


LOWER_ENDS, UPPER_ENDS = _finite_ends(0, -1), _finite_ends(1, 1)


def test_every_parameter_declares_an_interval_holding_its_default():
    for name in scenario_names():
        assert sorted(_SCENARIOS[name][1]) == sorted(_SCENARIOS[name][2]), name
    for name, param, default, interval in DECLARED:
        assert type(default) in (int, float), (name, param)
        assert interval[0] in "[(" and interval[-1] in "])", (name, param, interval)
        assert _inside(default, interval), (name, param, default, interval)


def test_closed_ends_are_inside_and_open_ends_outside():
    # A just-past value is rejected either way; the end itself tells a
    # closed bracket from an open one.
    for name, param, default, interval in DECLARED:
        for end, closed in _ends(interval, type(default)):
            if end is None:
                continue
            if closed:
                assert core._within(end, interval, param) == end, (name, param, interval)
            else:
                with pytest.raises(ValueError, match=rf"^{param} must be in "):
                    core._within(end, interval, param)


def _workloads():
    """perfbench's workload table, loaded without writing bytecode there."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.WORKLOADS
    finally:
        sys.dont_write_bytecode = dont_write
        sys.modules.pop(spec.name, None)


def _shipped_runs() -> list[tuple[str, dict]]:
    """The configs, acceptance runs, golden fixtures and benchmark workloads,
    as (scenario, params)."""
    root = Path(__file__).resolve().parents[1]
    configs = [json.loads(p.read_text()) for p in sorted((root / "configs").glob("*.json"))]
    assert configs
    return [
        *((c["scenario"], c["params"]) for c in configs),
        *((name, params) for name, (params, _, _) in RUNS.items()),
        *((name, params) for name, params, _, _ in GOLDEN_CASES),
        *((w.scenario, w.params) for w in _workloads().values()),
    ]


@pytest.mark.parametrize("workload", sorted(_workloads()))
def test_one_benchmark_round_passes_its_checks(workload):
    # The benchmark checks each round's report apart from the program; a
    # change that breaks a check should fail here, not only in a benchmark run.
    w = _workloads()[workload]
    config = ExperimentConfig(w.scenario, dict(w.params), w.trials, w.default_seed)
    ops = w.ops(w.params, w.trials, w.default_seed)
    assert w.check(run_scenario(config), w.trials, w.params, ops) == []


def test_every_shipped_size_lies_in_its_interval():
    for name, params in _shipped_runs():
        for param, value in params.items():
            assert _inside(value, _SCENARIOS[name][2][param]), (name, param, value)


def test_degenerate_sizes_are_bounded():
    # Each of these once ran at 0 and passed vacuously (nasty-budget-law
    # wrote a NaN p-value instead).
    for name, param in (
        ("amplify-concentration", "n_group"), ("ice-filter-unit", "domain_points"),
        ("reduction-demos", "m"), ("round-lemma", "w"), ("ice-coupling", "n"),
        ("nasty-budget-law", "n"),
    ):
        assert _SCENARIOS[name][2][param] == "[1, inf)"


# Each parameter pack, and the scenarios whose parameters set its fields.
PACKS = {SepParams: ("sep-learner", "sep-adversary"), IceSepParams: ("ice-learner",)}


def _pack_fields(pack: type) -> list:
    return [f for f in fields(pack) if f.init]


def _pack_defaults(pack: type) -> dict:
    """Each field's default as its first scenario registers it, else the
    pack's own (or None when it has none)."""
    registered = _SCENARIOS[PACKS[pack][0]][1]
    return {
        f.name: registered.get(f.name, None if f.default is MISSING else f.default)
        for f in _pack_fields(pack)
    }


# Every finite end of a pack field's interval, as (pack, field, interval, the
# value just past that end).
PACK_ENDS = [
    (pack, f.name, f.metadata["interval"], _past(end, closed, step))
    for pack in PACKS
    for f in _pack_fields(pack)
    for side, step in ((0, -1), (1, 1))
    for end, closed in [_ends(f.metadata["interval"], type(_pack_defaults(pack)[f.name]))[side]]
    if end is not None
]


def test_pack_backed_parameters_take_their_pack_intervals():
    scenario_only = {"sep-adversary": {"significance", "sim_trials", "sim_n"}}
    for pack, names in PACKS.items():
        declared = {f.name: f.metadata["interval"] for f in _pack_fields(pack)}
        for name in names:
            defaults, intervals = _SCENARIOS[name][1], _SCENARIOS[name][2]
            assert set(defaults) - set(declared) == scenario_only.get(name, set()), name
            for param in set(defaults) & set(declared):
                assert intervals[param] == declared[param], (name, param)


@pytest.mark.parametrize(
    "pack,param,interval,value", PACK_ENDS,
    ids=[f"{pack.__name__}-{param}-{value!r}" for pack, param, _, value in PACK_ENDS],
)
def test_pack_rejects_a_value_past_an_interval_end(pack, param, interval, value):
    with pytest.raises(ValueError) as exc:
        pack(**{**_pack_defaults(pack), param: value})
    assert str(exc.value) == f"{param} must be in {interval}, got {value!r}"


def test_every_shipped_key_value_run_builds_its_pack():
    # The layout's domain limit admits every shipped size.
    for pack, names in PACKS.items():
        defaults = _pack_defaults(pack)
        for name, params in _shipped_runs():
            if name in names:
                pack(**{**defaults, **{k: v for k, v in params.items() if k in defaults}})


def _in_range(interval: str, kind: type) -> st.SearchStrategy:
    (low, low_closed), (high, high_closed) = _ends(interval, kind)
    if kind is float:
        return st.floats(low, high, exclude_min=not low_closed, exclude_max=not high_closed)
    return st.integers(
        low if low_closed else low + 1,
        None if high is None else high if high_closed else high - 1,
    )


# The checks that link fields, and the layout's domain limit.
LINKED = ("need eta_M/((1-eta_M)*tau) = ", "rho*w must be an integer", "need d < w", "key fraction ")


@pytest.mark.parametrize("pack", PACKS, ids=lambda pack: pack.__name__)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_in_range_pack_builds_or_fails_a_linked_check(pack, data):
    defaults = _pack_defaults(pack)
    draws = {}
    for f in _pack_fields(pack):
        draws[f.name] = _in_range(f.metadata["interval"], type(defaults[f.name]))
        if f.default is None:
            draws[f.name] |= st.none()
    values = data.draw(st.fixed_dictionaries(draws))
    try:
        pack(**values)
    except ValueError as exc:
        assert str(exc).startswith(LINKED), (values, exc)


def _rejected_before_the_run(scenario, param, interval, value, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario, "trials": 2, "params": {param: value}}))
    assert main(["run", scenario, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {param} must be in {interval}, got {value!r}"]
    assert not list(tmp_path.glob("*_aggregate.json"))


# Named for sizes, it covers the lower end of every declared interval, rates
# included.
@pytest.mark.parametrize(
    "scenario,param,interval,value", LOWER_ENDS,
    ids=[f"{name}-{param}" for name, param, _, _ in LOWER_ENDS],
)
def test_cli_size_below_bound_is_one_error_line(
    scenario, param, interval, value, tmp_path, capsys
):
    _rejected_before_the_run(scenario, param, interval, value, tmp_path, capsys)


@pytest.mark.parametrize(
    "scenario,param,interval,value", UPPER_ENDS,
    ids=[f"{name}-{param}" for name, param, _, _ in UPPER_ENDS],
)
def test_cli_value_above_bound_is_one_error_line(
    scenario, param, interval, value, tmp_path, capsys
):
    _rejected_before_the_run(scenario, param, interval, value, tmp_path, capsys)


# Calls that once hung in KeyValueLayout.fit's search for a block size (a key
# fraction of 1 or more, or a float read through many decimal digits, whose
# layout now exceeds the domain limit) or took a negative tau. Each must raise
# ValueError.
FORMER_HANGS = {
    "ice-learner-eta": "run_scenario(ExperimentConfig('ice-learner', {'eta': 3}, trials=2))",
    "sep-learner-kappa": "run_scenario(ExperimentConfig('sep-learner', {'kappa': 2}, trials=2))",
    "sep-adversary-kappa": (
        "run_scenario(ExperimentConfig('sep-adversary', {'kappa': 2}, trials=2))"
    ),
    "fit-0": "KeyValueLayout.fit(24, 12, Fraction(0))",
    "fit-1": "KeyValueLayout.fit(24, 12, Fraction(1))",
    "fit-3/2": "KeyValueLayout.fit(24, 12, Fraction(3, 2))",
    "ice-create": "IceSepParams(eta=3, kappa=0.7, w=20, d=10)",
    "sep-create": (
        "SepParams(eta_N=0.25, eta_M=0.05, kappa=2, rho=0.5, tau=0.15, w=24, d=12, u=8)"
    ),
    "sep-tau": (
        "SepParams(eta_N=0.25, eta_M=0.05, kappa=0.5, rho=0.5, tau=-1, w=24, d=12, u=8)"
    ),
    "sep-fit-kappa": (
        "SepParams(eta_N=0.25, eta_M=0.05, kappa=0.45219367500841867, rho=0.5, tau=0.15, "
        "w=24, d=12, u=8)"
    ),
    "ice-fit-kappa-near-1": "IceSepParams(eta=0.05, kappa=0.999999999, w=20, d=11)",
    "ice-fit-kappa": "IceSepParams(eta=0.05, kappa=0.6022075707856331, w=20, d=10)",
    "ice-fit-eta": "IceSepParams(eta=0.03337070617549737, kappa=0.7, w=20, d=10)",
    "sep-adversary-fit-kappa": (
        "run_scenario(ExperimentConfig('sep-adversary', {'kappa': 0.41858704636410216}, trials=2))"
    ),
    "codes-suite-patterns": (
        "run_scenario(ExperimentConfig('codes-suite', {'w': 30, 'max_erasures': 30, "
        "'codes': 1, 'bitflip_codes': 1, 'low_weight_codes': 1}))"
    ),
}


def test_former_hangs_raise_in_a_subprocess_under_a_timeout():
    # A fresh interpreter with a timeout, so a regression fails the suite
    # instead of hanging it.
    script = "\n".join([
        "from fractions import Fraction",
        "from noisylab.bench import ExperimentConfig, run_scenario",
        "from noisylab.icesep import IceSepParams",
        "from noisylab.sep import KeyValueLayout, SepParams",
        f"for name, call in {FORMER_HANGS!r}.items():",
        "    try:",
        "        eval(call)",
        "    except ValueError:",
        "        print(name, 'ValueError', flush=True)",
        "    else:",
        "        print(name, 'returned', flush=True)",
    ])
    src = str(Path(scenarios.__file__).resolve().parents[2])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    assert out.splitlines() == [f"{name} ValueError" for name in FORMER_HANGS]
