"""Acceptance suite: eleven statistical/exact criteria, one test each.

Each test runs its scenario with the reference parameter pack and fixed seed
in ``RUNS``, prints a single PASS/FAIL line with the measured quantity and its
tolerance, and asserts the verdict. All runs are deterministic given those
seeds, so each run's written reports must also match, byte for byte, the
SHA-256 pins in ``tests/golden/acceptance_sha256.json``.

Regenerate the pins (only for a change that is meant to alter reports) with
the golden fixtures: ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from noisylab.bench import ExperimentConfig, run_scenario, scenarios, write_report
from noisylab.core import Sample
from noisylab.learn import Learner
from noisylab.noise import StrategyResult, noop

PINS = Path(__file__).parent / "golden" / "acceptance_sha256.json"

# scenario -> (params, trials, seed): each criterion's reference run.
RUNS = {
    "ice-filter-unit": ({"max_len": 6, "domain_points": 3}, 1, 0),
    "nasty-budget-law": ({"n": 100, "eta": 0.2}, 2000, 1),
    "amplify-concentration": ({"eps": 0.2, "k": 64, "eta": 0.2}, 1000, 2),
    "badamplify": ({"eps": 0.3, "eta": 0.25, "n": 60, "k": 10, "n_test": 40}, 2000, 3),
    "codes-suite": (
        {"codes": 50, "w": 12, "rho": 0.5, "max_erasures": 3,
         "bitflip_codes": 20, "low_weight_codes": 20},
        1,
        4,
    ),
    "sep-learner": ({}, 200, 5),
    "sep-adversary": ({"sim_trials": 2000, "sim_n": 500}, 200, 6),
    "round-lemma": ({"kappa": 0.6, "w": 200}, 200, 7),
    "ice-coupling": ({}, 500, 8),
    "ice-learner": ({}, 200, 9),
    "reduction-demos": ({"m": 400, "eta": 0.1}, 2000, 10),
}


def _digests(scenario):
    """The scenario's reference report and the SHA-256 of each written file."""
    params, trials, seed = RUNS[scenario]
    rep = run_scenario(
        ExperimentConfig(scenario=scenario, params=params, trials=trials, seed=seed)
    )
    with tempfile.TemporaryDirectory() as out_dir:
        paths = write_report(rep, Path(out_dir))
        return rep, {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def write_pins():
    """Rerun every reference run and rewrite ``PINS``."""
    pins = {}
    for scenario in RUNS:
        pins.update(_digests(scenario)[1])
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def _run(scenario):
    t0 = time.time()
    rep, digests = _digests(scenario)
    pins = json.loads(PINS.read_text())
    for name, digest in digests.items():
        assert digest == pins.get(name), f"{name} differs from its pin in {PINS.name}"
    return rep, time.time() - t0


def _report(name, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s)")


def test_criterion_01_contradiction_filter_exhaustive():
    # Filter properties, exhaustive over all samples of length <= 6 on a
    # 3-point domain: idempotent, contradiction-free, even drop,
    # permutation-invariant, canonical multiset.
    rep, dt = _run("ice-filter-unit")
    ok = all(rep.verdicts.values())
    _report(
        "criterion 1 (filter exhaustive)",
        ok,
        f"{rep.aggregate['sequences_checked']} sequences, all five properties hold = {ok}",
        dt,
    )
    assert ok, rep.verdicts


def test_criterion_02_budget_law():
    # Realized budgets vs Bin(100, 0.2), 2000 trials, chi-square at 1e-3.
    rep, dt = _run("nasty-budget-law")
    p = rep.aggregate["chi2_pvalue"]
    ok = rep.verdicts["budget_law_binomial"]
    _report("criterion 2 (budget law)", ok, f"chi-square p = {p:.4f} > 1e-3", dt)
    assert ok, rep.aggregate


def test_criterion_03_amplify_concentration():
    # eps = 0.2 crafted learner, k = 64, 1000 trials: frequency of
    # sum error > eps*k + 3*sqrt(k ln 20) must be < 0.05. The crafted learner
    # ignores its sample, so this checks the per-group coin derivation and
    # the group count, not the noise: it stays True with nasty_corrupt
    # flipping labels at rate 0.99, and one coin shared by every group flips
    # it (NEGATIVE_CONTROLS).
    rep, dt = _run("amplify-concentration")
    freq = rep.aggregate["exceed_frequency"]
    ok = rep.verdicts["concentration"]
    _report(
        "criterion 3 (amplify concentration)",
        ok,
        f"exceed frequency {freq:.4f} < 0.05, threshold {rep.aggregate['threshold']:.2f}",
        dt,
    )
    assert ok, rep.aggregate


def test_criterion_04_holdout_selection_counterexample():
    # eps = 0.3, eta = 0.25, n = 60, k = 10, n_test = 40, 2000 trials.
    # Clause 1: holdout selection over k groups outputs a bad hypothesis
    # (error >= 0.99) in a fraction of trials in [0.25, 0.35].
    # Clause 2: amplification's own guarantee. The uniform mixture over
    # AmplifyParams.auto(eps_additional=0.1, delta=0.01).k = 461 groups, with
    # the same base learner and adversary, has error above eps + 0.1 = 0.4 in
    # fewer than delta = 1% of trials.
    rep, dt = _run("badamplify")
    bad = rep.aggregate["bad_output_frequency"]
    amp = rep.aggregate["amplify_exceed_frequency"]
    amp_k = rep.aggregate["amplify_k"]
    ok1 = rep.verdicts["bad_output_in_range"]
    ok2 = rep.verdicts["amplify_rarely_bad"]
    _report(
        "criterion 4 clause 1 (holdout selection fails)",
        ok1,
        f"bad-output frequency {bad:.4f} in [0.25, 0.35]",
        dt,
    )
    _report(
        "criterion 4 clause 2 (mixture rarely bad)",
        ok2,
        f"mixture of {amp_k} groups has error > 0.4 in {amp:.4f} of trials "
        f"(target < 0.01)",
        0.0,
    )
    assert ok1, rep.aggregate
    assert ok2, (
        f"the uniform mixture over {amp_k} groups should have error <= "
        f"eps + 0.1 = 0.4 with probability >= 0.99: measured error > 0.4 in "
        f"{amp:.4f} of trials vs required < 0.01"
    )


def test_criterion_05_codes_suite():
    # Erasure round-trip exhaustive at w=12 over all <= tau*w erasure
    # patterns for 50 random codes; bit-flip decode vs brute force at
    # w <= 10; low-weight enumeration vs a second path.
    rep, dt = _run("codes-suite")
    ok = all(rep.verdicts.values())
    _report(
        "criterion 5 (codes suite)",
        ok,
        f"{rep.aggregate['erasure_decodes']} erasure decodes; all three oracles agree = {ok}",
        dt,
    )
    assert ok, rep.verdicts


def test_criterion_06_separation_learner():
    # (w=24, d=12, u=8), key-erasure strong-malicious adversary at eta_M:
    # error <= 4*eta_M*1.25 + 0.05 in >= 95% of 200 trials; the decoded
    # key estimate is never wrong on determined coordinates.
    rep, dt = _run("sep-learner")
    rate = rep.aggregate["error_ok_rate"]
    zw = rep.aggregate["z_wrong_total"]
    ok = rep.verdicts["error_ok_rate"] and rep.verdicts["z_never_wrong"]
    _report(
        "criterion 6 (separation learner)",
        ok,
        f"error <= {rep.aggregate['error_bound']:.2f} in {rate:.3f} of trials (>= 0.95); "
        f"wrong determined bits = {zw} (must be 0)",
        dt,
    )
    assert ok, rep.aggregate


def test_criterion_07_separation_adversary():
    # Key side all-+1 on >= 99% of non-exhausted trials; key-point multiset
    # independent of the concept index (chi-square at 1e-3); the value-side
    # simulation matches the real corrupted sample (chi-square at 1e-3).
    rep, dt = _run("sep-adversary")
    ok = all(rep.verdicts.values())
    _report(
        "criterion 7 (separation adversary)",
        ok,
        f"key all-+1 rate {rep.aggregate['key_all_plus_rate']:.3f} (>= 0.99); "
        f"independence p = {rep.aggregate['independence_pvalue']:.4f}, "
        f"simulation p = {rep.aggregate['simulation_blocks_pvalue']:.4f}/"
        f"{rep.aggregate['simulation_labels_pvalue']:.4f} (all > 1e-3)",
        dt,
    )
    assert ok, rep.aggregate


def test_criterion_08_rounding_bound():
    # 200 random (v, u) pairs at kappa = 0.6, w = 200: Hamming distance of
    # the rounded vector from u stays <= (1/2)(1 - kappa/2)w in >= 99%. The
    # budget is spread over all coordinates, so few cross zero: this also
    # holds for deterministic sign rounding, and only checks that the
    # rounding is not far off (a negated rounding fails it).
    rep, dt = _run("round-lemma")
    rate = rep.aggregate["hold_rate"]
    ok = rep.verdicts["rounding_bound"]
    _report(
        "criterion 8 (rounding bound)",
        ok,
        f"bound {rep.aggregate['bound']:.0f} held in {rate:.3f} of trials (>= 0.99)",
        dt,
    )
    assert ok, rep.aggregate


def test_criterion_09_coupling_identity():
    # Replaying a nasty strategy through the strong-malicious adversary:
    # exact multiset identity (output = nasty output + floor(m/2)
    # contradictory pairs) on 100% of 500 randomized trials.
    rep, dt = _run("ice-coupling")
    ok = rep.verdicts["coupling_exact"]
    _report(
        "criterion 9 (coupling identity)",
        ok,
        f"exact on {rep.aggregate['exact_rate']:.3f} of 500 trials (must be 1.0)",
        dt,
    )
    assert ok, rep.aggregate


def test_criterion_10_filter_learner_end_to_end():
    # (w=20, d=10, eta=0.05, kappa=0.7): noiseless and low-noise recovery
    # >= 95% over 200 trials each; the idealized adversary leaves exactly
    # the predicted post-filter survivor pattern on every vulnerable trial.
    rep, dt = _run("ice-learner")
    ok = all(rep.verdicts.values())
    _report(
        "criterion 10 (filter learner end-to-end)",
        ok,
        f"recovery noiseless {rep.aggregate['recovery_rate_noiseless']:.3f} / "
        f"low-noise {rep.aggregate['recovery_rate_low_noise']:.3f} (>= 0.95); "
        f"survivor pattern exact on {rep.aggregate['survivor_pattern_ok']}/"
        f"{rep.aggregate['vulnerable_trials']} vulnerable trials",
        dt,
    )
    assert ok, rep.aggregate


def test_criterion_11_reduction_demos():
    # Huber-as-malicious by exact coupling: huber_sample and malicious_corrupt
    # with an adversary replaying the outlier draws give the same m = 400
    # examples on one handle; fixed-rate vs standard mean positional
    # difference <= sqrt(m) + 1 at m = 400, eta = 0.1 over 2000 trials.
    rep, dt = _run("reduction-demos")
    ok = all(rep.verdicts.values())
    _report(
        "criterion 11 (reduction demos)",
        ok,
        f"Huber and malicious samples equal = {rep.verdicts['huber_as_malicious_exact']} "
        f"({rep.aggregate['huber_outliers']} outliers); "
        f"mean positional diff {rep.aggregate['mean_positional_diff']:.2f} <= "
        f"{rep.aggregate['positional_diff_bound']:.0f}",
        dt,
    )
    assert ok, rep.aggregate


# Negative controls: a fault planted in a name the scenario module imports
# must flip the verdict that guards it. Each fault is defined over the real
# function, read here before any test patches it.
_nasty_corrupt = scenarios.nasty_corrupt
_sep_malicious_learner = scenarios.sep_malicious_learner
_nasty_via_strong_malicious = scenarios.nasty_via_strong_malicious
_amplify = scenarios.amplify


def _huber_without_outliers(D, c, eta, outliers, n, rng):
    return scenarios.draw_clean_sample(D, c, n, rng.split(1))


def _nasty_at_nine_tenths_eta(S_clean, eta, strategy, rng, c=None):
    return _nasty_corrupt(S_clean, 0.9 * eta, strategy, rng, c=c)


def _constant_sep_learner(S, inst):
    return inst.concept(0, 0), _sep_malicious_learner(S, inst)[1]


def _amplify_with_one_coin(A, params, S_big, rng):
    # Each group trains in a call of its own on the same handle, so all k
    # groups draw the same coin.
    def per_group(points, labels, trng):
        return [A.train(p[None], l[None], trng)[0] for p, l in zip(points, labels)]

    return _amplify(Learner(n=A.n, train=per_group), params, S_big, rng)


def _adjacent_pair_filter_keep(S):
    # Cancels a contradicting pair only once the two are adjacent: a stack,
    # popped when the next example contradicts its top. Reversal maps this
    # filter's survivors to their reverse, so comparing with the reverse
    # alone cannot tell it from the canonical filter.
    stack = []
    for i, (point, label) in enumerate(zip(S.points.tolist(), S.labels.tolist())):
        if stack and stack[-1][1:] == (point, -label):
            stack.pop()
        else:
            stack.append((i, point, label))
    return np.array([i for i, _, _ in stack], dtype=np.int64)


def _coupling_with_negated_labels(nasty_strategy, filler_point=0):
    strong = _nasty_via_strong_malicious(nasty_strategy, filler_point=filler_point)

    def strategy(S_clean, Z, c, rng):
        res = strong(S_clean, Z, c, rng)
        return StrategyResult(res.positions, Sample(res.introduced.points, -res.introduced.labels))

    return strategy


# (scenario, verdict, patched name, fault, trials, params over RUNS').
NEGATIVE_CONTROLS = [
    ("reduction-demos", "huber_as_malicious_exact", "huber_sample",
     _huber_without_outliers, 1, {}),
    # At 100 trials the 0.9·eta budget flipped this verdict at 19 of the 40
    # seeds 100-139; at 400 it flips at all 40, and the unpatched verdict holds.
    ("nasty-budget-law", "budget_law_binomial", "nasty_corrupt",
     _nasty_at_nine_tenths_eta, 400, {}),
    ("sep-adversary", "key_information_free", "sep_nasty_strategy",
     lambda inst: noop, 10, {"sim_trials": 20}),
    ("ice-learner", "idealized_survivor_pattern", "ice_idealized_nasty_strategy",
     lambda inst: noop, 3, {}),
    ("sep-learner", "error_ok_rate", "sep_malicious_learner", _constant_sep_learner, 5, {}),
    ("ice-coupling", "coupling_exact", "nasty_via_strong_malicious",
     _coupling_with_negated_labels, 5, {}),
    ("amplify-concentration", "concentration", "amplify", _amplify_with_one_coin, 20, {}),
    ("ice-filter-unit", "permutation_invariant", "ice_filter_keep",
     _adjacent_pair_filter_keep, 1, {"max_len": 4}),
]


@pytest.mark.parametrize(
    "scenario,verdict,name,fault,trials,extra", NEGATIVE_CONTROLS,
    ids=[f"{row[0]}-{row[1]}" for row in NEGATIVE_CONTROLS],
)
def test_planted_fault_flips_the_verdict(scenario, verdict, name, fault, trials, extra,
                                         monkeypatch):
    # The verdict holds at this size unpatched, so the fault alone flips it.
    params, _, seed = RUNS[scenario]
    cfg = ExperimentConfig(scenario=scenario, params={**params, **extra}, trials=trials, seed=seed)
    assert run_scenario(cfg).verdicts[verdict] is True
    monkeypatch.setattr(scenarios, name, fault)
    assert run_scenario(cfg).verdicts[verdict] is False
