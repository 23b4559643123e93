"""The four benchmark workloads and the checks made on their outputs.

Each workload is one acceptance scenario at a reduced trial count, run through
``run_scenario``. Its checks are made apart from the program: aggregates and
verdicts are recomputed from the per-trial records, binomial intervals with
the benchmark's own Wilson formula, and the codes-suite decode count with the
benchmark's own GF(2) rank. Verdicts that are statistical, and so can fail by
chance at a reduced trial count, are checked through their 99% interval: the
check fails only when the interval lies wholly on the wrong side of the
verdict's threshold. README.md gives each one's false-alarm rate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

_Z99 = NormalDist().inv_cdf(0.995)
_TOL = 1e-9


def wilson(successes: int, trials: int, z: float = _Z99) -> tuple[float, float]:
    """Two-sided Wilson score interval for a binomial proportion."""
    p = successes / trials
    denom = trials + z * z
    center = (successes + z * z / 2) / denom
    half = z * math.sqrt(trials) / denom * math.sqrt(p * (1 - p) + z * z / (4 * trials))
    return max(0.0, center - half), min(1.0, center + half)


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of integer bitmask rows, eliminating on the top bit."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_TOL, abs_tol=_TOL)


def _check_ci(problems: list[str], agg: dict, key: str, successes: int, trials: int) -> None:
    got = agg[key]
    want = wilson(successes, trials)
    if not (_close(got[0], want[0]) and _close(got[1], want[1])):
        problems.append(f"{key} {got} != recomputed {want}")


def _check_verdict(problems: list[str], verdicts: dict, key: str, want: bool) -> None:
    if verdicts.get(key) is not want:
        problems.append(f"verdict {key} is {verdicts.get(key)}, recomputed {want}")


def _check_ice_learner(rep, trials: int, params: dict, ops: int) -> list[str]:
    problems: list[str] = []
    agg, verdicts, recs = rep.aggregate, rep.verdicts, rep.records
    by_arm: dict[str, list[dict]] = {}
    for r in recs:
        by_arm.setdefault(r["arm"], []).append(r)
    if sorted(by_arm) != ["idealized", "low-noise", "noiseless"] or any(
        [r["trial"] for r in rs] != list(range(trials)) for rs in by_arm.values()
    ):
        return [f"records are not {trials} trials of each arm"]
    for arm, key, verdict in (
        ("noiseless", "recovery_rate_noiseless", "noiseless_recovery"),
        ("low-noise", "recovery_rate_low_noise", "low_noise_recovery"),
    ):
        ok = sum(r["recovered"] for r in by_arm[arm])
        if agg[key] != ok / trials:
            problems.append(f"{key} {agg[key]} != {ok}/{trials}")
        _check_verdict(problems, verdicts, verdict, ok / trials >= 0.95)
        if wilson(ok, trials)[1] < 0.95:
            problems.append(f"{arm} recovery {ok}/{trials}: 99% interval below 0.95")
    ideal = by_arm["idealized"]
    vulnerable = sum(r["vulnerable"] for r in ideal)
    pattern_ok = sum(r.get("survivor_pattern_ok", False) for r in ideal)
    if agg["vulnerable_trials"] != vulnerable or agg["survivor_pattern_ok"] != pattern_ok:
        problems.append("idealized-arm counts differ from the records")
    if any(r["vulnerable"] != ("survivor_pattern_ok" in r) for r in ideal):
        problems.append("survivor pattern recorded on a non-vulnerable trial or missing")
    _check_verdict(problems, verdicts, "idealized_survivor_pattern", True)
    if pattern_ok != vulnerable:
        problems.append(f"survivor pattern exact on {pattern_ok} of {vulnerable} trials")
    return problems


def _check_sep_learner(rep, trials: int, params: dict, ops: int) -> list[str]:
    problems: list[str] = []
    agg, verdicts, recs = rep.aggregate, rep.verdicts, rep.records
    if [r["trial"] for r in recs] != list(range(trials)):
        return [f"records are not trials 0..{trials - 1}"]
    # error <= 4 * eta_M * slack + 0.05 at eta_M = 0.05, slack = 1.25.
    bound = agg["error_bound"]
    if not _close(bound, 4 * 0.05 * 1.25 + 0.05):
        problems.append(f"error_bound {bound} != 0.3")
    if any(r["error_ok"] != (r["error"] <= bound) for r in recs):
        problems.append("a record's error_ok disagrees with its error")
    ok = sum(r["error_ok"] for r in recs)
    if agg["error_ok_rate"] != ok / trials:
        problems.append(f"error_ok_rate {agg['error_ok_rate']} != {ok}/{trials}")
    _check_ci(problems, agg, "error_ok_ci99", ok, trials)
    _check_verdict(problems, verdicts, "error_ok_rate", ok / trials >= 0.95)
    if wilson(ok, trials)[1] < 0.95:
        problems.append(f"error ok in {ok}/{trials}: 99% interval below 0.95")
    z_wrong = sum(r["z_wrong"] for r in recs)
    if agg["z_wrong_total"] != z_wrong:
        problems.append(f"z_wrong_total {agg['z_wrong_total']} != {z_wrong}")
    _check_verdict(problems, verdicts, "z_never_wrong", True)
    if z_wrong:
        problems.append(f"{z_wrong} determined key bits decoded wrong")
    q_bound = agg["erased_bits_bound"]
    over = sum(r["n_erased_bits"] > q_bound for r in recs)
    if agg["erased_bits_violations"] != over:
        problems.append(f"erased_bits_violations {agg['erased_bits_violations']} != {over}")
    _check_verdict(problems, verdicts, "erased_bits_bounded", True)
    if over:
        problems.append(f"{over} trials erase more than {q_bound} bits")
    return problems


def _check_badamplify(rep, trials: int, params: dict, ops: int) -> list[str]:
    problems: list[str] = []
    agg, verdicts, recs = rep.aggregate, rep.verdicts, rep.records
    if [r["trial"] for r in recs] != list(range(trials)):
        return [f"records are not trials 0..{trials - 1}"]
    # The mixture arm's group count and threshold: k = ceil(ln(1/0.01) / 0.1^2).
    if agg["amplify_k"] != math.ceil(math.log(100) / 0.01):
        problems.append(f"amplify_k {agg['amplify_k']} != 461")
    threshold = agg["amplify_threshold"]
    if not _close(threshold, params["eps"] + 0.1):
        problems.append(f"amplify_threshold {threshold} != eps + 0.1")
    if any(r["bad_output"] != (r["bad_error"] >= 0.99) for r in recs):
        problems.append("a record's bad_output disagrees with its bad_error")
    if any(r["amplify_exceeds"] != (r["amplify_error"] > threshold) for r in recs):
        problems.append("a record's amplify_exceeds disagrees with its amplify_error")
    bad = sum(r["bad_output"] for r in recs)
    over = sum(r["amplify_exceeds"] for r in recs)
    if agg["bad_output_frequency"] != bad / trials:
        problems.append(f"bad_output_frequency != {bad}/{trials}")
    if agg["amplify_exceed_frequency"] != over / trials:
        problems.append(f"amplify_exceed_frequency != {over}/{trials}")
    _check_ci(problems, agg, "bad_output_ci99", bad, trials)
    _check_ci(problems, agg, "amplify_exceed_ci99", over, trials)
    if not agg["error_crosscheck_abs_diff"] <= 1e-9:
        problems.append(f"error crosscheck differs by {agg['error_crosscheck_abs_diff']}")
    _check_verdict(problems, verdicts, "bad_output_in_range", 0.25 <= bad / trials <= 0.35)
    _check_verdict(problems, verdicts, "amplify_rarely_bad", over / trials < 0.01)
    lo, hi = wilson(bad, trials)
    if hi < 0.25 or lo > 0.35:
        problems.append(f"bad output {bad}/{trials}: 99% interval misses [0.25, 0.35]")
    if wilson(over, trials)[0] >= 0.01:
        problems.append(f"mixture exceeds in {over}/{trials}: 99% interval above 0.01")
    return problems


def erasure_decode_count(params: dict, seed: int) -> int:
    """Decodes codes-suite makes: for each code and erasure pattern, one per
    distinct punctured codeword, that is 2^rank of the rows on the visible
    columns."""
    from noisylab.codes import gen_random_linear_code
    from noisylab.core import RngHandle

    w, rho = params["w"], params["rho"]
    patterns = [
        p for size in range(params["max_erasures"] + 1) for p in itertools.combinations(range(w), size)
    ]
    total = 0
    for ci in range(params["codes"]):
        rows = gen_random_linear_code(rho, w, RngHandle(seed).split(0, ci)).row_masks
        for pattern in patterns:
            visible = ((1 << w) - 1) & ~sum(1 << j for j in pattern)
            total += 1 << gf2_rank([r & visible for r in rows])
    return total


def _check_codes_suite(rep, trials: int, params: dict, decodes: int) -> list[str]:
    problems: list[str] = []
    agg, verdicts, recs = rep.aggregate, rep.verdicts, rep.records
    if [r["check"] for r in recs] != ["erasure-roundtrip", "bitflip-oracle", "low-weight"]:
        return ["records are not the three codes-suite checks"]
    if recs[0]["decodes"] != decodes or agg["erasure_decodes"] != decodes:
        problems.append(
            f"erasure decodes {agg['erasure_decodes']} (record {recs[0]['decodes']}), "
            f"recomputed from the ranks {decodes}"
        )
    for rec, key in zip(recs, ("erasure_roundtrip", "bitflip_oracle", "low_weight_oracle")):
        _check_verdict(problems, verdicts, key, True)
        if rec["ok"] is not True:
            problems.append(f"{rec['check']} record is not ok")
    return problems


@dataclass(frozen=True)
class Workload:
    """One scenario at a fixed size. ``ops(params, trials, seed)`` gives the
    operations one round attempts; ``check(report, trials, params, ops)`` the
    problems found in one round's report."""

    name: str
    scenario: str
    params: dict
    trials: int
    default_seed: int
    ops: Callable[[dict, int, int], int]
    check: Callable[..., list[str]]


def _per_trial(n: int) -> Callable[[dict, int, int], int]:
    return lambda params, trials, seed: n * trials


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ice-learner", "ice-learner", {}, 10, 9, _per_trial(3), _check_ice_learner),
        Workload("sep-learner", "sep-learner", {}, 25, 5, _per_trial(1), _check_sep_learner),
        Workload(
            "badamplify", "badamplify",
            {"eps": 0.3, "eta": 0.25, "n": 60, "k": 10, "n_test": 40},
            100, 3, _per_trial(1), _check_badamplify,
        ),
        Workload(
            "codes-suite", "codes-suite",
            {"codes": 1, "w": 12, "rho": 0.5, "max_erasures": 3,
             "bitflip_codes": 20, "low_weight_codes": 20},
            1, 4, lambda params, trials, seed: erasure_decode_count(params, seed),
            _check_codes_suite,
        ),
    )
}
