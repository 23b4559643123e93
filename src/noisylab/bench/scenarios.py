"""Experiment scenarios: one per acceptance-style statistical verdict.

Each scenario is a deterministic function of (trials, rng, params) returning
its per-trial records, aggregate statistics, and boolean verdicts;
:func:`run_scenario` wraps them in a :class:`TrialReport`. A scenario
declares its parameters once, as the defaults it is registered with: a config
may set only those, and each given value is cast to its default's type and
must equal its cast (``200.0`` may set an int, ``200.7`` may not).
Statistical verdicts use 99% two-sided binomial confidence intervals and
chi-square tests at significance 1e-3 unless a scenario documents otherwise;
both significance knobs are parameters.

``scipy.stats`` is imported inside the three statistics helpers
(``binom_ci``, ``chisquare_vs_binomial``, ``two_sample_chi2``), not here: it
is most of the package's import time, and only a scenario's verdicts need it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from ..codes import (
    ReceivedWord,
    bitflip_list_decode,
    encode,
    erasure_list_decode_many,
    gen_random_linear_code,
    low_weight_codewords,
    mask_to_signs,
)
from ..core import (
    DiscreteDistribution,
    Hypothesis,
    RngHandle,
    Sample,
    TableHypothesis,
    draw_clean_sample,
    error_rate,
    labeled_index,
    philox_uniforms,
)
from ..icesep import (
    IceInstance,
    IceSepParams,
    ice_idealized_nasty_strategy,
    ice_malicious_learner,
    nasty_via_strong_malicious,
    round_vector,
)
from ..learn import (
    AmplifyParams,
    Learner,
    amplify,
    bad_amplify,
    ice_filter,
    ice_filter_keep,
)
from ..noise import (
    StrategyResult,
    contradict_replaced,
    fixed_rate_nasty_corrupt,
    flip_first_z_labels,
    flip_random_labels,
    huber_sample,
    nasty_corrupt,
    noop,
    strong_malicious_corrupt,
    tv_distance,
)
from ..sep import (
    SepInstance,
    SepParams,
    sep_key_erasure_strategy,
    sep_malicious_learner,
    sep_nasty_strategy,
    sep_simulate_T_nasty,
)
from .reports import TrialReport

__all__ = ["ExperimentConfig", "run_scenario", "scenario_names"]

# What a scenario returns: records, aggregate, verdicts.
Outcome = tuple[list[dict], dict, dict[str, bool]]

_SCENARIOS: dict[str, tuple[Callable[..., Outcome], dict]] = {}


def _register(name: str, **defaults):
    """Register a scenario under ``name``; ``defaults`` are all its parameters."""

    def deco(fn):
        _SCENARIOS[name] = (fn, defaults)
        return fn

    return deco


def scenario_names() -> list[str]:
    return sorted(_SCENARIOS)


@dataclass(frozen=True)
class ExperimentConfig:
    """A named scenario plus its parameters, trial count, and master seed."""

    scenario: str
    params: dict = field(default_factory=dict)
    trials: int = 1
    seed: int = 0
    out: str | None = None

    def __post_init__(self) -> None:
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")
        if self.scenario not in _SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; known: {scenario_names()}"
            )
        if not isinstance(self.params, dict):
            raise ValueError("params must be a JSON object")
        allowed = sorted(_SCENARIOS[self.scenario][1])
        unknown = sorted(set(self.params) - set(allowed))
        if unknown:
            raise ValueError(
                f"unknown params {unknown} for scenario {self.scenario!r}; "
                f"allowed: {allowed}"
            )

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "ExperimentConfig":
        """Load a JSON config object; a key that is not a field is rejected."""
        with Path(path).open() as fh:
            data = json.load(fh)
        allowed = sorted(f.name for f in fields(cls))
        if not isinstance(data, dict) or "scenario" not in data:
            raise ValueError("config must be a JSON object with a 'scenario' key")
        unknown = sorted(set(data) - set(allowed))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; allowed: {allowed}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**data)


def run_scenario(config: ExperimentConfig) -> TrialReport:
    """Execute the named scenario with trial-split RNG streams, every
    parameter the config leaves out at its default."""
    fn, defaults = _SCENARIOS[config.scenario]
    params = dict(defaults)
    for key, value in config.params.items():
        # A value must equal its cast, so the echoed config describes the run.
        kind = type(defaults[key])
        try:
            params[key] = kind(value)
            if params[key] != value:
                raise ValueError
        except (TypeError, ValueError):
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"param {key!r} must be {noun}, got {value!r}") from None
    records, aggregate, verdicts = fn(config.trials, RngHandle(config.seed), **params)
    echo = {key: getattr(config, key) for key in ("scenario", "params", "trials", "seed")}
    return TrialReport(config.scenario, echo, records, aggregate, verdicts)


# --------------------------------------------------------------------------
# Statistics helpers
# --------------------------------------------------------------------------


def binom_ci(successes: int, trials: int, confidence: float = 0.99) -> tuple[float, float]:
    """Two-sided Wilson confidence interval for a binomial proportion."""
    from scipy import stats

    ci = stats.binomtest(successes, trials).proportion_ci(
        confidence_level=confidence, method="wilson"
    )
    return float(ci.low), float(ci.high)


def chisquare_vs_binomial(values: np.ndarray, n: int, p: float, min_expected: float = 5.0) -> float:
    """Goodness-of-fit p-value of observed draws against Bin(n, p), pooling
    adjacent support bins until every expected count reaches the minimum."""
    from scipy import stats

    trials = values.size
    observed = np.bincount(values, minlength=n + 1).astype(float)
    expected = trials * stats.binom.pmf(np.arange(n + 1), n, p)
    obs_pooled, exp_pooled = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs_pooled.append(acc_o)
            exp_pooled.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        if exp_pooled:
            obs_pooled[-1] += acc_o
            exp_pooled[-1] += acc_e
        else:
            obs_pooled, exp_pooled = [acc_o], [acc_e]
    res = stats.chisquare(obs_pooled, exp_pooled, sum_check=False)
    return float(res.pvalue)


def two_sample_chi2(counts_a: np.ndarray, counts_b: np.ndarray) -> float:
    """Homogeneity p-value for two count vectors, all-zero rows and columns
    dropped; 1.0 when fewer than two rows or two columns are left."""
    table = np.vstack([counts_a, counts_b]).astype(float)
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    if min(table.shape) < 2:
        return 1.0
    from scipy import stats

    return float(stats.chi2_contingency(table).pvalue)


# --------------------------------------------------------------------------
# Contradiction-filter exhaustive unit scenario
# --------------------------------------------------------------------------


@_register("ice-filter-unit", max_len=6, domain_points=3)
def _scenario_ice_filter_unit(
    trials: int, rng: RngHandle, max_len: int, domain_points: int
) -> Outcome:
    """Exhaustive filter properties over all samples of length <= max_len on a
    small domain: idempotence, contradiction-freeness, even cardinality drop,
    permutation invariance, and agreement with the net-count oracle."""
    n_types = 2 * domain_points
    records = []

    def batch_counts(digits: np.ndarray) -> tuple[np.ndarray, Sample, np.ndarray]:
        """Embed each row in a disjoint point space and filter all rows at
        once; return (per-row-per-point-per-label survivor counts, filtered
        sample, per-row survivor totals)."""
        N, L = digits.shape
        pts_local = digits // 2
        labels = np.where(digits % 2 == 0, 1, -1).astype(np.int8)
        pts = (pts_local + np.arange(N)[:, None] * domain_points).ravel()
        S = Sample(pts, labels.ravel())
        out = S.take(ice_filter_keep(S))
        cell = out.points * 2 + (out.labels < 0)
        counts = np.bincount(cell, minlength=N * n_types).reshape(N, domain_points, 2)
        surv = np.bincount(out.points // domain_points, minlength=N)
        return counts, out, surv

    all_ok = {
        "idempotent": True,
        "no_contradiction": True,
        "even_drop": True,
        "permutation_invariant": True,
        "canonical_match": True,
    }
    total = 1  # the empty sample
    assert len(ice_filter(Sample.empty())) == 0

    for L in range(1, max_len + 1):
        N = n_types**L
        total += N
        idx = np.arange(N)
        digits = np.stack([(idx // n_types**j) % n_types for j in range(L)], axis=1)
        counts, out, surv = batch_counts(digits)

        # Input net counts drive the canonical-form oracle.
        pts_local = digits // 2
        labels_in = np.where(digits % 2 == 0, 1, -1)
        cell_in = (
            (pts_local + np.arange(N)[:, None] * domain_points) * 2 + (labels_in < 0)
        ).ravel()
        counts_in = np.bincount(cell_in, minlength=N * n_types).reshape(N, domain_points, 2)
        net = counts_in[:, :, 0] - counts_in[:, :, 1]
        canonical = np.array_equal(counts[:, :, 0], np.maximum(net, 0)) and np.array_equal(
            counts[:, :, 1], np.maximum(-net, 0)
        )

        no_contra = bool(np.all((counts[:, :, 0] == 0) | (counts[:, :, 1] == 0)))
        even = bool(np.all((L - surv) % 2 == 0))
        keep2 = ice_filter_keep(out)
        idem = keep2.size == len(out) and bool(np.all(keep2 == np.arange(len(out))))
        counts_rev, _, _ = batch_counts(digits[:, ::-1])
        perm = np.array_equal(counts, counts_rev)

        rec = {
            "length": L,
            "sequences": N,
            "idempotent": idem,
            "no_contradiction": no_contra,
            "even_drop": even,
            "permutation_invariant": bool(perm),
            "canonical_match": bool(canonical),
        }
        records.append(rec)
        for k in all_ok:
            all_ok[k] &= rec[k]

    return records, {"sequences_checked": total}, all_ok


# --------------------------------------------------------------------------
# Nasty budget law
# --------------------------------------------------------------------------


@_register("nasty-budget-law", n=100, eta=0.2, significance=1e-3)
def _scenario_nasty_budget_law(
    trials: int, rng: RngHandle, n: int, eta: float, significance: float
) -> Outcome:
    S = Sample(np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int8))
    budgets = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        _, ledger = nasty_corrupt(S, eta, noop, rng.split(t))
        budgets[t] = ledger.drawn_budget
    pvalue = chisquare_vs_binomial(budgets, n, eta)
    return (
        [{"trial": t, "budget": int(b)} for t, b in enumerate(budgets)],
        {"chi2_pvalue": pvalue, "mean_budget": float(budgets.mean())},
        {"budget_law_binomial": pvalue > significance},
    )


# --------------------------------------------------------------------------
# Amplification concentration
# --------------------------------------------------------------------------


@_register("amplify-concentration", eps=0.2, k=64, eta=0.2, n_group=1)
def _scenario_amplify_concentration(
    trials: int, rng: RngHandle, eps: float, k: int, eta: float, n_group: int
) -> Outcome:
    """A crafted base learner with error exactly 1 w.p. eps (0 otherwise)
    trained on nasty-corrupted groups; the summed group errors must stay
    under eps*k + 3*sqrt(k*ln 20) in at least 95% of trials."""
    threshold = eps * k + 3 * math.sqrt(k * math.log(20))

    D = DiscreteDistribution.uniform(2)
    c = TableHypothesis.constant(1, 2)

    wrong = TableHypothesis.constant(-1, 2)

    def train(points: np.ndarray, labels: np.ndarray, keys: np.ndarray) -> list[Hypothesis]:
        heads = philox_uniforms(keys, 1)[:, 0] < 1 - eps
        return [c if h else wrong for h in heads]

    A = Learner(n=n_group, train=train, name="coin-learner")
    records = []
    exceed = 0
    for t in range(trials):
        r = rng.split(t)
        S_clean = draw_clean_sample(D, c, n_group * k, r.split(0))
        S_corr, _ = nasty_corrupt(S_clean, eta, flip_random_labels, r.split(1), c=c, D=D)
        mix = amplify(A, AmplifyParams(k=k), S_corr, r.split(2))
        total = sum(error_rate(h, c, D) for h in mix.components)
        over = total > threshold
        exceed += over
        records.append({"trial": t, "sum_error": total, "exceeds": bool(over)})
    freq = exceed / trials
    return (
        records,
        {
            "threshold": threshold,
            "exceed_frequency": freq,
            "exceed_ci99": binom_ci(exceed, trials),
        },
        {"concentration": freq < 0.05},
    )


# --------------------------------------------------------------------------
# Holdout-selection counterexample
# --------------------------------------------------------------------------


@_register("badamplify", eps=0.3, eta=0.25, n=60, k=10, n_test=40)
def badamplify_counterexample(
    trials: int, rng: RngHandle, eps: float, eta: float, n: int, k: int, n_test: int
) -> Outcome:
    """Run the holdout-selection failure construction.

    Domain: a small uniform part of ``100*(n*k + n_test)`` points plus subset
    points identified with subsets of the small part (only the single subset
    point the adversary materializes gets an index). The target concept is
    the constant ``+1``. The base learner reads off the majority label ``b``,
    then with probability ``1 - eps`` outputs the constant ``b`` and
    otherwise a hypothesis that is ``b`` exactly on the subset encoded by the
    first subset point in its sample (``-b`` elsewhere). The nasty adversary
    spends its whole drawn budget (``Bin(nk + n_test, eta)`` positions, so
    each shuffled group of ``n`` sees ``Bin(n, eta)`` corruptions) replacing
    examples with one subset point that encodes every small-domain point
    appearing in the holdout arm's clean sample.

    Holdout selection over ``k`` groups then prefers high-error hypotheses
    (their encoded subset covers the holdout). The uniform-mixture arm runs
    the same base learner and adversary on its own ``n * amp.k`` sample, with
    ``amp = AmplifyParams.auto(0.1, 0.01)``: enough groups for amplification's
    guarantee, mixture error at most ``eps + amp.eps_additional`` with
    probability at least ``1 - amp.delta``, which its verdict checks.
    """
    if not 0.01 <= eta <= 0.49:
        raise ValueError("eta must be in [0.01, 0.49]")
    if eps < 0 or eps >= 1:
        raise ValueError("eps must be in [0, 1)")
    amp = AmplifyParams.auto(eps_additional=0.1, delta=0.01)
    amp_threshold = eps + amp.eps_additional
    m_total = n * k + n_test
    M = 100 * m_total
    XL = M  # index of the one materialized subset point
    D = DiscreteDistribution.uniform(M)
    c = TableHypothesis.constant(1, M + 1)

    def adversary(S, budget, c_=None, D_=None, srng=None):
        return StrategyResult(
            np.arange(budget), Sample(np.full(budget, XL), np.ones(budget, dtype=np.int8))
        )

    # The base learner only ever outputs a constant table or a subset table,
    # each with either sign: build each once and share it between train calls.
    constant = {}
    for b in (1, -1):
        constant[b] = TableHypothesis.constant(b, M + 1)
        constant[b].exact_error = 0.0 if b == 1 else 1.0

    records = []
    bad_count = 0
    amp_exceed = 0
    crosscheck = None
    for t in range(trials):
        r = rng.split(t)
        clean_pts = r.split(0).generator().integers(0, M, size=m_total, dtype=np.int64)
        S_clean = Sample(clean_pts, np.ones(m_total, dtype=np.int8))
        appear = np.unique(clean_pts)
        in_appear = np.zeros(M + 1, dtype=bool)
        in_appear[appear] = True
        in_appear[XL] = True
        appear_frac = appear.size / M

        S_corr, _ = nasty_corrupt(S_clean, eta, adversary, r.split(1))

        subset = {}
        for b in (1, -1):
            subset[b] = TableHypothesis(np.where(in_appear, b, -b).astype(np.int8))
            subset[b].exact_error = 1.0 - appear_frac if b == 1 else appear_frac

        def train(points: np.ndarray, labels: np.ndarray, keys: np.ndarray) -> list[Hypothesis]:
            majority = np.where(labels.sum(axis=1) >= 0, 1, -1).tolist()
            heads = (philox_uniforms(keys, 1)[:, 0] < 1 - eps).tolist()
            has_subset = (points >= M).any(axis=1).tolist()
            return [
                constant[b] if h else subset[b] if s else constant[-b]
                for b, h, s in zip(majority, heads, has_subset)
            ]

        A = Learner(n=n, train=train, name="coin-subset-base")
        h_sel = bad_amplify(A, k, n_test, S_corr, r.split(2))
        bad_err = h_sel.exact_error
        if crosscheck is None:
            crosscheck = abs(bad_err - error_rate(h_sel, c, D))
        is_bad = bad_err >= 0.99
        bad_count += is_bad

        S_amp_clean = draw_clean_sample(D, c, n * amp.k, r.split(4))
        S_amp, _ = nasty_corrupt(S_amp_clean, eta, adversary, r.split(5))
        mix = amplify(A, amp, S_amp, r.split(3))
        amp_err = float(np.mean([h.exact_error for h in mix.components]))
        over = amp_err > amp_threshold
        amp_exceed += over
        records.append(
            {
                "trial": t,
                "bad_error": bad_err,
                "bad_output": bool(is_bad),
                "amplify_error": amp_err,
                "amplify_exceeds": bool(over),
            }
        )

    bad_freq = bad_count / trials
    amp_freq = amp_exceed / trials
    return (
        records,
        {
            "bad_output_frequency": bad_freq,
            "bad_output_ci99": binom_ci(bad_count, trials),
            "amplify_k": amp.k,
            "amplify_threshold": amp_threshold,
            "amplify_exceed_frequency": amp_freq,
            "amplify_exceed_ci99": binom_ci(amp_exceed, trials),
            "error_crosscheck_abs_diff": crosscheck,
        },
        {
            "bad_output_in_range": 0.25 <= bad_freq <= 0.35,
            "amplify_rarely_bad": amp_freq < amp.delta,
        },
    )


# --------------------------------------------------------------------------
# Codes suite
# --------------------------------------------------------------------------


@_register(
    "codes-suite",
    codes=50, w=12, rho=0.5, max_erasures=3, bitflip_codes=20, low_weight_codes=20,
)
def _scenario_codes_suite(
    trials: int, rng: RngHandle, codes: int, w: int, rho: float,
    max_erasures: int, bitflip_codes: int, low_weight_codes: int,
) -> Outcome:
    records = []

    # Erasure round trips: for every pattern, group messages by their
    # punctured codeword (the oracle path) and check that the decoded sets
    # equal the groups exactly, one decode per distinct word.
    k = round(rho * w)
    patterns = [
        p
        for size in range(max_erasures + 1)
        for p in itertools.combinations(range(w), size)
    ]
    roundtrip_ok = True
    decodes = 0
    for ci in range(codes):
        G = gen_random_linear_code(rho, w, rng.split(0, ci))
        cw_masks = G.codeword_masks
        for pattern in patterns:
            pat_mask = sum(1 << j for j in pattern)
            punctured = cw_masks & np.uint64(((1 << w) - 1) ^ pat_mask)
            words, group_of = np.unique(punctured, return_inverse=True)
            decodes += words.size
            sizes = np.bincount(group_of)
            if (sizes != sizes[0]).any():  # cosets of a linear code are equal
                roundtrip_ok = False
                continue
            # Row g: the messages of group g in ascending order.
            groups = np.argsort(group_of, kind="stable").reshape(words.size, sizes[0])
            consistent, decoded = erasure_list_decode_many(G, pat_mask, words, cap=1 << k)
            if not (consistent.all() and np.array_equal(decoded, groups)):
                roundtrip_ok = False
    records.append({"check": "erasure-roundtrip", "decodes": decodes, "ok": roundtrip_ok})

    # Bit-flip decoding against a naive double-loop oracle.
    bitflip_ok = True
    for ci in range(bitflip_codes):
        r = rng.split(1, ci)
        gen = r.generator()
        wb = int(gen.integers(6, 11))
        kb = max(1, wb // 2)
        G = gen_random_linear_code(kb / wb, wb, r.split(0))
        target = gen.choice((-1, 1), size=wb).astype(np.int8)
        radius = int(gen.integers(0, wb + 1))
        got = bitflip_list_decode(G, ReceivedWord(target), radius, cap=1 << kb)
        oracle = [
            msg_int
            for msg_int in range(1 << kb)
            if int((encode(G, mask_to_signs(msg_int, kb)).bits != target).sum()) <= radius
        ]
        if got != oracle:
            bitflip_ok = False
    records.append({"check": "bitflip-oracle", "ok": bitflip_ok})

    # Low-weight extraction against a second enumeration path.
    low_ok = True
    for ci in range(low_weight_codes):
        G = gen_random_linear_code(rho, w, rng.split(2, ci))
        bound = int(rng.split(3, ci).generator().integers(0, w // 2 + 1))
        got = low_weight_codewords(G, bound)
        oracle_list = []
        for msg_int in range(1 << k):
            cw = encode(G, mask_to_signs(msg_int, k))
            if cw.weight <= bound:
                oracle_list.append(cw)
        oracle_list.sort(key=lambda cw: tuple(1 if b == -1 else 0 for b in cw.bits))
        if len(got) != len(oracle_list) or any(
            not np.array_equal(a.bits, b.bits) for a, b in zip(got, oracle_list)
        ):
            low_ok = False
    records.append({"check": "low-weight", "ok": low_ok})

    return (
        records,
        {"erasure_decodes": decodes},
        {
            "erasure_roundtrip": roundtrip_ok,
            "bitflip_oracle": bitflip_ok,
            "low_weight_oracle": low_ok,
        },
    )


# --------------------------------------------------------------------------
# Key/value separation: learner side
# --------------------------------------------------------------------------


# The SepParams.create arguments both separation scenarios take.
_SEP_DEFAULTS = dict(eta_N=0.25, eta_M=0.05, kappa=0.5, rho=0.5, tau=0.15, w=24, d=12, u=8, n=50000)


@_register("sep-learner", **_SEP_DEFAULTS)
def _scenario_sep_learner(trials: int, rng: RngHandle, **sep) -> Outcome:
    sp = SepParams.create(**sep)
    inst = SepInstance.generate(sp, rng.split(0))
    D = inst.distribution()
    strategy = sep_key_erasure_strategy(inst)
    err_bound = 4 * sp.eta_M * sp.slack + 0.05
    q_bound = sp.slack * sp.eta_M / (float(sp.kappa) * (1 - sp.eta_M)) * sp.w

    records = []
    ok_count = 0
    z_wrong_total = 0
    q_violations = 0
    for t in range(trials):
        r = rng.split(1, t)
        gen = r.split(0).generator()
        p = int(gen.integers(0, len(inst.low_weight)))
        q = int(gen.integers(0, sp.extractor_spec.seed_count()))
        c = inst.concept(p, q)
        S_clean = draw_clean_sample(D, c, sp.n, r.split(1))
        S_corr, ledger = strong_malicious_corrupt(
            S_clean, sp.eta_M, strategy, r.split(2), c=c, D=D
        )
        h, det = sep_malicious_learner(S_corr, inst)
        err = error_rate(h, c, D)
        z = det["z"]
        z_wrong = int(np.sum((z != 0) & (z != c.codeword.bits)))
        n_q = int(np.sum(z == 0))
        ok = err <= err_bound
        ok_count += ok
        z_wrong_total += z_wrong
        q_violations += n_q > q_bound
        records.append(
            {
                "trial": t,
                "p": p,
                "q": q,
                "error": err,
                "error_ok": bool(ok),
                "z_wrong": z_wrong,
                "n_erased_bits": n_q,
                "learner_flagged": bool(det["flagged"]),
            }
        )
    ok_rate = ok_count / trials
    return (
        records,
        {
            "error_bound": err_bound,
            "error_ok_rate": ok_rate,
            "error_ok_ci99": binom_ci(ok_count, trials),
            "z_wrong_total": z_wrong_total,
            "erased_bits_bound": q_bound,
            "erased_bits_violations": q_violations,
        },
        {
            "error_ok_rate": ok_rate >= 0.95,
            "z_never_wrong": z_wrong_total == 0,
            "erased_bits_bounded": q_violations == 0,
        },
    )


# --------------------------------------------------------------------------
# Key/value separation: adversary side
# --------------------------------------------------------------------------


@_register("sep-adversary", **_SEP_DEFAULTS, significance=1e-3, sim_trials=2000, sim_n=500)
def _scenario_sep_adversary(
    trials: int, rng: RngHandle, significance: float, sim_trials: int, sim_n: int, **sep
) -> Outcome:
    sp = SepParams.create(**sep)
    inst = SepInstance.generate(sp, rng.split(0))
    D = inst.distribution()
    strategy = sep_nasty_strategy(inst)

    # Two concept indices with nonzero codeword weight (index 0 is the
    # weight-0 all-+1 codeword, which never triggers the adversary).
    nonzero = [p for p, cw in enumerate(inst.low_weight) if cw.weight > 0]
    p_a, p_b = nonzero[0], nonzero[-1]

    records = []
    all_plus_count = 0
    non_exhausted = 0
    block_counts = {p_a: np.zeros(sp.w, dtype=np.int64), p_b: np.zeros(sp.w, dtype=np.int64)}
    for t in range(trials):
        r = rng.split(1, t)
        p = p_a if t % 2 == 0 else p_b
        c = inst.concept(p, 0)
        S_clean = draw_clean_sample(D, c, sp.n, r.split(0))
        S_corr, ledger = nasty_corrupt(S_clean, sp.eta_N, strategy, r.split(1), c=c, D=D)
        rec = {"trial": t, "p": p, "exhausted": bool(ledger.flagged)}
        if not ledger.flagged:
            non_exhausted += 1
            key_mask = S_corr.points < sp.key_size
            all_plus = bool(np.all(S_corr.labels[key_mask] == 1))
            all_plus_count += all_plus
            rec["key_all_plus"] = all_plus
            block_counts[p] += sp.layout.block_counts(S_corr.points)
        records.append(rec)
    independence_p = two_sample_chi2(block_counts[p_a], block_counts[p_b])

    # Distribution match of the simulation against the real corrupted sample.
    sp_sim = SepParams.create(**{**sep, "n": sim_n})
    inst_sim = SepInstance(sp_sim, inst.G)
    c_sim = inst_sim.concept(p_a, 0)
    strategy_sim = sep_nasty_strategy(inst_sim)
    cat_real = np.zeros(sp.w + 1, dtype=np.int64)
    cat_sim = np.zeros(sp.w + 1, dtype=np.int64)
    lab_real = np.zeros(2, dtype=np.int64)
    lab_sim = np.zeros(2, dtype=np.int64)
    sim_skipped = 0
    for t in range(sim_trials):
        r = rng.split(2, t)
        S_clean = draw_clean_sample(inst_sim.distribution(), c_sim, sim_n, r.split(0))
        S_real, ledger = nasty_corrupt(
            S_clean, sp.eta_N, strategy_sim, r.split(1), c=c_sim, D=inst_sim.distribution()
        )
        if ledger.flagged:
            sim_skipped += 1
            continue
        vpts = r.split(2).generator().integers(
            sp_sim.key_size, sp_sim.domain_size, size=sim_n, dtype=np.int64
        )
        T_value = Sample(vpts, c_sim.evaluate_many(vpts))
        S_sim = sep_simulate_T_nasty(T_value, inst_sim, r.split(3))
        for S, cat, lab in ((S_real, cat_real, lab_real), (S_sim, cat_sim, lab_sim)):
            key = S.points < sp_sim.key_size
            cat[: sp.w] += sp_sim.layout.block_counts(S.points)
            cat[sp.w] += int((~key).sum())
            lab[0] += int((S.labels[~key] == 1).sum())
            lab[1] += int((S.labels[~key] == -1).sum())
    sim_cat_p = two_sample_chi2(cat_real, cat_sim)
    sim_lab_p = two_sample_chi2(lab_real, lab_sim)

    all_plus_rate = all_plus_count / max(non_exhausted, 1)
    return (
        records,
        {
            "non_exhausted": non_exhausted,
            "key_all_plus_rate": all_plus_rate,
            "independence_pvalue": independence_p,
            "simulation_blocks_pvalue": sim_cat_p,
            "simulation_labels_pvalue": sim_lab_p,
            "sim_trials_skipped": sim_skipped,
        },
        {
            "key_information_free": all_plus_rate >= 0.99 and independence_p > significance,
            "simulation_matches": sim_cat_p > significance and sim_lab_p > significance,
        },
    )


# --------------------------------------------------------------------------
# Randomized rounding lemma
# --------------------------------------------------------------------------


@_register("round-lemma", kappa=0.6, w=200)
def _scenario_round_lemma(trials: int, rng: RngHandle, kappa: float, w: int) -> Outcome:
    budget = (1 - kappa) * w
    bound = 0.5 * (1 - kappa / 2) * w
    records = []
    hold = 0
    for t in range(trials):
        r = rng.split(t)
        gen = r.split(0).generator()
        u = gen.choice((-1, 1), size=w).astype(np.int8)
        raw = gen.random(w)
        t_sizes = raw / raw.sum() * budget * gen.random()
        v = u - u * t_sizes  # moves each coordinate toward (or past) zero
        assert float(np.abs(v - u).sum()) <= budget + 1e-9
        z = round_vector(v, r.split(1))
        ham = int((z != u).sum())
        ok = ham <= bound
        hold += ok
        records.append({"trial": t, "hamming": ham, "within_bound": bool(ok)})
    rate = hold / trials
    return (
        records,
        {"bound": bound, "hold_rate": rate, "hold_ci99": binom_ci(hold, trials)},
        {"rounding_bound": rate >= 0.99},
    )


# --------------------------------------------------------------------------
# Coupling of nasty through strong-malicious corruption
# --------------------------------------------------------------------------


@_register("ice-coupling", domain=20, n=40, eta=0.3, filler_point=0)
def _scenario_ice_coupling(
    trials: int, rng: RngHandle, domain: int, n: int, eta: float, filler_point: int
) -> Outcome:

    def inner(S: Sample, z: int, c=None, D=None, srng: RngHandle | None = None) -> StrategyResult:
        g = srng.generator()
        k = int(g.integers(0, z + 1)) if z > 0 else 0
        idx = g.choice(len(S), size=k, replace=False) if k else np.empty(0, dtype=np.int64)
        pts = np.empty(k, dtype=np.int64)
        labs = np.empty(k, dtype=np.int8)
        for j in range(k):  # one point draw then one label draw per example
            pts[j] = g.integers(0, domain)
            labs[j] = g.choice((-1, 1))
        return StrategyResult(idx, Sample(pts, labs))

    strong = nasty_via_strong_malicious(inner, filler_point=filler_point)
    records = []
    all_exact = True
    for t in range(trials):
        r = rng.split(t)
        table = r.split(0).generator().choice((-1, 1), size=domain).astype(np.int8)
        c = TableHypothesis(table)
        D = DiscreteDistribution.uniform(domain)
        S_clean = draw_clean_sample(D, c, n, r.split(1))
        S_strong, ledger = strong_malicious_corrupt(S_clean, eta, strong, r.split(2), c=c, D=D)

        # Rebuild the simulated nasty output independently (same derived rng).
        Z = ledger.coin_set
        m = len(Z)
        half = m // 2
        mask = np.ones(n, dtype=bool)
        mask[Z[: 2 * half]] = False
        S_inner = S_clean.take(np.flatnonzero(mask))
        res = inner(S_inner, half, c, D, r.split(2, 1, 0))
        S_nasty = S_inner.replace_at(res.positions, res.introduced.points, res.introduced.labels)

        ms_strong = S_strong.multiset()
        ms_nasty = S_nasty.multiset()
        diff = {key: ms_strong.get(key, 0) - ms_nasty.get(key, 0) for key in set(ms_strong) | set(ms_nasty)}
        points = {x for x, _ in diff}
        pairs_ok = all(
            diff.get((x, 1), 0) == diff.get((x, -1), 0) >= 0 for x in points
        )
        pair_total = sum(diff.get((x, 1), 0) for x in points)
        surplus_ok = pairs_ok and pair_total == half
        ms_filtered = ice_filter(S_strong).multiset()
        ice_eq = ms_filtered == ice_filter(S_nasty).multiset()
        contradiction_free = all(
            not (ms_nasty.get((x, 1), 0) and ms_nasty.get((x, -1), 0))
            for x, _ in ms_nasty
        )
        literal_ok = (not contradiction_free) or ms_filtered == ms_nasty
        exact = surplus_ok and ice_eq and literal_ok
        all_exact &= exact
        records.append(
            {
                "trial": t,
                "m": m,
                "k": len(res.positions),
                "surplus_pairs_exact": bool(surplus_ok),
                "filter_outputs_equal": bool(ice_eq),
                "nasty_contradiction_free": bool(contradiction_free),
                "exact": bool(exact),
            }
        )
    return (
        records,
        {"exact_rate": float(np.mean([r["exact"] for r in records]))},
        {"coupling_exact": all_exact},
    )


# --------------------------------------------------------------------------
# Contradiction-filter separation: learner end-to-end
# --------------------------------------------------------------------------


@_register("ice-learner", eta=0.05, kappa=0.7, w=20, d=10, n=20000, L=1024)
def _scenario_ice_learner(trials: int, rng: RngHandle, **params) -> Outcome:
    ip = IceSepParams.create(**params)
    inst = IceInstance.generate(ip, rng.split(0))
    D = inst.distribution()
    idealized = ice_idealized_nasty_strategy(inst)

    records = []
    recovered = {"noiseless": 0, "low-noise": 0}
    for arm_id, arm in enumerate(("noiseless", "low-noise")):
        for t in range(trials):
            r = rng.split(1 + arm_id, t)
            c = inst.random_concept(r.split(0))
            S = draw_clean_sample(D, c, ip.n, r.split(1))
            if arm == "low-noise":
                S, _ = strong_malicious_corrupt(S, ip.eta, contradict_replaced, r.split(2), c=c, D=D)
            h, det = ice_malicious_learner(S, inst, r.split(3))
            ok = (not det["flagged"]) and det["selected_key"] == c.key
            recovered[arm] += ok
            records.append({"arm": arm, "trial": t, "recovered": bool(ok)})

    vulnerable = 0
    post_ok = 0
    for t in range(trials):
        r = rng.split(3, t)
        c = inst.random_concept(r.split(0))
        S_clean = draw_clean_sample(D, c, ip.n, r.split(1))
        S_corr, ledger = nasty_corrupt(
            S_clean, ip.kappa * ip.eta, idealized, r.split(2), c=c, D=D
        )
        rec = {"arm": "idealized", "trial": t, "vulnerable": not ledger.flagged}
        if not ledger.flagged:
            vulnerable += 1
            survivors = S_corr.take(ice_filter_keep(S_corr))
            key_mask = S_clean.points < ip.key_size
            odd_blocks = int(np.sum(ip.layout.block_counts(S_clean.points) % 2 == 1))
            no_key_survivors = bool(np.all(survivors.points >= ip.key_size))
            expected = int((~key_mask).sum()) + odd_blocks
            pattern_ok = no_key_survivors and len(survivors) == expected
            post_ok += pattern_ok
            rec["survivor_pattern_ok"] = pattern_ok
        records.append(rec)

    rate_noiseless = recovered["noiseless"] / trials
    rate_lownoise = recovered["low-noise"] / trials
    return (
        records,
        {
            "recovery_rate_noiseless": rate_noiseless,
            "recovery_rate_low_noise": rate_lownoise,
            "vulnerable_trials": vulnerable,
            "survivor_pattern_ok": post_ok,
        },
        {
            "noiseless_recovery": rate_noiseless >= 0.95,
            "low_noise_recovery": rate_lownoise >= 0.95,
            "idealized_survivor_pattern": post_ok == vulnerable,
        },
    )


# --------------------------------------------------------------------------
# Reduction pipeline demos
# --------------------------------------------------------------------------


@_register("reduction-demos", domain=16, eta=0.1, huber_eta=0.3, m=400)
def reduction_pipeline_demo(
    trials: int, rng: RngHandle, domain: int, eta: float, huber_eta: float, m: int
) -> Outcome:
    """Two exact reduction demonstrations.

    (a) Any Huber contamination is realizable by a malicious adversary whose
    corrupted draws come from the outlier distribution: both per-example
    marginals over labeled examples are computed exactly and compared in
    total variation.

    (b) A fixed-rate adversary tracking a standard budget-first adversary
    (same corruptions, no-op padding) differs from it only when the drawn
    budget exceeds the fixed count; the measured mean positional difference
    is compared against sqrt(m) + 1.
    """
    if domain > 64:
        raise ValueError("exact marginal comparison needs a domain of <= 64 points")

    gen = rng.split(0).generator()
    table = gen.choice((-1, 1), size=domain).astype(np.int8)
    c = TableHypothesis(table)
    D = DiscreteDistribution.uniform(domain)
    raw = gen.random(2 * domain)
    outliers = DiscreteDistribution(raw / raw.sum())

    # Huber marginal over labeled-example indices, from the model definition.
    huber_marginal = np.zeros(2 * domain)
    for x in range(domain):
        huber_marginal[labeled_index(x, int(table[x]))] += (1 - huber_eta) * D.weight(x)
    huber_marginal += huber_eta * outliers.weights

    # The malicious realization: per position, the eta-coin decides between a
    # clean draw and the strategy's outlier draw — assembled independently.
    malicious_marginal = huber_eta * outliers.weights.copy()
    clean_part = np.zeros(2 * domain)
    for x in range(domain):
        clean_part[labeled_index(x, int(table[x]))] = D.weight(x)
    malicious_marginal += (1 - huber_eta) * clean_part
    huber_tv = tv_distance(
        DiscreteDistribution(huber_marginal), DiscreteDistribution(malicious_marginal)
    )

    # Monte-Carlo sanity: one huber_sample draw exercises the sampler path.
    _ = huber_sample(D, c, huber_eta, outliers, 100, rng.split(1))

    k0 = math.floor(eta * m)
    records = []
    diffs = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        r = rng.split(2, t)
        S_clean = draw_clean_sample(D, c, m, r.split(0))
        S_n, ledger = nasty_corrupt(S_clean, eta, flip_first_z_labels, r.split(1), c=c, D=D)
        z = ledger.budget

        def tracker(S: Sample, k: int, c_=None, D_=None, trng=None) -> StrategyResult:
            j = min(z, k)
            # No-op padding after the first j flips keeps the count at exactly k.
            labs = np.concatenate([-S.labels[:j], S.labels[j:k]])
            return StrategyResult(np.arange(k), Sample(S.points[:k], labs))

        S_f, _ = fixed_rate_nasty_corrupt(S_clean, eta, tracker, r.split(2))
        diff = int(np.sum((S_n.points != S_f.points) | (S_n.labels != S_f.labels)))
        diffs[t] = diff
        records.append({"trial": t, "budget": z, "positional_diff": diff})

    mean_diff = float(diffs.mean())
    bound = math.sqrt(m) + 1
    return (
        records,
        {
            "huber_marginal_tv": huber_tv,
            "mean_positional_diff": mean_diff,
            "positional_diff_bound": bound,
        },
        {
            "huber_as_malicious_exact": huber_tv <= 1e-12,
            "fixed_rate_tracks_standard": mean_diff <= bound,
        },
    )
