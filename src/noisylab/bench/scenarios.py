"""Experiment scenarios: one per acceptance-style statistical verdict.

Each scenario is a deterministic function of (trials, rng, params) returning
its per-trial records, aggregate statistics, and boolean verdicts;
:func:`run_scenario` wraps them in a :class:`TrialReport`. A scenario
declares its parameters once, as the defaults it is registered with: a config
may set only those, and each given value is cast to its default's type and
must equal its cast (``200.0`` may set an int, ``200.7`` may not). Every
parameter is registered as ``(default, interval)``, the interval written as in
mathematics (``"(0, 1)"``, ``"[1, inf)"``); :func:`run_scenario` rejects a
value outside it before the scenario starts, so a degenerate size or a rate
outside the paper's range is one error, not a hang or a vacuous pass. A
parameter that sets a field of a parameter pack (``SepParams``,
``IceSepParams``) takes its interval from that field, where the pack declares
and checks it; only its default is written here. A constraint that links two
parameters is checked where they meet.
Statistical verdicts use 99% two-sided binomial confidence intervals and
chi-square tests at significance 1e-3 unless a scenario documents otherwise;
both significance knobs are parameters.

``scipy.stats`` is imported inside the two chi-square helpers
(``chisquare_vs_binomial``, ``two_sample_chi2``), not here: it is most of the
package's import time, and only nasty-budget-law and sep-adversary need it.
``binom_ci`` is a closed form and loads no scipy.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .._kernels import MAX_TABLE_ROWS
from ..codes import (
    MAX_WORD_BITS,
    Codeword,
    GeneratorMatrix,
    ReceivedWord,
    bitflip_list_decode,
    erasure_list_decode_many,
    gen_random_linear_code,
    low_weight_codewords,
    masks_to_signs,
)
from ..core import (
    DiscreteDistribution,
    RngHandle,
    Sample,
    TableHypothesis,
    _as_number,
    _check_intervals,
    _within,
    draw_clean_sample,
    error_rate,
    labeled_index,
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
    malicious_corrupt,
    nasty_corrupt,
    noop,
    strong_malicious_corrupt,
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

_SCENARIOS: dict[str, tuple[Callable[..., Outcome], dict, dict[str, str]]] = {}


def _register(name: str, **declared: tuple[int | float, str]):
    """Register a scenario under ``name``; ``declared`` are all its parameters,
    each a ``(default, interval)`` pair whose default lies in the interval."""
    defaults = {key: default for key, (default, _) in declared.items()}
    intervals = {key: interval for key, (_, interval) in declared.items()}

    def deco(fn):
        _SCENARIOS[name] = (fn, defaults, intervals)
        return fn

    return deco


def _pack_params(pack: type, **defaults: int | float) -> dict[str, tuple[int | float, str]]:
    """The ``(default, interval)`` pairs of parameters that set fields of the
    parameter pack ``pack``, each interval read from its field's metadata."""
    declared = {f.name: f.metadata for f in fields(pack)}
    return {key: (default, declared[key]["interval"]) for key, default in defaults.items()}


def scenario_names() -> list[str]:
    return sorted(_SCENARIOS)


@dataclass(frozen=True)
class ExperimentConfig:
    """A named scenario plus its parameters, trial count, and master seed."""

    scenario: str
    params: dict = field(default_factory=dict)
    trials: int = field(default=1, metadata={"interval": "[1, inf)"})
    seed: int = field(default=0, metadata={"interval": "[0, inf)"})
    out: str | None = None

    def __post_init__(self) -> None:
        _check_intervals(self)
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a directory path string, got {self.out!r}")
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
    fn, defaults, intervals = _SCENARIOS[config.scenario]
    params = dict(defaults)
    for key, value in config.params.items():
        # A value must equal its cast, so the echoed config describes the run;
        # a JSON boolean or infinity is no number.
        kind = type(defaults[key])
        try:
            cast = params[key] = kind(_as_number(value, key))
            if cast != value or abs(cast) == math.inf:
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            noun = "an integer" if kind is int else "a finite number"
            raise ValueError(f"param {key!r} must be {noun}, got {value!r}") from None
        _within(value, intervals[key], key)
    records, aggregate, verdicts = fn(config.trials, RngHandle(config.seed), **params)
    echo = {key: getattr(config, key) for key in ("scenario", "params", "trials", "seed")}
    return TrialReport(config.scenario, echo, records, aggregate, verdicts)


# --------------------------------------------------------------------------
# Statistics helpers
# --------------------------------------------------------------------------


# ndtri(0.995), the two-sided 99% normal quantile, as scipy computes it;
# statistics.NormalDist().inv_cdf(0.995) is one ulp off.
_Z99 = np.float64(2.5758293035489004)


def binom_ci(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided 99% Wilson confidence interval for a binomial proportion.

    The closed form of Newcombe (1998) in the operation order and types of
    scipy's ``binomtest(successes, trials).proportion_ci(0.99, "wilson")``,
    so both give the same floats, without loading ``scipy.stats``."""
    z = _Z99
    p = successes / trials
    denom = 2 * (trials + z**2)
    center = (2 * trials * p + z**2) / denom
    delta = z / denom * math.sqrt(4 * trials * p * (1 - p) + z**2)
    low = 0.0 if successes == 0 else center - delta
    high = 1.0 if successes == trials else center + delta
    return float(low), float(high)


def chisquare_vs_binomial(values: np.ndarray, n: int, p: float) -> float:
    """Goodness-of-fit p-value of observed draws against Bin(n, p), pooling
    adjacent support bins until every expected count reaches 5.

    Too few draws to leave two pooled bins is a :class:`ValueError`: the test
    would have no degree of freedom."""
    from scipy import stats

    trials = values.size
    observed = np.bincount(values, minlength=n + 1).astype(float)
    expected = trials * stats.binom.pmf(np.arange(n + 1), n, p)
    obs_pooled, exp_pooled = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_pooled.append(acc_o)
            exp_pooled.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        if exp_pooled:
            obs_pooled[-1] += acc_o
            exp_pooled[-1] += acc_e
        else:
            obs_pooled, exp_pooled = [acc_o], [acc_e]
    if len(exp_pooled) < 2:
        raise ValueError(
            f"{trials} trials pool Bin({n}, {p}) into fewer than 2 bins of expected "
            f"count >= 5.0; the chi-square test needs 2"
        )
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


# ice-filter-unit enumerates all samples of one length at once, one row each;
# the reference 6^6 rows need about 80 MB, this many about 160 MB.
_FILTER_UNIT_ROWS = 1 << 16


@_register("ice-filter-unit", max_len=(6, "[1, inf)"), domain_points=(3, "[1, inf)"))
def _scenario_ice_filter_unit(
    trials: int, rng: RngHandle, max_len: int, domain_points: int
) -> Outcome:
    """Exhaustive filter properties over all samples of length <= max_len on a
    small domain: idempotence, contradiction-freeness, even cardinality drop,
    permutation invariance, and agreement with the net-count oracle."""
    n_types = 2 * domain_points
    # The exponent is capped first (n_types**64 is over the limit), so a huge
    # max_len costs nothing to reject.
    if n_types ** min(max_len, 64) > _FILTER_UNIT_ROWS:
        raise ValueError(
            f"(2*domain_points)^max_len = {n_types}^{max_len} samples of the longest "
            f"length exceed the limit of {_FILTER_UNIT_ROWS} rows"
        )
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
        cell = labeled_index(out.points, out.labels)
        counts = np.bincount(cell, minlength=N * n_types).reshape(N, domain_points, 2)
        surv = np.bincount(out.points // domain_points, minlength=N)
        return counts, out, surv

    all_ok = {
        "idempotent": True,
        "no_contradiction": True,
        "even_drop": True,
        "permutation_invariant": True,
        # The empty sample's canonical form is empty.
        "canonical_match": len(ice_filter(Sample.empty())) == 0,
    }
    total = 1  # the empty sample

    for L in range(1, max_len + 1):
        N = n_types**L
        total += N
        idx = np.arange(N)
        digits = np.stack([(idx // n_types**j) % n_types for j in range(L)], axis=1)
        counts, out, surv = batch_counts(digits)

        # Input net counts drive the canonical-form oracle.
        pts_in = digits // 2 + np.arange(N)[:, None] * domain_points
        labels_in = np.where(digits % 2 == 0, 1, -1)
        cell_in = labeled_index(pts_in, labels_in).ravel()
        counts_in = np.bincount(cell_in, minlength=N * n_types).reshape(N, domain_points, 2)
        net = counts_in[:, :, 0] - counts_in[:, :, 1]
        canonical = np.array_equal(counts[:, :, 0], np.maximum(net, 0)) and np.array_equal(
            counts[:, :, 1], np.maximum(-net, 0)
        )

        no_contra = bool(np.all((counts[:, :, 0] == 0) | (counts[:, :, 1] == 0)))
        even = bool(np.all((L - surv) % 2 == 0))
        keep2 = ice_filter_keep(out)
        idem = keep2.size == len(out) and bool(np.all(keep2 == np.arange(len(out))))
        # A rotation also catches adjacent-pair cancellation, which reversal preserves.
        counts_rev, _, _ = batch_counts(digits[:, ::-1])
        counts_rot, _, _ = batch_counts(np.roll(digits, 1, axis=1))
        perm = np.array_equal(counts, counts_rev) and np.array_equal(counts, counts_rot)

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


@_register(
    "nasty-budget-law", n=(100, "[1, inf)"), eta=(0.2, "(0, 1)"), significance=(1e-3, "(0, 1)")
)
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


@_register(
    "amplify-concentration",
    eps=(0.2, "[0, 1)"), k=(64, "[1, inf)"), eta=(0.2, "[0, 1)"), n_group=(1, "[1, inf)"),
)
def _scenario_amplify_concentration(
    trials: int, rng: RngHandle, eps: float, k: int, eta: float, n_group: int
) -> Outcome:
    """A crafted base learner with error exactly 1 w.p. eps (0 otherwise)
    trained on nasty-corrupted groups; the summed group errors must stay
    under eps*k + 3*sqrt(k*ln 20) in at least 95% of trials. The learner
    ignores its sample, so ``concentration`` checks the coin derivation and the
    group count, not the noise: labels flipped at rate 0.99 pass too."""
    threshold = eps * k + 3 * math.sqrt(k * math.log(20))

    D = DiscreteDistribution.uniform(2)
    c = TableHypothesis.constant(1, 2)

    wrong = TableHypothesis.constant(-1, 2)

    def train(points: np.ndarray, labels: np.ndarray, trng: RngHandle) -> list[TableHypothesis]:
        heads = trng.generator().random(len(points)) < 1 - eps
        return [c if h else wrong for h in heads]

    A = Learner(n=n_group, train=train)
    records = []
    exceed = 0
    for t in range(trials):
        r = rng.split(t)
        S_clean = draw_clean_sample(D, c, n_group * k, r.split(0))
        S_corr, _ = nasty_corrupt(S_clean, eta, flip_random_labels, r.split(1), c=c)
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


@_register(
    "badamplify", eps=(0.3, "[0, 1)"), eta=(0.25, "[0.01, 0.49]"),
    n=(60, "[1, inf)"), k=(10, "[1, inf)"), n_test=(40, "[1, inf)"),
)
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
    first subset point in its sample (``-b`` elsewhere); a ``train`` call
    draws these coins as one uniform per group from the handle it is handed.
    The nasty adversary spends its whole drawn budget (``Bin(nk + n_test,
    eta)`` positions, so each shuffled group of ``n`` sees ``Bin(n, eta)``
    corruptions) replacing examples with one subset point that encodes every
    small-domain point appearing in the holdout arm's clean sample.

    Holdout selection over ``k`` groups then prefers high-error hypotheses
    (their encoded subset covers the holdout). The uniform-mixture arm runs
    the same base learner and adversary on its own ``n * amp.k`` sample, with
    ``amp = AmplifyParams.auto(0.1, 0.01)``: enough groups for amplification's
    guarantee, mixture error at most ``eps + amp.eps_additional`` with
    probability at least ``1 - amp.delta``, which its verdict checks.
    """
    amp = AmplifyParams.auto(eps_additional=0.1, delta=0.01)
    amp_threshold = eps + amp.eps_additional
    m_total = n * k + n_test
    M = 100 * m_total
    XL = M  # index of the one materialized subset point
    D = DiscreteDistribution.uniform(M)
    c = TableHypothesis.constant(1, M + 1)

    def adversary(S, budget, c_, srng):
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
        in_appear = np.zeros(M + 1, dtype=bool)
        in_appear[clean_pts] = True
        appear_frac = int(np.count_nonzero(in_appear)) / M
        in_appear[XL] = True

        S_corr, _ = nasty_corrupt(S_clean, eta, adversary, r.split(1))

        signs = in_appear.view(np.int8) * 2 - 1
        subset = {1: TableHypothesis(signs), -1: TableHypothesis(-signs)}
        subset[1].exact_error = 1.0 - appear_frac
        subset[-1].exact_error = appear_frac

        def train(points: np.ndarray, labels: np.ndarray, trng: RngHandle) -> list[TableHypothesis]:
            heads = (trng.generator().random(len(points)) < 1 - eps).tolist()
            majority = np.where(labels.sum(axis=1) >= 0, 1, -1).tolist()
            has_subset = (points >= M).any(axis=1).tolist()
            return [
                constant[b] if h else subset[b] if s else constant[-b]
                for b, h, s in zip(majority, heads, has_subset)
            ]

        A = Learner(n=n, train=train)
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


# codes-suite sorts the punctured codewords of at most this many (pattern,
# message) pairs at once, and always at least one pattern.
_ERASURE_BLOCK_ENTRIES = 1 << 16
# It hands the decoder at most this many words per call, which bounds the
# decoder's (words, reduced rows) and (words, solutions) temporaries.
_ERASURE_CHUNK_WORDS = 1 << 10
# It refuses more erasure patterns than this per code: their list is built in
# Python, one pattern at a time, before any check runs.
_ERASURE_PATTERNS = 1 << 16
# And more (pattern, message) pairs than this over all its codes, the work of
# its erasure check. At w = 22 and up to 3 erasures (3,674,112 pairs) one code
# takes about a second on a 2-CPU host; w = 28 (60 million) takes about 20.
# The acceptance run, 50 codes at w = 12, checks 956,800 pairs.
_ERASURE_PAIRS = 1 << 22
# And codes of more than 2^k * k message bits, k = round(rho*w): the low-weight
# oracle builds that (2^k, k) uint64 table per code (_xor_codewords). One code
# at k = 18 peaked at about 129 MB; the acceptance run has k = 6.
_ORACLE_BITS = 1 << 19


def _xor_codewords(G: GeneratorMatrix) -> np.ndarray:
    """Every message's codeword mask, indexed by message int: the XOR of the
    rows its set bits select, in one pass over the message bits. The oracles
    build it apart from the code's own codeword table."""
    rows = np.array(G.row_masks, dtype=np.uint64)
    place = np.arange(rows.size, dtype=np.uint64)
    bits = (np.arange(1 << rows.size, dtype=np.uint64)[:, None] >> place) & np.uint64(1)
    return np.bitwise_xor.reduce(bits * rows, axis=1)


@_register(
    "codes-suite",
    codes=(50, "[1, inf)"), w=(12, f"[1, {MAX_WORD_BITS}]"), rho=(0.5, "(0, 1)"),
    max_erasures=(3, "[0, inf)"), bitflip_codes=(20, "[1, inf)"), low_weight_codes=(20, "[1, inf)"),
)
def _scenario_codes_suite(
    trials: int, rng: RngHandle, codes: int, w: int, rho: float,
    max_erasures: int, bitflip_codes: int, low_weight_codes: int,
) -> Outcome:
    k = round(rho * w)
    if k > MAX_TABLE_ROWS:
        raise ValueError(
            f"rho*w = {rho * w:g} exceeds {MAX_TABLE_ROWS} rows: the checks "
            "enumerate all 2^(rho*w) messages"
        )
    if k << k > _ORACLE_BITS:
        raise ValueError(
            f"rho*w = {k} rows give 2^{k} messages of {k} bits = {k << k} message bits "
            f"per code, over the limit of {_ORACLE_BITS}"
        )
    sizes = range(min(max_erasures, w) + 1)
    n_patterns = sum(math.comb(w, size) for size in sizes)
    if n_patterns > _ERASURE_PATTERNS:
        raise ValueError(
            f"{n_patterns} erasure patterns of at most {max_erasures} of {w} positions "
            f"exceed the limit of {_ERASURE_PATTERNS}"
        )
    pairs = codes * n_patterns << k
    if pairs > _ERASURE_PAIRS:
        raise ValueError(
            f"{codes} codes times {n_patterns} erasure patterns times 2^{k} messages = {pairs} "
            f"(pattern, message) pairs exceed the limit of {_ERASURE_PAIRS}"
        )
    records = []

    # Erasure round trips: for every pattern, group messages by their
    # punctured codeword (the oracle path) and check that the decoded sets
    # equal the groups exactly, one decode per distinct word. One stable sort
    # per block of patterns groups them all: row p of ``order`` lists the
    # messages by punctured word, ascending within a word, and a pattern whose
    # groups are not all of one size (cosets of a linear code are) counts its
    # words and fails without a decode. The words of every pattern whose
    # groups have size s = 2^f are decoded together, each under its own
    # pattern, a chunk of words per call; row g of a chunk's groups lists the
    # messages of its word g in ascending order.
    erased = np.array(
        [sum(1 << j for j in p) for size in sizes for p in itertools.combinations(range(w), size)],
        dtype=np.uint64,
    )
    visible = erased ^ np.uint64((1 << w) - 1)
    per_block = max(1, _ERASURE_BLOCK_ENTRIES >> k)
    messages = np.arange(1 << k)
    roundtrip_ok = True
    decodes = 0
    for ci in range(codes):
        G = gen_random_linear_code(rho, w, rng.split(0, ci))
        for start in range(0, erased.size, per_block):
            punctured = G.codeword_masks & visible[start : start + per_block, None]
            order = np.argsort(punctured, axis=1, kind="stable")
            ordered = np.take_along_axis(punctured, order, axis=1)
            first = np.ones(ordered.shape, dtype=bool)  # first message of its word
            first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
            n_words = first.sum(axis=1)
            decodes += int(n_words.sum())
            group_size = messages.size // n_words
            equal = (group_size * n_words == messages.size) & (
                first == (messages % group_size[:, None] == 0)
            ).all(axis=1)
            roundtrip_ok &= bool(equal.all())
            for s in sorted(set(group_size[equal].tolist())):
                ps = np.flatnonzero(equal & (group_size == s))
                words = ordered[ps, ::s].ravel()
                masks = np.repeat(erased[start + ps], messages.size // s)
                groups = order[ps].reshape(-1, s)
                for lo in range(0, words.size, _ERASURE_CHUNK_WORDS):
                    chunk = slice(lo, lo + _ERASURE_CHUNK_WORDS)
                    consistent, decoded = erasure_list_decode_many(
                        G, masks[chunk], words[chunk], cap=1 << k
                    )
                    if not (consistent.all() and np.array_equal(decoded, groups[chunk])):
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
        words = masks_to_signs(_xor_codewords(G), wb)
        oracle = np.flatnonzero((words != target).sum(axis=1) <= radius).tolist()
        if got != oracle:
            bitflip_ok = False
    records.append({"check": "bitflip-oracle", "ok": bitflip_ok})

    # Low-weight extraction against a second enumeration path.
    low_ok = True
    for ci in range(low_weight_codes):
        G = gen_random_linear_code(rho, w, rng.split(2, ci))
        bound = int(rng.split(3, ci).generator().integers(0, w // 2 + 1))
        got = low_weight_codewords(G, bound)
        codewords = _xor_codewords(G)
        picked = np.flatnonzero(np.bitwise_count(codewords) <= bound)
        low = [Codeword(int(codewords[m]), m, w) for m in picked.tolist()]
        # Ordered by the words read as bit lists (-1 as 1), position 0 first.
        ones = (masks_to_signs(codewords[picked], w) == -1).tolist()
        oracle_list = [cw for _, cw in sorted(zip(ones, low), key=lambda pair: pair[0])]
        if got != oracle_list:
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


# The SepParams arguments both separation scenarios take.
_SEP_DEFAULTS = _pack_params(
    SepParams, eta_N=0.25, eta_M=0.05, kappa=0.5, rho=0.5, tau=0.15, w=24, d=12, u=8, n=50000
)


# Multiplicative slack on sep-learner's two asymptotic bounds (error and
# erased key bits) at desk scale.
_SLACK = 1.25


@_register("sep-learner", **_SEP_DEFAULTS)
def _scenario_sep_learner(trials: int, rng: RngHandle, **sep) -> Outcome:
    sp = SepParams(**sep)
    inst = SepInstance.generate(sp, rng.split(0))
    D = inst.distribution()
    strategy = sep_key_erasure_strategy(inst)
    err_bound = 4 * sp.eta_M * _SLACK + 0.05
    q_bound = _SLACK * sp.eta_M / (float(sp.kappa) * (1 - sp.eta_M)) * sp.w

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
            S_clean, sp.eta_M, strategy, r.split(2), c=c
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


@_register(
    "sep-adversary", **_SEP_DEFAULTS,
    significance=(1e-3, "(0, 1)"), sim_trials=(2000, "[1, inf)"), sim_n=(500, "[1, inf)"),
)
def _scenario_sep_adversary(
    trials: int, rng: RngHandle, significance: float, sim_trials: int, sim_n: int, **sep
) -> Outcome:
    sp = SepParams(**sep)
    inst = SepInstance.generate(sp, rng.split(0))
    D = inst.distribution()
    strategy = sep_nasty_strategy(inst)

    # Two concept indices with nonzero codeword weight (index 0 is the
    # weight-0 all-+1 codeword, which never triggers the adversary).
    nonzero = [p for p, cw in enumerate(inst.low_weight) if cw.weight > 0]
    if not nonzero:
        raise ValueError(
            f"the code has no nonzero codeword of weight <= eta_N*w = {sp.eta_N * sp.w:g}; "
            "raise eta_N or w"
        )
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
        S_corr, ledger = nasty_corrupt(S_clean, sp.eta_N, strategy, r.split(1), c=c)
        rec = {"trial": t, "p": p, "exhausted": bool(ledger.flagged)}
        if not ledger.flagged:
            non_exhausted += 1
            key_mask = S_corr.points < sp.layout.key_size
            all_plus = bool(np.all(S_corr.labels[key_mask] == 1))
            all_plus_count += all_plus
            rec["key_all_plus"] = all_plus
            block_counts[p] += sp.layout.block_counts(S_corr.points)
        records.append(rec)
    independence_p = two_sample_chi2(block_counts[p_a], block_counts[p_b])

    # Distribution match of the simulation against the real corrupted sample.
    sp_sim = SepParams(**{**sep, "n": sim_n})
    inst_sim = SepInstance(sp_sim, inst.G)
    c_sim = inst_sim.concept(p_a, 0)
    D_sim = inst_sim.distribution()
    strategy_sim = sep_nasty_strategy(inst_sim)
    cat_real = np.zeros(sp.w + 1, dtype=np.int64)
    cat_sim = np.zeros(sp.w + 1, dtype=np.int64)
    lab_real = np.zeros(2, dtype=np.int64)
    lab_sim = np.zeros(2, dtype=np.int64)
    sim_skipped = 0
    for t in range(sim_trials):
        r = rng.split(2, t)
        S_clean = draw_clean_sample(D_sim, c_sim, sim_n, r.split(0))
        S_real, ledger = nasty_corrupt(S_clean, sp.eta_N, strategy_sim, r.split(1), c=c_sim)
        if ledger.flagged:
            sim_skipped += 1
            continue
        vpts = r.split(2).generator().integers(
            sp_sim.layout.key_size, sp_sim.layout.domain_size, size=sim_n, dtype=np.int64
        )
        T_value = Sample(vpts, c_sim.evaluate_many(vpts))
        S_sim = sep_simulate_T_nasty(T_value, inst_sim, r.split(3))
        for S, cat, lab in ((S_real, cat_real, lab_real), (S_sim, cat_sim, lab_sim)):
            key = S.points < sp_sim.layout.key_size
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


@_register("round-lemma", kappa=(0.6, "(0, 1)"), w=(200, "[1, inf)"))
def _scenario_round_lemma(trials: int, rng: RngHandle, kappa: float, w: int) -> Outcome:
    """Rounding v, within L1 distance (1-kappa)w of a ±1 u, lands within
    Hamming distance (1/2)(1 - kappa/2)w of u in >= 99% of trials. The budget
    is spread over all coordinates, so few cross zero: ``rounding_bound`` also
    holds for deterministic sign rounding; a negated rounding fails it."""
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


@_register(
    "ice-coupling", domain=(20, "[1, inf)"), n=(40, "[1, inf)"), eta=(0.3, "[0, 1)"),
    filler_point=(0, "[0, inf)"),
)
def _scenario_ice_coupling(
    trials: int, rng: RngHandle, domain: int, n: int, eta: float, filler_point: int
) -> Outcome:
    if filler_point >= domain:
        raise ValueError(f"filler_point must be < domain = {domain}, got {filler_point}")

    def inner(S: Sample, z: int, c, srng: RngHandle) -> StrategyResult:
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
        S_strong, ledger = strong_malicious_corrupt(S_clean, eta, strong, r.split(2), c=c)

        # Rebuild the simulated nasty output independently (same derived rng).
        Z = ledger.coin_set
        m = len(Z)
        half = m // 2
        mask = np.ones(n, dtype=bool)
        mask[Z[: 2 * half]] = False
        S_inner = S_clean.take(np.flatnonzero(mask))
        res = inner(S_inner, half, c, r.split(2, 1, 0))
        S_nasty = S_inner.replace_at(res.positions, res.introduced)

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


@_register(
    "ice-learner",
    **_pack_params(IceSepParams, eta=0.05, kappa=0.7, w=20, d=10, n=20000, L=1024),
)
def _scenario_ice_learner(trials: int, rng: RngHandle, **params) -> Outcome:
    ip = IceSepParams(**params)
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
                S, _ = strong_malicious_corrupt(S, ip.eta, contradict_replaced, r.split(2), c=c)
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
            S_clean, ip.kappa * ip.eta, idealized, r.split(2), c=c
        )
        rec = {"arm": "idealized", "trial": t, "vulnerable": not ledger.flagged}
        if not ledger.flagged:
            vulnerable += 1
            # The filter keeps |net| copies of each point: the survivors are
            # read from the net counts without building them.
            plus, minus = ip.layout.point_counts(S_corr)
            net = plus - minus
            key_mask = S_clean.points < ip.layout.key_size
            odd_blocks = int(np.sum(ip.layout.block_counts(S_clean.points) % 2 == 1))
            no_key_survivors = not net[: ip.layout.key_size].any()
            expected = int((~key_mask).sum()) + odd_blocks
            pattern_ok = no_key_survivors and int(np.abs(net).sum()) == expected
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


# The coupling was checked on random domains of 1 to 64 points; nothing needs the bound itself.
@_register(
    "reduction-demos", domain=(16, "[1, 64]"), eta=(0.1, "[0, 1)"), huber_eta=(0.3, "[0, 1)"),
    m=(400, "[1, inf)"),
)
def reduction_pipeline_demo(
    trials: int, rng: RngHandle, domain: int, eta: float, huber_eta: float, m: int
) -> Outcome:
    """Two exact reduction demonstrations.

    (a) Huber contamination is malicious noise whose adversary draws from the
    outlier distribution, by exact coupling: on one handle, ``malicious_corrupt``
    with an adversary replaying the outlier draws gives ``huber_sample``'s ``m``
    examples bit for bit (both take coins, clean sample and outliers from
    splits 0, 1 and 2). ``huber_outliers`` counts the positions it wrote.

    (b) A fixed-rate adversary tracking a standard budget-first adversary
    (same corruptions, no-op padding) differs from it only when the drawn
    budget exceeds the fixed count; the measured mean positional difference
    is compared against sqrt(m) + 1.
    """
    gen = rng.split(0).generator()
    table = gen.choice((-1, 1), size=domain).astype(np.int8)
    c = TableHypothesis(table)
    D = DiscreteDistribution.uniform(domain)
    raw = gen.random(2 * domain)
    outliers = DiscreteDistribution(raw / raw.sum())

    h = rng.split(1)
    S_huber = huber_sample(D, c, huber_eta, outliers, m, h)
    replayed = iter(outliers.sample_points(m, h.split(2)).tolist())

    def replay(i: int, prefix: Sample, c_, trng) -> tuple[int, int]:
        x = next(replayed)  # the j-th call's x is the j-th outlier's labeled index
        return x // 2, -1 if x % 2 else 1

    S_malicious, replayed_ledger = malicious_corrupt(D, c, m, huber_eta, replay, h)

    records = []
    diffs = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        r = rng.split(2, t)
        S_clean = draw_clean_sample(D, c, m, r.split(0))
        S_n, ledger = nasty_corrupt(S_clean, eta, flip_first_z_labels, r.split(1), c=c)
        z = ledger.budget

        def tracker(S: Sample, k: int, c_, trng) -> StrategyResult:
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
            "huber_outliers": replayed_ledger.budget,
            "mean_positional_diff": mean_diff,
            "positional_diff_bound": bound,
        },
        {
            "huber_as_malicious_exact": S_huber == S_malicious,
            "fixed_rate_tracks_standard": mean_diff <= bound,
        },
    )
