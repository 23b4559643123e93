"""Golden reports: every scenario at a small size, byte for byte.

Each case reruns one scenario at its acceptance seed with a reduced trial
count and compares the written ``<scenario>_trials.csv`` and
``<scenario>_aggregate.json`` against the fixtures in ``tests/golden/``.
A refactor that keeps behaviour keeps these files identical.

Regenerate the fixtures, and the acceptance-size pins of
``tests/test_acceptance.py`` (only for a change that is meant to alter
reports): ``PYTHONPATH=src python tests/test_golden.py``.
"""

from pathlib import Path

import pytest

from noisylab.bench import ExperimentConfig, run_scenario, write_report

GOLDEN = Path(__file__).parent / "golden"

# (scenario, params, trials, seed): acceptance seeds and parameters, small sizes.
CASES = [
    ("ice-filter-unit", {"max_len": 6, "domain_points": 3}, 5, 0),
    ("nasty-budget-law", {"n": 100, "eta": 0.2}, 20, 1),
    ("amplify-concentration", {"eps": 0.2, "k": 64, "eta": 0.2}, 5, 2),
    ("badamplify", {"eps": 0.3, "eta": 0.25, "n": 60, "k": 10, "n_test": 40}, 5, 3),
    ("codes-suite", {"codes": 1, "w": 8, "rho": 0.5, "max_erasures": 3,
                     "bitflip_codes": 2, "low_weight_codes": 2}, 1, 4),
    ("sep-learner", {}, 3, 5),
    ("sep-adversary", {"sim_trials": 20, "sim_n": 500}, 4, 6),
    ("round-lemma", {"kappa": 0.6, "w": 200}, 5, 7),
    ("ice-coupling", {}, 5, 8),
    ("ice-learner", {}, 3, 9),
    ("reduction-demos", {"m": 400, "eta": 0.1}, 5, 10),
]


def _write(case, out_dir: Path) -> tuple[Path, Path]:
    scenario, params, trials, seed = case
    report = run_scenario(
        ExperimentConfig(scenario=scenario, params=params, trials=trials, seed=seed)
    )
    return write_report(report, out_dir)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(case, tmp_path):
    for path in _write(case, tmp_path):
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


def test_every_scenario_has_a_case():
    from noisylab.bench import scenario_names

    assert sorted(c[0] for c in CASES) == scenario_names()


if __name__ == "__main__":
    from test_acceptance import write_pins

    for case in CASES:
        _write(case, GOLDEN)
    write_pins()
