"""Learning under adversarial example noise: models, reductions, separations.

Modules:
  core       — samples, distributions, hypotheses, seeded RNG handles
  noise      — corruption processes (online/strong/budgeted/fixed-rate/Huber)
  learn      — learners, contradiction filter, amplification, selection
  codes      — binary linear codes with erasure and bit-flip list decoding
  cryptoprim — PRF truth tables and a Toeplitz bit extractor
  sep        — key/value concept class separating two noise models
  icesep     — contradiction-filter variant of the separation
  bench      — experiment scenarios, reports, and the CLI
"""

from .core import (
    DiscreteDistribution,
    FunctionHypothesis,
    Hypothesis,
    LabeledExample,
    MixtureHypothesis,
    RngHandle,
    Sample,
    TableHypothesis,
    complement,
    draw_clean_sample,
    empirical_error,
    error_rate,
    labeled_index,
    labeled_pair,
)

__version__ = "0.1.0"

__all__ = [
    "DiscreteDistribution",
    "FunctionHypothesis",
    "Hypothesis",
    "LabeledExample",
    "MixtureHypothesis",
    "RngHandle",
    "Sample",
    "TableHypothesis",
    "complement",
    "draw_clean_sample",
    "empirical_error",
    "error_rate",
    "labeled_index",
    "labeled_pair",
    "__version__",
]
