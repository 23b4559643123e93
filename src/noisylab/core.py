"""Domains, distributions, samples, hypotheses, error metrics, and seeded RNG.

Conventions used throughout the package:

- Domains are finite index ranges ``{0, ..., size-1}``.
- Labels are signs in ``{-1, +1}``.
- Every randomized operation takes an explicit :class:`RngHandle`; identical
  handles yield identical results, and distinct stream ids yield independent
  streams (counter-based Philox generators keyed through ``SeedSequence``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "LabeledExample",
    "Sample",
    "DiscreteDistribution",
    "RngHandle",
    "Hypothesis",
    "TableHypothesis",
    "FunctionHypothesis",
    "MixtureHypothesis",
    "complement",
    "labeled_index",
    "labeled_pair",
    "labeled_distribution",
    "error_rate",
    "draw_clean_sample",
    "empirical_error",
]

WEIGHT_TOLERANCE = 1e-12


@dataclass(frozen=True)
class RngHandle:
    """Deterministic, splittable randomness handle.

    ``(seed, stream)`` fully determine the draw sequence. :meth:`split`
    derives statistically independent child streams (e.g. one per trial or
    per group) without consuming state from the parent.
    """

    seed: int
    stream: int = 0
    path: tuple[int, ...] = field(default=())

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream, *self.path))
        return np.random.Generator(np.random.Philox(seq))

    def split(self, *ids: int) -> "RngHandle":
        return RngHandle(self.seed, self.stream, self.path + tuple(ids))


class LabeledExample(NamedTuple):
    """A ``(point, ±1 label)`` pair."""

    point: int
    label: int


def _as_sign_array(labels: Sequence[int] | np.ndarray) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.size and not (np.abs(arr) == 1).all():
        raise ValueError("labels must be ±1")
    return arr.astype(np.int8, copy=False)


def _frozen(arr: np.ndarray, given: object) -> np.ndarray:
    """``arr`` made read-only. When ``arr`` is the caller's own writeable
    array ``given``, a copy is frozen instead, so the caller's stays writeable."""
    if arr is given and arr.flags.writeable:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


class Sample:
    """An ordered multiset of labeled examples.

    Order is significant (adversaries corrupt by position) and duplicates are
    allowed. Backed by parallel numpy arrays for vectorized consumers.
    """

    __slots__ = ("points", "labels")

    def __init__(self, points: Sequence[int] | np.ndarray, labels: Sequence[int] | np.ndarray):
        pts = np.asarray(points, dtype=np.int64)
        labs = _as_sign_array(labels)
        if pts.shape != labs.shape or pts.ndim != 1:
            raise ValueError("points and labels must be 1-d arrays of equal length")
        if pts.size and pts.min() < 0:
            raise ValueError("negative domain point index")
        object.__setattr__(self, "points", _frozen(pts, points))
        object.__setattr__(self, "labels", _frozen(labs, labels))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Sample is immutable")

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[int, int]]) -> "Sample":
        if not pairs:
            return cls.empty()
        pts, labs = zip(*pairs)
        return cls(np.array(pts, dtype=np.int64), np.array(labs, dtype=np.int8))

    @classmethod
    def empty(cls) -> "Sample":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8))

    def __len__(self) -> int:
        return int(self.points.size)

    def __getitem__(self, i: int) -> LabeledExample:
        return LabeledExample(int(self.points[i]), int(self.labels[i]))

    def __iter__(self) -> Iterator[LabeledExample]:
        for p, l in zip(self.points.tolist(), self.labels.tolist()):
            yield LabeledExample(p, l)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sample):
            return NotImplemented
        return np.array_equal(self.points, other.points) and np.array_equal(
            self.labels, other.labels
        )

    def __hash__(self) -> int:  # pragma: no cover - identity-free value type
        return hash((self.points.tobytes(), self.labels.tobytes()))

    def __repr__(self) -> str:
        return f"Sample(n={len(self)})"

    def multiset(self) -> dict[tuple[int, int], int]:
        """Counts of each (point, label) pair, ignoring order."""
        out: dict[tuple[int, int], int] = {}
        for p, l in zip(self.points.tolist(), self.labels.tolist()):
            out[(p, l)] = out.get((p, l), 0) + 1
        return out

    def take(self, indices: np.ndarray) -> "Sample":
        return Sample(self.points[indices], self.labels[indices])

    def replace_at(self, indices: np.ndarray, points: np.ndarray, labels: np.ndarray) -> "Sample":
        """A copy with positions ``indices`` replaced by the given examples."""
        pts = self.points.copy()
        labs = self.labels.copy()
        pts[indices] = points
        labs[indices] = labels
        return Sample(pts, labs)

    def concat(self, other: "Sample") -> "Sample":
        return Sample(
            np.concatenate([self.points, other.points]),
            np.concatenate([self.labels, other.labels]),
        )


class DiscreteDistribution:
    """Explicit probability vector over a finite indexed domain."""

    __slots__ = ("weights",)

    def __init__(self, weights: Sequence[float] | np.ndarray):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d vector")
        if w.min() < 0:
            raise ValueError("weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_TOLERANCE:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_TOLERANCE}, got {total!r}")
        w = w / total  # exact renormalization inside tolerance
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DiscreteDistribution is immutable")

    @classmethod
    def uniform(cls, size: int) -> "DiscreteDistribution":
        return cls(np.full(size, 1.0 / size))

    @classmethod
    def point_mass(cls, index: int, size: int) -> "DiscreteDistribution":
        w = np.zeros(size)
        w[index] = 1.0
        return cls(w)

    def __len__(self) -> int:
        return int(self.weights.size)

    def weight(self, index: int) -> float:
        return float(self.weights[index])

    def sample_points(self, n: int, rng: RngHandle) -> np.ndarray:
        """``n`` i.i.d. point indices."""
        gen = rng.generator()
        if n == 0:
            return np.empty(0, dtype=np.int64)
        # Uniform fast path keeps large Monte-Carlo scenarios cheap.
        w = self.weights
        if np.all(w == w[0]):
            return gen.integers(0, w.size, size=n, dtype=np.int64)
        return gen.choice(w.size, size=n, p=w).astype(np.int64)


def labeled_index(point: int, label: int) -> int:
    """Index of a labeled example in the product space: 2*point + [label == -1]."""
    return 2 * point + (1 if label < 0 else 0)


def labeled_pair(index: int) -> LabeledExample:
    """Inverse of :func:`labeled_index`."""
    return LabeledExample(index // 2, -1 if index % 2 else +1)


class Hypothesis:
    """Evaluable ±1 function on domain points, possibly a uniform mixture.

    Deterministic hypotheses implement :meth:`evaluate_many`; mixtures
    additionally average their components exactly via
    :meth:`disagreement_prob`.
    """

    domain_size: int | None = None

    def evaluate(self, point: int, query_rng: RngHandle | None = None) -> int:
        return int(self.evaluate_many(np.asarray([point], dtype=np.int64), query_rng)[0])

    def evaluate_many(
        self, points: np.ndarray, query_rng: RngHandle | None = None
    ) -> np.ndarray:
        raise NotImplementedError

    def disagreement_prob(self, points: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Exact per-example probability that the hypothesis disagrees with ``labels``."""
        return (self.evaluate_many(points) != labels).astype(np.float64)


class TableHypothesis(Hypothesis):
    """Deterministic hypothesis given by an explicit ±1 truth table."""

    def __init__(self, table: Sequence[int] | np.ndarray):
        self.table = _frozen(_as_sign_array(table), table)
        self.domain_size = int(self.table.size)

    def evaluate_many(
        self, points: np.ndarray, query_rng: RngHandle | None = None
    ) -> np.ndarray:
        return self.table[points]

    @classmethod
    def constant(cls, label: int, domain_size: int) -> "TableHypothesis":
        return cls(np.full(domain_size, label, dtype=np.int8))


class FunctionHypothesis(Hypothesis):
    """Deterministic hypothesis given by a vectorized point -> ±1 function."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], domain_size: int | None = None):
        self.fn = fn
        self.domain_size = domain_size

    def evaluate_many(
        self, points: np.ndarray, query_rng: RngHandle | None = None
    ) -> np.ndarray:
        return _as_sign_array(self.fn(points))


class MixtureHypothesis(Hypothesis):
    """Uniform mixture of hypotheses.

    Error metrics treat the mixture exactly (mean over components). For
    simulation, :meth:`evaluate_many` draws one component per query from the
    supplied ``query_rng`` — deterministic and repeatable for a fixed handle.
    """

    def __init__(self, components: Sequence[Hypothesis]):
        if not components:
            raise ValueError("mixture needs at least one component")
        self.components = list(components)
        sizes = {h.domain_size for h in self.components if h.domain_size is not None}
        self.domain_size = sizes.pop() if len(sizes) == 1 else None

    def evaluate_many(
        self, points: np.ndarray, query_rng: RngHandle | None = None
    ) -> np.ndarray:
        if query_rng is None:
            raise ValueError("mixture evaluation needs a query_rng (simulation mode)")
        gen = query_rng.generator()
        picks = gen.integers(0, len(self.components), size=points.size)
        out = np.empty(points.size, dtype=np.int8)
        for i, h in enumerate(self.components):
            sel = picks == i
            if sel.any():
                out[sel] = h.evaluate_many(points[sel])
        return out

    def disagreement_prob(self, points: np.ndarray, labels: np.ndarray) -> np.ndarray:
        acc = np.zeros(points.size, dtype=np.float64)
        for h in self.components:
            acc += h.disagreement_prob(points, labels)
        return acc / len(self.components)


class _ComplementHypothesis(Hypothesis):
    def __init__(self, inner: Hypothesis):
        self.inner = inner
        self.domain_size = inner.domain_size

    def evaluate_many(
        self, points: np.ndarray, query_rng: RngHandle | None = None
    ) -> np.ndarray:
        return -self.inner.evaluate_many(points, query_rng)

    def disagreement_prob(self, points: np.ndarray, labels: np.ndarray) -> np.ndarray:
        return 1.0 - self.inner.disagreement_prob(points, labels)


def complement(h: Hypothesis) -> Hypothesis:
    """The pointwise negation of a hypothesis."""
    return _ComplementHypothesis(h)


def _check_domain(h: Hypothesis, size: int, role: str) -> None:
    if h.domain_size is not None and h.domain_size < size:
        raise ValueError(f"{role} covers {h.domain_size} points but the domain has {size}")


def error_rate(h: Hypothesis, c: Hypothesis, D: DiscreteDistribution) -> float:
    """Exact error ``Σ_x D(x)·Pr[h(x) ≠ c(x)]`` over the finite domain.

    ``c`` must be deterministic; randomized ``h`` is averaged exactly over its
    mixture components (no sampling).
    """
    size = len(D)
    _check_domain(h, size, "hypothesis")
    _check_domain(c, size, "concept")
    if isinstance(c, MixtureHypothesis):
        raise ValueError("the target concept must be deterministic")
    pts = np.arange(size, dtype=np.int64)
    truth = c.evaluate_many(pts)
    return float(np.dot(D.weights, h.disagreement_prob(pts, truth)))


def draw_clean_sample(
    D: DiscreteDistribution, c: Hypothesis, n: int, rng: RngHandle
) -> Sample:
    """``n`` i.i.d. examples ``(x, c(x))`` with ``x ~ D``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    pts = D.sample_points(n, rng)
    if n == 0:
        return Sample.empty()
    return Sample(pts, c.evaluate_many(pts))


def empirical_error(
    h: Hypothesis, S: Sample, query_rng: RngHandle | None = None
) -> float:
    """Fraction of examples in ``S`` that ``h`` mislabels.

    Mixtures use the exact per-point mixture disagreement probability;
    ``query_rng`` is accepted for interface symmetry with simulation mode but
    is not needed for the exact computation.
    """
    if len(S) == 0:
        raise ValueError("empirical error of an empty sample is undefined")
    return float(h.disagreement_prob(S.points, S.labels).mean())
