"""Domains, distributions, samples, hypotheses, error metrics, and seeded RNG.

Conventions used throughout the package:

- Domains are finite index ranges ``{0, ..., size-1}``.
- Labels are signs in ``{-1, +1}``.
- A hypothesis is a ±1 truth table (:class:`TableHypothesis`). Success
  amplification outputs a :class:`MixtureHypothesis`, a uniform mixture of
  tables whose error :func:`error_rate` takes exactly as the mean of its
  components' errors.
- Every randomized operation takes an explicit :class:`RngHandle`; identical
  handles yield identical results, and distinct split paths yield independent
  streams (SFC64 generators seeded through ``SeedSequence``).
"""

from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

__all__ = [
    "Sample",
    "DiscreteDistribution",
    "RngHandle",
    "TableHypothesis",
    "MixtureHypothesis",
    "labeled_index",
    "error_rate",
    "draw_clean_sample",
    "empirical_error",
]

WEIGHT_TOLERANCE = 1e-12


def _as_int(value: object, what: str) -> int:
    """``value`` as a Python int, by the one integer rule: a Python or numpy
    integer and never a bool. A bool, a float (even an integral one), an array
    (even a 0-d one) or any other type is a :class:`ValueError`."""
    if type(value) is int:
        return value
    if hasattr(type(value), "__index__") and not isinstance(value, (bool, np.bool_, np.ndarray)):
        return operator.index(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _as_number(value: object, what: str) -> object:
    """``value``, if it is a real number and not a bool; else a :class:`ValueError`."""
    if type(value) in (float, int) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    ):
        return value
    raise ValueError(f"{what} must be a number, got {value!r}")


@functools.lru_cache(maxsize=64)
def _ends(interval: str) -> tuple[float, bool, float, bool]:
    """The low and high ends of ``interval``, each with whether it is closed."""
    low, high = map(float, interval[1:-1].split(","))
    return low, interval[0] == "[", high, interval[-1] == "]"


def _within(value: object, interval: str, what: str, integer: bool = False) -> object:
    """``value`` if it lies in ``interval``, written as in mathematics
    (``"(0, 1)"``, ``"[1, inf)"``: ``[`` and ``]`` close an end, ``(`` and ``)``
    open it, an ``inf`` end leaves that side unbounded), else a
    :class:`ValueError`. ``value`` must be a number (:func:`_as_number`), or
    with ``integer`` an integer, returned as a Python int (:func:`_as_int`)."""
    value = _as_int(value, what) if integer else _as_number(value, what)
    low, low_closed, high, high_closed = _ends(interval)
    if not (low <= value if low_closed else low < value) or not (
        value <= high if high_closed else value < high
    ):
        raise ValueError(f"{what} must be in {interval}, got {value!r}")
    return value


def _check_intervals(pack: object) -> None:
    """Check each field of the dataclass ``pack`` with an ``"interval"`` in its
    metadata by :func:`_within`: one annotated ``int`` or ``int | None`` as an
    integer, stored back as a Python int, any other as a number. ``None`` in a
    field whose default is ``None`` is derived later, and not checked."""
    for f in fields(pack):
        interval, value = f.metadata.get("interval"), getattr(pack, f.name, None)
        if interval and not (value is None and f.default is None):
            integer = f.type in ("int", "int | None")
            object.__setattr__(pack, f.name, _within(value, interval, f.name, integer))


# numpy's SeedSequence pool size, in 32-bit words: the length a spawned
# sequence's seed words are zero-padded to.
_POOL_SIZE = 4


def _uint32_words(value: int) -> list[int]:
    """``value``'s little-endian 32-bit words, at least one, as numpy splits an
    integer entropy or spawn-key entry."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"a seed or path id must be non-negative, got {value}")
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


@dataclass(frozen=True)
class RngHandle:
    """Deterministic, splittable randomness handle.

    ``(seed, path)`` fully determine the draw sequence: the SFC64 generator
    seeded by ``SeedSequence(seed, spawn_key=(0, *path))``. :meth:`split`
    derives statistically independent child streams (e.g. one per trial or
    per group) without consuming state from the parent. The independence
    comes from ``SeedSequence``; SFC64 was picked over PCG64 and PCG64DXSM
    as the fastest on the benchmark's workloads.
    """

    seed: int
    path: tuple[int, ...] = field(default=())

    def generator(self) -> np.random.Generator:
        """The SFC64 generator seeded by ``SeedSequence(seed, spawn_key=(0,
        *path))``, built from that sequence's entropy words.

        numpy (since 1.19) assembles the entropy of a sequence with a spawn
        key as the seed's little-endian 32-bit words, padded with zeros to
        the pool size of 4, followed by each spawn-key entry's words; the
        pool, and so the stream, depends on nothing else. This builds that
        uint32 array directly and hands it to ``SeedSequence`` as its
        entropy, which gives the same pool and the same stream at about half
        the cost of numpy converting the ``spawn_key`` tuple in Python on
        every call. As in numpy, a negative seed or id is a
        :class:`ValueError` and a non-integer one a :class:`TypeError`.
        """
        words = _uint32_words(self.seed)
        words += [0] * (_POOL_SIZE - len(words))
        words.append(0)
        for i in self.path:
            words += _uint32_words(i)
        seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
        return np.random.Generator(np.random.SFC64(seq))

    def split(self, *ids: int) -> "RngHandle":
        return RngHandle(self.seed, self.path + tuple(ids))


def _as_sign_array(labels: Sequence[int] | np.ndarray) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.size and not (np.abs(arr) == 1).all():
        raise ValueError("labels must be ±1")
    return arr.astype(np.int8, copy=False)


def _as_point_array(points: Sequence[int] | np.ndarray) -> np.ndarray:
    arr = np.asarray(points)
    if arr.size and arr.dtype.kind not in "biu" and not (np.mod(arr, 1) == 0).all():
        raise ValueError("domain points must be integers")
    pts = arr.astype(np.int64, copy=False)
    if pts.size and pts.min() < 0:
        raise ValueError("negative domain point index")
    return pts


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
        pts = _as_point_array(points)
        labs = _as_sign_array(labels)
        if pts.shape != labs.shape or pts.ndim != 1:
            raise ValueError("points and labels must be 1-d arrays of equal length")
        object.__setattr__(self, "points", _frozen(pts, points))
        object.__setattr__(self, "labels", _frozen(labs, labels))

    @classmethod
    def _trusted(cls, points: np.ndarray, labels: np.ndarray) -> "Sample":
        """A sample of arrays already known valid (1-d int64 points >= 0 and
        int8 ±1 labels of equal length) that no caller can write through:
        fresh arrays or views of a sample's own. Skips the checks and the copy."""
        points.setflags(write=False)
        labels.setflags(write=False)
        S = object.__new__(cls)
        object.__setattr__(S, "points", points)
        object.__setattr__(S, "labels", labels)
        return S

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Sample is immutable")

    @classmethod
    def empty(cls) -> "Sample":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8))

    def __len__(self) -> int:
        return int(self.points.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sample):
            return NotImplemented
        return np.array_equal(self.points, other.points) and np.array_equal(
            self.labels, other.labels
        )

    def __repr__(self) -> str:
        return f"Sample(n={len(self)})"

    def multiset(self) -> dict[tuple[int, int], int]:
        """Counts of each (point, label) pair, ignoring order."""
        out: dict[tuple[int, int], int] = {}
        for p, l in zip(self.points.tolist(), self.labels.tolist()):
            out[(p, l)] = out.get((p, l), 0) + 1
        return out

    def take(self, indices: np.ndarray | slice) -> "Sample":
        """The examples at ``indices``; a slice gives views of this sample's arrays."""
        pts = self.points[indices]
        if pts.ndim != 1:
            raise ValueError("indices must select a 1-d run of examples")
        return Sample._trusted(pts, self.labels[indices])

    def replace_at(self, indices: np.ndarray, introduced: "Sample") -> "Sample":
        """A copy with example ``i`` of ``introduced`` at position ``indices[i]``."""
        pts = self.points.copy()
        labs = self.labels.copy()
        pts[indices] = introduced.points
        labs[indices] = introduced.labels
        return Sample._trusted(pts, labs)


class DiscreteDistribution:
    """Explicit probability vector over a finite indexed domain."""

    __slots__ = ("weights", "_is_uniform")

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
        object.__setattr__(self, "_is_uniform", bool(np.all(w == w[0])))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DiscreteDistribution is immutable")

    @classmethod
    def uniform(cls, size: int) -> "DiscreteDistribution":
        size = _within(size, "[1, inf)", "size", integer=True)
        return cls(np.full(size, 1.0 / size))

    def __len__(self) -> int:
        return int(self.weights.size)

    def sample_points(self, n: int, rng: RngHandle) -> np.ndarray:
        """``n`` i.i.d. point indices."""
        gen = rng.generator()
        # Uniform fast path keeps large Monte-Carlo scenarios cheap.
        w = self.weights
        if self._is_uniform:
            return gen.integers(0, w.size, size=n, dtype=np.int64)
        return gen.choice(w.size, size=n, p=w).astype(np.int64)


def labeled_index(point: int | np.ndarray, label: int | np.ndarray) -> int | np.ndarray:
    """Index of a labeled example in the product space, ``2*point + [label ==
    -1]``; elementwise over arrays of points and ±1 labels."""
    return 2 * point + (label < 0)


class TableHypothesis:
    """A deterministic hypothesis: an explicit ±1 truth table over the domain
    ``{0, ..., domain_size - 1}``."""

    def __init__(self, table: Sequence[int] | np.ndarray):
        self.table = _frozen(_as_sign_array(table), table)
        self.domain_size = int(self.table.size)

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        return self.table[points]

    @classmethod
    def constant(cls, label: int, domain_size: int) -> "TableHypothesis":
        return cls(np.full(domain_size, label, dtype=np.int8))


class MixtureHypothesis:
    """Uniform mixture of truth tables: what success amplification outputs.

    :func:`error_rate` averages its components exactly (no sampling).
    """

    def __init__(self, components: Sequence[TableHypothesis]):
        if not components:
            raise ValueError("mixture needs at least one component")
        self.components = list(components)


def _check_domain(h: TableHypothesis, size: int, role: str) -> None:
    if h.domain_size < size:
        raise ValueError(f"{role} covers {h.domain_size} points but the domain has {size}")


def error_rate(
    h: TableHypothesis | MixtureHypothesis, c: TableHypothesis, D: DiscreteDistribution
) -> float:
    """Exact error ``Σ_x D(x)·Pr[h(x) ≠ c(x)]`` over the finite domain.

    ``c`` must be deterministic; a mixture ``h`` is averaged exactly over its
    components (no sampling).
    """
    size = len(D)
    components = h.components if isinstance(h, MixtureHypothesis) else [h]
    for g in components:
        _check_domain(g, size, "hypothesis")
    if isinstance(c, MixtureHypothesis):
        raise ValueError("the target concept must be deterministic")
    _check_domain(c, size, "concept")
    truth = c.table[:size]
    x = np.zeros(size)
    for g in components:
        x += g.table[:size] != truth
    x /= len(components)
    return float(np.dot(D.weights, x))


def draw_clean_sample(
    D: DiscreteDistribution, c: TableHypothesis, n: int, rng: RngHandle
) -> Sample:
    """``n`` i.i.d. examples ``(x, c(x))`` with ``x ~ D``.

    The sample is built without :class:`Sample`'s checks and copies: the
    points are fresh int64 indices in ``[0, len(D))``, and the labels a fresh
    fancy-indexed copy of ``c``'s ±1 int8 table, checked when it was built and
    covering ``D``'s domain. Both arrays are frozen and shared with nothing.
    """
    n = _within(n, "[0, inf)", "n", integer=True)
    _check_domain(c, len(D), "concept")
    pts = D.sample_points(n, rng)
    return Sample._trusted(pts, c.table[pts])


def empirical_error(h: TableHypothesis, S: Sample) -> float:
    """Fraction of examples in ``S`` that ``h`` mislabels: the mislabelled
    count over ``len(S)``. That is bit-identical to the mean of the 0/1
    mistakes in float64, whose sum of 0s and 1s is exact, and cheaper."""
    if len(S) == 0:
        raise ValueError("empirical error of an empty sample is undefined")
    try:
        predicted = h.table[S.points]
    except IndexError:  # points are >= 0, so one lies past the table
        raise ValueError(
            f"point {int(S.points.max())} is outside the hypothesis's {h.domain_size}-point table"
        ) from None
    return int(np.count_nonzero(predicted != S.labels)) / len(S)
