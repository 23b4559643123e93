"""Domains, distributions, samples, hypotheses, error metrics, and seeded RNG.

Conventions used throughout the package:

- Domains are finite index ranges ``{0, ..., size-1}``.
- Labels are signs in ``{-1, +1}``.
- Every randomized operation takes an explicit :class:`RngHandle`; identical
  handles yield identical results, and distinct stream ids yield independent
  streams (counter-based Philox generators keyed through ``SeedSequence``).
- Batch code derives the Philox keys of many streams in one numpy pass
  (:func:`philox_keys`, a vectorized copy of ``SeedSequence``'s key
  derivation) and draws their uniforms in another (:func:`philox_uniforms`,
  Philox4x64-10 in numpy); both match what :meth:`RngHandle.generator`
  would draw, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "LabeledExample",
    "Sample",
    "DiscreteDistribution",
    "RngHandle",
    "philox_keys",
    "philox_uniforms",
    "Hypothesis",
    "TableHypothesis",
    "FunctionHypothesis",
    "MixtureHypothesis",
    "complement",
    "labeled_index",
    "labeled_pair",
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

    @property
    def ids(self) -> tuple[int, ...]:
        """``(seed, stream, *path)``: the id row :func:`philox_keys` takes."""
        return (self.seed, self.stream, *self.path)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream, *self.path))
        return np.random.Generator(np.random.Philox(seq))

    def split(self, *ids: int) -> "RngHandle":
        return RngHandle(self.seed, self.stream, self.path + tuple(ids))


# numpy's SeedSequence (numpy/random/bit_generator.pyx, after O'Neill's
# seed_seq): a pool of 4 uint32 words, mixed with these constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_constants(first: int, mult: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of ``steps`` successive SeedSequence hash steps from
    ``first``, as two ``(steps, 1)`` columns: step ``j`` xors with ``c_j`` and
    multiplies by ``c_{j+1} = c_j * mult mod 2**32``. They depend on no data."""
    c = [first]
    for _ in range(steps):
        c.append(c[-1] * mult & _MASK32)
    col = np.array(c, np.uint32)[:, None]
    return col[:-1], col[1:]


def _hash(words: np.ndarray, xors: np.ndarray, muls: np.ndarray) -> np.ndarray:
    v = (words ^ xors) * muls
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return r ^ (r >> 16)


def _entropy_words(ids: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray] | None:
    """SeedSequence's entropy of each ``(seed, stream, *path)`` row as one
    column of a zero-padded uint32 matrix, with each column's word count.
    The seed is split into little-endian 32-bit words and padded to the pool
    size, then every other id is split the same way. ``None`` when some id
    is not a non-negative integer."""
    counts = np.fromiter(map(len, ids), np.intp, len(ids))
    flat = np.array(list(chain.from_iterable(ids)))
    if flat.dtype.kind == "O":  # ints of 2**64 or more
        if not all(isinstance(x, (int, np.integer)) for x in flat):
            return None
    elif flat.dtype.kind not in "biu":
        return None
    if (flat < 0).any():
        return None
    words = [(flat & _MASK32).astype(np.uint32)]
    n_words = np.ones(flat.size, np.intp)
    rest = flat >> 32
    while (rest > 0).any():
        n_words += rest > 0
        words.append((rest & _MASK32).astype(np.uint32))
        rest = rest >> 32
    starts = np.cumsum(counts) - counts
    width = n_words.copy()
    width[starts] = np.maximum(width[starts], _POOL_SIZE)
    offset = np.cumsum(width) - width
    row = np.repeat(np.arange(len(ids)), counts)
    col = offset - offset[starts][row]
    lengths = np.add.reduceat(width, starts)
    matrix = np.zeros((int(lengths.max()), len(ids)), np.uint32)
    for j, w in enumerate(words):
        has = n_words > j
        matrix[col[has] + j, row[has]] = w[has]
    return matrix, lengths


def philox_keys(ids: Sequence[Sequence[int]]) -> np.ndarray:
    """The Philox key of each ``(seed, stream, *path)`` id row, derived for
    the whole batch at once.

    Row ``i`` of the ``(len(ids), 2)`` uint64 result equals
    ``np.random.SeedSequence(seed, spawn_key=(stream, *path))
    .generate_state(2, np.uint64)`` for ``ids[i]``, bit for bit: the same
    pool mixing and state generation, run column by column over every row.
    Rows whose ids take different numbers of 32-bit words share the batch;
    each row stops mixing at its own length. A batch with a negative or
    non-integer id goes through ``SeedSequence`` itself, so it raises what
    ``SeedSequence`` raises.
    """
    if not ids:
        return np.empty((0, 2), np.uint64)
    entropy = _entropy_words(ids)
    if entropy is None:
        return np.array(
            [np.random.SeedSequence(s, spawn_key=rest).generate_state(2, np.uint64)
             for s, *rest in ids]
        )
    E, lengths = entropy
    steps = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * (len(E) - _POOL_SIZE)
    xors, muls = _hash_constants(_INIT_A, _MULT_A, steps)
    pool = _hash(E[:_POOL_SIZE], xors[:_POOL_SIZE], muls[:_POOL_SIZE])
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):  # mix every pool word into every other
        dst = [d for d in range(_POOL_SIZE) if d != src]
        end = step + _POOL_SIZE - 1
        pool[dst] = _mix(pool[dst], _hash(pool[src], xors[step:end], muls[step:end]))
        step = end
    for src in range(_POOL_SIZE, len(E)):  # then each further entropy word
        end = step + _POOL_SIZE
        mixed = _mix(pool, _hash(E[src], xors[step:end], muls[step:end]))
        pool = np.where(lengths > src, mixed, pool)
        step = end
    state = _hash(pool, *_hash_constants(_INIT_B, _MULT_B, _POOL_SIZE)).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC 2011) as numpy runs it. Multipliers and key increments are (2, 1, 1)
# columns that pair with counter words (0, 2) and key words (0, 1).
_PHILOX_MULTS = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], np.uint64)[:, None, None]
_PHILOX_BUMPS = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], np.uint64)[:, None, None]
_32, _LOW32 = np.uint64(32), np.uint64(_MASK32)
_MULTS_LO, _MULTS_HI = _PHILOX_MULTS & _LOW32, _PHILOX_MULTS >> _32


def philox_uniforms(keys: np.ndarray, m: int) -> np.ndarray:
    """The first ``m`` uniforms of each key's Philox stream.

    Row ``i`` of the ``(len(keys), m)`` float64 result equals
    ``np.random.Generator(np.random.Philox(key=keys[i])).random(m)`` bit for
    bit. numpy bumps the counter before its first block, so block ``b``
    (words ``4b`` to ``4b + 3``) encrypts the counter ``(b + 1, 0, 0, 0)``;
    each word ``x`` gives the double ``(x >> 11) * 2**-53``.
    """
    keys = np.asarray(keys, np.uint64)
    n, blocks = len(keys), -(-m // 4)
    even = np.zeros((2, n, blocks), np.uint64)  # counter words 0 and 2
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)  # counter words 1 and 3
    key = keys.T[:, :, None]
    for r in range(10):  # rounds
        if r:
            key = key + _PHILOX_BUMPS
        # The high words of the 128-bit products, from 32-bit halves so that
        # no partial product overflows (Warren, Hacker's Delight, mulhu).
        lo, hi = even & _LOW32, even >> _32
        t = _MULTS_HI * lo + (_MULTS_LO * lo >> _32)
        w = (t & _LOW32) + _MULTS_LO * hi
        high = _MULTS_HI * hi + (t >> _32) + (w >> _32)
        even, odd = high[::-1] ^ odd ^ key, (_PHILOX_MULTS * even)[::-1]
    words = np.stack([even[0], odd[0], even[1], odd[1]], axis=-1).reshape(n, 4 * blocks)
    return (words[:, :m] >> np.uint64(11)) * 2.0**-53


class LabeledExample(NamedTuple):
    """A ``(point, ±1 label)`` pair."""

    point: int
    label: int


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

    def take(self, indices: np.ndarray | slice) -> "Sample":
        """The examples at ``indices``; a slice gives views of this sample's arrays."""
        pts = self.points[indices]
        if pts.ndim != 1:
            raise ValueError("indices must select a 1-d run of examples")
        return Sample._trusted(pts, self.labels[indices])

    def replace_at(self, indices: np.ndarray, points: np.ndarray, labels: np.ndarray) -> "Sample":
        """A copy with positions ``indices`` replaced by the given examples,
        which are checked as :class:`Sample` checks its own."""
        new_pts = _as_point_array(points)
        new_labs = _as_sign_array(labels)
        pts = self.points.copy()
        labs = self.labels.copy()
        pts[indices] = new_pts
        labs[indices] = new_labs
        return Sample._trusted(pts, labs)

    def concat(self, other: "Sample") -> "Sample":
        return Sample._trusted(
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
