"""Domains, distributions, samples, hypotheses, error metrics, and seeded RNG.

Conventions used throughout the package:

- Domains are finite index ranges ``{0, ..., size-1}``.
- Labels are signs in ``{-1, +1}``.
- A hypothesis is a ±1 truth table (:class:`TableHypothesis`). Success
  amplification outputs a :class:`MixtureHypothesis`, a uniform mixture of
  tables whose error :func:`error_rate` takes exactly as the mean of its
  components' errors.
- Every randomized operation takes an explicit :class:`RngHandle`; identical
  handles yield identical results, and distinct stream ids yield independent
  streams (counter-based Philox generators keyed through ``SeedSequence``).
- Batch code derives the Philox keys of many streams that share a parent
  handle's ids (:func:`philox_keys`: the parent's ``SeedSequence`` pool, then
  each stream's suffix ids mixed in numpy) and draws their uniforms in one
  numpy pass (:func:`philox_uniforms`, Philox4x64-10 in numpy); both match
  what :meth:`RngHandle.generator` would draw, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "LabeledExample",
    "Sample",
    "DiscreteDistribution",
    "RngHandle",
    "philox_keys",
    "philox_uniforms",
    "TableHypothesis",
    "MixtureHypothesis",
    "labeled_index",
    "error_rate",
    "draw_clean_sample",
    "empirical_error",
]

WEIGHT_TOLERANCE = 1e-12


def _within(value: float, interval: str) -> bool:
    """Whether ``value`` lies in ``interval``, written as in mathematics
    (``"(0, 1)"``, ``"[1, inf)"``): ``[`` and ``]`` close an end, ``(`` and
    ``)`` open it, and an ``inf`` end leaves that side unbounded."""
    low, high = map(float, interval[1:-1].split(","))
    return (low <= value if interval[0] == "[" else low < value) and (
        value <= high if interval[-1] == "]" else value < high
    )


def _check_intervals(pack: object) -> None:
    """Reject the first field of the dataclass ``pack`` whose value lies
    outside the ``"interval"`` in its metadata; a field without one, or a
    ``None`` value (derived later), is not checked."""
    for f in fields(pack):
        value, interval = getattr(pack, f.name, None), f.metadata.get("interval")
        if interval and value is not None and not _within(value, interval):
            raise ValueError(f"{f.name} must be in {interval}, got {value!r}")


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
        """``(seed, stream, *path)``: the parent ids :func:`philox_keys` takes."""
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


def _n_words(value: int) -> int:
    """How many little-endian 32-bit words ``SeedSequence`` splits an id into."""
    return max(1, -(-int(value).bit_length() // 32))


_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, _POOL_SIZE)


def philox_keys(parent: Sequence[int], suffixes: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """The Philox key of each id row ``(*parent, *suffixes[i])``.

    For ``parent = (seed, *rest)``, row ``i`` of the ``(k, 2)`` uint64 result
    equals ``np.random.SeedSequence(seed, spawn_key=(*rest, *suffixes[i]))
    .generate_state(2, np.uint64)``, bit for bit. The pool after the shared
    parent ids is numpy's own ``SeedSequence(seed, spawn_key=rest).pool``,
    which also checks the parent as ``SeedSequence`` does. Only the suffix
    columns are then hashed and mixed, over a ``(4, k)`` pool; the hash
    constants pick up where the parent left them. ``suffixes`` is a ``(k, s)``
    integer array with every entry in ``[0, 2**32)``, one 32-bit word each.
    """
    seed, *rest = parent
    parent_pool = np.random.SeedSequence(seed, spawn_key=tuple(rest)).pool
    ids = np.asarray(suffixes)
    if ids.ndim != 2 or (ids.size and ids.dtype.kind not in "iu"):
        raise ValueError("suffixes must be a (k, s) array of integers")
    if ids.size and (ids.min() < 0 or ids.max() > _MASK32):
        raise ValueError("suffix ids must be in [0, 2**32)")
    k, s = ids.shape
    # The parent's entropy is its seed, zero-padded to the pool size, then its
    # spawn ids. The first pool-size words took one hash step each to fill the
    # pool and three each to mix it; every later word one per pool word.
    steps = _POOL_SIZE * (max(_POOL_SIZE, _n_words(seed)) + sum(map(_n_words, rest)))
    first = _INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK32
    xors, muls = _hash_constants(first, _MULT_A, _POOL_SIZE * s)
    pool = np.broadcast_to(parent_pool[:, None], (_POOL_SIZE, k))
    for j, word in enumerate(ids.T.astype(np.uint32)):
        step = slice(_POOL_SIZE * j, _POOL_SIZE * (j + 1))
        pool = _mix(pool, _hash(word, xors[step], muls[step]))
    state = _hash(pool, *_STATE_CONSTANTS).astype(np.uint64)
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
        if size < 1:
            raise ValueError(f"a uniform distribution needs size >= 1, got {size}")
        return cls(np.full(size, 1.0 / size))

    def __len__(self) -> int:
        return int(self.weights.size)

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
    """``n`` i.i.d. examples ``(x, c(x))`` with ``x ~ D``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_domain(c, len(D), "concept")
    pts = D.sample_points(n, rng)
    if n == 0:
        return Sample.empty()
    return Sample(pts, c.evaluate_many(pts))


def empirical_error(h: TableHypothesis, S: Sample) -> float:
    """Fraction of examples in ``S`` that ``h`` mislabels."""
    if len(S) == 0:
        raise ValueError("empirical error of an empty sample is undefined")
    try:
        predicted = h.table[S.points]
    except IndexError:  # points are >= 0, so one lies past the table
        raise ValueError(
            f"point {int(S.points.max())} is outside the hypothesis's {h.domain_size}-point table"
        ) from None
    return float((predicted != S.labels).astype(np.float64).mean())
