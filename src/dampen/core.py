"""Core types shared by the selection mechanisms and the applications.

A selection problem bundles a database handle, a finite candidate range and
a utility function; a sensitivity function upper-bounds how much the utility
of a single candidate can move between nearby databases.  Privacy budget
spent by composed mechanisms is tracked by :class:`BudgetAccountant`.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence

import numpy as np


class InvalidInputError(ValueError):
    """Caller supplied an argument outside the documented domain."""


class ContractViolationError(RuntimeError):
    """A pluggable component (utility, sensitivity function) misbehaved."""


class SearchBudgetError(RuntimeError):
    """A brute-force search would exceed its configured node budget."""


class PreconditionError(RuntimeError):
    """An operation was invoked with its stated hypothesis unmet."""


def read_utf8(path, newline: str | None = None) -> io.StringIO:
    """The file's text as a stream read like ``open(path, encoding="utf-8",
    newline=newline)``, decoded whole up front: bytes that are not UTF-8
    raise :class:`InvalidInputError` naming the file and the line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InvalidInputError(f"{path}: line {line} is not UTF-8 text") from None


def check_epsilon(epsilon: float, name: str = "epsilon") -> None:
    """Refuse a privacy budget that is not positive and finite.  Callers
    check the share they spend, so one that underflows is named."""
    if not 0.0 < epsilon < math.inf:
        raise InvalidInputError(
            f"{name} must be positive and finite, got {epsilon!r}")


def budget_share(epsilon: float, parts: int, name: str) -> float:
    """``epsilon / parts`` for an int ``parts >= 1``, refused by
    :func:`check_epsilon` under ``name``.  The quotient is taken exactly and
    rounded once, as float division rounds it, for any int: a ``parts`` too
    large for a float gives a share that underflows to 0.0, not an
    ``OverflowError``."""
    share = float(epsilon)
    if math.isfinite(share):
        num, den = share.as_integer_ratio()
        share = num / (den * parts)
    check_epsilon(share, name)
    return share


#: Monotonicity classes a sensitivity function may declare with respect to
#: the utility ordering of the candidates.
MONOTONICITY_CLASSES = ("non_decreasing", "non_increasing", "flat", "none")


@dataclass(frozen=True)
class SelectionProblem:
    """One private-selection instance.

    Attributes:
        database: opaque handle understood by ``utility`` (and by any
            sensitivity function used alongside this problem).
        candidates: ordered candidate identifiers; nonempty, duplicate free.
        utility: deterministic map ``(database, candidate) -> float``.
        global_sensitivity: worst-case utility change between databases at
            distance one, over all candidates.
        database_size: number of mutable data units under the problem's
            distance metric (records, unordered node pairs, rows).
    """

    database: Any
    candidates: Sequence[Hashable]
    utility: Callable[[Any, Hashable], float]
    global_sensitivity: float
    database_size: int

    def __post_init__(self):
        cands = tuple(self.candidates)
        if not cands:
            raise InvalidInputError("candidate range must be nonempty")
        if len(set(cands)) != len(cands):
            raise InvalidInputError("candidate range contains duplicates")
        if not (self.global_sensitivity >= 0):
            raise InvalidInputError("global sensitivity must be >= 0")
        if self.database_size < 1:
            raise InvalidInputError("database size must be >= 1")
        object.__setattr__(self, "candidates", cands)

    def utilities(self) -> list[float]:
        """Utility score of every candidate, in range order.

        Scored once per problem (the instance is frozen, so the scores
        cannot change); each call returns a fresh list.
        """
        scores = self.__dict__.get("_utilities")
        if scores is None:
            scores = tuple(self.utility(self.database, r) for r in self.candidates)
            object.__setattr__(self, "_utilities", scores)
        return list(scores)


@dataclass(frozen=True)
class SensitivityFunction:
    """A ``delta(database, t, candidate)`` evaluator plus declared properties.

    ``declared_admissible`` and ``declared_bounded`` record what the caller
    claims (and what the verification lab can check on small instances);
    mechanisms refuse inputs whose declarations do not meet their
    hypotheses.  ``declared_nondecreasing_in_t`` claims that ``delta`` never
    shrinks as ``t`` grows; together with ``declared_bounded`` it lets the
    breakpoint walk stop at the first step equal to the global sensitivity
    (the walk checks the claim as it goes).  ``monotonicity`` is the
    declared relationship between ``delta`` and the utility ordering and
    picks the shift direction used by the shifted mechanism.

    ``table``, when given, is a range of levels of every candidate at
    once: ``table(database, lo, hi)`` returns ``(rows, block)``; ``rows``
    maps each candidate to a row of the float64 array ``block``, of exactly
    ``hi - lo`` columns, whose entry ``[rows[r], s]`` is ``eval(database,
    lo + s, r)``.  The array may be shared; callers read it only.  The
    dampening mechanisms score a bounded, nondecreasing ``delta`` from it
    in one array pass that reads each level once and checks what the
    per-step walk checks.
    """

    eval: Callable[[Any, int, Hashable], float]
    declared_admissible: bool = False
    declared_bounded: bool = False
    declared_nondecreasing_in_t: bool = False
    monotonicity: str = "none"
    name: str = "delta"
    table: Callable[[Any, int, int], tuple] | None = None

    def __post_init__(self):
        if self.monotonicity not in MONOTONICITY_CLASSES:
            raise InvalidInputError(
                f"unknown monotonicity class {self.monotonicity!r}"
            )

    def __call__(self, database: Any, t: int, r: Hashable) -> float:
        value = self.eval(database, t, r)
        if not math.isfinite(value) or value < 0:
            raise ContractViolationError(
                f"sensitivity function {self.name} returned {value!r} at t={t}"
            )
        return value


def constant_sensitivity(value: float, name: str = "const") -> SensitivityFunction:
    """The flat sensitivity function ``delta = value``.

    With ``value`` equal to the problem's global sensitivity this is
    admissible and bounded, and the dampening mechanisms collapse to the
    plain exponential mechanism.
    """
    if not (value >= 0):
        raise InvalidInputError("constant sensitivity must be >= 0")
    return SensitivityFunction(
        eval=lambda x, t, r: value,
        declared_admissible=True,
        declared_bounded=True,
        declared_nondecreasing_in_t=True,
        monotonicity="flat",
        name=name,
    )


@dataclass
class _Scope:
    mode: str
    entries: list[float] = field(default_factory=list)


class BudgetAccountant:
    """Tracks epsilon spent per scope under sequential/parallel composition.

    A sequential scope totals the sum of its entries, a parallel scope the
    max (its entries must apply to pairwise disjoint data).  Scopes
    themselves compose sequentially into :meth:`total`, which is finite:
    every entry passes :func:`check_epsilon`.
    """

    def __init__(self):
        self._scopes: dict[Hashable, _Scope] = {}

    def open_scope(self, scope_id: Hashable, mode: str = "sequential") -> None:
        if mode not in ("sequential", "parallel"):
            raise InvalidInputError(f"unknown composition mode {mode!r}")
        existing = self._scopes.get(scope_id)
        if existing is not None:
            if existing.mode != mode:
                raise InvalidInputError(
                    f"scope {scope_id!r} already open with mode {existing.mode}"
                )
            return
        self._scopes[scope_id] = _Scope(mode=mode)

    def account(self, scope_id: Hashable, epsilon: float) -> None:
        check_epsilon(epsilon)
        if scope_id not in self._scopes:
            raise InvalidInputError(f"unknown scope {scope_id!r}")
        self._scopes[scope_id].entries.append(float(epsilon))

    def scope_total(self, scope_id: Hashable) -> float:
        if scope_id not in self._scopes:
            raise InvalidInputError(f"unknown scope {scope_id!r}")
        scope = self._scopes[scope_id]
        if not scope.entries:
            return 0.0
        if scope.mode == "sequential":
            return math.fsum(scope.entries)
        return max(scope.entries)

    def total(self) -> float:
        return math.fsum(self.scope_total(s) for s in self._scopes)

    def scopes(self) -> list[Hashable]:
        return list(self._scopes)


# -- generators ---------------------------------------------------------------
#
# Every private choice draws from its own spawned numpy generator, and
# ``Generator.spawn`` costs about 20 us a child, more than many of the
# choices it feeds.  So :func:`spawn_seeds` hashes the children of many
# seed sequences in one numpy pass.  The hash is numpy's ``SeedSequence``
# (O'Neill's ``seed_seq_fe``): a child's entropy words are its parent's run
# entropy, padded with zeros to the pool size, then the parent's spawn key
# and the child's index, each as little-endian 32-bit words.  The hash
# constants step the same way for every child, so each step of the hash
# runs once over a (words, children) array.

#: Children hashed per numpy pass of :func:`spawn_seeds`.  A pass holds a
#: few 32-bit words per child, so this bounds its temporaries whatever the
#: number of generators asked for.
SPAWN_CHUNK = 4096

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875     # mixing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED     # generating state from it
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_DEFAULT_POOL_SIZE = 4


class KeptSeedSequence:
    """A child seed sequence made by :func:`spawn_seeds`.  It has the
    ``entropy``, ``spawn_key``, ``pool_size`` and ``pool`` of the
    ``numpy.random.SeedSequence`` child of the same parent, and so the same
    ``generate_state``, generators and children.

    It keeps the state words ``PCG64`` seeds from, so
    ``Generator(PCG64(kept))`` costs about 1 us.  numpy takes it as an
    ``ISpawnableSeedSequence`` once :func:`spawn_seeds` has registered it;
    importing ``dampen`` does not load ``numpy.random``."""

    __slots__ = ("entropy", "spawn_key", "pool_size", "n_children_spawned",
                 "pool", "_words", "_pcg64")

    def __init__(self, entropy, spawn_key, pool_size, words, pool, pcg64):
        self.entropy = entropy
        self.spawn_key = spawn_key
        self.pool_size = pool_size
        self.n_children_spawned = 0
        self.pool = pool
        self._words = words         # the entropy words its children start with
        self._pcg64 = pcg64         # generate_state(4, np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:
            return self._pcg64.copy()
        return _states(self.pool[:, None], n_words, dtype)[0]

    def spawn(self, n_children):
        return spawn_seeds([self], [n_children])[0]


@functools.cache
def _numpy_random():
    """``numpy.random``, loaded on first use, with
    :class:`KeptSeedSequence` registered as a spawnable seed sequence."""
    import numpy.random
    from numpy.random.bit_generator import ISpawnableSeedSequence

    ISpawnableSeedSequence.register(KeptSeedSequence)
    return numpy.random


@functools.lru_cache(maxsize=64)
def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """The hash constant before each of ``steps`` hash steps, and after the
    last: entry ``j`` is ``init * mult**j`` modulo 2**32."""
    out = [init]
    for _ in range(steps):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _hashmix(values, xor, mul):
    values = (values ^ xor) * mul
    return values ^ (values >> 16)


def _mix(x, y):
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> 16)


def _pools(words: np.ndarray, pool_size: int) -> np.ndarray:
    """``SeedSequence.mix_entropy`` of every column of ``words`` (entropy
    words by children, uint32) at once: pool words by children."""
    length, p = len(words), pool_size
    c = _hash_constants(_INIT_A, _MULT_A, p * max(length, p))[:, None]
    first = np.zeros((p, words.shape[1]), np.uint32)
    first[:length] = words[:p]
    pool = _hashmix(first, c[:p], c[1:p + 1])
    j = p
    # every pool word into every other, in numpy's (source, target) order
    for src in range(p):
        others = [dst for dst in range(p) if dst != src]
        pool[others] = _mix(pool[others],
                            _hashmix(pool[src], c[j:j + p - 1], c[j + 1:j + p]))
        j += p - 1
    # then each entropy word past the pool into every pool word
    for src in range(p, length):
        pool = _mix(pool, _hashmix(words[src], c[j:j + p], c[j + 1:j + p + 1]))
        j += p
    return pool


def _states(pools: np.ndarray, n_words: int, dtype) -> np.ndarray:
    """``SeedSequence.generate_state(n_words, dtype)`` of every column of
    ``pools``, one row per child."""
    dtype = np.dtype(dtype)
    if dtype == np.uint64:
        n32 = 2 * n_words
    elif dtype == np.uint32:
        n32 = n_words
    else:
        raise ValueError("only support uint32 or uint64")
    c = _hash_constants(_INIT_B, _MULT_B, n32)[:, None]
    src = pools[np.arange(n32) % len(pools)]
    out = np.ascontiguousarray(_hashmix(src, c[:-1], c[1:]).T)
    if dtype == np.uint64:
        # pairs of words read little-endian, as numpy reads them on any host
        return out.astype("<u4").view("<u8").astype(np.uint64)
    return out


def _int_words(n: int) -> tuple:
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return tuple(words)


def _seed_words(x) -> tuple:
    """numpy's uint32 words of seed entropy or a spawn key: an int or a
    numpy integer by 32-bit word from the lowest, a sequence or an array
    the words of its entries in order."""
    if isinstance(x, (int, np.integer)):
        if x < 0:
            raise ValueError(f"seed entropy must be non-negative, got {x}")
        return _int_words(int(x))
    if isinstance(x, (list, tuple, range, np.ndarray)):
        return tuple(w for v in x for w in _seed_words(v))
    raise TypeError(f"seed entropy of type {type(x).__name__} is not an "
                    "int or a sequence of ints")


def _parent_form(parent, rnd) -> tuple:
    """``(entropy, spawn_key, pool_size, words, first child)`` of a parent
    of :func:`spawn_seeds`; every child's entropy words start with
    ``words``."""
    if type(parent) is KeptSeedSequence:
        return (parent.entropy, parent.spawn_key, parent.pool_size,
                parent._words, parent.n_children_spawned)
    if isinstance(parent, (int, np.integer)):
        entropy, key, size, first = parent, (), _DEFAULT_POOL_SIZE, 0
    elif type(parent) is rnd.SeedSequence:
        entropy, key, size = parent.entropy, parent.spawn_key, parent.pool_size
        first = parent.n_children_spawned
    else:
        raise TypeError(f"cannot batch a parent of type {type(parent).__name__}")
    run = _seed_words(entropy)
    words = run + (0,) * (size - len(run)) + _seed_words(key)
    return entropy, key, size, words, first


def spawn_seeds(parents: Sequence, counts: Sequence[int]) -> list[list]:
    """The children ``parent.spawn(count)`` gives, for each parent and
    count, as :class:`KeptSeedSequence` objects, hashed in numpy passes of
    at most :data:`SPAWN_CHUNK` children.

    A parent is a :class:`KeptSeedSequence`, whose ``n_children_spawned``
    advances as its own ``spawn`` advances it; a
    ``numpy.random.SeedSequence``, whose counter is read-only, so that it
    is left as it is and its children are those its ``spawn`` would give
    next; or an int, for ``SeedSequence(int)``.  Entropy and spawn keys
    are read as numpy reads them (ints, numpy integers, and sequences and
    arrays of them); any other parent or form raises ``TypeError``."""
    rnd = _numpy_random()
    out = [[None] * count for count in counts]
    groups = {}
    for ix, (parent, count) in enumerate(zip(parents, counts)):
        form = _parent_form(parent, rnd)
        if type(parent) is KeptSeedSequence:
            parent.n_children_spawned += count
        # a run of children whose indices take the same number of words
        first, pos = form[4], 0
        while pos < count:
            width = len(_int_words(first + pos))
            take = min(count - pos, (1 << 32 * width) - first - pos)
            groups.setdefault((form[2], len(form[3]), width), []).append(
                (ix, pos, first + pos, take, form))
            pos += take
    for (size, _, width), runs in groups.items():
        chunk, taken = [], 0
        for ix, pos, first, count, form in runs:
            while count:
                take = min(count, SPAWN_CHUNK - taken)
                chunk.append((ix, pos, first, take, form))
                taken, pos, first, count = (taken + take, pos + take,
                                            first + take, count - take)
                if taken == SPAWN_CHUNK:
                    _spawn_chunk(chunk, size, width, out)
                    chunk, taken = [], 0
        if chunk:
            _spawn_chunk(chunk, size, width, out)
    return out


def _spawn_chunk(chunk: list, pool_size: int, width: int, out: list) -> None:
    """Hash one chunk of :func:`spawn_seeds`: runs ``(parent index,
    position, first child, count, form)`` whose children's entropy words
    have one length, ``width`` of them the child's index."""
    takes = np.array([run[3] for run in chunk])
    total = int(takes.sum())
    starts = np.repeat(np.cumsum(takes) - takes, takes)
    index = (np.repeat(np.array([run[2] for run in chunk], np.uint64), takes)
             + (np.arange(total) - starts).astype(np.uint64))
    prefix = np.array([run[4][3] for run in chunk], np.uint32).T
    words = np.vstack([np.repeat(prefix, takes, axis=1)] + [
        (index >> np.uint64(32 * w)).astype(np.uint32) for w in range(width)])
    pools = _pools(words, pool_size)
    pool_rows = list(np.ascontiguousarray(pools.T))
    pcg_rows = list(_states(pools, 4, np.uint64))
    c = 0
    for ix, pos, first, count, (entropy, key, size, prefix_words, _) in chunk:
        dest = out[ix]
        for i in range(first, first + count):
            dest[pos] = KeptSeedSequence(
                entropy, key + (i,), size,
                prefix_words + ((i,) if width == 1 else _int_words(i)),
                pool_rows[c], pcg_rows[c])
            pos += 1
            c += 1


def spawn_generators(parents: Sequence, counts: Sequence[int]) -> list[list]:
    """``parent.spawn(count)`` for each parent and count, where an int
    parent stands for ``numpy.random.default_rng(parent)``.

    The int parents and the generators made here (a ``Generator`` over
    ``PCG64`` over a :class:`KeptSeedSequence`) are spawned in one
    :func:`spawn_seeds` batch, and the latter's counters advance.  Any
    other generator, such as a caller's or one over another bit
    generator, spawns itself, so it keeps its own counter and its bit
    generator's type.  Either way the generators equal ``spawn``'s."""
    rnd = _numpy_random()
    out = [None] * len(parents)
    batch = []
    for ix, (parent, count) in enumerate(zip(parents, counts)):
        if not isinstance(parent, (int, np.integer)):
            bits = parent.bit_generator
            if not (type(parent) is rnd.Generator and type(bits) is rnd.PCG64
                    and type(bits.seed_seq) is KeptSeedSequence):
                out[ix] = parent.spawn(count)
                continue
            parent = bits.seed_seq
        batch.append((ix, parent, count))
    seqs = spawn_seeds([p for _, p, _ in batch], [n for _, _, n in batch])
    generator, pcg64 = rnd.Generator, rnd.PCG64
    for (ix, _, _), children in zip(batch, seqs):
        out[ix] = [generator(pcg64(s)) for s in children]
    return out
