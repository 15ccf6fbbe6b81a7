"""Private selection mechanisms with exact output distributions.

Implements the exponential mechanism and permute-and-flip baselines plus the
two dampening mechanisms.  The dampening mechanisms rescale the utility of
each candidate through a piecewise-linear map whose breakpoints are the
cumulative sums of a sensitivity function, which caps the neighbor-to-
neighbor movement of the rescaled score at one.

:func:`distribution` gives the exact per-candidate output distribution of
every mechanism without drawing: a max-stabilized softmax for the
exponential and dampening mechanisms, Gauss-Legendre quadrature of the
closed form for permute-and-flip.  Expected errors are derived from it
without sampling.  :class:`Prepared` scores one problem once and reads it
at any epsilon over any subset of the candidates; :func:`score_together`
scores many prepared problems in one array pass.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Any, Hashable, Sequence

import numpy as np

from .core import (
    ContractViolationError,
    InvalidInputError,
    SelectionProblem,
    SensitivityFunction,
    check_epsilon,
)

#: Iteration cap for bracketing a score against a sensitivity function that
#: is not declared bounded; bounded functions switch to a closed-form tail
#: by step ``n`` at the latest.
MAX_BREAKPOINT_STEPS = 100_000


@dataclass(frozen=True)
class SelectionDistribution:
    """Exact per-candidate output probabilities of one mechanism run."""

    mechanism: str
    epsilon: float
    candidates: tuple
    probabilities: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probabilities", _checked(self.probabilities))

    def probability_of(self, candidate) -> float:
        return float(self.probabilities[self.candidates.index(candidate)])


def _checked(probabilities) -> np.ndarray:
    """``probabilities`` as a float array, refused unless every entry is
    nonnegative and they sum to 1."""
    p = np.asarray(probabilities, dtype=float)
    # written so that NaN fails both checks
    if not np.all(p >= 0):
        raise ContractViolationError("negative or NaN probability")
    if not (abs(float(p.sum()) - 1.0) <= 1e-9):
        raise ContractViolationError("probabilities do not sum to 1")
    return p


def _stable_softmax(scores: np.ndarray) -> np.ndarray:
    weights = np.exp(scores - scores.max())
    return weights / weights.sum()


def _sample(candidates: Sequence, probabilities: np.ndarray, rng) -> Any:
    cdf = np.cumsum(probabilities)
    cdf[-1] = 1.0
    return candidates[int(np.searchsorted(cdf, rng.random(), side="right"))]


def dampen(
    problem: SelectionProblem,
    delta: SensitivityFunction,
    r: Hashable,
    u_value: float,
    tails: dict | None = None,
) -> float:
    """Rescale ``u_value`` through the breakpoint grid of ``delta`` at ``r``.

    Breakpoints are ``b(i) = sum_{t<i} delta(x, t, r)`` for ``i >= 0`` and
    mirrored for ``i < 0``; the result is ``(u - b(i)) / (b(i+1) - b(i)) + i``
    for the smallest ``i`` whose half-open interval contains ``u``.  Empty
    intervals (a zero sensitivity step) contain no point and are skipped.
    For a bounded ``delta`` every step at ``t >= n`` equals the global
    sensitivity, so scores past ``b(n)`` are resolved in closed form instead
    of by iteration.  A bounded ``delta`` that is also nondecreasing in ``t``
    is at most GS everywhere, so its first step equal to GS starts the
    constant tail and the walk stops there; the claim is checked on every
    step taken.  Negative scores go through the mirrored grid, which makes
    ``dampen(-u) == -dampen(u)`` hold exactly.

    A walk that ends where the constant tail starts, at step ``i`` past the
    breakpoint ``b(i)``, stores ``tails[r] = (i, b(i))`` when ``tails`` is
    given: every ``|u| >= b(i)`` at this (database, ``r``) then scores
    ``sign(u) * (i + (|u| - b(i)) / GS)`` without a walk.
    """
    if not math.isfinite(u_value):
        raise InvalidInputError(f"utility value {u_value!r} is not finite")
    if u_value == 0:
        return 0.0
    sign = 1.0 if u_value > 0 else -1.0
    v = abs(u_value)

    x = problem.database
    gs = problem.global_sensitivity
    n = problem.database_size
    bounded = delta.declared_bounded
    saturates = bounded and delta.declared_nondecreasing_in_t
    b, i, previous = 0.0, 0, 0.0
    while True:
        if bounded and i >= n:
            if gs <= 0:
                raise ContractViolationError(
                    "bounded delta with zero global sensitivity cannot "
                    f"bracket utility {u_value!r}"
                )
            break
        width = delta(x, i, r)
        if saturates:
            if width < previous or width > gs:
                raise ContractViolationError(
                    f"sensitivity function {delta.name} declared bounded and "
                    f"nondecreasing in t returned {width!r} at t={i} after "
                    f"{previous!r} (global sensitivity {gs!r})"
                )
            if width == gs > 0:
                break
            previous = width
        nxt = b + width
        if v < nxt:
            return sign * (i + (v - b) / width)
        b = nxt
        i += 1
        if not bounded and i > MAX_BREAKPOINT_STEPS:
            raise ContractViolationError(
                f"no breakpoint interval brackets utility {u_value!r} "
                f"within {MAX_BREAKPOINT_STEPS} steps"
            )
    if tails is not None:
        tails[r] = (i, b)
    return sign * (i + (v - b) / gs)


#: Largest (row, level) slice of a block read from a table that
#: :func:`_prefixes` checks and sums at once, which bounds its temporaries
#: at any table size.
PREFIX_SLICE_ENTRIES = 1 << 16


def _table_reader(delta: SensitivityFunction, x):
    """``delta.table`` at ``x`` as the ``table`` of :func:`_prefixes`; a
    table short of the columns asked for raises here."""

    def read(lo, hi, wanted):
        rows, block = delta.table(x, lo, hi)
        if block.shape[1] < hi - lo:
            raise ContractViolationError(
                f"sensitivity function {delta.name} returned "
                f"{lo + block.shape[1]} levels, {hi} were asked for"
            )
        return [rows.get(key) for _, key in wanted], block

    return read


def _prefixes(table, problems: Sequence) -> list:
    """Where :func:`dampen` stops for every score of every problem, in one
    array pass over ``table``.

    ``problems[b]`` is ``(gs, n, keys, values, tails)``: the GS (positive)
    and database size of a problem over a ``delta`` declared bounded and
    nondecreasing in t, and the scores ``v`` in ``values`` (positive and
    finite) it places, ``values[j]`` on the levels of ``keys[j]``.
    ``table(lo, hi, wanted)`` takes ``(b, key)`` pairs and returns
    ``(rows, block)``: ``rows[i]`` is the row of ``block`` holding the
    levels of ``wanted[i]`` at t in ``[lo, hi)``, or ``None`` if the table
    lacks it.  A row read past its problem's n must hold GS there, as
    :func:`~dampen.sensitivity.bounded_levels` pins it.

    A walk stops at the first t where a level fails a check (finite, at
    least 0 and the level before, at most GS) or equals GS, or where ``v <
    cum[t + 1]`` for the sum ``cum[t]`` of the levels before t; else at n.
    Each problem asks for the walk's chunks: ``max(8, floor(v / GS) + 1)``
    levels for its largest ``v`` below ``n * GS``, else 8, then twice as
    many, never past n, until every score of it stops; its only read-on
    test is a row still open at a chunk end below n.  Problems whose next
    chunks start at the same t are read together up to the largest end
    among them; a first chunk below half of that end is read apart.  So no
    problem reads more than twice the columns it would read alone, and a
    batch of one reads exactly its own chunks.  Each open row carries its
    pair, GS and n from its first read, the sum of the levels read so far
    and its last level (zeros on a first read, then the floats its read
    ended on), so a read checks and sums only its own columns from there:
    the same additions in the walk's order as one ``np.cumsum`` from 0.0.

    A stop ``(t, cum[t], width)``, width the level at t or GS in the tail,
    scores as the walk's ``t + (v - cum[t]) / width``; a tail stop is kept
    as ``tails[key] = (t, cum[t])``, as the walk keeps it.  A score the
    table lacks, or whose stop is a failed check, maps to ``None``: its
    walk raises its own message.  Returns one list of stops per problem.
    """
    out = [[None] * len(p[2]) for p in problems]

    def first(lo, hi, part):
        """The first read of the problems at ``part``: their scores grouped
        into one open row per (problem, table row), and the levels."""
        wanted = [(b, key) for b in part for key in problems[b][2]]
        found, block = table(lo, hi, wanted)
        pairs, groups, at, counts, start = [], [], [], [], 0
        for b in part:
            keys = problems[b][2]
            by_row = {}
            for j, r in enumerate(found[start:start + len(keys)]):
                if r in by_row:
                    by_row[r].append(j)
                elif r is not None:
                    by_row[r] = [j]
                    pairs.append(wanted[start + j])
            groups += by_row.values()
            at += by_row
            counts.append(len(by_row))
            start += len(keys)
        carried = np.array([(*problems[b][:2], 0.0, 0.0) for b in part]
                           ).repeat(counts, axis=0)
        return (pairs, groups, carried), at, block

    def read(lo, hi, rows, at, block):
        """Check and sum ``[lo, hi)`` of the open ``rows``, ``(pairs,
        groups, carried)``: row k holds the scores at ``groups[k]`` of the
        pair at block row ``at[k]``, and ``carried[k]`` is its (GS, n, sum,
        last level).  Place the scores that stop there and return the rows
        still open at hi in the same form, or ``None``."""
        pairs, groups, carried = rows
        width = hi - lo
        step = max(1, PREFIX_SLICE_ENTRIES // (width + 1))
        kept, left_of, held = [], [], []
        b_of = None
        for top in range(0, len(pairs), step):
            part = slice(top, top + step)
            # lv[k, 0]: the level before lo of row k, then its levels and
            # inf; go[k, s]: its walk passes lo + s, never past hi; lv[k, 0]
            # then takes the sum
            lv = np.empty((len(at[part]), width + 2))
            lv[:, 0] = carried[part, 3]
            lv[:, 1:-1] = block[:, :width].take(at[part], axis=0)
            lv[:, -1] = math.inf
            go = lv[:, 1:] >= lv[:, :-1]
            go &= lv[:, 1:] < carried[part, :1]
            lv[:, 0] = carried[part, 2]
            cum = lv.cumsum(axis=1)     # cum[k, s]: levels before lo + s
            for k, (b, _), js, e in zip(range(len(cum)), pairs[part],
                                        groups[part],
                                        go.argmin(axis=1).tolist()):
                if b != b_of:
                    b_of, (row_gs, n, keys, values, tails) = b, problems[b]
                    placed = out[b]
                prefix, b_e, left = None, cum.item(k, e), []
                for j in js:
                    v = values[j]
                    if v < b_e:     # bracketed before the row halts
                        prefix = prefix or cum[k, :e + 1].tolist()
                        i = bisect.bisect_right(prefix, v) - 1
                        placed[j] = (lo + i, prefix[i], lv.item(k, i + 1))
                    elif e == width and hi < n:     # open: read on
                        left.append(j)
                    elif e == width or lv.item(k, e + 1) == row_gs:  # tail
                        placed[j] = (lo + e, b_e, row_gs)
                        tails[keys[j]] = (lo + e, b_e)
                if left:        # b_e is the sum of the levels before hi
                    kept.append(top + k)
                    left_of.append(left)
                    held.append((b_e, lv.item(k, width)))
        if not kept:
            return None
        carried = carried[kept]
        carried[:, 2:] = held
        return [pairs[k] for k in kept], left_of, carried

    ends = {}
    for b, (gs, n, keys, values, _) in enumerate(problems):
        if keys:
            v_max = max(values)
            ends[b] = min(n, max(8, int(v_max / gs) + 1)
                          if v_max < n * gs else 8)
    reads = []      # (lo, hi, open rows), or the problems of a first read
    order = sorted(ends, key=ends.get, reverse=True)
    while order:    # first chunks, each read with those of at least half
        top = ends[order[0]]        # its end; every sum and level is 0
        part = [b for b in order if 2 * ends[b] >= top]
        order = order[len(part):]
        reads.append((0, top, part))
    while reads:
        later = {}          # hi -> the rows open there
        for lo, hi, rows in reads:
            if lo:
                at, block = table(lo, hi, rows[0])
            else:
                rows, at, block = first(lo, hi, rows)
            rows = read(lo, hi, rows, at, block)
            if rows is None:
                continue
            if hi in later:
                pairs, groups, carried = later[hi]
                rows = (pairs + rows[0], groups + rows[1],
                        np.concatenate([carried, rows[2]]))
            later[hi] = rows
        reads = [(lo, min(2 * lo, int(rows[2][:, 1].max())), rows)
                 for lo, rows in later.items()]
    return out


def _check_delta(mechanism: str, delta: SensitivityFunction | None) -> None:
    name = "local" if mechanism == "ld" else "shifted"
    if delta is None:
        raise InvalidInputError(f"{name} dampening needs a sensitivity function")
    if not delta.declared_admissible:
        raise ContractViolationError(
            f"sensitivity function {delta.name} is not declared admissible"
        )
    if mechanism == "sld" and not delta.declared_bounded:
        raise ContractViolationError(
            f"sensitivity function {delta.name} is not declared bounded; "
            "wrap it with bound_sensitivity first"
        )


def _legendre(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``P_m(x)`` and ``P_m'(x)`` by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, m + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, m * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


def gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (descending) and weights of the ``m``-point Gauss-Legendre rule
    on ``[-1, 1]``.

    Newton's method on the recurrence from the asymptotic guesses
    ``cos(pi (i - 1/4) / (m + 1/2))`` converges in a few steps for every
    ``m``; ``numpy.polynomial.legendre.leggauss``'s outermost weights are
    off by about 1e-8 relative at ``m = 1000`` (see the tests).  ``1 - x^2``
    is taken as ``(1 - x)(1 + x)``, which loses less precision next to the
    ends of the interval.
    """
    x = np.cos(np.pi * (np.arange(1, m + 1) - 0.25) / (m + 0.5))
    for _ in range(100):
        p, dp = _legendre(x, m)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-14:
            break
    _, dp = _legendre(x, m)
    return x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)


#: Largest (candidate, node) slice of the permute-and-flip integrand held at
#: once, which bounds its memory at any number of candidates.
PF_SLICE_ENTRIES = 1 << 16


def _pf_probabilities(log_p: np.ndarray) -> np.ndarray:
    """Exact permute-and-flip distribution (McKenna & Sheldon, 2020).

    With coin probabilities ``p_j = exp(log_p_j)``, candidate ``r`` is
    returned with probability ``p_r * int_0^1 prod_{j != r} (1 - p_j u) du``.
    The integrand is a polynomial of degree below k, so Gauss-Legendre
    quadrature with ``k // 2 + 1`` nodes is exact up to rounding.  The
    (candidate, node) grid is evaluated a few nodes at a time.
    """
    k = len(log_p)
    p = np.exp(log_p)
    nodes, weights = gauss_legendre(k // 2 + 1)
    u = 0.5 * (nodes + 1.0)                       # nodes mapped onto [0, 1]
    w = 0.5 * weights
    integral = np.zeros(k)
    step = max(1, PF_SLICE_ENTRIES // k)
    for lo in range(0, len(u), step):
        log_f = np.log1p(-p[:, None] * u[None, lo:lo + step])
        others = np.exp(log_f.sum(axis=0) - log_f)
        integral += others @ w[lo:lo + step]
    probs = p * integral
    return probs / probs.sum()


MECHANISMS = ("em", "pf", "ld", "sld")


class Prepared:
    """One mechanism on one selection problem, scored once.

    A score depends only on the database, GS, ``delta``, the candidate and
    its utility, plus the shift for ``sld``.  The constructor checks the
    tag and ``delta`` as :func:`distribution` does and reads the utilities
    once; each dampened score is memoised per (position, value dampened
    at).  Over a ``delta`` with a ``table``, declared bounded and
    nondecreasing in t, the scores still to find come from one array pass
    (:func:`_prefixes`, over this problem as a batch of one, or over many
    problems in :func:`score_together`), else from walks (:func:`dampen`).
    A candidate whose pass or walk ended in the constant tail keeps its
    ``(i_end, B)``, so a new ``sld`` shift scores it with the walk's own
    return and no new pass or walk.  :meth:`distribution` and
    :meth:`select` share one scoring routine and read any epsilon over the
    candidates at positions ``keep`` (ascending, default all) with the same
    float operations as over a fresh problem of just those candidates.
    """

    def __init__(self, mechanism: str, problem: SelectionProblem,
                 delta: SensitivityFunction | None = None):
        if mechanism in ("ld", "sld"):
            _check_delta(mechanism, delta)
        elif mechanism not in MECHANISMS:
            raise InvalidInputError(f"unknown mechanism {mechanism!r}")
        self.mechanism = mechanism
        self.problem = problem
        self.delta = delta
        self.utilities = np.array(problem.utilities())
        # offset (None for ld) -> D at every position, NaN until needed
        self._rows: dict = {}
        # candidate -> (i_end, B) where its pass or walk entered the tail
        self._tails: dict = {}

    def _dampened(self, pos: np.ndarray, shift) -> np.ndarray:
        """``D`` at positions ``pos``, of the utilities shifted for ``sld``
        as described in :func:`distribution`."""
        row, at, values, known, asked = self._pending(pos, shift)
        if asked:
            known.update(zip(asked, _prefixes(
                _table_reader(self.delta, self.problem.database),
                [self._asking(at, values, asked)])[0]))
        self._place(row, at, values, known)
        return row[pos]

    def _pending(self, pos: np.ndarray, shift) -> tuple:
        """What scoring ``pos`` at the shift still needs: the memo row of
        ``D`` at the shift (NaN until scored), the positions ``at`` not
        scored there yet with their shifted utilities ``values``, the stops
        ``known`` from kept tails, and the scores ``asked`` of the array
        pass, over a ``delta`` with a ``table``, declared bounded and
        nondecreasing in t (indices into ``at``).  Zero and non-finite
        scores take the walk."""
        problem, delta, u = self.problem, self.delta, self.utilities
        if self.mechanism == "ld":
            shift = None
        else:   # from here on, the offset added to every utility
            n_gs = problem.database_size * problem.global_sensitivity
            if delta.monotonicity == "non_increasing":
                shift = n_gs - u[pos].min() if shift is None else shift
            else:
                shift = -(n_gs + u[pos].max() if shift is None else shift)
        row = self._rows.get(shift)
        if row is None:
            row = self._rows[shift] = np.full(len(u), np.nan)
        at = pos[np.isnan(row[pos])].tolist()
        if not at:
            return row, at, [], {}, []
        values = (u[at] if shift is None else u[at] + shift).tolist()
        arrays = delta.table is not None and (
            delta.declared_bounded and delta.declared_nondecreasing_in_t)
        candidates, tails = problem.candidates, self._tails
        known, asked = {}, []
        for k, w in enumerate(values):
            if 0 < abs(w) < math.inf:
                steps, b = tails.get(candidates[at[k]], (0, math.inf))
                if b <= abs(w):     # in the tail past a kept (i_end, B)
                    known[k] = (steps, b, problem.global_sensitivity)
                elif arrays:
                    asked.append(k)
        return row, at, values, known, asked

    def _asking(self, at, values, asked) -> tuple:
        """The :func:`_prefixes` problem of the scores at ``asked``."""
        problem = self.problem
        return (problem.global_sensitivity, problem.database_size,
                [problem.candidates[at[k]] for k in asked],
                [abs(values[k]) for k in asked], self._tails)

    def _place(self, row, at, values, known) -> None:
        """Write ``D`` of every position at ``at`` into ``row``, from its
        ``known`` stop, or else from a walk."""
        candidates = self.problem.candidates
        for k, (i, w) in enumerate(zip(at, values)):
            if known.get(k) is None:
                row[i] = dampen(self.problem, self.delta, candidates[i], w,
                                self._tails)
            else:
                steps, b, width = known[k]
                row[i] = (1.0 if w > 0 else -1.0) * (
                    steps + (abs(w) - b) / width)

    def _scored(self, epsilon: float, keep, shift) -> tuple:
        """Scores and exact probabilities of the candidates at ``keep``, as
        :meth:`distribution` describes them; unchecked, so a NaN this makes
        is refused by the caller."""
        check_epsilon(epsilon)
        mechanism = self.mechanism
        gs = self.problem.global_sensitivity
        pos = (np.arange(len(self.utilities)) if keep is None
               else np.asarray(keep, dtype=int))
        if gs == 0:
            k = len(pos)
            return np.zeros(k), np.full(k, 1.0 / k)
        with np.errstate(over="ignore", invalid="ignore"):
            if mechanism in ("ld", "sld"):
                unscaled = self._dampened(pos, shift)
                scores = epsilon * unscaled / 2.0
            else:
                unscaled = u = self.utilities[pos]
                scores = (epsilon * u / (2.0 * gs) if mechanism == "em"
                          else epsilon / (2.0 * gs) * (u - u.max()))
            if not math.isfinite(scores.max()):
                top = unscaled == unscaled.max()
                probabilities = top / top.sum()
            elif mechanism == "pf":
                probabilities = _pf_probabilities(scores)
            else:
                probabilities = _stable_softmax(scores)
        return scores, probabilities

    def distribution(self, epsilon: float, keep: Sequence[int] | None = None,
                     shift: float | None = None) -> SelectionDistribution:
        """Exact output distribution over the candidates at ``keep``.

        When the largest score overflows (``+inf``, ``-inf`` for every
        candidate, or permute-and-flip's ``inf * 0``), this is the limit
        as epsilon grows: uniform over the kept candidates whose unscaled
        score (``u``, or ``D`` for ``ld``/``sld``) is largest.  Otherwise
        an overflowing ``-inf`` score is a candidate of probability zero.
        """
        scores, probabilities = self._scored(epsilon, keep, shift)
        candidates = self.problem.candidates
        if keep is not None:
            candidates = tuple(candidates[i] for i in keep)
        return SelectionDistribution(self.mechanism, epsilon, candidates,
                                     probabilities, scores)

    def select(self, epsilon: float, rng, keep: Sequence[int] | None = None) -> int:
        """Draw one candidate at ``keep`` and return its index in ``keep``.

        Every tag but ``pf`` draws one ``rng.random()`` against the CDF of
        :meth:`distribution`'s probabilities, checked the same way, without
        building the distribution.  Permute-and-flip walks a random
        permutation of the kept candidates and returns the first whose
        ``Bernoulli(exp(eps * (u - u*) / 2GS))`` coin lands heads; a
        maximizer flips heads with probability one, so the walk always
        terminates.
        """
        if self.mechanism != "pf":
            _, probabilities = self._scored(epsilon, keep, None)
            return _sample(range(len(probabilities)), _checked(probabilities), rng)
        check_epsilon(epsilon)
        u = self.utilities if keep is None else self.utilities[keep]
        gs = self.problem.global_sensitivity
        if gs == 0:
            return int(rng.integers(len(u)))
        u_star = float(u.max())
        u = u.tolist()
        rate = epsilon / (2.0 * gs)
        for idx in rng.permutation(len(u)):
            gap = u_star - u[idx]   # 0 at a maximizer: heads at any rate
            if rng.random() < (math.exp(-rate * gap) if gap else 1.0):
                return int(idx)
        raise AssertionError("unreachable: some candidate attains u*")


def score_together(prepared: Sequence[Prepared], table) -> None:
    """Score every candidate of each of ``prepared`` (``ld``, or ``sld`` at
    its default shift) as its own :meth:`Prepared.select` would, in one
    :func:`_prefixes` pass over ``table`` for all of them.

    ``table(lo, hi, wanted)`` serves the pair ``(b, candidate)`` with the
    levels that ``prepared[b].delta.table`` holds for the candidate, GS
    pinned past the size included, in the form :func:`_prefixes` reads.
    The scores are then the same floats as from each one's own pass; a
    score the pass leaves to the walk is walked over ``prepared[b].delta``.
    """
    pending = [p._pending(np.arange(len(p.utilities)), None)
               for p in prepared]
    stops = _prefixes(table, [p._asking(at, values, asked) for p, (
        _, at, values, _, asked) in zip(prepared, pending)])
    for p, (row, at, values, known, asked), found in zip(
            prepared, pending, stops):
        known.update(zip(asked, found))
        p._place(row, at, values, known)


def distribution(
    mechanism: str,
    problem: SelectionProblem,
    epsilon: float,
    delta: SensitivityFunction | None = None,
    shift: float | None = None,
) -> SelectionDistribution:
    """Exact output distribution of one mechanism tag; draws nothing.

    ``em``: probability proportional to ``exp(epsilon * u / (2 GS))``.
    ``pf``: permute-and-flip, whose scores are the log coin probabilities
    ``epsilon (u - u*) / (2 GS)``.  ``ld``: proportional to
    ``exp(epsilon * D(u) / 2)``, with ``D`` the dampened utility under
    ``delta``.  ``sld``: local dampening of a shifted utility; for a
    non-increasing ``delta`` the utilities are raised until they all sit at
    or above ``n * GS``, otherwise lowered by the saturation constant
    ``n * GS + max u`` (or a caller-provided ``shift`` at least that large),
    placing every score in the constant-width tail of the breakpoint grid.
    ``ld`` needs a ``delta`` declared admissible, the hypothesis under which
    it is differentially private; ``sld`` needs one also declared bounded.
    A zero global sensitivity means the utility carries no private signal,
    and every mechanism degenerates to uniform.  One-shot form of
    :class:`Prepared`.
    """
    return Prepared(mechanism, problem, delta).distribution(epsilon, shift=shift)


def _draw(dist: SelectionDistribution, rng):
    return _sample(dist.candidates, dist.probabilities, rng), dist


def select_exponential(problem: SelectionProblem, epsilon: float, rng):
    """Sample a candidate with probability proportional to
    ``exp(epsilon * u / (2 * global_sensitivity))``; returns
    ``(candidate, distribution)``."""
    return _draw(distribution("em", problem, epsilon), rng)


def select_permute_and_flip(problem: SelectionProblem, epsilon: float, rng):
    """Permute-and-flip (see :meth:`Prepared.select`); returns the
    candidate only, whose exact distribution is ``distribution("pf",
    ...)``."""
    return problem.candidates[Prepared("pf", problem).select(epsilon, rng)]


def select_local_dampening(
    problem: SelectionProblem,
    delta: SensitivityFunction,
    epsilon: float,
    rng,
):
    """Sample with probability proportional to ``exp(epsilon * D(u) / 2)``
    where ``D`` is the dampened utility under ``delta``; returns
    ``(candidate, distribution)``.

    ``delta`` must be declared admissible; that is the hypothesis under
    which the mechanism is differentially private.
    """
    return _draw(distribution("ld", problem, epsilon, delta), rng)


def shift_constant(problem: SelectionProblem) -> float:
    """Smallest shift beyond which the shifted distribution saturates:
    ``n * GS + max_r u(x, r)``."""
    return problem.database_size * problem.global_sensitivity + max(
        problem.utilities()
    )


def select_shifted_local_dampening(
    problem: SelectionProblem,
    delta: SensitivityFunction,
    epsilon: float,
    rng,
    shift: float | None = None,
):
    """Local dampening applied to a shifted utility (see
    :func:`distribution`); returns ``(candidate, distribution)``.
    ``delta`` must be declared admissible and bounded.
    """
    return _draw(distribution("sld", problem, epsilon, delta, shift), rng)


def expected_error(dist: SelectionDistribution, problem: SelectionProblem) -> float:
    """Exact expected utility regret ``sum_r Pr[r] * (u* - u(x, r))``."""
    if set(dist.candidates) != set(problem.candidates):
        raise InvalidInputError("distribution does not cover the full range")
    u = dict(zip(problem.candidates, problem.utilities()))
    u_star = max(u.values())
    return float(
        sum(
            p * (u_star - u[r])
            for r, p in zip(dist.candidates, dist.probabilities)
        )
    )


def error_tail(
    dist: SelectionDistribution, problem: SelectionProblem, theta: float
) -> float:
    """Exact ``Pr[u* - u(x, M(x)) >= theta]``."""
    u = dict(zip(problem.candidates, problem.utilities()))
    u_star = max(u.values())
    return float(
        sum(
            p
            for r, p in zip(dist.candidates, dist.probabilities)
            if u_star - u[r] >= theta
        )
    )


def select(
    mechanism: str,
    problem: SelectionProblem,
    epsilon: float,
    rng,
    delta: SensitivityFunction | None = None,
):
    """Draw one candidate with the mechanism named by its tag
    (:meth:`Prepared.select`)."""
    return problem.candidates[
        Prepared(mechanism, problem, delta).select(epsilon, rng)
    ]
