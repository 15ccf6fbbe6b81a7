"""Core types shared by the selection mechanisms and the applications.

A selection problem bundles a database handle, a finite candidate range and
a utility function; a sensitivity function upper-bounds how much the utility
of a single candidate can move between nearby databases.  Privacy budget
spent by composed mechanisms is tracked by :class:`BudgetAccountant`.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence


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
