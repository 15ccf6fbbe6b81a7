"""Experiment orchestration: run (application, mechanism, epsilon, seed)
grids one cell at a time and emit machine-readable rows.

Percentile and mechanism-compare cells report exact expected errors from
each mechanism's output distribution and draw nothing.  Top-k cells average
``runs`` seeded private selections; tree cells cross-validate.

Determinism contract: every cell that draws derives its own generator from
the base seed and the cell coordinates, so results are byte-identical
across runs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import SPAWN_CHUNK, InvalidInputError, check_epsilon, spawn_generators
from . import graphs as graphs_mod
from . import mechanisms
from . import percentile as percentile_mod
from . import trees as trees_mod
from .sensitivity import flatten_sensitivity, hull_levels

#: Default number of private top-k selections averaged per topk cell.
DEFAULT_TOPK_RUNS = 100

#: Most private top-k selections a topk cell averages.  A cell keeps one
#: score per run, so without a bound ``--runs`` alone would set memory.
MAX_TOPK_RUNS = 1_000_000


@dataclass(frozen=True)
class ExperimentSpec:
    application: str
    dataset_ref: str
    epsilons: tuple
    mechanisms: tuple
    base_seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.application not in _CELLS:
            raise InvalidInputError(f"unknown application {self.application!r}")
        if not self.epsilons:
            raise InvalidInputError("epsilon list must be nonempty")
        for epsilon in self.epsilons:
            check_epsilon(epsilon)
        if not self.mechanisms:
            raise InvalidInputError("mechanism list must be nonempty")
        tags = _CELLS[self.application][0]
        for tag in self.mechanisms:
            if tag not in tags:
                raise InvalidInputError(
                    f"{self.application} mechanism must be one of {tags}, "
                    f"got {tag!r}"
                )
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        object.__setattr__(self, "mechanisms", tuple(self.mechanisms))


@dataclass(frozen=True)
class ResultRow:
    application: str
    dataset: str
    mechanism: str
    epsilon: float
    metric: str
    value: float
    dispersion: float
    runtime_ms: float

    FIELDS = (
        "application", "dataset", "mechanism", "epsilon",
        "metric", "value", "dispersion", "runtime_ms",
    )


def cell_seed(base_seed: int, *coords) -> int:
    """Stable per-cell seed: hash of the base seed and cell coordinates."""
    text = "|".join([str(base_seed)] + [str(c) for c in coords])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def load_dataset(path: str, kind: str, **options):
    """Dispatch to the per-model loaders; see each for format details."""
    if kind == "vector":
        if "lambda_cap" not in options:
            raise InvalidInputError("numeric vectors need a lambda_cap")
        return percentile_mod.load_vector(path, options["lambda_cap"])
    if kind == "graph":
        graph, _report = graphs_mod.load_edge_list(path)
        return graph
    if kind == "table":
        if "schema" not in options:
            raise InvalidInputError("tables need a schema sidecar path")
        return trees_mod.load_table(path, options["schema"])
    raise InvalidInputError(f"unknown dataset kind {kind!r}")


def _percentile_cells(spec: ExperimentSpec, dataset):
    """Exact expected error of each (mechanism, epsilon); nothing is drawn.
    Each mechanism scores the problem once, for every epsilon.  The first
    ``ld`` or ``sld`` cell scores both that the spec asks for in one
    :func:`mechanisms.score_together` pass: each read computes the bounded
    levels of every record once, and ``ld`` reads their hull
    (:func:`~dampen.sensitivity.hull_levels`) from the same block."""
    p = int(spec.params.get("p", 50))
    query = percentile_mod.PercentileQuery(p, len(dataset))
    problem = percentile_mod.percentile_problem(dataset, query)
    delta = percentile_mod.bounded_ls_percentile(dataset, query)
    deltas = {"ld": flatten_sensitivity(delta, problem), "sld": delta}
    tags = [tag for tag in deltas if tag in spec.mechanisms]
    prepared = {}

    def levels(lo, hi, wanted):
        rows, block = delta.table(dataset, lo, hi)
        hull = len(block)       # ld's row, appended only while ld reads on
        if any(tags[b] == "ld" for b, _ in wanted):
            block = np.vstack([block, hull_levels(problem.candidates, rows,
                                                  block)])
        return [hull if tags[b] == "ld" else rows.get(key)
                for b, key in wanted], block

    def cell(mechanism, eps_ix, epsilon):
        if mechanism not in prepared:
            group = tags if mechanism in deltas else [mechanism]
            made = [mechanisms.Prepared(tag, problem, deltas.get(tag))
                    for tag in group]
            prepared.update(zip(group, made))
            if mechanism in deltas:
                mechanisms.score_together(made, levels)
        dist = prepared[mechanism].distribution(epsilon)
        return "expectedError", mechanisms.expected_error(dist, problem), 0.0

    return cell


def _topk_cells(spec: ExperimentSpec, graph):
    """Mean top-k accuracy over ``runs`` seeded private selections, with
    its standard error.  ``runs``, k and every epsilon's per-round share
    are checked before any cell runs.  Each mechanism prepares one
    :class:`graphs.TopKSelector` (one selection, one sensitivity function)
    and each cell draws from it ``runs`` times at its epsilon, so every
    node is scored once per job.

    Run i of a cell draws its k rounds from the generators
    ``numpy.random.default_rng(cell_seed(...)).spawn(k)`` gives.  They are
    derived straight from the cell seeds of up to ``SPAWN_CHUNK // k``
    runs at a time (:func:`~dampen.core.spawn_generators`), and each run
    calls the selector's rounds loop, the loop of its ``draw``."""
    k = int(spec.params.get("k", 1))
    runs = int(spec.params.get("runs", DEFAULT_TOPK_RUNS))
    if runs < 1:
        raise InvalidInputError("runs must be >= 1")
    if runs > MAX_TOPK_RUNS:
        raise InvalidInputError(
            f"runs must be at most {MAX_TOPK_RUNS}, got {runs}")
    graphs_mod.check_k(graph, k)
    for epsilon in spec.epsilons:
        graphs_mod.round_budget(epsilon, k)
    selectors = {}
    per_batch = max(1, SPAWN_CHUNK // k)

    def cell(mechanism, eps_ix, epsilon):
        if mechanism not in selectors:
            selectors[mechanism] = graphs_mod.TopKSelector(graph, k, mechanism)
        selector = selectors[mechanism]
        scores = np.empty(runs)
        for lo in range(0, runs, per_batch):
            seeds = [cell_seed(spec.base_seed, "topk", mechanism, eps_ix, run_ix)
                     for run_ix in range(lo, min(runs, lo + per_batch))]
            batch = spawn_generators(seeds, [k] * len(seeds))
            for run_ix, generators in enumerate(batch, start=lo):
                result = selector.rounds(generators, epsilon)
                scores[run_ix] = graphs_mod.topk_accuracy(result, graph, k)
        stderr = float(scores.std(ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0
        return "topkAccuracy", float(scores.mean()), stderr

    return cell


def _tree_cells(spec: ExperimentSpec, table):
    """Cross-validated accuracy of one induction variant.  Every epsilon's
    per-stage share is checked, and the table checked and binned, once
    here, before any cell runs."""
    depth = int(spec.params.get("depth", 2))
    folds = int(spec.params.get("folds", 10))
    for epsilon in spec.epsilons:
        trees_mod.stage_budget(epsilon, depth)
    table = trees_mod.cv_table(table)

    def cell(variant, eps_ix, epsilon):
        score = trees_mod.cross_validate(
            table, depth, epsilon, variant,
            seed=cell_seed(spec.base_seed, "tree", variant, eps_ix),
            folds=folds,
        )
        return "cvAccuracy", score, 0.0

    return cell


#: Per application: the mechanism tags it accepts, and the factory that
#: builds its cell function ``(tag, epsilon index, epsilon) -> (metric,
#: value, dispersion)`` from the spec and the loaded dataset.
_CELLS = {
    "percentile": (mechanisms.MECHANISMS, _percentile_cells),
    "topk": (mechanisms.MECHANISMS, _topk_cells),
    "tree": (trees_mod.VARIANTS, _tree_cells),
    "mechanism-compare": (mechanisms.MECHANISMS, _percentile_cells),
}


def run_experiment(spec: ExperimentSpec, dataset=None) -> list[ResultRow]:
    """Run every (mechanism, epsilon) cell of the spec, one after another,
    and return the rows in mechanism-major order."""
    if dataset is None:
        raise InvalidInputError("run_experiment needs a loaded dataset")
    record_runtime = bool(spec.params.get("record_runtime", False))
    cell = _CELLS[spec.application][1](spec, dataset)
    rows = []
    for mechanism in spec.mechanisms:
        for eps_ix, epsilon in enumerate(spec.epsilons):
            t0 = time.perf_counter()
            metric, value, dispersion = cell(mechanism, eps_ix, epsilon)
            # wall clock is only recorded on request: the determinism
            # contract promises byte-identical output for a fixed (spec, seed)
            runtime_ms = (time.perf_counter() - t0) * 1e3 if record_runtime else 0.0
            rows.append(ResultRow(
                application=spec.application,
                dataset=spec.dataset_ref,
                mechanism=mechanism,
                epsilon=epsilon,
                metric=metric,
                value=value,
                dispersion=dispersion,
                runtime_ms=runtime_ms,
            ))
    return rows


#: Each ResultRow key as ``json.dumps(..., indent=2)`` writes it in a row.
_JSON_KEYS = tuple(f'      "{k}": ' for k in ResultRow.FIELDS)


def _json_text(rows: Sequence[ResultRow], datasets: list) -> str | None:
    """``json.dumps(doc, indent=2)`` of :func:`emit`'s document, byte for
    byte, or ``None`` when a field is not a JSON scalar.

    ``indent`` selects the pure-Python encoder, so every scalar is encoded
    instead by one call of the C encoder with a newline as its item
    separator.  The encoder escapes every newline inside a string, so
    splitting on newlines gives back each scalar as the indented encoder
    writes it, and the layout around them is fixed.
    """
    flat = [rows[0].application, *datasets]
    flat += [getattr(r, k) for r in rows for k in ResultRow.FIELDS]
    if not all(v is None or isinstance(v, (str, int, float)) for v in flat):
        return None
    enc = json.dumps(flat, separators=("\n", ": "))[1:-1].split("\n")
    m, first = len(ResultRow.FIELDS), 1 + len(datasets)
    results = ",\n".join(
        "    {\n" + ",\n".join(map(str.__add__, _JSON_KEYS, enc[s:s + m]))
        + "\n    }" for s in range(first, len(enc), m))
    return ('{\n  "experiment": ' + enc[0]
            + ',\n  "params": {\n    "datasets": [\n      '
            + ",\n      ".join(enc[1:first])
            + '\n    ]\n  },\n  "results": [\n' + results + "\n  ]\n}")


def emit(rows: Sequence[ResultRow], fmt: str, sink) -> None:
    """Write rows as JSON ({"experiment":…, "params":…, "results":[…]}) or
    CSV with the fixed ResultRow header."""
    if not rows:
        raise InvalidInputError("no rows to emit")
    if fmt == "json":
        datasets = sorted({r.dataset for r in rows})
        text = _json_text(rows, datasets)
        if text is None:
            text = json.dumps({
                "experiment": rows[0].application,
                "params": {"datasets": datasets},
                "results": [
                    {k: getattr(r, k) for k in ResultRow.FIELDS} for r in rows
                ],
            }, indent=2)
        sink.write(text + "\n")
    elif fmt == "csv":
        writer = csv.writer(sink)
        writer.writerow(ResultRow.FIELDS)
        for r in rows:
            writer.writerow([getattr(r, k) for k in ResultRow.FIELDS])
    else:
        raise InvalidInputError(f"unknown output format {fmt!r}")


def rows_to_text(rows: Sequence[ResultRow], fmt: str) -> str:
    buf = io.StringIO()
    emit(rows, fmt, buf)
    return buf.getvalue()


def parse_emitted_json(text: str) -> list[ResultRow]:
    doc = json.loads(text)
    return [ResultRow(**entry) for entry in doc["results"]]


def parse_emitted_csv(text: str) -> list[ResultRow]:
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for entry in reader:
        rows.append(
            ResultRow(
                application=entry["application"],
                dataset=entry["dataset"],
                mechanism=entry["mechanism"],
                epsilon=float(entry["epsilon"]),
                metric=entry["metric"],
                value=float(entry["value"]),
                dispersion=float(entry["dispersion"]),
                runtime_ms=float(entry["runtime_ms"]),
            )
        )
    return rows
