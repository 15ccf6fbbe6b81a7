"""Experiment and verification command line.

Subcommands: ``percentile``, ``topk``, ``tree``, ``mechanism-compare`` and
``check``.  Exit codes: 0 success, 1 validation or runtime error, 2 check
failure, 3 I/O error.  Exit code 1 covers invalid input and the library's
runtime errors (a sensitivity function breaking its declared contract, an
unmet precondition, an exhausted search budget); each prints a one-line
``dampen: <reason>`` to stderr instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .core import (
    ContractViolationError,
    InvalidInputError,
    PreconditionError,
    SearchBudgetError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _csv_floats(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _csv_tokens(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _add_common(parser, default_mechanisms, flag="--mechanism"):
    parser.add_argument("--epsilon", type=_csv_floats, required=True,
                        help="comma-separated privacy budgets")
    parser.add_argument(flag, dest="mechanism", type=_csv_tokens,
                        default=default_mechanisms,
                        help="comma-separated mechanisms/variants")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=None,
                        help="private selections averaged per topk cell "
                             "(accepted and unused elsewhere)")
    parser.add_argument("--output", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--timing", action="store_true",
                        help="record wall-clock runtimes (breaks byte-level "
                             "reproducibility of the output)")


def build_parser() -> _Parser:
    """A new parser for every subcommand (:func:`main` keeps one)."""
    parser = _Parser(prog="dampen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("percentile", help="expected percentile-selection error")
    p.add_argument("--data", required=True, help="one value per line")
    p.add_argument("--lambda", dest="lambda_cap", type=float, required=True,
                   help="public upper bound on the values")
    p.add_argument("--p", type=int, default=50, help="percentile in [1, 100]")
    _add_common(p, ("em", "ld", "sld"))

    p = sub.add_parser("topk", help="private influential-node selection")
    p.add_argument("--graph", required=True, help="edge list file")
    p.add_argument("--k", type=int, default=1)
    _add_common(p, ("em", "pf", "ld", "sld"))

    p = sub.add_parser("tree", help="private decision-tree cross validation")
    p.add_argument("--data", required=True, help="CSV with a header row")
    p.add_argument("--schema", required=True, help="JSON schema sidecar")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--folds", type=int, default=10)
    _add_common(p, ("global", "local", "shifted"), flag="--variant")

    p = sub.add_parser("mechanism-compare",
                       help="all four mechanisms on one selection problem")
    p.add_argument("--data", required=True, help="one value per line")
    p.add_argument("--lambda", dest="lambda_cap", type=float, required=True)
    p.add_argument("--p", type=int, default=50)
    _add_common(p, ("em", "pf", "ld", "sld"))

    p = sub.add_parser("check", help="run the verification suites")
    p.add_argument("suite", nargs="?", default="all",
                   help="core, sensitivity, percentile, graph, tree or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=float, default=None,
                   help="wall clock budget in seconds")
    return parser


def _emit(rows, args) -> None:
    text = harness.rows_to_text(rows, args.output)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"dampen: cannot write {args.out}: {exc}", file=sys.stderr)
            raise SystemExit(3)
    else:
        sys.stdout.write(text)


#: The parser :func:`main` reuses, built on its first call (not at import).
_parser = None


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    The parser is built on the first call and reused by every later call
    in the process, so callers that run many jobs in one process pay for
    it once; parsing leaves it unchanged, and its list defaults are tuples
    that no job can edit.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        if args.command == "check":
            from .checks import run_checks      # loaded for this command only

            report = run_checks(args.suite, args.seed, args.budget)
            for line in report.lines():
                print(line)
            return 0 if report.passed else 2

        params = {"record_runtime": True} if args.timing else {}
        if args.command in ("percentile", "mechanism-compare"):
            ref = args.data
            dataset = harness.load_dataset(ref, "vector",
                                           lambda_cap=args.lambda_cap)
            params["p"] = args.p
        elif args.command == "topk":
            ref = args.graph
            dataset = harness.load_dataset(ref, "graph")
            params["k"] = args.k
            if args.runs is not None:
                params["runs"] = args.runs
        else:
            ref = args.data
            dataset = harness.load_dataset(ref, "table", schema=args.schema)
            params["depth"] = args.depth
            params["folds"] = args.folds

        spec = harness.ExperimentSpec(
            application=args.command,
            dataset_ref=ref,
            epsilons=tuple(args.epsilon),
            mechanisms=tuple(args.mechanism),
            base_seed=args.seed,
            params=params,
        )
        rows = harness.run_experiment(spec, dataset)
        _emit(rows, args)
        return 0
    except OSError as exc:
        print(f"dampen: {exc}", file=sys.stderr)
        return 3
    except (InvalidInputError, ContractViolationError, PreconditionError,
            SearchBudgetError) as exc:
        print(f"dampen: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
