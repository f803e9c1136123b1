"""Command-line interface.

Subcommands:

* ``analyze <pattern>`` — structural profile of a pattern (exact rationals);
* ``bound --spec S --pattern P --variant V`` — a total-variation bound report;
* ``lambda --spec S --pattern P`` — clump rates and the compound Poisson pmf;
* ``sample --spec S --seed s`` — draw one graph as edge-list text;
* ``count --graph F --pattern P`` — copies of the pattern in a graph file;
* ``experiment --config F`` — full validation run, JSON report (+ pmf CSVs);
* ``table1`` — density/alpha/gamma table for four pattern families, v=3..6.

Exit status: 0 on success; 2 when a precondition fails (the message names
the failed hypothesis) or an input value is invalid; 1 on I/O errors.  All
output is stable: fixed key order and 17-significant-digit floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import combinations

from .approximation import (
    DEFAULT_EPS,
    _cp_terms,
    lambda_params,
    tv_bound,
)
from .counting import count_copies
from .experiments import (
    _bound_json,
    _frac_json,
    _profile_json,
    _rates_json,
    _reference_pmf,
    run_experiment,
)
from .model import graph_from_text, graph_to_text, sample_graph, spec_from_json
from .patterns import (
    PatternGraph,
    automorphism_count,
    balancedness_profile,
    load_pattern,
    pattern_from_name,
    pattern_to_json,
    rho,
)
from .serialize import dumps_stable, pmf_to_csv, rows_to_csv

__all__ = ["main"]


def _load_json_arg(text: str):
    """Inline JSON (starts with '{') or a path to a JSON file."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return json.loads(stripped)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_spec(text: str):
    return spec_from_json(_load_json_arg(text))


def _cmd_analyze(args) -> int:
    pattern = load_pattern(args.pattern)
    payload = {
        "pattern": pattern_to_json(pattern),
        "vertices": pattern.vertex_count,
        "edges": pattern.edge_total,
        "supported_pairs": pattern.supported_pairs,
        "max_multiplicity": pattern.max_multiplicity,
        "self_loops": pattern.loop_total,
        "automorphisms": automorphism_count(pattern),
        "rho": rho(pattern),
        "profile": _profile_json(pattern),
    }
    print(dumps_stable(payload))
    return 0


def _cmd_bound(args) -> int:
    spec = _load_spec(args.spec)
    pattern = load_pattern(args.pattern)
    report = tv_bound(
        spec,
        pattern,
        args.variant,
        c_override=args.c_override,
        eps=args.eps,
        regime_c=args.regime_c,
        regime_C=args.regime_C,
    )
    print(dumps_stable(_bound_json(report)))
    return 0


def _cmd_lambda(args) -> int:
    spec = _load_spec(args.spec)
    pattern = load_pattern(args.pattern)
    params = lambda_params(spec, pattern, args.eps)
    pmf = _reference_pmf(_cp_terms(params), 0)
    print(dumps_stable(_rates_json(params)))
    print()
    print(pmf_to_csv(pmf), end="")
    return 0


def _cmd_sample(args) -> int:
    spec = _load_spec(args.spec)
    graph = sample_graph(spec, args.seed)
    text = graph_to_text(graph)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_count(args) -> int:
    with open(args.graph, "r", encoding="utf-8") as fh:
        graph = graph_from_text(fh.read())
    pattern = load_pattern(args.pattern)
    print(count_copies(graph, pattern))
    return 0


def _cmd_experiment(args) -> int:
    config = _load_json_arg(args.config)
    report = run_experiment(config)
    text = dumps_stable(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        stem = args.out[:-5] if args.out.endswith(".json") else args.out
        for name in ("reference", "observed"):
            with open(f"{stem}_{name}.csv", "w", encoding="utf-8") as fh:
                fh.write(rows_to_csv(report[name]["pmf"]))
    else:
        print(text)
    return 0


def _table1_families(v: int):
    yield "tree_path", pattern_from_name(f"path:{v}")
    yield "cycle", pattern_from_name(f"cycle:{v}")
    complete_minus = {
        pair: 1 for pair in combinations(range(v), 2) if pair != (0, 1)
    }
    yield "complete_minus_edge", PatternGraph(v, complete_minus)
    yield "complete", pattern_from_name(f"complete:{v}")


def _cmd_table1(args) -> int:
    print("family,v,density,alpha,gamma")
    for v in range(3, 7):
        for name, pattern in _table1_families(v):
            prof = balancedness_profile(pattern)
            print(
                f"{name},{v},{prof.density},{_frac_json(prof.alpha)},"
                f"{_frac_json(prof.gamma)}"
            )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``blockmotif`` parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="blockmotif",
        description=(
            "Pattern counts in block multigraph models: structural analysis, "
            "compound-Poisson approximation, error bounds, validation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural profile of a pattern")
    p.add_argument("pattern", help="pattern name, inline JSON, or JSON file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bound", help="total-variation bound report")
    p.add_argument("--spec", required=True, help="model spec JSON (inline or file)")
    p.add_argument("--pattern", required=True)
    p.add_argument("--variant", required=True)
    p.add_argument("--c-override", type=float, default=None)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--regime-c", type=float, default=None)
    p.add_argument("--regime-C", type=float, default=None)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("lambda", help="clump rates and compound Poisson pmf")
    p.add_argument("--spec", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("sample", help="draw one graph as edge-list text")
    p.add_argument("--spec", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("count", help="count pattern copies in a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("experiment", help="run a validation experiment")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", default=None, help="write the report here (+ pmf CSVs)")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("table1", help="density/alpha/gamma for four families")
    p.set_defaults(func=_cmd_table1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
