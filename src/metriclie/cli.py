"""Command-line front end.

Subcommands: check, decompose, jstructs, lab (factor-count | jcount | scan),
examples (list | show).  Exit codes: 0 success, 1 parse failure, 2 axiom
failure, 3 abelian-factor refusal, 4 internal assertion failure.
"""

from __future__ import annotations

import argparse
import sys

from . import docio
from .core import DEFAULT_TOL, NUMERIC, check_jacobi, to_numeric
from .errors import (
    AbelianFactorPresent,
    InternalAssertionFailure,
    JacobiViolation,
    MetricLieError,
    MetricNotPositiveDefinite,
    ParseError,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_AXIOM = 2
EXIT_ABELIAN = 3
EXIT_INTERNAL = 4


def _load(path, args):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    A = docio.parse_document(text, tol=args.tol)
    return to_numeric(A, args.tol) if args.backend == NUMERIC else A


def _emit(args, doc, text_lines):
    if args.format == "structured":
        print(docio.dumps(doc))
    else:
        for line in text_lines:
            print(line)


def _flag_echo(args):
    return {"seed": args.seed, "tol": args.tol, "format": args.format,
            "backend": args.backend}


def cmd_check(args):
    try:
        A = _load(args.path, args)
    except JacobiViolation as exc:
        print(f"FAIL jacobi: {exc}", file=sys.stderr)
        return EXIT_AXIOM
    except MetricNotPositiveDefinite as exc:
        print(f"FAIL metric: {exc}", file=sys.stderr)
        return EXIT_AXIOM
    report = check_jacobi(A)
    doc = docio.render_document(A)
    doc["check"] = {"jacobi_max_residual": docio._fmt_residual(report.max_residual),
                    "passed": report.passed, "flags": _flag_echo(args)}
    _emit(args, doc, [
        f"algebra {A.name or args.path}: dim {A.dim}",
        f"jacobi max residual: {docio._fmt_residual(report.max_residual)}",
        "all axioms pass" if report.passed else "AXIOM FAILURE",
    ])
    return EXIT_OK if report.passed else EXIT_AXIOM


def cmd_decompose(args):
    from .centroid import decompose

    A = _load(args.path, args)
    dec = decompose(A, seed=args.seed)
    doc = docio.decomposition_document(dec)
    doc["decomposition"]["flags"] = _flag_echo(args)
    lines = [f"algebra {A.name or args.path}: dim {A.dim}",
             f"irreducible factors: k = {dec.k} (backend {dec.backend})"]
    for idx, f in enumerate(dec.factors, 1):
        lines.append(f"  factor {idx}: dim {f.carrier.dim}")
        for v in f.carrier.basis:
            lines.append("    [" + ", ".join(docio.format_scalar(x) for x in v) + "]")
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_jstructs(args):
    from .complexstruct import enumerate_complex_structures

    A = _load(args.path, args)
    structures = enumerate_complex_structures(A, seed=args.seed)
    doc = docio.enumeration_document(A, structures)
    doc["complex_structures"]["flags"] = _flag_echo(args)
    lines = [f"algebra {A.name or args.path}: dim {A.dim}",
             f"orthogonal bi-invariant complex structures: {len(structures)}"]
    for s in structures:
        lines.append(f"  signs {list(s.signs)} (backend {s.backend}):")
        for row in s.J:
            lines.append("    [" + ", ".join(docio.format_scalar(x) for x in row) + "]")
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_lab(args):
    from .examples import get_example
    from .lab import BlockSpec, jcount_experiment, make_metric_with_factor_count, metric_scan

    def blocks():
        return BlockSpec(tuple(get_example(n.strip()) for n in args.blocks.split(",")), args.seed)

    if args.lab_cmd == "factor-count":
        spec = blocks()
        metric = make_metric_with_factor_count(spec, args.l)
        doc = {"schema": docio.SCHEMA_VERSION, "lab": "factor-count",
               "blocks": args.blocks, "l": args.l,
               "gram": docio.matrix_doc(metric.gram), "flags": _flag_echo(args)}
        _emit(args, doc, [f"metric with exactly l={args.l} irreducible factors:"]
              + ["  [" + ", ".join(docio.format_scalar(x) for x in row) + "]"
                 for row in metric.gram])
        return EXIT_OK
    if args.lab_cmd == "jcount":
        spec = blocks()
        report = jcount_experiment(spec, args.l)
        doc = {"schema": docio.SCHEMA_VERSION, "lab": "jcount",
               "blocks": args.blocks, "l": report.l, "k": report.k,
               "count": report.count, "backend": report.backend,
               "gram": docio.matrix_doc(report.metric.gram), "flags": _flag_echo(args)}
        _emit(args, doc, [f"l={report.l} of k={report.k} blocks: "
                          f"{report.count} orthogonal bi-invariant complex structures"])
        return EXIT_OK
    if args.lab_cmd == "scan":
        A = get_example(args.algebra)
        report = metric_scan(A, args.trials, args.seed, args.spread)
        doc = {"schema": docio.SCHEMA_VERSION, "lab": "scan", "algebra": args.algebra,
               "trials": args.trials, "skipped": report.skipped,
               "flags": _flag_echo(args), "epsilon": "1/10", "spread": args.spread,
               "table": [
                   {"trial": t.index, "seed": t.seed, "gram_hash": t.gram_hash,
                    "k": t.k, "j_count": t.j_count, "backend": t.backend}
                   for t in report.trials
               ],
               "histogram": [
                   {"k": k, "j_count": jc, "trials": c}
                   for (k, jc), c in sorted(report.histogram.items())
               ]}
        lines = [f"scan of {args.algebra}: {args.trials} trials, {report.skipped} skipped",
                 "  k  j_count  trials"]
        for (k, jc), c in sorted(report.histogram.items()):
            lines.append(f"  {k}  {jc}        {c}")
        _emit(args, doc, lines)
        return EXIT_OK
    raise AssertionError(args.lab_cmd)


def cmd_examples(args):
    from .examples import example_description, example_keys, get_example

    if args.ex_cmd == "list":
        doc = {"schema": docio.SCHEMA_VERSION,
               "examples": [{"key": k, "description": example_description(k)}
                            for k in example_keys()]}
        _emit(args, doc, [f"{k}: {example_description(k)}" for k in example_keys()])
        return EXIT_OK
    A = get_example(args.key)
    doc = docio.render_document(A)
    print(docio.dumps(doc))
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="metriclie",
                                description="orthogonal decompositions and bi-invariant "
                                            "complex structures of metric Lie algebras")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="tolerance for the numeric backend")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--backend", choices=("exact", "numeric"), default="exact")
    sub = p.add_subparsers(dest="cmd", required=True)

    pc = sub.add_parser("check", help="validate an algebra document")
    pc.add_argument("path")
    pc.set_defaults(func=cmd_check)

    pd = sub.add_parser("decompose", help="orthogonal decomposition into irreducible factors")
    pd.add_argument("path")
    pd.set_defaults(func=cmd_decompose)

    pj = sub.add_parser("jstructs", help="enumerate orthogonal bi-invariant complex structures")
    pj.add_argument("path")
    pj.set_defaults(func=cmd_jstructs)

    pl = sub.add_parser("lab", help="metric-variation experiments")
    labsub = pl.add_subparsers(dest="lab_cmd", required=True)
    pfc = labsub.add_parser("factor-count")
    pfc.add_argument("--blocks", required=True, help="comma-separated example keys")
    pfc.add_argument("--l", type=int, required=True)
    pjc = labsub.add_parser("jcount")
    pjc.add_argument("--blocks", required=True)
    pjc.add_argument("--l", type=int, required=True)
    psc = labsub.add_parser("scan")
    psc.add_argument("--algebra", required=True)
    psc.add_argument("--trials", type=int, default=50)
    psc.add_argument("--spread", type=int, default=5)
    pl.set_defaults(func=cmd_lab)

    pe = sub.add_parser("examples", help="bundled example library")
    exsub = pe.add_subparsers(dest="ex_cmd", required=True)
    exsub.add_parser("list")
    pshow = exsub.add_parser("show")
    pshow.add_argument("key")
    pe.set_defaults(func=cmd_examples)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (JacobiViolation, MetricNotPositiveDefinite) as exc:
        print(f"axiom failure: {exc}", file=sys.stderr)
        return EXIT_AXIOM
    except AbelianFactorPresent as exc:
        print(f"refused: {exc} (the decomposition of an algebra with an abelian "
              f"factor is not unique)", file=sys.stderr)
        return EXIT_ABELIAN
    except InternalAssertionFailure as exc:
        print(f"internal assertion failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MetricLieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
