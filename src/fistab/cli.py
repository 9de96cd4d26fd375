"""The ``fistab`` command: one table of subcommands (``COMMANDS``).

Each command builds one payload and renders its text lines from it, and
``main`` prints the payload as JSON under ``--json``, the lines otherwise.
Every command prints exact integers and rationals only, and ``--json``
output is deterministic byte-for-byte for identical inputs.  The file
format lives in :mod:`fistab.presentation`; its three names are
importable from here too.
"""

import argparse
import json
import sys

from .budget import ResourceCapError, check_cells
from .combinatorics import (
    check_partition,
    check_permutation,
    hook_length_count,
    monotone_injections,
    partitions,
)
from .multiplicity import dimension_polynomial, eventual_multiplicities
from .oracle import decompose_at, dimension_at, verify
from .presentation import (
    PresentationMatrix,
    PresentationParseError,
    induced_raw_presentation,
    parse_presentation,
    serialize_presentation,
)
from .specht import specht_action


def _load(path: str) -> PresentationMatrix:
    with open(path, encoding="utf-8") as handle:
        return parse_presentation(handle.read())


def _parse_shape(text: str):
    text = text.strip()
    if text in ("", "0"):
        return ()
    try:
        parts = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse shape {text!r}") from None
    return check_partition(parts)


def _parse_perm(text: str):
    if not text.strip():
        return ()
    try:
        images = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse permutation {text!r}") from None
    return check_permutation(images)


def _shape_str(lam) -> str:
    return "[" + ", ".join(str(part) for part in lam) + "]"


def _status(ok: bool) -> str:
    return "ok" if ok else "MISMATCH"


def _shape_rows(pairs, key: str = "shape") -> list[dict]:
    return [{key: list(lam), "multiplicity": count} for lam, count in pairs]


# Each command returns its JSON payload ({} for a command without --json)
# and its text lines, rendered from that payload.

def _multiplicities(args):
    table = eventual_multiplicities(_load(args.file))
    rows = _shape_rows(table)
    payload = {
        "max_generator_degree": table.max_generator_degree,
        "max_relation_degree": table.max_relation_degree,
        "multiplicities": rows,
    }
    return payload, [
        f"multiplicity {_shape_str(row['shape'])} = {row['multiplicity']}"
        for row in rows
    ]


def _dimension(args):
    poly = dimension_polynomial(_load(args.file))
    payload = {
        "coefficients": [str(c) for c in poly.coeffs],
        "onset": poly.onset,
        "display": str(poly),
    }
    return payload, [f"{payload['display']} valid for n >= {payload['onset']}"]


def _evaluate(args):
    payload = {"n": args.n, "dimension": dimension_at(_load(args.file), args.n)}
    return payload, [str(payload["dimension"])]


def _decompose(args):
    decomposition = decompose_at(_load(args.file), args.n)
    rows = _shape_rows(
        (lam, decomposition[lam])
        for lam in partitions(args.n)
        if decomposition[lam]
    )
    return {"n": args.n, "decomposition": rows}, [
        f"{_shape_str(row['shape'])}: {row['multiplicity']}" for row in rows
    ]


def _verify(args):
    report = verify(_load(args.file), args.n)
    payload = {
        "n": report.n,
        "onset": report.onset,
        "pre_stable": report.pre_stable,
        "passed": report.passed,
        "checks": [
            {"shape": list(check.shape), "predicted": check.predicted,
             "observed": check.observed, "ok": check.ok}
            for check in report.checks
        ],
        "invisible": _shape_rows(report.invisible, "tail"),
        "oracle_dimension": report.oracle_dimension,
        "polynomial_dimension": report.polynomial_dimension,
    }
    lines = [f"degree {payload['n']} (onset {payload['onset']})"]
    lines += [
        f"  {_shape_str(check['shape']):<18} predicted {check['predicted']}"
        f"  observed {check['observed']}  {_status(check['ok'])}"
        for check in payload["checks"]
    ]
    lines += [
        f"  {_shape_str(row['tail'])} (count {row['multiplicity']}) "
        "not visible at this degree"
        for row in payload["invisible"]
    ]
    lines.append(
        f"dimension: oracle {payload['oracle_dimension']}, "
        f"polynomial {payload['polynomial_dimension']}  "
        + _status(report.dimensions_match)
    )
    if payload["pre_stable"]:
        lines.append("PRE-STABLE (below onset; mismatches carry no information)")
    else:
        lines.append("PASS" if payload["passed"] else "FAIL")
    return payload, lines


def _specht(args):
    shape = _parse_shape(args.shape)
    perm = _parse_perm(args.perm)
    if sum(shape) != len(perm):
        raise ValueError(
            f"shape {list(shape)} has size {sum(shape)} but the permutation "
            f"moves {len(perm)} points"
        )
    check_cells(shape)
    return {}, [str(specht_action(shape, perm))]


def _amatrix_labels(z: PresentationMatrix, shape) -> tuple[list[str], list[str]]:
    k = sum(shape)

    def injection_label(p) -> str:
        if not p:
            return "()"
        return "".join(map(str, p)) if all(v <= 9 for v in p) else ",".join(map(str, p))

    def block_labels(degrees, prefix) -> list[str]:
        labels = []
        for b, degree in enumerate(degrees):
            head = f"{prefix}{b + 1}:" if len(degrees) > 1 else ""
            for p in monotone_injections(k, degree):
                for t in range(hook_length_count(shape)):
                    labels.append(f"{head}{injection_label(p)}×t{t + 1}")
        return labels

    return (
        block_labels(z.generator_degrees, "g"),
        block_labels(z.relation_degrees, "r"),
    )


def _amatrix(args):
    z = _load(args.file)
    shape = _parse_shape(args.shape)
    check_cells(shape, z)
    matrix = induced_raw_presentation(shape, z)
    row_labels, col_labels = _amatrix_labels(z, shape)
    cells = matrix.cells()
    widths = [
        max([len(col_labels[j])] + [len(cells[i][j]) for i in range(matrix.nrows)])
        for j in range(matrix.ncols)
    ]
    label_width = max((len(label) for label in row_labels), default=0)
    lines = [f"{matrix.nrows}x{matrix.ncols} matrix for shape {_shape_str(shape)}"]
    if matrix.ncols:
        header = " ".join(lbl.rjust(w) for lbl, w in zip(col_labels, widths))
        lines.append(" " * (label_width + 2) + header)
    for i in range(matrix.nrows):
        body = " ".join(cells[i][j].rjust(widths[j]) for j in range(matrix.ncols))
        lines.append(f"{row_labels[i].rjust(label_width)} [ {body} ]")
    return {}, lines


# Argument specs, as (flags, options) for add_argument.
FILE = ("file",), {}
JSON = ("--json",), {"action": "store_true"}
N = ("--n",), {"type": int, "required": True}
SHAPE = ("--shape",), {"required": True}

# name: (run, help, argument specs in the order argparse lists them)
COMMANDS = {
    "multiplicities": (_multiplicities, "eventual multiplicity of each shape "
                       "(grown by a long top row)", [FILE, JSON]),
    "dimension": (_dimension, "stable dimension polynomial", [FILE, JSON]),
    "evaluate": (_evaluate, "brute-force dimension at one degree", [FILE, N, JSON]),
    "decompose": (_decompose, "brute-force decomposition at one degree",
                  [FILE, N, JSON]),
    "verify": (_verify, "compare the brute-force decomposition against the "
               "closed form", [FILE, (("--n",), {"type": int}), JSON]),
    "specht": (_specht, "irreducible action matrix of a permutation",
               [SHAPE, (("--perm",), {"required": True})]),
    "amatrix": (_amatrix, "transported presentation matrix for one shape, "
                "with labels", [FILE, SHAPE]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fistab",
        description="Stable decompositions of finitely presented FI-modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            command.add_argument(*flags, **options)
        command.set_defaults(run=run, json=False)
    return parser


def main(argv=None) -> int:
    """Run one command: 0 on success, 1 when ``verify`` fails at or past
    the onset, 2 on a parse, input or resource error."""
    args = _build_parser().parse_args(argv)
    try:
        payload, lines = args.run(args)
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            for line in lines:
                print(line)
    except (ValueError, OSError, ResourceCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # only verify's payload has "pre_stable"; below the onset it cannot fail
    failed = payload.get("pre_stable") is False and not payload["passed"]
    return 1 if failed else 0


__all__ = [
    "PresentationParseError", "main", "parse_presentation", "serialize_presentation",
]


if __name__ == "__main__":
    sys.exit(main())
