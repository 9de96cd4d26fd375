"""Presentation files and the command-line front end.

File grammar (one directive per line, ``#`` starts a comment)::

    generators: d1 d2 ... dg
    relations: e1 e2 ... er
    entry i j : term (("+"|"-") term)*

where ``term`` is ``[v1 v2 ... v_di]`` with an optional rational
coefficient prefix ``c*`` (for example ``1/2*[1 3]``), the ``v`` are
distinct values in ``1..ej``, and ``i``, ``j`` are 1-indexed.  Unlisted
entries are zero; listing ``entry i j`` twice is an error; repeating an
injection inside one entry adds the coefficients.

Every command prints exact integers and rationals only.  ``--json``
output is deterministic byte-for-byte for identical inputs.
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from .combinatorics import (
    check_partition,
    monotone_injections,
    partitions,
    standard_tableaux,
)
from .multiplicity import dimension_polynomial, eventual_multiplicities
from .oracle import ResourceCapError, decompose_at, dimension_at, verify
from .presentation import (
    FormalSum,
    PresentationMatrix,
    induced_raw_presentation,
)
from .specht import specht_action


class PresentationParseError(ValueError):
    """A presentation file problem, annotated with its line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


_DEGREES_RE = re.compile(r"^(generators|relations)\s*:\s*(.*)$")
_ENTRY_RE = re.compile(r"^entry\s+(\d+)\s+(\d+)\s*:\s*(.*)$")
_TERM_RE = re.compile(
    r"\s*(?P<sep>[+-])?\s*"
    r"(?:(?P<coeff>\d+(?:\s*/\s*\d+)?)\s*\*\s*)?"
    r"\[(?P<images>[^\]]*)\]"
)


def _parse_terms(body: str, lineno: int):
    pos = 0
    first = True
    terms = []
    while pos < len(body):
        match = _TERM_RE.match(body, pos)
        if not match:
            raise PresentationParseError(
                lineno, f"cannot read a term at: {body[pos:].strip()!r}"
            )
        if not first and match.group("sep") is None:
            raise PresentationParseError(
                lineno, "terms must be separated by '+' or '-'"
            )
        sign = -1 if match.group("sep") == "-" else 1
        coeff = Fraction(1)
        if match.group("coeff"):
            text = match.group("coeff").replace(" ", "")
            try:
                coeff = Fraction(text)
            except ZeroDivisionError:
                raise PresentationParseError(
                    lineno, f"coefficient {text} has a zero denominator"
                ) from None
        images = tuple(int(v) for v in match.group("images").split())
        terms.append((images, sign * coeff))
        pos = match.end()
        first = False
    if first:
        raise PresentationParseError(lineno, "entry has no terms")
    return terms


def parse_presentation(text: str) -> PresentationMatrix:
    """Parse a presentation file into a PresentationMatrix."""
    generators = None
    relations = None
    entries: dict[tuple[int, int], list] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        degrees = _DEGREES_RE.match(line)
        if degrees:
            kind, body = degrees.groups()
            try:
                values = tuple(int(v) for v in body.split())
            except ValueError:
                raise PresentationParseError(
                    lineno, f"{kind} line must list integers"
                ) from None
            if any(v < 0 for v in values):
                raise PresentationParseError(lineno, "degrees must be >= 0")
            if kind == "generators":
                if generators is not None:
                    raise PresentationParseError(lineno, "second generators line")
                generators = values
            else:
                if relations is not None:
                    raise PresentationParseError(lineno, "second relations line")
                relations = values
            continue
        entry = _ENTRY_RE.match(line)
        if entry:
            if generators is None or relations is None:
                raise PresentationParseError(
                    lineno, "entries must follow the generators and relations lines"
                )
            i, j = int(entry.group(1)), int(entry.group(2))
            if not 1 <= i <= len(generators):
                raise PresentationParseError(
                    lineno, f"generator index {i} out of range 1..{len(generators)}"
                )
            if not 1 <= j <= len(relations):
                raise PresentationParseError(
                    lineno, f"relation index {j} out of range 1..{len(relations)}"
                )
            if (i - 1, j - 1) in entries:
                raise PresentationParseError(lineno, f"duplicate entry {i} {j}")
            terms = _parse_terms(entry.group(3), lineno)
            try:
                entries[(i - 1, j - 1)] = FormalSum(
                    generators[i - 1], relations[j - 1], terms
                )
            except ValueError as exc:
                raise PresentationParseError(lineno, str(exc)) from None
            continue
        raise PresentationParseError(lineno, f"cannot parse: {line!r}")
    if generators is None:
        raise PresentationParseError(0, "missing generators line")
    if relations is None:
        raise PresentationParseError(0, "missing relations line")
    return PresentationMatrix(generators, relations, entries)


def serialize_presentation(z: PresentationMatrix) -> str:
    """Canonical text form; parses back to an equal PresentationMatrix."""
    lines = [
        "generators: " + " ".join(str(d) for d in z.generator_degrees),
        "relations: " + " ".join(str(d) for d in z.relation_degrees),
    ]
    lines[0] = lines[0].rstrip()
    lines[1] = lines[1].rstrip()
    for (i, j) in sorted(z.entries):
        parts = []
        for images, coeff in sorted(z.entries[(i, j)].terms.items()):
            body = "[" + " ".join(str(v) for v in images) + "]"
            mag = abs(coeff)
            if mag != 1:
                body = f"{mag}*{body}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        lines.append(f"entry {i + 1} {j + 1} : " + " ".join(parts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command helpers
# ---------------------------------------------------------------------------

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
    try:
        images = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse permutation {text!r}") from None
    if sorted(images) != list(range(1, len(images) + 1)):
        raise ValueError(f"{list(images)} is not a permutation of 1..{len(images)}")
    return images


def _shape_str(lam) -> str:
    return "[" + ", ".join(str(part) for part in lam) + "]"


def _emit_json(payload) -> int:
    print(json.dumps(payload, indent=2, sort_keys=False))
    return 0


def _cmd_multiplicities(args) -> int:
    z = _load(args.file)
    table = eventual_multiplicities(z)
    if args.json:
        return _emit_json({
            "max_generator_degree": table.max_generator_degree,
            "max_relation_degree": table.max_relation_degree,
            "multiplicities": [
                {"shape": list(lam), "multiplicity": count}
                for lam, count in table
            ],
        })
    for lam, count in table:
        print(f"multiplicity {_shape_str(lam)} = {count}")
    return 0


def _cmd_dimension(args) -> int:
    z = _load(args.file)
    poly = dimension_polynomial(z)
    if args.json:
        return _emit_json({
            "coefficients": [str(c) for c in poly.coeffs],
            "onset": poly.onset,
            "display": str(poly),
        })
    print(f"{poly} valid for n >= {poly.onset}")
    return 0


def _cmd_evaluate(args) -> int:
    z = _load(args.file)
    dim = dimension_at(z, args.n)
    if args.json:
        return _emit_json({"n": args.n, "dimension": dim})
    print(dim)
    return 0


def _cmd_decompose(args) -> int:
    z = _load(args.file)
    decomposition = decompose_at(z, args.n)
    nonzero = [
        (lam, decomposition[lam])
        for lam in partitions(args.n)
        if decomposition[lam]
    ]
    if args.json:
        return _emit_json({
            "n": args.n,
            "decomposition": [
                {"shape": list(lam), "multiplicity": count}
                for lam, count in nonzero
            ],
        })
    for lam, count in nonzero:
        print(f"{_shape_str(lam)}: {count}")
    return 0


def _cmd_verify(args) -> int:
    z = _load(args.file)
    report = verify(z, args.n)
    if args.json:
        _emit_json({
            "n": report.n,
            "onset": report.onset,
            "pre_stable": report.pre_stable,
            "passed": report.passed,
            "checks": [
                {
                    "shape": list(check.shape),
                    "predicted": check.predicted,
                    "observed": check.observed,
                    "ok": check.ok,
                }
                for check in report.checks
            ],
            "invisible": [
                {"tail": list(lam), "multiplicity": count}
                for lam, count in report.invisible
            ],
            "oracle_dimension": report.oracle_dimension,
            "polynomial_dimension": report.polynomial_dimension,
        })
    else:
        print(f"degree {report.n} (onset {report.onset})")
        for check in report.checks:
            status = "ok" if check.ok else "MISMATCH"
            print(
                f"  {_shape_str(check.shape):<18} predicted {check.predicted}"
                f"  observed {check.observed}  {status}"
            )
        for lam, count in report.invisible:
            print(
                f"  {_shape_str(lam)} (count {count}) not visible at this degree"
            )
        dims = "ok" if report.dimensions_match else "MISMATCH"
        print(
            f"dimension: oracle {report.oracle_dimension}, "
            f"polynomial {report.polynomial_dimension}  {dims}"
        )
        if report.pre_stable:
            print("PRE-STABLE (below onset; mismatches carry no information)")
        else:
            print("PASS" if report.passed else "FAIL")
    if report.pre_stable:
        return 0
    return 0 if report.passed else 1


def _cmd_specht(args) -> int:
    shape = _parse_shape(args.shape)
    perm = _parse_perm(args.perm)
    if sum(shape) != len(perm):
        raise ValueError(
            f"shape {list(shape)} has size {sum(shape)} but the permutation "
            f"moves {len(perm)} points"
        )
    print(specht_action(shape, perm))
    return 0


def _amatrix_labels(z: PresentationMatrix, shape) -> tuple[list[str], list[str]]:
    k = sum(shape)
    dim = len(standard_tableaux(shape))

    def injection_label(p) -> str:
        if not p:
            return "()"
        return "".join(map(str, p)) if all(v <= 9 for v in p) else ",".join(map(str, p))

    def block_labels(degrees, prefix) -> list[str]:
        labels = []
        for b, degree in enumerate(degrees):
            head = f"{prefix}{b + 1}:" if len(degrees) > 1 else ""
            for p in monotone_injections(k, degree):
                for t in range(dim):
                    labels.append(f"{head}{injection_label(p)}×t{t + 1}")
        return labels

    return (
        block_labels(z.generator_degrees, "g"),
        block_labels(z.relation_degrees, "r"),
    )


def _cmd_amatrix(args) -> int:
    z = _load(args.file)
    shape = _parse_shape(args.shape)
    matrix = induced_raw_presentation(shape, z)
    row_labels, col_labels = _amatrix_labels(z, shape)
    cells = [[str(matrix[i, j]) for j in range(matrix.ncols)]
             for i in range(matrix.nrows)]
    widths = [
        max([len(col_labels[j])] + [len(cells[i][j]) for i in range(matrix.nrows)])
        for j in range(matrix.ncols)
    ]
    label_width = max((len(label) for label in row_labels), default=0)
    print(f"{matrix.nrows}x{matrix.ncols} matrix for shape {_shape_str(shape)}")
    if matrix.ncols:
        header = " ".join(lbl.rjust(w) for lbl, w in zip(col_labels, widths))
        print(" " * (label_width + 2) + header)
    for i in range(matrix.nrows):
        body = " ".join(cells[i][j].rjust(widths[j]) for j in range(matrix.ncols))
        print(f"{row_labels[i].rjust(label_width)} [ {body} ]")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fistab",
        description="Stable decompositions of finitely presented FI-modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "multiplicities",
        help="eventual multiplicity of each shape (grown by a long top row)",
    )
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_multiplicities)

    p = sub.add_parser("dimension", help="stable dimension polynomial")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dimension)

    p = sub.add_parser("evaluate", help="brute-force dimension at one degree")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("decompose", help="brute-force decomposition at one degree")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser(
        "verify",
        help="compare the brute-force decomposition against the closed form",
    )
    p.add_argument("file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("specht", help="irreducible action matrix of a permutation")
    p.add_argument("--shape", required=True)
    p.add_argument("--perm", required=True)
    p.set_defaults(func=_cmd_specht)

    p = sub.add_parser(
        "amatrix",
        help="transported presentation matrix for one shape, with labels",
    )
    p.add_argument("file")
    p.add_argument("--shape", required=True)
    p.set_defaults(func=_cmd_amatrix)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ResourceCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
