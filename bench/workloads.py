"""The benchmark's inputs: presentation files and per-workload command lists.

Every input is generated here from the workload seed; the program only
ever sees the written files.  The cyclic families and the free module are
fixed.  The seed draws the scales of the two-generator rational
presentation used by ``rational``.

Cyclic-x means one generator of degree x, one relation of degree x+1 and
one entry summing the x+1 cyclic shifts of [1 .. x]; E, the running
example of ``demos/e.fipres``, is cyclic-3.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Command:
    """One fistab CLI invocation; ``check`` is "bytes" or "verify"."""

    command: str
    input: str
    options: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return "-".join((self.command, self.input) + tuple(
            option.lstrip("-") for option in self.options
        ))

    @property
    def check(self) -> str:
        return "verify" if self.command == "verify" else "bytes"

    def argv(self, files: dict[str, str]) -> list[str]:
        return [self.command, files[self.input], *self.options, "--json"]


WORKLOADS = {
    "table": [
        Command(command, name)
        for name in ("cyclic7", "cyclic6", "e")
        for command in ("multiplicities", "dimension")
    ],
    "oracle": [
        Command("evaluate", "e", ("--n", "9")),
        Command("decompose", "e", ("--n", "10")),
    ],
    "rational": [
        Command("multiplicities", "alternating6"),
        Command("verify", "rational2", ("--n", "8")),
    ],
    # Three degrees rather than one decompose at n=18 (6-7 s): the
    # calibration loops between commands then sample the host's speed
    # across the pass, not only at its ends.
    "high_degree": [
        Command("decompose", "triangle", ("--n", str(n))) for n in (14, 15, 16)
    ],
}

# Commands that fail today because of a known defect in the program.  Each
# runs once per run of its workload, outside the timed passes, and is
# reported with its exit code and "passed"; it counts in neither attempted
# nor failed.  verify on the free module M(3), whose relation degrees lie
# below its generator degree, exits 1: the onset bound is wrong there
# (ROADMAP item 1).  Fixing the defect makes it report "does not reproduce".
KNOWN_DEFECTS = {
    "rational": [Command("verify", "free3")],
}

# Boundaries (span names, see spans.py) that must record spans in a traced
# pass of each workload.  A boundary that records none fails the run.
REQUIRED_SPANS = {
    "table": (
        "cli.main", "cli.parse", "multiplicity.table",
        "multiplicity.polynomial", "presentation.transport", "ratmat.rank",
    ),
    "oracle": (
        "cli.main", "cli.parse", "oracle.evaluate", "oracle.decompose",
        "oracle.trace",
    ),
    "rational": (
        "cli.main", "cli.parse", "cli.verify", "multiplicity.table",
        "multiplicity.polynomial", "presentation.transport", "ratmat.rank",
        "oracle.evaluate", "oracle.decompose", "oracle.trace",
    ),
    "high_degree": (
        "cli.main", "cli.parse", "oracle.evaluate", "oracle.decompose",
        "oracle.trace",
    ),
}


def _term(coeff: Fraction, images, first: bool) -> str:
    body = "[" + " ".join(str(v) for v in images) + "]"
    if abs(coeff) != 1:
        body = f"{abs(coeff)}*{body}"
    if first:
        return body if coeff > 0 else f"-{body}"
    return f"+ {body}" if coeff > 0 else f"- {body}"


def _entry(i: int, j: int, terms) -> str:
    parts = [_term(c, f, k == 0) for k, (f, c) in enumerate(terms)]
    return f"entry {i} {j} : " + " ".join(parts)


def cyclic(x: int, coefficients=(1,)) -> str:
    """Cyclic-x, shift k weighted by coefficients[k % len(coefficients)]."""
    shifts = [
        (tuple((k + i) % (x + 1) + 1 for i in range(x)),
         Fraction(coefficients[k % len(coefficients)]))
        for k in range(x + 1)
    ]
    return f"generators: {x}\nrelations: {x + 1}\n{_entry(1, 1, shifts)}\n"


# Coefficients of the seven shifts of cyclic-6 in "rational".  They sum to
# zero, which keeps the stable table nonzero; with 1 and -3/2 alternating,
# cyclic-6's table is zero.
ALTERNATING6 = tuple(
    Fraction(c) for c in ("3/2", "-1", "3/2", "-1", "3/2", "-1", "-3/2")
)


# The seeded two-generator presentation: the injections and coefficients
# of each (generator, relation) entry before the seed scales them.  The
# first generator's entries take c and -c, so that row of the augmentation
# matrix is zero; its corank, the multiplicity of the empty shape, is then
# at least 1 and the stable table is nonzero.
_RATIONAL2 = {
    (1, 1): (((2, 3), (1, 2)), ("3/2", "-3/2")),
    (1, 2): (((4, 2), (3, 2)), ("1/2", "-1/2")),
    (2, 1): (((2, 1, 3), (3, 2, 1)), ("1", "1/2")),
    (2, 2): (((3, 1, 4), (3, 2, 1)), ("-3/2", "2")),
}
_SCALES = tuple(
    Fraction(c) for c in ("1", "-1", "2", "-2", "1/2", "-1/2", "3/2", "-3/2")
)


def rational2(seed: int) -> str:
    """Generator degrees 2 3, relation degrees 3 4, rational coefficients.

    The seed draws a nonzero scale for each generator and each relation,
    and every coefficient of entry (i, j) is multiplied by the scales of
    generator i and relation j.  That is a change of basis, so every seed
    gives an isomorphic module with the same nonzero stable table and asks
    for the same work, up to the size of the fractions.  Drawing the
    coefficients freely made the work of ``verify`` differ by two thirds
    between seeds, more than the host's noise.
    """
    rng = random.Random(seed)
    generator_scales = [rng.choice(_SCALES) for _ in range(2)]
    relation_scales = [rng.choice(_SCALES) for _ in range(2)]
    lines = ["generators: 2 3", "relations: 3 4"]
    for (i, j), (injections, coefficients) in _RATIONAL2.items():
        scale = generator_scales[i - 1] * relation_scales[j - 1]
        scaled = [Fraction(c) * scale for c in coefficients]
        lines.append(_entry(i, j, zip(injections, scaled)))
    return "\n".join(lines) + "\n"


def inputs(seed: int) -> dict[str, str]:
    """Presentation file text for every input name used in WORKLOADS."""
    return {
        "cyclic7": cyclic(7),
        "cyclic6": cyclic(6),
        "e": cyclic(3),
        "alternating6": cyclic(6, ALTERNATING6),
        "rational2": rational2(seed),
        "free3": "generators: 3\nrelations:\n",
        "triangle": "generators: 2\nrelations: 3\n"
                    "entry 1 1 : [1 2] + [2 3] + [3 1]\n",
    }
