"""Random command lines through ``fistab.cli.main``.

Whatever the arguments and the file, a run ends with exit code 0, 1 or 2;
exit 2 says ``error:`` on stderr, and no exception escapes ``main``.  The
inputs mix random bytes, invalid UTF-8, directories, missing files, bad
shapes and permutations, and degrees, shapes and ``--n`` far beyond
every budget, each of which must be refused at once.
"""

import contextlib
import io
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fistab.cli import main
from fistab.combinatorics import all_injections, partitions

HUGE = (10**6, 10**9, 10**18)

degrees = st.one_of(st.integers(0, 3), st.sampled_from(HUGE))
small_shapes = st.sampled_from([lam for k in range(5) for lam in partitions(k)])
# Every such shape has f^lam >= 24024, so (f^lam)^2 is over any default budget.
huge_shapes = st.lists(st.integers(4, 60), min_size=4, max_size=8).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)
shape_text = st.one_of(
    small_shapes.map(lambda lam: ",".join(map(str, lam))),
    huge_shapes.map(lambda lam: ",".join(map(str, lam))),
    st.integers(0, 3000).map(str),
    st.sampled_from(["", "0", "1,2", "-1", "2,0", "a", "2,,1", "1.5", " 2 , 1 "]),
)


@st.composite
def perm_text(draw):
    n = draw(st.integers(0, 6))
    images = draw(st.permutations(range(1, n + 1)))
    if draw(st.booleans()):
        images = draw(st.lists(st.integers(-1, 8), max_size=7))
    return ",".join(map(str, images))


@st.composite
def presentation_text(draw):
    gens = draw(st.lists(degrees, max_size=3))
    rels = draw(st.lists(degrees, max_size=2))
    lines = [
        "generators: " + " ".join(map(str, gens)),
        "relations: " + " ".join(map(str, rels)),
    ]
    for i, x in enumerate(gens, start=1):
        for j, y in enumerate(rels, start=1):
            if x > 3 or y > 3 or draw(st.booleans()):
                continue
            pool = all_injections(x, y)
            terms = []
            for _ in range(draw(st.integers(1, 3))):
                images = (
                    draw(st.sampled_from(pool)) if pool and draw(st.integers(0, 5))
                    else draw(st.lists(st.integers(0, 5), max_size=4))
                )
                coeff = draw(st.sampled_from(["", "", "2*", "1/2*", "-3/2*", "1/0*"]))
                terms.append(coeff + "[" + " ".join(map(str, images)) + "]")
            lines.append(f"entry {i} {j} : " + " + ".join(terms))
    return "\n".join(lines) + "\n"


file_contents = st.one_of(
    presentation_text().map(str.encode),
    presentation_text().map(str.encode),
    presentation_text().map(str.encode),
    presentation_text().map(lambda text: text.encode() + b"\xff\xfe"),
    st.binary(max_size=120),
    st.text(max_size=120).map(str.encode),
)
n_values = st.one_of(
    st.integers(-1, 8).map(str),
    st.sampled_from(HUGE).map(str),
    st.sampled_from(["x", "1e3", ""]),
)


@st.composite
def command_lines(draw):
    """(argv, file bytes); "FILE", "DIR" or "MISSING" in argv marks where
    the file, a directory or a missing path goes."""
    target = draw(st.sampled_from(["FILE"] * 8 + ["DIR", "MISSING"]))
    command = draw(st.sampled_from([
        "multiplicities", "dimension", "evaluate", "decompose", "verify",
        "specht", "amatrix",
    ]))
    if command == "specht":
        argv = [command, "--shape", draw(shape_text), "--perm", draw(perm_text())]
    else:
        argv = [command, target]
        if command == "amatrix":
            argv += ["--shape", draw(shape_text)]
        elif command in ("evaluate", "decompose") or (
            command == "verify" and draw(st.booleans())
        ):
            argv += ["--n", draw(n_values)]
        if command != "amatrix" and draw(st.booleans()):
            argv.append("--json")
    if draw(st.integers(0, 19)) == 0:
        argv = draw(st.permutations(argv + draw(
            st.lists(st.sampled_from(["--n", "--shape", "--help", "-x", "7"]), max_size=2)
        )))
    return argv, draw(file_contents)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(command_lines())
def test_every_run_exits_cleanly(tmp_path, monkeypatch, case):
    monkeypatch.delenv("FISTAB_ORACLE_CAP", raising=False)
    argv, content = case
    path = tmp_path / "input.fipres"
    path.write_bytes(content)
    places = {
        "FILE": str(path),
        "DIR": str(tmp_path),
        "MISSING": os.path.join(str(tmp_path), "missing.fipres"),
    }
    argv = [places.get(arg, arg) for arg in argv]
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert "error:" in err, (argv, err)
    assert "Traceback" not in out + err
