"""Child-process entry point: run the fistab CLI from the source tree.

    python3 bench/invoke.py <fistab arguments...>
    python3 bench/invoke.py --trace SPANS.json <fistab arguments...>
    python3 bench/invoke.py --setup FILE...

The package is not installed, so ``src/`` goes on the path and the
``fistab.cli:main`` entry point is called directly; ``python -m
fistab.cli`` would print a runpy warning.  ``--trace`` wraps the public
boundaries (see spans.py) first and writes the recorded spans to
SPANS.json at exit.  ``--setup`` only imports the CLI and parses the
given presentation files.
"""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))


def _setup(paths) -> int:
    from fistab.cli import parse_presentation

    for path in paths:
        with open(path, encoding="utf-8") as handle:
            parse_presentation(handle.read())
    return 0


def _traced(spans_path, argv) -> int:
    import spans

    tracer = spans.Tracer()
    caches = spans.install(tracer)
    import fistab.cli

    try:
        return fistab.cli.main(argv)
    finally:
        spans.dump(tracer, caches, spans_path)


def _main(argv) -> int:
    if argv[:1] == ["--setup"]:
        return _setup(argv[1:])
    if argv[:1] == ["--trace"]:
        return _traced(argv[1], argv[2:])
    from fistab.cli import main

    return main(argv)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
