"""The package holds what its commands run.

A fixed set of argvs, one or more per subcommand, series, p, pair and
output option, runs in process under sys.setprofile.  Every function and
method defined in src/skewhowe must be entered, apart from the allowlist
below.  Code that only tests use belongs in the tests.
"""

import contextlib
import inspect
import io
import sys
import types
from pathlib import Path

import skewhowe
from skewhowe import cli

ARGVS = [
    "mult --series A --n 2 --k 3 --lambda 2,1 --q-at 1/2 --q-poly",
    "mult --series BC --n 2 --k 2 --p 1 --lambda 1 --json --q-at 2",
    "mult --series BC --n 4 --k 4 --lambda 2,1",
    "mult --series D --n 3 --k 3 --lambda 2,1,-1",
    "verify --series A --n 2 --k 3 --oracle",
    "verify --series BC --n 2 --k 2 --p 0 --oracle",
    "verify --series BC --n 2 --k 2 --p 1 --oracle",
    "verify --series D --n 2 --k 2 --p 0 --oracle",
    "verify --series D --n 2 --k 2 --p 1 --oracle",
    "measure --pair GL --n 3 --k 3",
    "measure --pair SO-PIN --n 2 --k 3",
    "measure --pair SP --n 2 --k 2",
    "measure --pair O-SO --n 3 --k 2",
    "sample --pair GL --n 3 --k 4 --count 3 --seed 1",
    "sample --pair SP --n 2 --k 2 --count 3 --seed 1",
    "shape --c 3 --grid 8 --format json",
    "shape --series HALF --c 0.5 --grid 8",
    "compare --pair GL --n 4 --k 8 --count 5 --seed 3",
    "tiling --n 2 --k 3 --lambda 2,1 --index 3",
    "tiling --n 2 --k 3 --lambda 2,1 --count-only",
]

#: module.qualified name -> why no argv enters it
ALLOWED = {
    "cli.main": "the console script; tests call cli.run",
    "ensembles.dual_rsk_shape": "public one-matrix entry point; "
                                "bench/tracer.py wraps it by name",
    "exact.QLaurent.monomial": "polynomial toolkit the tests build with",
    "exact.QLaurent.shifted": "polynomial toolkit the tests build with",
    "multiplicity._named": "names the stage of a failed exact division, "
                           "which only a falsified identity raises",
    "patterns._Interlacing.patterns": "listing, part of the one interlacing "
                                      "engine with counting and ranking",
    "patterns.enumerate_gt": "library entry point of the engine",
    "patterns.gt_pattern_at": "library entry point of the engine",
    "patterns.count_proctor": "library entry point of the engine: the "
                              "Proctor counts, oracles of the B, C, D "
                              "dimensions",
    "patterns.enumerate_proctor": "library entry point of the engine",
}


def _functions():
    """(file name, first line, name) -> module.qualified name, for every
    function, method and lambda in the package's source.  Dunders are left
    out: the interpreter calls them."""
    out = {}

    def walk(code, module, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            name = const.co_name
            if name.startswith("<") and name != "<lambda>":
                continue  # comprehensions run with their function
            qualname = f"{prefix}.{name}"
            is_function = const.co_flags & inspect.CO_OPTIMIZED
            if is_function and not (name.startswith("__") and name.endswith("__")):
                out[module, const.co_firstlineno, name] = qualname
            walk(const, module, qualname)

    for path in sorted(Path(skewhowe.__file__).parent.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.name, path.stem)
    return out


def test_every_function_is_reached_from_the_command_line():
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((Path(code.co_filename).name, code.co_firstlineno,
                         code.co_name))

    for name, module in list(sys.modules.items()):
        if name.startswith("skewhowe."):  # a memoized function runs on a miss
            for value in vars(module).values():
                getattr(value, "cache_clear", lambda: None)()
    sys.setprofile(profile)
    try:
        for argv in ARGVS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run(argv.split()) == 0, argv
    finally:
        sys.setprofile(None)
    functions = _functions()
    unreached = {functions[key] for key in functions if key not in entered}
    assert unreached - ALLOWED.keys() == set()
    assert ALLOWED.keys() <= unreached, "an allowed function is reached now"
