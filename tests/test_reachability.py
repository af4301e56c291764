"""The package holds what its commands run.

The pinned command lines of golden.ROWS, one or more per subcommand,
series, p, pair and output option, run in process under a profiler (the
golden_pass fixture).  Every function and method defined in
src/skewhowe, dunders included, must be entered, apart from the allowlist
below.  Code that only tests use belongs in the tests.
"""

import inspect
import types
from pathlib import Path

import skewhowe

#: module.qualified name -> why no argv enters it
ALLOWED = {
    "__init__.__getattr__": "imports a module on its first access; the "
                             "golden pass loads every module first, and "
                             "test_cli.py's import tests run it in fresh "
                             "processes",
    "cli.main": "the console script; tests call cli.run",
    "exact.QLaurent.__hash__": "QLaurent defines ==, so without it the class "
                               "is unhashable; bench/tracer.py hashes the "
                               "determinant matrices it counts",
    "exact.QLaurent.__repr__": "what a REPL, a debugger or a failed "
                               "assertion shows of a polynomial",
    "exact.QLaurent.__setattr__": "the immutability guard: only an attempt "
                                  "to mutate a QLaurent enters it",
    "ensembles.dual_rsk_shape": "public one-matrix entry point; "
                                "bench/tracer.py wraps it by name",
    "multiplicity._named": "names the stage of a failed exact division, "
                           "which only a falsified identity raises",
}


def _functions():
    """(file name, first line, name) -> module.qualified name, for every
    function, method, dunder and lambda in the package's source."""
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
            if is_function:
                out[module, const.co_firstlineno, name] = qualname
            walk(const, module, qualname)

    for path in sorted(Path(skewhowe.__file__).parent.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.name, path.stem)
    return out


def test_every_function_is_reached_from_the_command_line(golden_pass):
    entered = {(Path(code.co_filename).name, code.co_firstlineno, code.co_name)
               for code in golden_pass[0]}
    functions = _functions()
    unreached = {functions[key] for key in functions if key not in entered}
    assert unreached - ALLOWED.keys() == set()
    assert ALLOWED.keys() <= unreached, "an allowed function is reached now"
