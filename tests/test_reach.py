"""The CLI enters every function in `src/pcseg`, but for a listed few.

Every golden command, plus three that fail (an `audit` of a cloud with a
color out of range, one of a cloud with a byte that is not UTF-8, and a
`synth --scenes 0` that argparse rejects), runs in process under
`sys.settrace`. A module-level function or method of
`pcseg` that none of them enters must be in UNREACHED, with its reason,
and every entry of UNREACHED must still go unentered. So code that
nothing runs fails here, and so does an entry that code has started to
reach: the list only shrinks, as code is deleted.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
from pathlib import Path

import pytest

import pcseg
from pcseg.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main
from test_golden import run_commands

UNREACHED = {
    "tensor.Tensor.__repr__": "for a reader at a prompt",
    "tensor.Parameter.__repr__": "for a reader at a prompt",
}


def defined_functions() -> dict:
    """Code object -> `module.qualname` of every module-level function and
    method that a `pcseg` module defines in its own source."""
    src = str(Path(pcseg.__file__).parent)
    out = {}
    for info in pkgutil.iter_modules(pcseg.__path__):
        module = importlib.import_module(f"pcseg.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = list(vars(obj).values()) if inspect.isclass(obj) else [obj]
            for member in members:
                if isinstance(member, property):
                    functions = [member.fget, member.fset, member.fdel]
                else:
                    # a classmethod's function, or the one a decorator such as contextmanager wraps
                    functions = [inspect.unwrap(getattr(member, "__func__", member))]
                for fn in functions:
                    if inspect.isfunction(fn) and fn.__code__.co_filename.startswith(src):
                        out[fn.__code__] = f"{info.name}.{fn.__qualname__}"
    return out


def test_cli_enters_every_function_but_the_listed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("bad_color.pcseg").write_text("PCSEG v1 1\n0 0 0 1.5 0 0 1\n")
    Path("bad_byte.pcseg").write_bytes(b"PCSEG v1 1\n0 0 0 0 0 0 \xff\n")
    src = str(Path(pcseg.__file__).parent)
    entered = set()

    def trace_calls(frame, event, arg):
        if frame.f_code.co_filename.startswith(src):
            entered.add(frame.f_code)
        # no local trace function: lines are not traced

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = run_commands()
            bad_cloud = main(["audit", "--cloud", "bad_color.pcseg", "--fg-class", "1", "--out", "a.txt"])
            bad_byte = main(["audit", "--cloud", "bad_byte.pcseg", "--fg-class", "1", "--out", "a.txt"])
            with pytest.raises(SystemExit) as bad_flag:
                main(["synth", "--out", "none", "--scenes", "0"])
    finally:
        sys.settrace(previous)

    assert set(codes.values()) == {EXIT_OK}, codes
    assert (bad_cloud, bad_byte, bad_flag.value.code) == (EXIT_IO, EXIT_IO, EXIT_USAGE)
    functions = defined_functions()
    never_entered = {name for code, name in functions.items() if code not in entered}
    assert never_entered == set(UNREACHED)
