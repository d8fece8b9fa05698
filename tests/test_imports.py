"""The package imports each module on first use.

Every check runs in a fresh interpreter, so that no module another test
imported is loaded already.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import plurikernel

SRC = str(Path(plurikernel.__file__).resolve().parent.parent)

#: Prints the plurikernel modules that the code before it loaded
LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('plurikernel'))))"


def _fresh(*blocks: str):
    """The JSON on the last line the code ``blocks`` print, run in a fresh interpreter."""
    code = "\n".join(["import json, sys", *map(textwrap.dedent, blocks)])
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert _fresh("import plurikernel", LOADED) == ["plurikernel"]


def test_cli_import_loads_only_errors():
    assert _fresh("import plurikernel.cli", LOADED) == [
        "plurikernel", "plurikernel.cli", "plurikernel.errors"]


def test_kernel_command_loads_only_the_modules_it_runs():
    loaded = _fresh("""
        from plurikernel.cli import main
        status = main(["kernel", "--domain", "ellipsoid:1,2", "--pole", "e1", "--point", "0.5,0"])
        assert status == 0
    """, LOADED)
    assert loaded == ["plurikernel"] + [f"plurikernel.{module}" for module in (
        "bounds", "cli", "domains", "errors", "expressions", "extrapolate", "kernels", "utils")]
    for module in ("julia", "green", "geodesics", "reproducing"):
        assert f"plurikernel.{module}" not in loaded


def test_every_export_is_its_defining_module_object():
    assert _fresh("""
        import plurikernel as P
        first = {name: getattr(P, name) for name in P.__all__}
        wrong = [name for name, obj in first.items()
                 if not obj.__module__.startswith("plurikernel.")
                 or getattr(sys.modules[obj.__module__], name) is not obj
                 or vars(P)[name] is not obj]
        submodules = [P.domains is sys.modules["plurikernel.domains"],
                      P.expressions is sys.modules["plurikernel.expressions"]]
        print(json.dumps([len(first), wrong, submodules]))
    """) == [len(plurikernel.__all__), [], [True, True]]


def test_unknown_name_raises_attribute_error():
    assert _fresh("""
        import plurikernel as P
        caught = []
        for name in ("no_such_name", "__path__x", "main"):
            try:
                getattr(P, name)
            except AttributeError as exc:
                caught.append(str(exc))
        print(json.dumps(caught))
    """) == [f"module 'plurikernel' has no attribute {name!r}"
             for name in ("no_such_name", "__path__x", "main")]


def test_dir_and_star_import_cover_all():
    unlisted, unstarred, submodule_listed = _fresh("""
        import plurikernel as P
        unlisted = sorted(set(P.__all__) - set(dir(P)))
        namespace = {}
        exec("from plurikernel import *", namespace)
        unstarred = sorted(set(P.__all__) - set(namespace))
        print(json.dumps([unlisted, unstarred, "domains" in dir(P)]))
    """)
    assert unlisted == [] and unstarred == [] and submodule_listed
