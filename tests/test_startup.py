"""Start-up of the CLI and the lazy package namespace.

Each command loads only the modules it runs, and ``sring`` resolves its
exports and submodules on first access.  Every check runs in a fresh
interpreter, since this test process has long since imported all of sring.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sring import GroupDescriptor, discrete

SRC = Path(__file__).resolve().parents[1] / "src"
W3 = json.dumps(discrete(GroupDescriptor(0, 3), 3).to_json())

# home submodule -> the names ``sring`` exports from it
PUBLIC = {
    "automorphisms": ["Automorphism", "all_automorphisms", "class_stabilizer",
                      "named_automorphism", "orbit"],
    "classify": ["classify", "describe_recipe", "projection_type", "recipe_to_json",
                 "resynthesize"],
    "constructions": ["Recipe", "build", "discrete", "orbit_ring", "standard_wedge",
                      "symmetric", "tensor", "trivial", "wedge"],
    "enumeration": ["enumerate_finite", "enumerate_windowed", "is_traditional"],
    "errors": ["BadPrime", "BadTower", "BoundExceeded", "IncompatibleWedge", "InfiniteGroup",
               "InvalidAutomorphism", "InvalidCoeffFn", "MalformedPartition", "NotSSet",
               "NotSSubgroup", "SchurError", "Unclassifiable", "UnrecognizedQuotient",
               "UnsupportedProduct", "WindowTooSmall", "ZeroElement"],
    "group_ring": ["CoeffFn", "RingElement", "monomial", "one", "simple_quantity", "zero"],
    "groups": ["GroupDescriptor", "GroupElement", "format_element"],
    "lemmas": ["find_H", "multiplier_set", "multiplier_set_congruence", "quotient", "restrict",
               "torsion_is_ssubgroup"],
    "schur": ["SchurPresentation", "VerificationReport", "Witness", "is_sset", "is_ssubgroup",
              "verify_axioms", "verify_wielandt"],
    "subgroups": ["QuotientMap", "Subgroup", "all_subgroups"],
}

# the cli runs as __main__, so it is not listed as sring.cli
BASE = {"sring", "sring.errors", "sring.groups", "sring.schur"}
# the homes of the code that verify never runs
MOVED_OUT = {"sring.automorphisms", "sring.lemmas", "sring.subgroups"}
BUILDERS = {"sring.automorphisms", "sring.constructions", "sring.subgroups"}
# classify and enumerate also restrict rings to S-subgroups and take quotients
PARTS = BUILDERS | {"sring.lemmas"}
# command line, stdin, and the sring modules the call loads besides BASE
COMMANDS = {
    "verify": (["verify", "-"], W3, set()),
    "construct": (["construct", "--kind", "discrete", "--window", "3"], "", BUILDERS),
    "classify": (["classify", "-"], W3, PARTS | {"sring.classify"}),
    "check-lemmas": (["check-lemmas", "-"], W3, {"sring.lemmas", "sring.subgroups"}),
    "enumerate": (["enumerate", "--group", "Z3"], "", PARTS | {"sring.enumeration"}),
}

# run the cli as `python -m sring.cli` does, and list sys.modules on stderr at exit
RUN_CLI_AS_MAIN = """
import atexit, runpy, sys
atexit.register(lambda: print("sys.modules at exit:", *sorted(sys.modules), file=sys.stderr))
runpy.run_module("sring.cli", run_name="__main__", alter_sys=True)
"""


def python(*argv: str, stdin: str = "") -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *argv], input=stdin, capture_output=True,
                          text=True, env=env, timeout=60)


def imported(*argv: str, stdin: str = "") -> set[str]:
    """The modules a fresh interpreter imports, read from ``-X importtime``."""
    proc = python("-X", "importtime", *argv, stdin=stdin)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {line.rpartition("|")[2].strip() for line in lines[1:]}  # lines[0] is the header


def held_at_exit(*argv: str, stdin: str = "") -> set[str]:
    """The sring modules in ``sys.modules`` when a cli call exits.

    ``-X importtime`` lists only what an import statement loads, not what
    ``importlib.import_module`` loads, as the package ``__getattr__`` and
    ``sring._Forwarding`` do; ``sys.modules`` holds both.
    """
    proc = python("-c", RUN_CLI_AS_MAIN, *argv, stdin=stdin)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = proc.stderr.splitlines()[-1]
    assert line.startswith("sys.modules at exit:"), proc.stderr
    return {name for name in line.split(":", 1)[1].split() if name.startswith("sring")}


@pytest.fixture(scope="module")
def interpreter_modules() -> set[str]:
    return imported("-c", "pass")


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_loads_only_what_it_runs(interpreter_modules, command):
    argv, stdin, extra = COMMANDS[command]
    loaded = imported("-m", "sring.cli", *argv, stdin=stdin) - interpreter_modules
    assert "dataclasses" not in loaded
    assert {name for name in loaded if name.startswith("sring")} == BASE | extra
    assert held_at_exit(*argv, stdin=stdin) == BASE | extra
    assert command != "verify" or not loaded & MOVED_OUT


def test_import_sring_loads_no_submodule(interpreter_modules):
    loaded = imported("-c", "import sring") - interpreter_modules
    assert {name for name in loaded if name.startswith("sring")} == {"sring"}


def sring_modules_after(code: str, stdin: str = "") -> set[str]:
    """The sring modules a fresh interpreter holds once ``code`` has run.

    Unlike ``-X importtime``, this also sees a module that
    ``importlib.import_module`` loaded, as a module ``__getattr__`` would.
    """
    script = code + "\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('sring')))"
    proc = python("-c", script, stdin=stdin)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "code,stdin,expected",
    [
        ("from sring.groups import GroupDescriptor", "", BASE - {"sring.schur"}),
        ("from sring.schur import SchurPresentation", "", BASE),
        ("import sring.cli\nsring.cli.run(['--json', 'verify', '-'])", W3, BASE | {"sring.cli"}),
    ],
    ids=["from-groups", "from-schur", "verify"],
)
def test_no_route_loads_a_moved_out_home(code, stdin, expected):
    # `from .groups import X` asks the module for __path__, which must not load a home
    assert sring_modules_after(code, stdin) == expected


CLASSIFY_IS_THE_FUNCTION = """
import sys, types
import sring
assert isinstance(sring.classify, types.FunctionType), sring.classify
assert sring.classify is sys.modules["sring.classify"].classify
"""


@pytest.mark.parametrize(
    "first",
    [
        "import sring.classify\nfrom sring import classify",
        "from sring import classify\nimport sring.classify",
        "import sring\nsring.classify\nimport sring.classify",
        "import sring.cli\nsring.cli.run(['--json', 'classify', sys.argv[1]])",
        "from sring.classify import classify\nimport sring.enumeration",
    ],
    ids=["submodule-first", "export-first", "attribute-first", "cli-first", "from-submodule"],
)
def test_classify_is_the_function_in_any_import_order(tmp_path, first):
    path = tmp_path / "w3.json"
    path.write_text(W3)
    proc = python("-c", "import sys\n" + first + CLASSIFY_IS_THE_FUNCTION, str(path))
    assert proc.returncode == 0, proc.stderr


def test_exports_are_their_home_objects():
    script = """
import importlib, json, sys
import sring
public = json.loads(sys.argv[1])
for home, names in public.items():
    module = importlib.import_module("sring." + home)
    for name in names:
        assert getattr(sring, name) is getattr(module, name), name
namespace = {}
exec("from sring import *", namespace)
print(json.dumps(sorted(set(namespace) - {"__builtins__"})))
"""
    proc = python("-c", script, json.dumps(PUBLIC))
    assert proc.returncode == 0, proc.stderr
    names = sorted(name for names in PUBLIC.values() for name in names)
    assert len(names) == 63
    assert json.loads(proc.stdout) == names


def test_submodules_and_dir_resolve_lazily():
    script = """
import json, sys
import sring
homes = ["automorphisms", "cli", "constructions", "enumeration", "errors", "group_ring",
         "groups", "lemmas", "schur", "subgroups"]
for home in homes:
    assert getattr(sring, home) is sys.modules["sring." + home], home
assert not hasattr(sring, "no_such_name")
print(json.dumps(dir(sring)))
"""
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr
    listed = set(json.loads(proc.stdout))
    assert {name for names in PUBLIC.values() for name in names} <= listed
    assert "__version__" in listed
