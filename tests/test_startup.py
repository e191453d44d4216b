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
    "classify": ["classify", "describe_recipe", "projection_type", "recipe_from_json",
                 "recipe_to_json", "resynthesize"],
    "constructions": ["Recipe", "build", "discrete", "orbit_ring", "standard_wedge",
                      "symmetric", "tensor", "trivial", "wedge"],
    "enumeration": ["enumerate_finite", "enumerate_windowed", "is_traditional"],
    "errors": ["BadPrime", "BadTower", "BoundExceeded", "IncompatibleWedge", "InfiniteGroup",
               "InvalidAutomorphism", "InvalidCoeffFn", "MalformedPartition", "NotSSet",
               "NotSSubgroup", "SchurError", "Unclassifiable", "UnrecognizedQuotient",
               "UnsupportedProduct", "WindowTooSmall", "ZeroElement"],
    "group_ring": ["CoeffFn", "RingElement", "monomial", "one", "simple_quantity", "zero"],
    "groups": ["Automorphism", "GroupDescriptor", "GroupElement", "QuotientMap", "Subgroup",
               "all_automorphisms", "all_subgroups", "format_element", "named_automorphism",
               "orbit", "parse_element"],
    "schur": ["SchurPresentation", "VerificationReport", "Witness", "class_stabilizer", "find_H",
              "is_sset", "is_ssubgroup", "multiplier_set", "multiplier_set_congruence",
              "quotient", "restrict", "torsion_is_ssubgroup", "verify_axioms",
              "verify_wielandt"],
}

# `python -m sring.cli` runs the cli as __main__, so it is not listed as sring.cli
BASE = {"sring", "sring.errors", "sring.groups", "sring.schur"}
# command line, stdin, and the sring modules the call loads besides BASE
COMMANDS = {
    "verify": (["verify", "-"], W3, set()),
    "construct": (["construct", "--kind", "discrete", "--window", "3"], "",
                  {"sring.constructions"}),
    "classify": (["classify", "-"], W3, {"sring.classify", "sring.constructions"}),
    "check-lemmas": (["check-lemmas", "-"], W3, set()),
    "enumerate": (["enumerate", "--group", "Z3"], "", {"sring.constructions", "sring.enumeration"}),
}


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


@pytest.fixture(scope="module")
def interpreter_modules() -> set[str]:
    return imported("-c", "pass")


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_loads_only_what_it_runs(interpreter_modules, command):
    argv, stdin, extra = COMMANDS[command]
    loaded = imported("-m", "sring.cli", *argv, stdin=stdin) - interpreter_modules
    assert "dataclasses" not in loaded
    assert {name for name in loaded if name.startswith("sring")} == BASE | extra


def test_import_sring_loads_no_submodule(interpreter_modules):
    loaded = imported("-c", "import sring") - interpreter_modules
    assert {name for name in loaded if name.startswith("sring")} == {"sring"}


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
    assert len(names) == 65
    assert json.loads(proc.stdout) == names


def test_submodules_and_dir_resolve_lazily():
    script = """
import json, sys
import sring
homes = ["cli", "constructions", "enumeration", "errors", "group_ring", "groups", "schur"]
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
