"""The package's modules form a chain, each importing only those before
it, and the verifier, the trusted kernel, imports only core.  The package
and the CLI load a module only when it runs: a process imports what its
subcommand needs, no subcommand loads ``dataclasses``, ``fractions``,
``argparse``, ``gettext`` or ``locale``, a ``python -m resflat.cli``
process compiles ``cli.py`` once, the public names stay what they
were, and README counts the kernel's lines right."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import resflat

SOURCE = Path(resflat.__file__).parent

# core <- graphs <- decide <- surfaces <- cli, and the kernel, verify, on
# core alone: every module may import those before it.  reports, the cold
# subcommands' bodies, sits before cli and never imports it.
ALLOWED = {
    "core": set(),
    "verify": {"core"},
    "graphs": {"core"},
    "decide": {"core", "graphs"},
    "surfaces": {"core", "graphs", "decide", "verify"},
    "reports": {"core", "graphs", "decide", "verify"},
    "cli": {"core", "verify", "graphs", "decide", "surfaces", "reports"},
}


def package_imports(module: str) -> set[str]:
    """The package modules a source file imports, at any depth in it."""
    names = []
    for node in ast.walk(ast.parse((SOURCE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["resflat", node.module])) if node.level else node.module
            names += [f"{base}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in names if name.startswith("resflat.")}


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_each_module_imports_only_those_before_it(module):
    assert package_imports(module) <= ALLOWED[module]


def test_the_readme_counts_the_kernels_lines():
    """README's sentence on the trusted base names each file's line count."""
    readme = " ".join((SOURCE.parents[1] / "README.md").read_text().split())
    sentence = re.search(
        r"trusts exactly two files, `src/resflat/verify\.py` \((\d+) lines\) "
        r"and `src/resflat/core\.py` \((\d+) lines\)",
        readme,
    )
    assert sentence, "README no longer states the kernel's line counts"
    counts = [len((SOURCE / name).read_text().splitlines()) for name in ("verify.py", "core.py")]
    assert [int(n) for n in sentence.groups()] == counts



# The package's public names, by the module that defines each.
PUBLIC = {
    "core": {
        "PrimitiveRay",
        "QQi",
        "SearchBudgetExceeded",
        "StratumSignature",
        "collinear_normal_form",
        "residue_tuple",
        "validate_residues",
        "validate_stratum",
    },
    "decide": {
        "Verdict",
        "decide_realizable",
        "enumerate_excluded_rays",
        "search_cylinder_tuple",
    },
    "graphs": {
        "CylinderConfig",
        "find_connection_graph",
        "find_cylinder_config",
        "find_stable_config",
        "is_connection_graph",
    },
    "surfaces": {"InternalBuildError", "blow_up_zero", "build_witness"},
    "verify": {
        "ConstructionCertificate",
        "FlatSurface",
        "Polygon",
        "PolarPart",
        "Profile",
        "SimplePolePart",
        "VerificationError",
        "profile_matches",
        "verify_certificate",
        "verify_surface",
    },
}

# A residual polygon, a stable tree on three zeros, and the witness's
# certificate, which verify reads.
POLYGON_REQUEST = {
    "stratum": {"genus": 0, "zeros": [2], "poles": [], "simple_poles": 4},
    "residues": [1, {"im": 1}, -1, {"im": -1}],
}
STABLE_TREE_REQUEST = {
    "stratum": {"genus": 0, "zeros": [2, 2, 2], "poles": [], "simple_poles": 8},
    "residues": [3, 1, 1, 1, -1, -1, -2, -2],
}
# Four unit cylinders: an excluded ray at the genus on H_4(6), closed form;
# found by the search on H_4(4, 1, 1).
CLOSED_FORM_CYLINDERS = {
    "stratum": {"genus": 4, "zeros": [6], "poles": [], "simple_poles": 0},
    "circumferences": [1, 1, 1, 1],
}
SEARCHED_CYLINDERS = {
    "stratum": {"genus": 4, "zeros": [4, 1, 1], "poles": [], "simple_poles": 0},
    "circumferences": [1, 1, 1, 1],
}


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports this checkout's resflat."""
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )


# Standard-library modules that no subcommand needs: the records are
# slotted classes, the codecs read rationals as integers, and the command
# line is read from one table, without argparse and the gettext and locale
# that argparse loads.
UNNEEDED = ("dataclasses", "fractions", "argparse", "gettext", "locale")


def modules_after_main(argv: list[str]) -> tuple[int, set[str]]:
    """The exit status of resflat.cli.main(argv) in a fresh interpreter, and
    the package modules and the UNNEEDED ones that interpreter loaded."""
    done = fresh_python(
        "import json, sys, resflat.cli\n"
        "code = resflat.cli.main(sys.argv[1:])\n"
        f"watched = ('resflat', *{UNNEEDED!r})\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] in watched)\n"
        "print(json.dumps([code, loaded]))",
        *argv,
    )
    assert done.returncode == 0, done.stderr
    code, loaded = json.loads(done.stdout)
    return code, set(loaded)


def package(*modules: str) -> set[str]:
    return {"resflat"} | {f"resflat.{m}" for m in modules}


@pytest.fixture
def documents(tmp_path):
    paths = {}
    for name, doc in (
        ("polygon", POLYGON_REQUEST),
        ("stable", STABLE_TREE_REQUEST),
        ("closed-form", CLOSED_FORM_CYLINDERS),
        ("searched", SEARCHED_CYLINDERS),
    ):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    paths["cert"] = tmp_path / "cert.json"
    code, _ = modules_after_main(["witness", str(paths["polygon"]), "-o", str(paths["cert"])])
    assert code == 0
    paths["out"] = tmp_path / "out.json"
    return paths


@pytest.mark.parametrize(
    "argv, code, modules",
    [
        (["verify", "cert"], 0, package("core", "verify", "cli")),
        (["decide", "polygon"], 0, package("core", "decide", "cli")),
        (["table", "--s-max", "7"], 0, package("core", "decide", "reports", "cli")),
        (
            ["oracle-check", "--s-max", "5", "--entry-bound", "3"],
            0,
            package("core", "graphs", "decide", "reports", "cli"),
        ),
        (["witness", "polygon"], 0, package("core", "decide", "verify", "surfaces", "cli")),
        (["witness", "stable"], 0, package("core", "graphs", "decide", "verify", "surfaces", "cli")),
        (["cylinders", "closed-form"], 1, package("core", "decide", "cli")),
        (["cylinders", "searched"], 0, package("core", "graphs", "decide", "cli")),
    ],
    ids=[
        "verify",
        "decide",
        "table",
        "oracle-check",
        "witness-polygon",
        "witness-stable-tree",
        "cylinders-closed-form",
        "cylinders-search",
    ],
)
def test_each_subcommand_loads_only_the_modules_it_runs(documents, argv, code, modules):
    argv = [str(documents.get(a, a)) for a in argv] + ["-o", str(documents["out"])]
    assert modules_after_main(argv) == (code, modules)


def test_a_drawing_loads_no_more_modules(documents):
    drawing = documents["out"].with_name("drawing.svg")
    argv = ["witness", str(documents["polygon"]), "-o", str(documents["out"]), "--svg", str(drawing)]
    modules = package("core", "decide", "verify", "surfaces", "reports", "cli")
    assert modules_after_main(argv) == (0, modules)
    assert ET.parse(drawing).getroot().tag.endswith("svg")


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["decide", "polygon"], package("core", "decide")),
        (["witness", "polygon"], package("core", "decide", "verify", "surfaces")),
        (["verify", "cert"], package("core", "verify")),
        (["table", "--s-max", "4"], package("core", "decide", "reports")),
    ],
    ids=["decide", "witness", "verify", "table"],
)
def test_a_module_run_compiles_the_cli_once(documents, argv, loaded):
    """Under ``python -m resflat.cli`` the running module is ``__main__``, so
    a process that also imported ``resflat.cli`` by name would compile and
    run it twice; ``-X importtime`` logs every import by name."""
    argv = [str(documents.get(a, a)) for a in argv] + ["-o", str(documents["out"])]
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "resflat.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert {m for m in imported if m.split(".")[0] == "resflat"} == loaded
    assert not imported & set(UNNEEDED)


ROTATION_REQUEST = {
    "stratum": {"genus": 1, "zeros": [4], "poles": [2, 2], "simple_poles": 0},
    "residues": [0, 0],
    "rotation": 2,
}


@pytest.mark.parametrize(
    "request_doc",
    [POLYGON_REQUEST, STABLE_TREE_REQUEST, ROTATION_REQUEST],
    ids=["polygon", "stable-tree", "rotation"],
)
def test_the_kernel_reads_its_own_format_without_the_cli(tmp_path, request_doc):
    """With only resflat.verify imported, a witness certificate document
    decodes, verifies and encodes again to the same bytes."""
    request, cert = tmp_path / "request.json", tmp_path / "cert.json"
    request.write_text(json.dumps(request_doc))
    assert modules_after_main(["witness", str(request), "-o", str(cert)])[0] == 0
    done = fresh_python(
        "import json, sys\n"
        "import resflat.verify as kernel\n"
        "text = open(sys.argv[1]).read()\n"
        "cert = kernel._certificate_from_json(json.loads(text))\n"
        "kernel.verify_certificate(cert)\n"
        "doc = kernel._certificate_to_json(cert)\n"
        "again = json.dumps(doc, sort_keys=True, indent=2) + '\\n'\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'resflat')\n"
        "print(json.dumps([again == text, loaded]))",
        str(cert),
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [True, ["resflat", "resflat.core", "resflat.verify"]]


def test_a_bare_import_loads_no_submodule_and_each_resolves():
    done = fresh_python(
        "import sys, resflat\n"
        "print(sorted(m for m in sys.modules if m.startswith('resflat')))\n"
        "for name in ('core', 'decide', 'verify', 'graphs', 'surfaces', 'cli'):\n"
        "    print(getattr(resflat, name).__name__)"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == [
        "['resflat']",
        *(f"resflat.{m}" for m in ("core", "decide", "verify", "graphs", "surfaces", "cli")),
        "",
    ]


def test_star_import_binds_the_same_public_names():
    names = {}
    exec("from resflat import *", names)
    del names["__builtins__"]
    assert set(names) == set().union(*PUBLIC.values())
    assert len(names) == len(resflat.__all__) == 30


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_public_name_is_its_modules_own_object(module):
    defining = importlib.import_module(f"resflat.{module}")
    for name in PUBLIC[module]:
        obj = getattr(resflat, name)
        assert obj is getattr(defining, name)
        assert obj.__module__ == defining.__name__
        assert name in dir(resflat)


def test_the_budget_exception_keeps_its_name_in_graphs():
    assert resflat.graphs.SearchBudgetExceeded is resflat.SearchBudgetExceeded


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'decide_anything'"):
        resflat.decide_anything
    assert not hasattr(resflat, "Verdicts")
