"""Public names, lazy submodules, and the modules each CLI command executes."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import braidkernel

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"

PUBLIC_NAMES = {
    "words": ["BraidkernelError", "Word", "WordError", "cyclic_reduce",
              "format_word", "make_alphabet", "multiply", "parse_word", "shortlex_compare"],
    "presentations": ["AbelianInvariants", "FormatError", "GroupHom", "HomCheckResult",
                      "Presentation", "PresentationError", "abelianization", "format_presentation",
                      "hom_check", "parse_hom_file", "parse_presentation", "parse_relation",
                      "presentation", "quotient", "substitute"],
    "snf": ["MatrixError", "smith_normal_form"],
    "coset": ["CosetTable", "EnumerationError", "IncompleteTableError", "center_order_finite",
              "coset_representatives", "group_order", "is_central_finite", "table_equality_oracle",
              "todd_coxeter", "word_equal_finite"],
    "rewriting": ["RewriteSystem", "enumerate_normal_forms", "knuth_bendix", "normal_form",
                  "rewrite_equality_oracle"],
    "derivations": ["ChainError", "DerivationChain", "DerivationReport", "DerivationStep",
                    "apply_step", "check_derivation", "format_chain", "parse_chain_file",
                    "search_equality"],
    "surfaces": ["KLEIN", "RP2", "SPHERE", "TORUS", "SurfaceError", "SurfaceKind",
                 "describe_surface", "euler_char", "parse_surface"],
    "atlas": ["AtlasError", "CenterDescription", "b_ij_as_rho", "center_table",
              "forget_strands_hom", "klein_presentation", "pi1_nonorientable", "pure_braid_rp2",
              "quaternion_presentation", "rp2_strand_count", "tau_component", "tau_n",
              "torus_presentation"],
    "coverings": ["CoverDecision", "CoveringError", "KernelDescription", "can_cover",
                  "kernel_description", "quotient_candidates", "torus_action_forms"],
}


def test_public_names_are_pinned():
    expected = [name for names in PUBLIC_NAMES.values() for name in names]
    assert len(expected) == 79
    assert braidkernel.__all__ == expected
    assert set(expected) <= set(dir(braidkernel))


def test_public_names_resolve_to_the_defining_module():
    for module_name, names in PUBLIC_NAMES.items():
        module = importlib.import_module(f"braidkernel.{module_name}")
        for name in names:
            assert getattr(braidkernel, name) is getattr(module, name), name


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from braidkernel import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(braidkernel.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        braidkernel.no_such_name
    with pytest.raises(ImportError):
        exec("from braidkernel import no_such_name", {})


def test_readme_library_snippet_runs():
    # the python block of the README's Library section, run as written
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ")[0]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "check_derivation(chain).valid" in snippet
    exec(compile(snippet, str(README), "exec"), {})


# Runs one command in process, then prints the braidkernel submodules that
# executed: a lazily registered module is a plain ModuleType once it has run.
EXECUTED = """\
import sys, types
from braidkernel import cli
code = cli.run(sys.argv[1:])
print(code, *sorted(name.partition(".")[2] for name, module in sys.modules.items()
                    if name.startswith("braidkernel.") and type(module) is types.ModuleType))
"""

Q8 = "group Q8\ngens rho1 rho2\nrel rho1^2 = rho2^2\nrel rho1^4\nrel rho1 rho2 rho1^-1 = rho2^-1\n"
EQUAL = ["equal", "--lhs", "rho1^2", "--rhs", "rho2^2"]


def executed_modules(argv, stdin, exit_code):
    proc = subprocess.run([sys.executable, "-c", EXECUTED, *argv], input=stdin,
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    code, *names = proc.stdout.splitlines()[-1].split()
    assert (code, proc.stderr) == (str(exit_code), "")
    return set(names)


# Touches one unexecuted module from several threads at once: each thread
# must wait for the module's code to finish, not read a half-filled module.
FIRST_TOUCH = """\
import sys, threading
import braidkernel
sys.setswitchinterval(1e-6)
found = []
threads = [threading.Thread(target=lambda: found.append(braidkernel.todd_coxeter))
           for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(len(found))
"""


def test_first_touch_from_several_threads():
    proc = subprocess.run([sys.executable, "-c", FIRST_TOUCH], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert (proc.stdout, proc.stderr) == ("4\n", "")


@pytest.mark.parametrize("argv,stdin,exit_code,runs,skips", [
    (["quotients", "--surface", "S2", "--sheets", "1"], "", 0,
     {"cli", "words", "surfaces", "coverings"},
     {"presentations", "snf", "coset", "rewriting", "derivations", "atlas"}),
    (["abelianize"], Q8, 0, {"presentations", "snf"},
     {"coset", "rewriting", "derivations", "atlas", "coverings"}),
    (EQUAL + ["--rewrite"], Q8, 0, {"rewriting"}, {"coset", "derivations", "atlas", "snf"}),
    (EQUAL + ["--table"], Q8, 0, {"coset"}, {"rewriting", "derivations", "snf"}),
    (EQUAL + ["--search"], Q8, 0, {"derivations"}, {"coset", "rewriting", "snf"}),
    # the klein-over-torus certificate: exit 1, the covering is impossible
    (["cover", "--from", "klein", "--to", "torus", "--sheets", "2"], "", 1,
     {"coverings", "coset"}, {"rewriting", "derivations"}),
], ids=["quotients", "abelianize", "equal-rewrite", "equal-table", "equal-search",
        "cover-klein-torus"])
def test_command_executes_only_the_modules_it_uses(argv, stdin, exit_code, runs, skips):
    executed = executed_modules(argv, stdin, exit_code)
    assert runs <= executed
    assert not executed & skips, executed & skips


# Standard modules that cost milliseconds to import and that no command
# needs: the CLI reads argv itself, and records are plain classes.
SLOW_MODULES = {"typing", "dataclasses", "inspect", "argparse", "gettext", "locale"}

# Runs one command in process and prints the modules it added to
# sys.modules; whatever site imported before the command does not count.
ADDED = """\
import sys
before = set(sys.modules)
from braidkernel import cli
code = cli.run(sys.argv[1:])
print(code, *sorted(set(sys.modules) - before))
"""


@pytest.mark.parametrize("argv,stdin", [
    (["quotients", "--surface", "S2", "--sheets", "1"], ""),
    (["build", "--surface", "rp2", "--n", "3"], ""),
    (["abelianize"], Q8),
    (EQUAL + ["--search"], Q8),
], ids=["quotients", "build", "abelianize", "equal-search"])
def test_command_imports_no_slow_stdlib_module(argv, stdin):
    proc = subprocess.run([sys.executable, "-c", ADDED, *argv], input=stdin,
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    code, *added = proc.stdout.splitlines()[-1].split()
    assert (code, proc.stderr) == ("0", "")
    assert "braidkernel.words" in added
    assert not SLOW_MODULES & set(added), added


# Runs one command in process under -S, so that site imports nothing, and
# prints which of the slow-to-import modules ended up loaded.
LOADED = f"""\
import sys
from braidkernel import cli
code = cli.run(sys.argv[1:])
print(code, *sorted({SLOW_MODULES!r} & set(sys.modules)))
"""


@pytest.mark.parametrize("argv,stdin", [
    (["quotients", "--surface", "S2", "--sheets", "1"], ""),
    (["build", "--surface", "rp2", "--n", "3"], ""),
    (["abelianize"], Q8),
    (EQUAL + ["--search"], Q8),
    (EQUAL + ["--table"], Q8),
    (EQUAL + ["--rewrite"], Q8),
], ids=["quotients", "build", "abelianize", "equal-search", "equal-table", "equal-rewrite"])
def test_command_without_site_loads_no_typing(argv, stdin):
    proc = subprocess.run([sys.executable, "-S", "-c", LOADED, *argv], input=stdin,
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert (proc.stdout.splitlines()[-1], proc.stderr) == ("0", "")
