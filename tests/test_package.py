"""Public names, lazy submodules, and the modules each CLI command executes."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import braidkernel
from braidkernel import cli

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"

PUBLIC_NAMES = {
    "base": ["BraidkernelError", "EnumerationError"],
    "words": ["Word", "WordError", "cyclic_reduce", "format_word", "make_alphabet", "parse_word",
              "shortlex_compare"],
    "presentations": ["AbelianInvariants", "FormatError", "GroupHom", "HomCheckResult",
                      "Presentation", "PresentationError", "abelianization", "format_presentation",
                      "hom_check", "parse_hom_file", "parse_presentation", "parse_relation",
                      "presentation", "quotient", "substitute"],
    "snf": ["MatrixError", "smith_normal_form"],
    "coset": ["CosetTable", "IncompleteTableError", "center_order_finite",
              "coset_representatives", "group_order", "is_central_finite", "table_equality_oracle",
              "todd_coxeter", "word_equal_finite"],
    "rewriting": ["RewriteSystem", "enumerate_normal_forms", "knuth_bendix", "normal_form",
                  "rewrite_equality_oracle"],
    "derivations": ["ChainError", "DerivationChain", "DerivationReport", "DerivationStep",
                    "apply_step", "check_derivation", "format_chain", "parse_chain_file",
                    "search_equality"],
    "surfaces": ["KLEIN", "RP2", "SPHERE", "TORUS", "CoveringError", "SurfaceError", "SurfaceKind",
                 "describe_surface", "euler_char", "parse_surface", "quotient_candidates",
                 "torus_action_forms"],
    "atlas": ["AtlasError", "CenterDescription", "b_ij_as_rho", "center_table",
              "forget_strands_hom", "klein_presentation", "pi1_nonorientable", "pure_braid_rp2",
              "quaternion_presentation", "rp2_strand_count", "tau_component", "tau_n",
              "torus_presentation"],
    "coverings": ["CoverDecision", "KernelDescription", "can_cover", "kernel_description"],
}


def test_public_names_are_pinned():
    expected = [name for names in PUBLIC_NAMES.values() for name in names]
    assert len(expected) == 78
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


# map.hom sends Z to Q8 (x to rho1); forget.hom forgets strand 4 of P4(RP2), into P3(RP2);
# trivial.chain is a valid chain over Q8
P3, P4 = (braidkernel.pure_braid_rp2(n) for n in (3, 4))
FILES = {"map.hom": "begin source\ngroup Z\ngens x\nend\nbegin target\n" + Q8
                    + "end\nsend x = rho1\n",
         "forget.hom": f"begin source\n{braidkernel.format_presentation(P4)}end\n"
                       f"begin target\n{braidkernel.format_presentation(P3)}end\n"
                       + "".join(f"send {g} = {g if g in P3.alphabet else 1}\n"
                                 for g in P4.alphabet),
         "trivial.chain": "start rho1\nend rho1\n"}


def executed_modules(argv, stdin, exit_code, cwd, stderr="", stdout=None):
    for name, text in FILES.items():
        (cwd / name).write_text(text)
    proc = subprocess.run([sys.executable, "-c", EXECUTED, *argv], input=stdin,
                          capture_output=True, text=True, check=True, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    *lines, last = proc.stdout.splitlines(keepends=True)
    code, *names = last.split()
    assert (code, proc.stderr) == (str(exit_code), stderr)
    assert stdout is None or "".join(lines) == stdout
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


# A library import of a public name executes the one module that defines it.
IMPORTED = """\
import sys, types
from braidkernel import BraidkernelError
print(*sorted(name.partition(".")[2] for name, module in sys.modules.items()
              if name.startswith("braidkernel.") and type(module) is types.ModuleType))
"""


def test_base_name_import_executes_only_base():
    proc = subprocess.run([sys.executable, "-c", IMPORTED], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert (proc.stdout, proc.stderr) == ("base\n", "")


def test_first_touch_from_several_threads():
    proc = subprocess.run([sys.executable, "-c", FIRST_TOUCH], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert (proc.stdout, proc.stderr) == ("4\n", "")


# every engine module but surfaces and coverings
SURFACE_ONLY = {"words", "presentations", "snf", "coset", "rewriting", "derivations", "atlas"}


# (argv, stdin, exit code, modules it executes, modules it skips), one row per command at least
EXECUTED_CASES = {
    # the no-op, a cover and a kernel without a presentation compile no word code,
    # and the no-op's arithmetic lives in surfaces
    "quotients": (["quotients", "--surface", "S2", "--sheets", "1"], "", 0,
                  {"cli", "base", "surfaces"}, SURFACE_ONLY | {"coverings"}),
    "cover-S5-S2": (["cover", "--from", "S5", "--to", "S2", "--sheets", "4"], "", 0,
                    {"surfaces", "coverings"}, SURFACE_ONLY),
    "kernel-S2": (["kernel", "--quotient", "S2", "--n", "3"], "", 0, {"surfaces", "coverings"},
                  SURFACE_ONLY),
    "build": (["build", "--surface", "rp2", "--n", "2"], "", 0, {"atlas", "presentations"},
              {"coset", "rewriting", "derivations", "snf", "coverings"}),
    "order": (["order"], Q8, 0, {"coset"},
              {"rewriting", "derivations", "atlas", "snf", "coverings"}),
    "central": (["central", "--element", "rho1^2"], Q8, 0, {"coset"},
                {"rewriting", "derivations", "atlas", "snf", "coverings"}),
    "abelianize": (["abelianize"], Q8, 0, {"presentations", "snf"},
                   {"coset", "rewriting", "derivations", "atlas", "coverings"}),
    "hom-check": (["hom-check", "--map", "map.hom"], "", 0, {"presentations", "coset"},
                  {"rewriting", "derivations", "atlas", "snf", "coverings"}),
    # into P3(RP2), which is infinite: the tower decides, and no table is enumerated
    "hom-check-tower": (["hom-check", "--map", "forget.hom"], "", 0, {"tower"},
                        {"coset", "schreier", "reidemeister", "rewriting", "derivations",
                         "surfaces"}),
    # the atlas P4(RP2), which is infinite: the tower decides, and no table is enumerated
    "central-tower": (["central", "--element", "tau"], braidkernel.format_presentation(P4), 0,
                      {"tower", "atlas"},
                      {"coset", "schreier", "reidemeister", "rewriting", "derivations", "snf",
                       "surfaces"}),
    "equal-rewrite": (EQUAL + ["--rewrite"], Q8, 0, {"rewriting"},
                      {"coset", "derivations", "atlas", "snf"}),
    "equal-table": (EQUAL + ["--table"], Q8, 0, {"coset"}, {"rewriting", "derivations", "snf"}),
    "equal-search": (EQUAL + ["--search"], Q8, 0, {"derivations"}, {"coset", "rewriting", "snf"}),
    # an undecided engine: only then do the index-2 witness and its Smith normal form run
    "equal-witness": (["equal", "--search", "--max-nodes", "1", "--lhs", "rho1^2", "--rhs", "1"],
                      Q8, 1, {"derivations", "schreier", "snf"}, {"coset", "rewriting", "atlas"}),
    # the klein-over-torus certificate: exit 1, the covering is impossible
    "cover-klein-torus": (["cover", "--from", "klein", "--to", "torus", "--sheets", "2"], "", 1,
                          {"coverings", "coset"}, {"rewriting", "derivations"}),
    "check-derivation": (["check-derivation", "trivial.chain"], Q8, 0, {"derivations"},
                         {"coset", "rewriting", "atlas", "snf", "coverings"}),
}


@pytest.mark.parametrize("argv,stdin,exit_code,runs,skips", EXECUTED_CASES.values(),
                         ids=list(EXECUTED_CASES))
def test_command_executes_only_the_modules_it_uses(tmp_path, argv, stdin, exit_code, runs, skips):
    executed = executed_modules(argv, stdin, exit_code, tmp_path)
    assert runs <= executed
    assert not executed & skips, executed & skips
    # its own command module, and no other command's; the answer chain only for equal, central
    # and hom-check
    chain = {"commands.chain"} if argv[0] in ("equal", "central", "hom-check") else set()
    assert {name for name in executed if name.startswith("commands")} == {
        "commands", f"commands.{cli._COMMANDS[argv[0]][0]}", *chain}


def test_the_tower_module_runs_only_on_its_groups(tmp_path):
    # the atlas P_n(RP2), 3 <= n <= 12, and its quotients are decided by the tower alone: no
    # enumeration, no witness.  Off its gate (P4(RP2) with an atlas relator dropped) the
    # tower module never runs, and the engines' own lines stand
    p3, p4 = (braidkernel.format_presentation(braidkernel.pure_braid_rp2(n)) for n in (3, 4))
    p4q = p4 + "".join(f"rel rho{k}^6\n" for k in (1, 2, 3, 4))
    lines = p4.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("rel "))
    p4_off = "".join(lines[:first] + lines[first + 1:])
    no_table = {"coset", "schreier", "reidemeister"}
    identity = ["--lhs", "rho1 rho2 rho1 rho2", "--rhs", "rho2 rho1 rho2 rho1"]
    equal = ["equal", "--rewrite", "--max-rules", "150", *identity]
    for group in (p3, p4, p4q):
        executed = executed_modules(equal, group, 0, tmp_path, stdout="equal\n")
        assert "tower" in executed and not executed & (no_table | {"snf", "derivations"})
    executed = executed_modules(equal, p4_off, 2, tmp_path,
                                "undecided: rewriting system is not confluent\n")
    assert "schreier" in executed and "tower" not in executed
    # central's chain has no witness link, and asks the tower first: on P3(RP2), P4(RP2) and
    # its quotient by rho_k^6 the tower decides and the table, which could only run out,
    # never runs
    central = ["central", "--element", "tau", "--max-cosets", "1000"]
    for group in (p3, p4, p4q):
        executed = executed_modules(central, group, 0, tmp_path)
        assert "tower" in executed and not executed & (no_table | {"derivations"})
    executed = executed_modules(central, p4_off, 2, tmp_path,
                                "undecided: enumeration budget exhausted at 1000 live cosets\n")
    assert "coset" in executed and not executed & {"schreier", "tower"}
    # on P3(RP2)/<rho_k^4> the tower disproves centrality at Q8, which every rho_k^4 maps onto
    rho4 = p3 + "".join(f"rel rho{k}^4\n" for k in (1, 2, 3))
    answer = {"result": {"element": "rho1*B12", "central": False, "engine": "tower"}}
    executed = executed_modules(["central", "--json", "--element", "rho1 B12"], rho4, 1,
                                tmp_path, stdout=json.dumps(answer, indent=2) + "\n")
    assert "tower" in executed and not executed & no_table


def test_every_command_has_an_executed_modules_case():
    assert {argv[0] for argv, *_ in EXECUTED_CASES.values()} == set(cli._COMMANDS)


@pytest.mark.parametrize("argv,exit_code,stderr", [
    (["--help"], 0, ""),
    (["order", "--help"], 0, ""),
    (["order", "--bogus"], 3, "error: order: unknown option --bogus\n"),
], ids=["help", "command-help", "usage-error"])
def test_help_and_usage_errors_execute_no_command(tmp_path, argv, exit_code, stderr):
    assert executed_modules(argv, "", exit_code, tmp_path, stderr) == {"cli", "base"}


# Runs one command in process, as `python -m braidkernel` would, and prints
# the braidkernel source lines it compiled.  With no bytecode to read (an
# empty cache prefix) or to write, that is every line of every module it
# executes: what a process pays when it starts without a bytecode cache.
COMPILED = """\
import sys
from importlib.machinery import SourceFileLoader
package = sys.argv.pop(1)
lines = []
to_code = SourceFileLoader.source_to_code
def counting(self, data, path, *args, **kwargs):
    if path.startswith(package):
        lines.append(data.count(b"\\n"))
    return to_code(self, data, path, *args, **kwargs)
SourceFileLoader.source_to_code = counting
import braidkernel.__main__
from braidkernel import cli
code = cli.run(sys.argv[1:])
print(code, sum(lines))
"""


@pytest.mark.parametrize("argv,stdin,most", [
    # 614 and 1429 lines when this bound was set, about 2% below it; 647 and 1472
    # before the answer chain moved out of commands/__init__ and the syllable read
    # into words, 750 before the free-action arithmetic moved out of coverings, and
    # 1162 and 1573 before the commands moved into modules of their own and the
    # base out of words
    (["quotients", "--surface", "S2", "--sheets", "1"], "", 625),
    (["order"], Q8, 1455),
    # the tower on the atlas P4(RP2): 1876 lines when this bound was set, about 2% below it;
    # 2032 while atlas imported surfaces, which the tower never uses, at module level
    (["central", "--element", "tau", "--max-cosets", "1000"], braidkernel.format_presentation(P4),
     1915),
], ids=["quotients", "order", "central-tower"])
def test_command_compiles_at_most(tmp_path, argv, stdin, most):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
               PYTHONPYCACHEPREFIX=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", COMPILED, str(SRC / "braidkernel"), *argv],
                          input=stdin,
                          capture_output=True, text=True, check=True, env=env)
    code, compiled = proc.stdout.splitlines()[-1].split()
    assert (code, proc.stderr) == ("0", "")
    assert 0 < int(compiled) <= most
    assert not any(tmp_path.iterdir())  # and nothing was cached


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
