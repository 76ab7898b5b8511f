"""braidkernel: surface braid group presentations, coset enumeration,
rewriting certificates, and covering arithmetic.

Every module that defines a public name is in ``sys.modules`` from the
start but executes on its first attribute access, and ``cli`` imports a
command's module (``commands.<name>``) only to run that command, so a
CLI command runs only the modules it uses.  ``base`` holds the errors
and the record decorator that every module shares.  Each public name
resolves through ``__getattr__`` to the one module that defines it.
"""

import _thread
import importlib.util
import sys
import types

__version__ = "0.1.0"

# engine budgets, defined here so the CLI parser reads its defaults without executing an engine
DEFAULT_MAX_COSETS = 100000  # coset.todd_coxeter: live cosets
DEFAULT_MAX_RULES = 500      # rewriting.knuth_bendix: rules
DEFAULT_MAX_LEN = 30         # rewriting.knuth_bendix: rule side length
DEFAULT_MAX_WORD_LEN = 30    # derivations.search_equality: word length
DEFAULT_MAX_NODES = 200000   # derivations.search_equality: distinct words visited

_EXPORTS = {
    "base": ("BraidkernelError", "EnumerationError"),
    "words": ("Word", "WordError", "cyclic_reduce", "format_word", "make_alphabet", "parse_word",
              "shortlex_compare"),
    "presentations": ("AbelianInvariants", "FormatError", "GroupHom", "HomCheckResult",
                      "Presentation", "PresentationError", "abelianization", "format_presentation",
                      "hom_check", "parse_hom_file", "parse_presentation", "parse_relation",
                      "presentation", "quotient", "substitute"),
    "snf": ("MatrixError", "smith_normal_form"),
    "coset": ("CosetTable", "IncompleteTableError", "center_order_finite",
              "coset_representatives", "group_order", "is_central_finite", "table_equality_oracle",
              "todd_coxeter", "word_equal_finite"),
    "rewriting": ("RewriteSystem", "enumerate_normal_forms", "knuth_bendix", "normal_form",
                  "rewrite_equality_oracle"),
    "derivations": ("ChainError", "DerivationChain", "DerivationReport", "DerivationStep",
                    "apply_step", "check_derivation", "format_chain", "parse_chain_file",
                    "search_equality"),
    "surfaces": ("KLEIN", "RP2", "SPHERE", "TORUS", "CoveringError", "SurfaceError", "SurfaceKind",
                 "describe_surface", "euler_char", "parse_surface", "quotient_candidates",
                 "torus_action_forms"),
    "atlas": ("AtlasError", "CenterDescription", "b_ij_as_rho", "center_table",
              "forget_strands_hom", "klein_presentation", "pi1_nonorientable", "pure_braid_rp2",
              "quaternion_presentation", "rp2_strand_count", "tau_component", "tau_n",
              "torus_presentation"),
    "coverings": ("CoverDecision", "KernelDescription", "can_cover", "kernel_description"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)

_LOCK = _thread.RLock()
_RUNNING = set()


class _LazyModule(types.ModuleType):
    """A submodule whose code runs on its first attribute access, in one thread:
    the others wait on the lock, where the standard library's LazyLoader (Python
    3.11) lets them read a half-filled namespace."""

    def __getattribute__(self, attr):
        with _LOCK:
            if type(self) is _LazyModule and self not in _RUNNING:
                _RUNNING.add(self)
                try:
                    types.ModuleType.__getattribute__(self, "__loader__").exec_module(self)
                finally:
                    _RUNNING.discard(self)
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, attr)


for _module in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    globals()[_module] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    globals()[_module].__class__ = _LazyModule


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
