"""Every top-level function and class of the library, and every public
method or property of such a class, has a caller.

A name counts as called when it is referenced in `src/cartanquiver`
outside its own definition (a function or class as a name or as an
attribute, a method or property only as an attribute: a local variable
of the same name calls nothing), imported by the package `__init__`,
named in a benchmark script `perfbench/*.py`, or listed in ALLOWED with
the reason it stays.

No function binds a budget or trial-count constant (a name ending in
_BUDGET or _TRIALS) as a parameter default, and the keywords those
constants replaced fail at the call.  Names deleted from the public API
stay deleted.
"""

import ast
import collections
import pathlib
import re

import pytest

import cartanquiver
from cartanquiver import errors, flagvar, gendecomp, hmod, homext, reduction
from cartanquiver import exactlinalg as la

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cartanquiver"

ALLOWED = {
    "flagvar.BundleRatioReport.all_ok":
        "the report's public verdict, counterpart of ok_for_rigid",
    "flagvar.FiberOfReduction.flag_at":
        "the public parametrisation of a fiber's points by coefficients",
    "flagvar.FlagOfSubmodules.validate":
        "the public check of a flag built by hand",
}


def _references(node) -> collections.Counter:
    """References by (kind, name), kind "name" for a bare name and "attr"
    for an attribute."""
    out = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out["name", sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out["attr", sub.attr] += 1
    return out


def _definitions(tree):
    """(qualified suffix, name, node, kinds) of the top-level functions and
    classes, referenced by name or attribute, and of the public methods and
    properties of those classes, referenced by attribute only."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node, ("name", "attr")
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")):
                    yield (f"{node.name}.{sub.name}", sub.name, sub,
                           ("attr",))


def uncalled(modules: dict, init_source: str, bench_text: str,
             allowed=()) -> list:
    """Qualified names (module.name) of the definitions in `modules`
    (module name -> source) that nothing calls."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    total = collections.Counter()
    for tree in trees.values():
        total.update(_references(tree))
    exported = {alias.asname or alias.name
                for node in ast.walk(ast.parse(init_source))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    out = []
    for module, tree in sorted(trees.items()):
        for suffix, name, node, kinds in _definitions(tree):
            qualified = f"{module}.{suffix}"
            own = _references(node)
            calls = sum(total[kind, name] - own[kind, name] for kind in kinds)
            if (calls > 0
                    or name in exported
                    or re.search(rf"\b{re.escape(name)}\b", bench_text)
                    or qualified in allowed):
                continue
            out.append(qualified)
    return sorted(out)


def test_guard_sees_uncalled_names():
    modules = {
        "a": ("def used():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "def exported():\n    pass\n"
              "def benched():\n    pass\n"
              "def allowed():\n    pass\n"
              "class Report:\n"
              "    @property\n    def ok(self):\n        return used()\n"
              "    def dead(self):\n        return self.dead()\n"
              "    def shadowed(self):\n        pass\n"
              "    def _private(self):\n        pass\n"),
        "b": "from .a import Report\nshadowed = Report().ok\n",
    }
    found = uncalled(modules, "from .a import exported\n",
                     "wrap('a.benched')\n", {"a.allowed"})
    assert found == ["a.Report.dead", "a.Report.shadowed", "a.recursive"]


def test_allowlist_names_exist():
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    for qualified in ALLOWED:
        module, *path = qualified.split(".")
        names = {suffix for suffix, _, _, _ in
                 _definitions(ast.parse(modules[module]))}
        assert ".".join(path) in names, qualified


def test_every_definition_has_a_caller():
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py")
               if p.name != "__init__.py"}
    bench = "\n".join(p.read_text()
                      for p in sorted((ROOT / "perfbench").glob("*.py")))
    found = uncalled(modules, (SRC / "__init__.py").read_text(), bench,
                     ALLOWED)
    assert found == []


BOUND_CONSTANT = re.compile(r"_(BUDGET|TRIALS)$")


def constant_defaults(source: str) -> list:
    """(function, name) for each name ending in _BUDGET or _TRIALS that a
    parameter default of a function in `source` reads.  Such a default is
    bound once, at definition, so setting the constant later would not
    reach that function."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        defaults = node.args.defaults + [d for d in node.args.kw_defaults
                                         if d is not None]
        for sub in (s for d in defaults for s in ast.walk(d)):
            name = getattr(sub, "id", None) or getattr(sub, "attr", None)
            if isinstance(name, str) and BOUND_CONSTANT.search(name):
                out.append((getattr(node, "name", "<lambda>"), name))
    return out


def test_guard_sees_bound_constants():
    source = ("X_BUDGET = 1\n"
              "def bound(a, b=X_BUDGET, *, c=hmod.Y_TRIALS, d=SAMPLES):\n"
              "    pass\n"
              "def read(a, b=None):\n"
              "    return X_BUDGET if b is None else b\n"
              "f = lambda n=Z_BUDGET + 1: n\n")
    assert constant_defaults(source) == [
        ("bound", "X_BUDGET"), ("bound", "Y_TRIALS"),
        ("<lambda>", "Z_BUDGET")]


def test_no_budget_bound_as_default():
    found = {p.stem: constant_defaults(p.read_text())
             for p in SRC.glob("*.py")}
    assert {name: hits for name, hits in found.items() if hits} == {}


REMOVED_KEYWORDS = [
    (homext.are_isomorphic, "trials"),
    (homext.are_isomorphic, "exhaustive_budget"),
    (homext.find_rigid, "exhaustive_budget"),
    (homext.parameter_estimate, "exhaustive_budget"),
    (gendecomp.is_indecomposable, "trials"),
    (gendecomp.is_indecomposable, "idempotent_budget"),
    (gendecomp.krull_schmidt, "trials"),
    (gendecomp.krull_schmidt, "idempotent_budget"),
    (gendecomp.krull_schmidt, "verify"),
    (gendecomp.ext_generic, "pair_budget"),
    (gendecomp.is_schur_root, "space_budget"),
    (gendecomp.is_schur_root, "pair_budget"),
    (gendecomp.canonical_decomposition, "space_budget"),
]


@pytest.mark.parametrize(
    "fn,keyword", REMOVED_KEYWORDS,
    ids=[f"{fn.__name__}-{kw}" for fn, kw in REMOVED_KEYWORDS])
def test_removed_budget_keywords(a2, fn, keyword):
    """The budgets and trial counts are module constants now, and the
    Krull-Schmidt check is made at each split; the old keywords fail at
    the call."""
    m = hmod.free_module(a2, 1, 2, (1, 0))
    args = {homext.are_isomorphic: (m, m),
            gendecomp.is_indecomposable: (m,),
            gendecomp.krull_schmidt: (m,),
            gendecomp.ext_generic: (a2, 1, 2, (1, 0), (0, 1))}.get(
                fn, (a2, 1, 2, (1, 0)))
    with pytest.raises(TypeError, match=keyword):
        fn(*args, **{keyword: 1})


# the chain lift and the list wrappers that the fibers of reduction and
# list(iter_*) replaced, the error only the chain lift raised, the
# submodule builder that `hmod._restrict` replaced, the product matrices
# that the order-1 ring factors of the Hom solver replaced (the tests keep
# them as a reference), a flag serialisation nothing called (the guard
# above matches names only, and other classes define `to_dict`), and the
# second rules of module equality, subspace residue and a key's chart
# count, with the full-space constructor nothing called, the
# copy-or-alias test of a basis that a public constructor took on trust,
# and the modular inverse that `rref` inlines; and the block stepping of
# the candidate tables (a key keeps one table up to _BLOCK_TEST_CHARTS
# charts and is solved above it) with the budget check that each search
# now makes at its levels with no closure test
REMOVED_NAMES = [
    (cartanquiver, "lift"),
    (cartanquiver, "lift_chain"),
    (cartanquiver, "enumerate_flags"),
    (cartanquiver, "enumerate_locally_free_submodules"),
    (reduction, "lift"),
    (reduction, "StructureChain"),
    (reduction, "LiftedChain"),
    (reduction, "lift_chain"),
    (reduction, "generator_span"),
    (reduction, "_at_level"),
    (flagvar, "enumerate_flags"),
    (flagvar, "enumerate_locally_free_submodules"),
    (errors, "NotNested"),
    (hmod, "submodule"),
    (la, "left_product_matrix"),
    (la, "right_product_matrix"),
    (flagvar.FlagOfSubmodules, "to_dict"),
    (gendecomp, "_content"),
    (la.Subspace, "reduce_rows"),
    (la.Subspace, "full"),
    (flagvar, "chart_count"),
    (homext, "_right_factor"),
    (homext, "_left_factor"),
    (homext, "_read_off"),
    (flagvar, "_check_steps"),
    (flagvar, "_rank_seq"),
    (la, "_frozen_int64"),
    (la.Subspace, "__post_init__"),
    (la, "inv_mod"),
    (reduction, "_eps_powers"),
    (flagvar, "_charts"),
    (flagvar, "_sub_rank"),
    (flagvar, "_CANDIDATE_CACHE_LIMIT"),
    (flagvar, "_BLOCK_CELLS"),
    (flagvar, "_candidate_blocks"),
    (flagvar, "_check_budgets"),
    (flagvar, "_entries"),
    (flagvar._KeyEntry, "step"),
    (flagvar._KeyEntry, "blocks"),
    (flagvar._CandidateTable, "__len__"),
]


@pytest.mark.parametrize(
    "module,name", REMOVED_NAMES,
    ids=[f"{module.__name__}.{name}" for module, name in REMOVED_NAMES])
def test_removed_names(module, name):
    assert not hasattr(module, name)
