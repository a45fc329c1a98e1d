"""The package namespace: every module's public names, once."""

import dis
import importlib
import inspect
import keyword
import re
from pathlib import Path

import numpy as np

import chainscope
from chainscope import (
    approximation,
    chains,
    cli,
    errors,
    fixtures,
    harness,
    metric,
    moduli,
    sequences,
)

MODULES = (approximation, chains, errors, fixtures, harness, metric, moduli,
           sequences)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from chainscope import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(chainscope.__all__)
    assert len(set(chainscope.__all__)) == len(chainscope.__all__)


def test_all_holds_every_module_list_and_every_error():
    exported = set(chainscope.__all__)
    for module in MODULES:
        assert set(module.__all__) <= exported, module.__name__
        for name in module.__all__:
            assert getattr(chainscope, name) is getattr(module, name)
    assert exported == {"__version__"}.union(
        *(module.__all__ for module in MODULES)
    )
    error_classes = {
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, Exception)
    }
    assert set(errors.__all__) == error_classes
    assert len(error_classes) == 21
    assert {"StageRecord", "TrialFailure", "claim_runs",
            "parse_provider"} <= exported


def test_one_public_form_per_chain_and_distance_query():
    # the hop queries are module functions over a graph; a ChainGraph
    # holds only its scale's adjacency and components
    public = {name for name in vars(chains.ChainGraph)
              if not name.startswith("_")}
    assert public == {"neighbors", "component_id", "component_count",
                      "components", "n"}
    for name in ("ball_layers", "find_chain", "component_centers",
                 "covering_profile", "is_chainable"):
        assert name in chains.__all__
    for module, name in ((chains, "build_chain_graph"),
                         (chains, "chain_component"),
                         (metric, "distance"), (metric, "isolation")):
        assert not hasattr(module, name), name
        assert name not in chainscope.__all__


def test_names_no_command_claim_or_demo_reaches_are_gone():
    # a space has one construction path, through its provider's converter
    gone = ((metric.MetricSpace, "realized_distances"),
            (metric.MetricSpace, "subspace"),
            (metric.MetricSpace, "_setup"),
            (metric.SparseVector, "unit"),
            (chains, "is_uniformly_chain_discrete"),
            (chains, "_subset_indices"),
            (chains.DiscretenessReport, "uniformly_discrete_at"),
            (chains.ChainGraph, "component_members"))
    for owner, name in gone:
        assert not hasattr(owner, name), name
        assert name not in chainscope.__all__
    assert "__new__" not in vars(metric.MetricSpace)


README = Path(__file__).resolve().parents[1] / "README.md"
PATH = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def module_table():
    """(module, backticked tokens of its contents) per row of the README's
    module table; a row names its module in its first cell."""
    table = README.read_text(encoding="utf-8").split("## Modules", 1)[1]
    rows = []
    for line in table.strip().splitlines():
        if not line.startswith("|"):
            break
        first, contents = line.strip("|").split("|", 1)
        name = re.search(r"`(chainscope\.\w+)`", first)
        if name:
            rows.append((importlib.import_module(name.group(1)),
                         re.findall(r"`([^`]+)`", contents)))
    return rows


def citable_names(module):
    """The names a row may cite: attributes of its module, of chainscope
    and of each class in chainscope's __all__ (its dataclass fields and
    the attributes its __init__ sets included), the parameters of the
    module's public functions and methods, and CLI subcommands."""
    names = set(dir(module)) | set(dir(chainscope))
    names |= {name[4:] for name in dir(cli) if name.startswith("cmd_")}
    for cls in (getattr(chainscope, name) for name in chainscope.__all__):
        if inspect.isclass(cls):
            names |= set(dir(cls))
            names |= set(getattr(cls, "__dataclass_fields__", ()))
            if inspect.isfunction(cls.__init__):
                names |= {ins.argval
                          for ins in dis.get_instructions(cls.__init__)
                          if ins.opname == "STORE_ATTR"}
    public = getattr(module, "__all__", ["main"])  # cli exports main only
    for obj in (getattr(module, name) for name in public):
        funcs = list(vars(obj).values()) if inspect.isclass(obj) else [obj]
        for func in filter(inspect.isfunction, funcs):
            names |= set(inspect.signature(func).parameters)
    return names


def resolves(token, module, names):
    """Whether a backticked token names code.  A provider spec, a flag, a
    literal, a keyword or an operator is no name and passes.  A dotted
    name rooted in np, chainscope or an attribute of the module or of
    chainscope resolves attribute by attribute; any other name, bare or
    rooted in a variable (space.validation), needs its last part
    citable."""
    token = re.sub(r"\(.*\)$", "", token)  # a call's arguments
    if (not PATH.fullmatch(token) or keyword.iskeyword(token)
            or token in metric._PROVIDERS):
        return True
    root, *rest = token.split(".")
    obj = {"np": np, "chainscope": chainscope}.get(
        root, getattr(module, root, getattr(chainscope, root, None)))
    if obj is None:
        return token.split(".")[-1] in names
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_module_table_names_resolve():
    rows = module_table()
    # every module but errors has a row
    assert {module for module, _ in rows} == set(MODULES) - {errors} | {cli}
    for module, tokens in rows:
        names = citable_names(module)
        stale = [t for t in tokens if not resolves(t, module, names)]
        assert stale == [], module.__name__
