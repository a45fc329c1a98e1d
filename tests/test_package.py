"""The package namespace: every module's public names, once."""

import inspect

import chainscope
from chainscope import (
    approximation,
    chains,
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
    assert public == {"neighbors", "component_id", "component_members",
                      "component_count", "components", "n"}
    for name in ("ball_layers", "find_chain", "component_centers",
                 "covering_profile", "is_chainable"):
        assert name in chains.__all__
    for module, name in ((chains, "build_chain_graph"),
                         (chains, "chain_component"),
                         (metric, "distance"), (metric, "isolation")):
        assert not hasattr(module, name), name
        assert name not in chainscope.__all__
