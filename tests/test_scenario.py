"""Builtin instances, validation, and the JSON schema round-trips."""
import copy
import dataclasses
import importlib.util
import json
import math
import pickle
import shutil
import sys
from collections.abc import Mapping
from itertools import product
from pathlib import Path
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modal_market
from modal_market.choice import compile_scenario
from modal_market.cli import main
from modal_market.equilibrium import solve
from modal_market.netgraph import shortest_time
from modal_market.oracle import random_scenario
from modal_market.scenario import (
    _DRIVER_FIELDS,
    _TRAVELER_FIELDS,
    INF,
    DriverParams,
    Network,
    ODSpec,
    Scenario,
    SchemaViolation,
    TravelerParams,
    UnknownScenarioId,
    builtin,
    builtin_sioux,
    canonical_json,
    load,
    params_document,
    save,
    sioux_network,
    to_document,
    validate,
    with_param,
)


class TestBuiltin5Node:
    def test_validates_clean(self, five_node):
        assert validate(five_node) == []

    def test_fixed_quantities(self, five_node):
        assert five_node.od(1, 2).demand == 100.0
        assert five_node.od(2, 1).demand == 100.0
        assert five_node.signin_at(5) == 20.0
        assert five_node.od(1, 2).transit_time == 40.0
        assert five_node.od(1, 2).hub == 3
        assert five_node.od(2, 1).hub == 4

    def test_coefficients(self, five_node):
        tp = five_node.traveler_params
        assert (tp.beta0_drive, tp.beta0_ride, tp.beta0_multi) == (4.0, 2.0, 1.0)
        assert (tp.beta1_drive, tp.beta1_ride, tp.beta1_multi) == (0.3, 0.2, 0.1)
        assert tp.beta1_wait == 0.2
        assert tp.beta2 == 1.0
        dp = five_node.driver_params
        assert dp.beta0_H == 2.0
        assert dp.beta1 == 0.3
        assert dp.beta3 == 1.0
        assert dp.beta0_at(3) == 0.0

    def test_bystander_relocation_time(self, five_node):
        assert five_node.relocation_time(5, 1) == 15.0
        assert five_node.relocation_time(5, 2) == 15.0

    def test_derived_sets(self, five_node):
        assert five_node.origins == (1, 2)
        assert five_node.dests == (1, 2)
        assert five_node.hubs == (3, 4)
        assert five_node.dropoffs == (1, 2, 3, 4)
        assert five_node.driver_pairs == ((1, 2), (2, 1), (1, 3), (2, 4))

    def test_label_swap_symmetry(self, five_node):
        """Relabeling 1<->2 and 3<->4 maps the scenario onto itself."""
        swap = {1: 2, 2: 1, 3: 4, 4: 3, 5: 5}
        links = {(l.frm, l.to): l.free_flow_time for l in five_node.network.links}
        assert links == {
            (swap[a], swap[b]): t for (a, b), t in links.items()
        }
        ods = {
            (od.r, od.s): (od.demand, od.hub, od.drive_time, od.hub_access_time)
            for od in five_node.ods
        }
        swapped = {
            (swap[r], swap[s]): (demand, swap[hub], t1, t2)
            for (r, s), (demand, hub, t1, t2) in ods.items()
        }
        assert ods == swapped
        reloc = five_node.relocation_times
        assert all(
            reloc[(n, r)] == reloc[(swap[n], swap[r])] for (n, r) in reloc
        )
        assert all(
            five_node.signin_at(n) == five_node.signin_at(swap[n])
            for n in five_node.network.nodes
        )


class TestBuiltinSioux:
    def test_validates_clean(self, sioux_scenarios):
        for sc in sioux_scenarios.values():
            assert validate(sc) == []

    def test_hub_sets(self, sioux_scenarios):
        assert sioux_scenarios[1].hubs == (10, 15)
        assert sioux_scenarios[2].hubs == (11, 15, 16)
        assert sioux_scenarios[3].hubs == (10, 11, 12, 15, 16, 18, 22)

    def test_hub_mapping(self, sioux_scenarios):
        assert sioux_scenarios[2].od(7, 20).hub == 16
        assert sioux_scenarios[3].od(23, 9).hub == 22
        assert sioux_scenarios[1].od(1, 13).hub == 10

    def test_hub_sharing(self, sioux_scenarios):
        assert len(sioux_scenarios[1].ods_of_hub[10]) == 5

    def test_hub_groups_partition_the_od_set(self, sioux_scenarios):
        for sc in sioux_scenarios.values():
            indices = sorted(
                i for group in sc.ods_of_hub.values() for i in group
            )
            assert indices == list(range(len(sc.ods)))

    def test_demands(self, sioux_scenarios):
        sc = sioux_scenarios[1]
        expected = {
            (1, 13): 500.0, (4, 24): 200.0, (5, 22): 200.0, (6, 21): 100.0,
            (7, 20): 500.0, (19, 5): 100.0, (23, 9): 500.0,
        }
        assert {rs: sc.od(*rs).demand for rs in sc.rs_pairs} == expected

    def test_times_from_shortest_paths(self, sioux_scenarios):
        sc = sioux_scenarios[2]
        net = sc.network
        for od in sc.ods:
            assert od.drive_time == shortest_time(net, od.r, od.s)
            assert od.hub_access_time == shortest_time(net, od.r, od.hub)
            assert od.transit_time == 2.0 * shortest_time(net, od.hub, od.s)

    def test_node_22_is_both_destination_and_hub_in_scenario_3(self, sioux_scenarios):
        sc = sioux_scenarios[3]
        assert 22 in sc.dests and 22 in sc.hubs

    def test_unknown_scenario_id(self):
        with pytest.raises(UnknownScenarioId):
            builtin_sioux(4)
        with pytest.raises(UnknownScenarioId):
            builtin("builtin:siouxfalls")

    def test_builtin_resolver(self, five_node):
        assert builtin("builtin:5node") == five_node
        assert builtin("builtin:sioux2").name == "sioux2"

    def test_network_is_read_from_its_own_package(self, tmp_path):
        # a copy of the package imported under another name reads its own
        # TNTP file: link 1 -> 2 takes 7 minutes there, 6 here
        root = Path(modal_market.__file__).parent
        clone = tmp_path / "modal_market_copy"
        shutil.copytree(root, clone, ignore=shutil.ignore_patterns("__pycache__"))
        tntp = clone / "data" / "siouxfalls_net.tntp"
        text = tntp.read_text()
        row = "\t1\t2\t25900.20064\t6\t6\t"
        assert text.count(row) == 1
        tntp.write_text(text.replace(row, "\t1\t2\t25900.20064\t6\t7\t"))
        spec = importlib.util.spec_from_file_location(
            clone.name, clone / "__init__.py", submodule_search_locations=[str(clone)]
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[clone.name] = module
        try:
            spec.loader.exec_module(module)
            copied = sys.modules[f"{clone.name}.scenario"].sioux_network()
        finally:
            for name in [m for m in sys.modules if m.partition(".")[0] == clone.name]:
                del sys.modules[name]
        assert copied.links[0] == (1, 2, 7.0)
        assert sioux_network().links[0] == (1, 2, 6.0)


class TestValidate:
    def test_zero_demand_names_the_od(self, five_node):
        ods = list(five_node.ods)
        ods[1] = dataclasses.replace(ods[1], demand=0.0)
        sc = dataclasses.replace(five_node, ods=tuple(ods))
        violations = validate(sc)
        assert len(violations) == 1
        assert "(2,1)" in violations[0] and "demand" in violations[0]

    @pytest.mark.parametrize(
        "demand, need", [(math.inf, "finite"), (-math.inf, "> 0"), (math.nan, "> 0")], ids=str
    )
    def test_non_finite_demand_is_one_violation(self, five_node, demand, need):
        # +inf passes the `> 0` test, so it is reported as not finite
        ods = list(five_node.ods)
        ods[1] = dataclasses.replace(ods[1], demand=demand)
        sc = dataclasses.replace(five_node, ods=tuple(ods))
        assert validate(sc) == [f"/ods/1/demand: OD (2,1) demand {demand} must be {need}"]

    def test_absent_hub_node(self, five_node):
        ods = list(five_node.ods)
        ods[0] = dataclasses.replace(ods[0], hub=9)
        sc = dataclasses.replace(five_node, ods=tuple(ods))
        violations = validate(sc)
        assert any("/hub" in v and "9" in v for v in violations)

    def test_duplicate_hub_leg_flagged(self, five_node):
        # second OD from node 1 whose hub leg collides with (1, 3)
        extra = dataclasses.replace(five_node.ods[0], s=4, hub=3)
        sc = dataclasses.replace(five_node, ods=five_node.ods + (extra,))
        assert any("ambiguous" in v for v in validate(sc))

    def test_hub_leg_collision_with_direct_pair(self, five_node):
        # make OD (1,2) use hub 2: the hub leg (1,2) is also the direct pair
        ods = list(five_node.ods)
        ods[0] = dataclasses.replace(ods[0], hub=2)
        sc = dataclasses.replace(five_node, ods=tuple(ods))
        assert any("collides" in v for v in validate(sc))

    def test_zero_signin_at_bystander_node(self, five_node):
        signin = dict(five_node.signin)
        signin[5] = 0.0
        sc = dataclasses.replace(five_node, signin=signin)
        assert any("unsatisfiable" in v for v in validate(sc))

    def test_zero_signin_at_dropoff_node_is_fine(self, five_node):
        signin = dict(five_node.signin)
        signin[3] = 0.0
        sc = dataclasses.replace(five_node, signin=signin)
        assert validate(sc) == []

    def test_zero_total_signin(self):
        # every node of random_scenario(14) receives drop-offs, so no node
        # needs its own sign-in; with none at all, drivers only sign out
        # and no prices clear the market
        sc = random_scenario(14)
        sc = dataclasses.replace(sc, signin={n: 0.0 for n in sc.signin})
        (violation,) = validate(sc)
        assert violation.startswith("/signin: total sign-in rate 0.0 must be > 0")

    def test_nonpositive_beta2(self, five_node):
        sc = with_param(five_node, "traveler_params.beta2", 0.0)
        assert any("beta2" in v for v in validate(sc))

    def test_missing_relocation_entry(self, five_node):
        reloc = dict(five_node.relocation_times)
        del reloc[(5, 1)]
        sc = dataclasses.replace(five_node, relocation_times=reloc)
        assert any("relocation_times/5/1" in v for v in validate(sc))

    def test_relocation_entries_outside_the_matrix(self, five_node, tmp_path):
        # towards a non-origin (3) and from a node absent from the network
        # (9): the solver reads neither, but both are saved, so both are
        # checked, and `solve` refuses the document
        doc = to_document(five_node)
        doc["relocation_times"]["overrides"] += [
            {"n": 5, "r": 3, "minutes": math.nan}, {"n": 9, "r": 1, "minutes": math.inf}]
        path = tmp_path / "strays.json"
        path.write_text(json.dumps(doc))
        assert validate(load(path.read_text())) == [
            "/relocation_times/5/3: nan must be finite and >= 0",
            "/relocation_times/9/1: node 9 absent from network",
        ]
        assert main(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_outside_entries_change_no_corpus_verdict(self, sioux_scenarios, micros):
        # every table holds its node x origin matrix and nothing else, so
        # the walk for outside entries never runs, and all stay valid
        corpus = [builtin("5node"), *sioux_scenarios.values(), *micros]
        corpus += [random_scenario(seed) for seed in range(200)]
        for sc in corpus:
            assert len(sc.relocation_times) == len(sc.network.nodes) * len(sc.origins)
            assert validate(sc) == [], sc.name

    def test_origin_equals_destination(self, five_node):
        ods = list(five_node.ods)
        ods[0] = dataclasses.replace(ods[0], s=1)
        sc = dataclasses.replace(five_node, ods=tuple(ods))
        assert validate(sc) == ["/ods/0: origin equals destination (1)"]

    def test_duplicate_od_pair(self, five_node):
        # a second OD (1,2), through a hub whose leg is still free
        extra = dataclasses.replace(five_node.ods[0], hub=4)
        sc = dataclasses.replace(five_node, ods=five_node.ods + (extra,))
        assert validate(sc) == ["/ods/2: duplicate OD pair (1,2)"]

    def test_signin_at_absent_node(self, five_node):
        sc = dataclasses.replace(five_node, signin={**five_node.signin, 9: 1.0})
        assert validate(sc) == ["/signin/9: node absent from network"]

    def test_signout_bonus_at_absent_node(self, five_node):
        sc = dataclasses.replace(five_node, signout_bonus={9: 1.0})
        assert validate(sc) == ["/signout_bonus/9: node absent from network"]


#: Every utility coefficient, as a dotted path into the Scenario; the last
#: two are entries of node maps.
COEFFICIENTS = (
    *(f"traveler_params.{name}" for name in (
        "beta0_drive", "beta0_ride", "beta0_multi", "beta1_drive", "beta1_ride",
        "beta1_multi", "beta1_wait", "beta2")),
    *(f"driver_params.{name}" for name in ("beta0_H", "beta1", "beta3", "beta0_r_default")),
    "driver_params.beta0_r.2", "signout_bonus.2",
)


@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf), ids=str)
@pytest.mark.parametrize("path", COEFFICIENTS)
def test_non_finite_coefficient_is_one_violation(five_node, path, value):
    # a coefficient with a range that the value fails keeps that message;
    # every other non-finite coefficient must be finite
    beta0_r, bonus = {1: 0.5, 2: 0.25}, {1: 1.0, 2: 2.0}
    if path == "driver_params.beta0_r.2":
        beta0_r[2] = value
    elif path == "signout_bonus.2":
        bonus[2] = value
    sc = dataclasses.replace(
        five_node, signout_bonus=bonus,
        driver_params=dataclasses.replace(five_node.driver_params, beta0_r=beta0_r),
    )
    if not path.endswith(".2"):
        sc = with_param(sc, path, value)
    last = path.split(".")[-1]
    need = "finite"
    if last in ("beta2", "beta3") and not value > 0:
        need = "> 0"
    elif last.startswith("beta1") and value < 0:
        need = ">= 0"
    assert validate(sc) == [f"/{path.replace('.', '/')}: {value} must be {need}"]


class TestJsonSchema:
    def test_round_trip_5node(self, five_node):
        assert load(save(five_node)) == five_node

    def test_round_trip_sioux(self, sioux_scenarios):
        sc = sioux_scenarios[3]
        assert load(save(sc)) == sc

    def test_canonical_document_round_trip(self, five_node):
        doc = to_document(five_node)
        assert to_document(load(json.dumps(doc))) == doc

    def test_missing_beta2_pointer(self, five_node):
        doc = to_document(five_node)
        del doc["traveler_params"]["beta2"]
        with pytest.raises(SchemaViolation) as err:
            load(json.dumps(doc))
        assert err.value.pointer == "/traveler_params/beta2"

    def test_negative_fare_rejected(self, five_node):
        doc = to_document(five_node)
        doc["ods"][0]["transit_fare"] = -1.0
        with pytest.raises(SchemaViolation) as err:
            load(json.dumps(doc))
        assert err.value.pointer == "/ods/0/transit_fare"

    def test_bad_json(self):
        with pytest.raises(SchemaViolation):
            load(b"{not json")

    def test_wrong_type_for_nodes(self, five_node):
        doc = to_document(five_node)
        doc["network"]["nodes"] = "all"
        with pytest.raises(SchemaViolation) as err:
            load(json.dumps(doc))
        assert err.value.pointer == "/network/nodes"

    def test_driver_beta2_warns_and_is_ignored(self, five_node):
        doc = to_document(five_node)
        doc["driver_params"]["beta2"] = 0.2
        with pytest.warns(UserWarning, match="beta2"):
            sc = load(json.dumps(doc))
        assert sc == five_node

    def test_scalar_beta0_r(self, five_node):
        doc = to_document(five_node)
        doc["driver_params"]["beta0_r"] = 0.5
        sc = load(json.dumps(doc))
        assert sc.driver_params.beta0_at(1) == 0.5

    def test_signout_bonus_round_trip(self, five_node):
        sc = dataclasses.replace(five_node, signout_bonus={1: 2.5})
        assert load(save(sc)) == sc
        assert load(save(sc)).signout_bonus_at(1) == 2.5

    def test_auto_shortest_path_relocation(self, five_node):
        doc = to_document(five_node)
        doc["relocation_times"] = {"auto_shortest_path": True, "overrides": []}
        sc = load(json.dumps(doc))
        assert sc.relocation_times == five_node.relocation_times


class TestWithParam:
    def test_replaces_nested_scalar(self, five_node):
        sc = with_param(five_node, "traveler_params.beta2", 7.0)
        assert sc.traveler_params.beta2 == 7.0
        assert five_node.traveler_params.beta2 == 1.0

    def test_unknown_path(self, five_node):
        with pytest.raises(ValueError):
            with_param(five_node, "traveler_params.bogus", 1.0)

    def test_non_scalar_target(self, five_node):
        with pytest.raises(ValueError):
            with_param(five_node, "network", 1.0)

    def test_path_into_a_scalar(self, five_node):
        # a float has attributes, but no parameters
        with pytest.raises(ValueError, match="float has no parameter 'real'"):
            with_param(five_node, "traveler_params.beta2.real", 1.0)


# ---------------------------------------------------------------------------
# schema errors: the exact pointer and message of every field's faults

LINK_FIELDS = (("from", "int"), ("to", "int"), ("fftt", "num"))
OD_FIELDS = (
    ("r", "int"), ("s", "int"), ("hub", "int"), ("demand", "num"),
    ("drive_time", "nonneg"), ("hub_access_time", "nonneg"),
    ("transit_time", "nonneg"), ("transit_wait", "nonneg"),
    ("transit_fare", "nonneg"), ("drive_cost", "nonneg"),
    ("parking_time", "nonneg"), ("parking_cost", "nonneg"),
)
OVERRIDE_FIELDS = (("n", "int"), ("r", "int"), ("minutes", "nonneg"))
#: (path to the table, entry index faulted, fields of an entry)
TABLES = (
    (("network", "links"), 2, LINK_FIELDS),
    (("ods",), 1, OD_FIELDS),
    (("relocation_times", "overrides"), 3, OVERRIDE_FIELDS),
)
#: (path to the node map, nonneg)
NODE_MAPS = ((("signin",), True), (("driver_params", "beta0_r"), False),
             (("signout_bonus",), False))
WRONG_TYPES = (True, "7", None)


def _schema_doc() -> dict:
    doc = to_document(builtin("5node"))
    doc["driver_params"]["beta0_r"] = {"1": 0.5, "2": 0.25}
    doc["signout_bonus"] = {"1": 1.0, "2": 2.0}
    return doc


MISSING = object()


def _at(doc: dict, path: tuple) -> Any:
    for key in path:
        doc = doc[key]
    return doc


def _pointer(path: tuple) -> str:
    return "".join(f"/{key}" for key in path)


def _edit(doc: dict, path: tuple, value: Any) -> None:
    """Set the element at `path` to `value`, or delete it if `value` is MISSING."""
    *head, last = path
    parent = _at(doc, tuple(head))
    if value is MISSING:
        del parent[last]
    else:
        parent[last] = value


def _field_faults():
    """(path edited, value put there, message) for every field fault; the
    error's pointer is the path."""
    wanted = {"int": "expected an integer", "num": "expected a number",
              "nonneg": "expected a number"}
    for table, index, fields in TABLES:
        entry = (*table, index)
        for fname, kind in fields:
            path = (*entry, fname)
            yield path, MISSING, "required key missing"
            for value in WRONG_TYPES:
                yield path, value, wanted[kind]
            if kind == "int":
                yield path, 2.0, "expected an integer"
            if kind == "nonneg":
                for value in (-1.5, -3):
                    yield path, value, f"must be >= 0, got {value}"
        for value in ([], 3.0, "x", None):
            yield entry, value, "expected an object"
    for node_map, nonneg in NODE_MAPS:
        for value in WRONG_TYPES:
            yield (*node_map, "2"), value, "expected a number"
        if nonneg:
            yield (*node_map, "2"), -1.5, "must be >= 0, got -1.5"
        yield (*node_map, "x"), 1.0, "key must be an integer node id"
    for value in ([], "x", None):
        yield ("signin",), value, "expected an object keyed by node id"
        yield ("signout_bonus",), value, "expected an object keyed by node id"
        yield ("driver_params", "beta0_r"), value, "expected a number"
    yield ("signin",), MISSING, "required key missing"


FIELD_FAULTS = list(_field_faults())


@pytest.mark.parametrize(
    "path,value,message", FIELD_FAULTS,
    ids=[f"{_pointer(path)}={'missing' if value is MISSING else json.dumps(value)}"
         for path, value, _ in FIELD_FAULTS],
)
def test_schema_error_names_pointer_and_message(path, value, message):
    doc = _schema_doc()
    _edit(doc, path, value)
    with pytest.raises(SchemaViolation) as err:
        load(json.dumps(doc))
    assert err.value.pointer == _pointer(path)
    assert str(err.value) == f"{_pointer(path)}: {message}"


#: Every number field kind: table fields, node maps and parameters.
NUMBER_FIELDS = (
    ("network", "links", 2, "fftt"), ("ods", 1, "demand"), ("ods", 1, "drive_time"),
    ("relocation_times", "overrides", 3, "minutes"), ("signin", "2"),
    ("driver_params", "beta0_r", "2"), ("signout_bonus", "2"),
    ("traveler_params", "beta2"), ("driver_params", "beta3"),
)


@pytest.mark.parametrize("sign", (1, -1), ids=("positive", "negative"))
@pytest.mark.parametrize("path", NUMBER_FIELDS, ids=list(map(_pointer, NUMBER_FIELDS)))
def test_integer_beyond_float_range_is_a_schema_error(path, sign):
    # JSON integers have no range; one that no float holds is named like
    # any other fault of its field
    doc = _schema_doc()
    _edit(doc, path, sign * 10**400)
    with pytest.raises(SchemaViolation) as err:
        load(json.dumps(doc))
    assert str(err.value) == f"{_pointer(path)}: number out of float range"


@pytest.mark.parametrize("value", ({}, {"0": {}}, 5, "x", None), ids=json.dumps)
@pytest.mark.parametrize("table", [t for t, _, _ in TABLES], ids=_pointer)
def test_table_must_be_an_array(table, value):
    doc = _schema_doc()
    _edit(doc, table, value)
    with pytest.raises(SchemaViolation) as err:
        load(json.dumps(doc))
    assert str(err.value) == f"{_pointer(table)}: expected an array"


def test_optional_node_maps_may_be_missing(five_node):
    doc = _schema_doc()
    del doc["signout_bonus"]
    del doc["driver_params"]["beta0_r"]
    sc = load(json.dumps(doc))
    assert sc.signout_bonus == {}
    assert sc.driver_params.beta0_r == {} and sc.driver_params.beta0_r_default == 0.0


@pytest.mark.parametrize(
    "faults,pointer",
    [
        # two entries of one table: the earlier entry is named
        ({("ods", 1, "demand"): "x", ("ods", 0, "parking_cost"): -1.0}, "/ods/0/parking_cost"),
        # an entry the quick path would refuse but the walk accepts comes
        # before the fault; the fault is still named
        ({("ods", 0, "drive_time"): float("nan"), ("ods", 1, "r"): True}, "/ods/1/r"),
        # different tables: the loader reads links, then ods, then overrides
        ({("relocation_times", "overrides", 0, "n"): "1", ("ods", 1, "hub"): None},
         "/ods/1/hub"),
        ({("ods", 0, "r"): 1.0, ("network", "links", 9, "to"): False},
         "/network/links/9/to"),
        ({("signin", "3"): "x", ("relocation_times", "overrides", 7, "minutes"): -2.0},
         "/relocation_times/overrides/7/minutes"),
    ],
)
def test_schema_error_names_the_first_fault(faults, pointer):
    doc = _schema_doc()
    for path, value in faults.items():
        _edit(doc, path, value)
    with pytest.raises(SchemaViolation) as err:
        load(json.dumps(doc))
    assert err.value.pointer == pointer


TRAVELER_NAMES = ("beta0_drive", "beta0_ride", "beta0_multi", "beta1_drive", "beta1_ride",
                  "beta1_multi", "beta1_wait", "beta2")
DRIVER_NAMES = ("beta0_H", "beta1", "beta3")


def test_parameter_keys_are_the_dataclass_scalars():
    # the document's keys are the field names, so renaming a field renames a key
    assert _TRAVELER_FIELDS == TRAVELER_NAMES
    assert _DRIVER_FIELDS == (*DRIVER_NAMES, "beta0_r_default")


def _parameter_faults():
    """(path edited, value put there, message) for every scalar parameter;
    `_schema_doc` gives `beta0_r` as a node map, beside which the default
    may be missing."""
    required = [("traveler_params", name) for name in TRAVELER_NAMES]
    required += [("driver_params", name) for name in DRIVER_NAMES]
    for path in [*required, ("driver_params", "beta0_r_default")]:
        if path in required:
            yield path, MISSING, "required key missing"
        for value in WRONG_TYPES:
            yield path, value, "expected a number"
        for value in (10**400, -(10**400)):
            yield path, value, "number out of float range"
    yield ("driver_params", "beta0_r"), 10**400, "number out of float range"


PARAMETER_FAULTS = list(_parameter_faults())


@pytest.mark.parametrize(
    "path,value,message", PARAMETER_FAULTS,
    ids=[f"{_pointer(path)}={'missing' if value is MISSING else json.dumps(value)[:12]}"
         for path, value, _ in PARAMETER_FAULTS],
)
def test_parameter_error_names_pointer_and_message(path, value, message):
    doc = _schema_doc()
    _edit(doc, path, value)
    with pytest.raises(SchemaViolation) as err:
        load(json.dumps(doc))
    assert str(err.value) == f"{_pointer(path)}: {message}"


@pytest.mark.parametrize(
    "faults,pointer",
    [
        # driver_params reads beta0_r, beta0_r_default, beta2, then the
        # scalars in field order
        ({("driver_params", "beta3"): None, ("driver_params", "beta0_H"): "x"},
         "/driver_params/beta0_H"),
        ({("driver_params", "beta3"): MISSING, ("driver_params", "beta1"): True},
         "/driver_params/beta1"),
        ({("driver_params", "beta0_H"): MISSING, ("driver_params", "beta2"): "x"},
         "/driver_params/beta2"),
        ({("driver_params", "beta2"): None, ("driver_params", "beta0_r_default"): "x"},
         "/driver_params/beta0_r_default"),
        ({("driver_params", "beta0_r_default"): True, ("driver_params", "beta0_r", "2"): "x"},
         "/driver_params/beta0_r/2"),
        ({("driver_params", "beta0_H"): None, ("driver_params", "beta0_r"): 1.0,
          ("driver_params", "beta0_r_default"): 2.0}, "/driver_params/beta0_r_default"),
        # traveler_params before driver_params, its scalars in field order
        ({("driver_params", "beta0_r"): "x", ("traveler_params", "beta0_drive"): MISSING},
         "/traveler_params/beta0_drive"),
        ({("traveler_params", "beta2"): None, ("traveler_params", "beta1_wait"): "7"},
         "/traveler_params/beta1_wait"),
    ],
)
def test_parameter_error_names_the_first_fault(faults, pointer):
    doc = _schema_doc()
    for path, value in faults.items():
        _edit(doc, path, value)
    with pytest.raises(SchemaViolation) as err:
        load(json.dumps(doc))
    assert err.value.pointer == pointer


def test_driver_beta2_warns_before_the_scalars_are_read():
    doc = _schema_doc()
    doc["driver_params"]["beta2"] = 0.2
    del doc["driver_params"]["beta1"]
    with pytest.warns(UserWarning, match="beta2"), pytest.raises(SchemaViolation) as err:
        load(json.dumps(doc))
    assert err.value.pointer == "/driver_params/beta1"


class TestBeta0rDefault:
    def test_loads_beside_a_map(self):
        doc = _schema_doc()
        doc["driver_params"]["beta0_r_default"] = 2.0
        dp = load(json.dumps(doc)).driver_params
        assert dp.beta0_r == {1: 0.5, 2: 0.25} and dp.beta0_r_default == 2.0
        assert (dp.beta0_at(1), dp.beta0_at(3)) == (0.5, 2.0)

    def test_loads_without_beta0_r(self):
        doc = _schema_doc()
        del doc["driver_params"]["beta0_r"]
        doc["driver_params"]["beta0_r_default"] = 2.0
        dp = load(json.dumps(doc)).driver_params
        assert dp.beta0_r == {} and dp.beta0_r_default == 2.0

    def test_refused_beside_a_number(self, five_node):
        doc = to_document(five_node)
        doc["driver_params"]["beta0_r_default"] = 0.0
        with pytest.raises(SchemaViolation) as err:
            load(json.dumps(doc))
        assert str(err.value) == ("/driver_params/beta0_r_default: given beside a number "
                                  "beta0_r, which is the default")

    @pytest.mark.parametrize("default", (0.0, -0.0, 2.0), ids=str)
    @pytest.mark.parametrize("beta0_r", ({}, {1: 0.5}), ids=("number", "map"))
    def test_written_beside_a_map_unless_zero(self, beta0_r, default):
        dp = DriverParams(beta0_r=beta0_r, beta0_r_default=default)
        block = params_document(TravelerParams(), dp)["driver_params"]
        expected = {"beta0_H": 2.0, "beta1": 0.3, "beta3": 1.0}
        if not beta0_r:
            expected["beta0_r"] = default
        else:
            expected["beta0_r"] = {"1": 0.5}
            if default != 0.0:
                expected["beta0_r_default"] = default
        assert block == expected
        signs = {key: math.copysign(1, v) for key, v in block.items() if isinstance(v, float)}
        assert signs == {key: math.copysign(1, v) for key, v in expected.items()
                         if isinstance(v, float)}

    def test_solve_is_unchanged_by_a_round_trip(self, five_node):
        sc = dataclasses.replace(
            five_node, driver_params=DriverParams(beta0_r={1: 0.5}, beta0_r_default=2.0))
        back = load(save(sc))
        assert back == sc
        assert np.array_equal(solve(back).prices.y, solve(sc).prices.y)


def test_override_given_twice_is_refused(five_node):
    doc = to_document(five_node)
    overrides = doc["relocation_times"]["overrides"]
    first = overrides[0]
    overrides.insert(3, {**first, "minutes": 999.0})
    overrides.append({**first, "minutes": 5.0})
    with pytest.raises(SchemaViolation) as err:
        load(json.dumps(doc))
    assert str(err.value) == (
        f"/relocation_times/overrides/3: relocation time ({first['n']}, {first['r']}) given twice")


@pytest.mark.parametrize("node_map", [m for m, _ in NODE_MAPS], ids=_pointer)
def test_node_given_twice_is_refused(node_map):
    doc = _schema_doc()
    _at(doc, node_map)["01"] = 7.0
    _at(doc, node_map)["2"] = 7.0
    with pytest.raises(SchemaViolation) as err:
        load(json.dumps(doc))
    assert str(err.value) == f"{_pointer(node_map)}/01: node 1 given twice"


traveler_values = st.floats(-50.0, 50.0) | st.sampled_from([0.0, -0.0, 1e-300, 1e300])
node_values = st.dictionaries(st.integers(1, 5), traveler_values, max_size=5)
parameter_blocks = st.tuples(
    st.builds(TravelerParams, **{name: traveler_values for name in TRAVELER_NAMES}),
    st.builds(DriverParams, beta0_r=node_values, beta0_r_default=traveler_values,
              **{name: traveler_values for name in DRIVER_NAMES}),
    node_values,
)


@settings(max_examples=300, deadline=None)
@given(blocks=parameter_blocks)
def test_parameter_blocks_round_trip(five_node, blocks):
    tp, dp, bonus = blocks
    sc = dataclasses.replace(five_node, traveler_params=tp, driver_params=dp,
                             signout_bonus=bonus)
    text = save(sc)
    back = load(text)
    assert back == sc
    assert save(back) == text


def test_relocation_times_are_read_once(five_node):
    # validate and the compiled scenario share one read of each entry: a
    # later change to the mapping goes unseen by both
    class Counted(Mapping):
        def __init__(self, data):
            self.data, self.reads = dict(data), 0

        def __getitem__(self, key):
            self.reads += 1
            return self.data[key]

        def __iter__(self):
            self.reads += len(self.data)
            return iter(self.data)

        def __len__(self):
            return len(self.data)

    counted = Counted(five_node.relocation_times)
    sc = dataclasses.replace(five_node, relocation_times=counted)
    assert validate(sc) == []
    cs = compile_scenario(sc)
    y = solve(sc).prices.y
    assert counted.reads == len(sc.network.nodes) * len(sc.origins)
    counted.data[(5, 1)] = math.nan
    assert validate(sc) == []
    assert compile_scenario(sc) is cs
    assert np.array_equal(solve(sc).prices.y, y)
    assert counted.reads == len(sc.network.nodes) * len(sc.origins)


# ---------------------------------------------------------------------------
# loaded values: round trips and types


def _assert_value_types(sc) -> None:
    for link in sc.network.links:
        assert (type(link.frm), type(link.to), type(link.free_flow_time)) == (int, int, float)
    for od in sc.ods:
        for fname, kind in OD_FIELDS:
            assert type(getattr(od, fname)) is (int if kind == "int" else float), fname
    for (n, r), minutes in sc.relocation_times.items():
        assert (type(n), type(r), type(minutes)) == (int, int, float)
    for mapping in (sc.signin, sc.signout_bonus, sc.driver_params.beta0_r):
        for n, value in mapping.items():
            assert (type(n), type(value)) == (int, float)


def test_round_trip_keeps_values_and_types(sioux_scenarios):
    from modal_market.oracle import random_scenario

    scenarios = [builtin("5node"), *sioux_scenarios.values()]
    scenarios += [random_scenario(seed) for seed in range(100)]
    for sc in scenarios:
        text = save(sc)
        back = load(text)
        assert back == sc, sc.name
        assert save(back) == text, sc.name
        _assert_value_types(back)


#: Every kind of scalar json encodes: strings with non-ASCII characters,
#: quotes, brackets and control characters, ints big and small, bools,
#: floats with the non-finite, signed-zero, subnormal and largest values, None.
json_scalars = st.one_of(
    st.text(),
    st.sampled_from(['', 'é"{}[]\\', "\x00\n\t\x1f\u2028", "\U0001f600"]),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.booleans(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308, 1e308]),
    st.none(),
)


def json_containers(children, min_size=0, max_size=4):
    return st.one_of(
        st.dictionaries(st.text(max_size=4), children, min_size=min_size, max_size=max_size),
        st.lists(children, min_size=min_size, max_size=max_size),
        st.lists(children, min_size=min_size, max_size=max_size).map(tuple),
    )


json_trees = st.recursive(json_scalars, json_containers, max_leaves=8)
deep_json_trees = json_trees
for _ in range(4):
    deep_json_trees = json_containers(deep_json_trees, min_size=1, max_size=2)


@settings(max_examples=200, deadline=None)
@given(deep_json_trees)
def test_canonical_json_is_json_dumps(doc):
    # four non-empty container levels above trees that hold empty ones
    assert canonical_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_save_is_json_dumps_of_the_document(sioux_scenarios, micros):
    net = sioux_network()
    rng = np.random.default_rng(0)
    pairs = [(r, s) for r in net.nodes for s in net.nodes if r != s][::5]
    many = Scenario(
        name="sioux-many",
        network=net,
        ods=tuple(
            ODSpec(r, s, float(rng.uniform(1.0, 500.0)), s % 24 + 1,
                   *map(float, rng.uniform(0.0, 40.0, 8)))
            for r, s in pairs
        ),
        relocation_times={(n, r): float(rng.uniform(1.0, 60.0))
                          for n in net.nodes for r in sorted({r for r, _ in pairs})},
        signin={n: 20.0 for n in net.nodes},
        traveler_params=TravelerParams(),
        driver_params=DriverParams(beta0_r={1: 0.5}),
    )
    assert len(many.ods) >= 100
    scenarios = [builtin("5node"), *sioux_scenarios.values(), *micros, many]
    scenarios += [random_scenario(seed) for seed in range(50)]
    for sc in scenarios:
        expected = json.dumps(to_document(sc), indent=2, sort_keys=True) + "\n"
        assert save(sc) == expected.encode(), sc.name


def test_numpy_floats_load_as_floats(five_node):
    doc = to_document(five_node)
    for link in doc["network"]["links"]:
        link["fftt"] = np.float64(link["fftt"])
    for od in doc["ods"]:
        for fname, kind in OD_FIELDS:
            if kind != "int":
                od[fname] = np.float64(od[fname])
    for entry in doc["relocation_times"]["overrides"]:
        entry["minutes"] = np.float64(entry["minutes"])
    sc = load(doc)
    assert sc == five_node
    _assert_value_types(sc)


def test_nan_and_infinity_in_nonneg_fields_load():
    doc = _schema_doc()
    doc["ods"][0]["drive_time"] = float("nan")
    doc["ods"][1]["transit_fare"] = float("inf")
    doc["relocation_times"]["overrides"][4]["minutes"] = float("nan")
    doc["signin"]["3"] = float("inf")
    text = json.dumps(doc)
    assert "NaN" in text and "Infinity" in text
    sc = load(text)
    assert math.isnan(sc.ods[0].drive_time)
    assert sc.ods[1].transit_fare == math.inf
    (n, r), _ = sorted(sc.relocation_times.items())[4]
    assert math.isnan(sc.relocation_times[(n, r)])
    assert sc.signin[3] == math.inf
    assert validate(sc)


def test_loaded_odspecs_behave_like_constructed_ones(sioux_scenarios):
    # `load` builds its ODSpecs through the instance __dict__
    built = sioux_scenarios[3].ods
    loaded = load(save(sioux_scenarios[3])).ods
    assert len(set(built + loaded)) == len(built)
    for od, twin in zip(loaded, built):
        assert od == twin and hash(od) == hash(twin) and repr(od) == repr(twin)
        assert list(vars(od).items()) == list(vars(twin).items())
        assert dataclasses.replace(od, demand=1.0) == dataclasses.replace(twin, demand=1.0)
        assert copy.deepcopy(od) == pickle.loads(pickle.dumps(od)) == twin
        with pytest.raises(dataclasses.FrozenInstanceError):
            od.demand = 1.0


def reference_validate(sc: Scenario) -> list[str]:
    """`validate` as it was written before its checks ran on arrays: one
    walk over every OD field and relocation entry."""
    out: list[str] = []
    nodes = set(sc.network.nodes)

    if not sc.ods:
        out.append("/ods: scenario defines no OD pairs")

    seen_rs: set[tuple[int, int]] = set()
    for i, od in enumerate(sc.ods):
        p = f"/ods/{i}"
        if od.r == od.s:
            out.append(f"{p}: origin equals destination ({od.r})")
        if (od.r, od.s) in seen_rs:
            out.append(f"{p}: duplicate OD pair ({od.r},{od.s})")
        seen_rs.add((od.r, od.s))
        for label, node in (("r", od.r), ("s", od.s), ("hub", od.hub)):
            if node not in nodes:
                out.append(f"{p}/{label}: node {node} absent from network")
        if not od.demand > 0:
            out.append(f"{p}/demand: OD ({od.r},{od.s}) demand {od.demand} must be > 0")
        elif not od.demand < INF:
            out.append(f"{p}/demand: OD ({od.r},{od.s}) demand {od.demand} must be finite")
        for label in ("drive_time", "hub_access_time", "transit_time", "transit_wait",
                      "parking_time", "transit_fare", "drive_cost", "parking_cost"):
            value = getattr(od, label)
            if not 0 <= value < INF:
                out.append(f"{p}/{label}: {value} must be finite and >= 0")

    # one price per driver OD pair: a hub leg may not collide with a direct
    # pair or with another od's hub leg from the same origin
    direct_set = set(sc.rs_pairs)
    hub_seen: set[tuple[int, int]] = set()
    for i, od in enumerate(sc.ods):
        leg = (od.r, od.hub)
        if leg in direct_set:
            out.append(
                f"/ods/{i}/hub: hub leg {leg} collides with a direct OD pair; "
                "driver market for that pair would be ambiguous"
            )
        if leg in hub_seen:
            out.append(
                f"/ods/{i}/hub: hub leg {leg} already used by another OD; "
                "driver market for that pair would be ambiguous"
            )
        hub_seen.add(leg)

    for n in sc.network.nodes:
        for r in sc.origins:
            t = sc.relocation_times.get((n, r))
            if t is None:
                out.append(f"/relocation_times/{n}/{r}: missing entry")
            elif not 0 <= t < INF:
                out.append(
                    f"/relocation_times/{n}/{r}: {t} must be finite and >= 0 "
                    "(unreachable relocation leg)"
                )
    origins = set(sc.origins)
    for (n, r), t in sc.relocation_times.items():
        if n in nodes and r in origins:
            continue
        absent = [node for node in (n, r) if node not in nodes]
        if absent:
            out.append(f"/relocation_times/{n}/{r}: node {absent[0]} absent from network")
        elif not 0 <= t < INF:
            out.append(f"/relocation_times/{n}/{r}: {t} must be finite and >= 0")

    dropoffs = set(sc.dropoffs)
    for n, rate in sc.signin.items():
        if n not in nodes:
            out.append(f"/signin/{n}: node absent from network")
        elif not 0 <= rate < INF:
            out.append(f"/signin/{n}: rate {rate} must be finite and >= 0")
    for n in sc.network.nodes:
        if n not in dropoffs and not sc.signin_at(n) > 0:
            out.append(
                f"/signin/{n}: node {n} receives no drop-offs, so a zero "
                "sign-in rate leaves its driver stock equation unsatisfiable"
            )
    # drivers sign out at every node, so stocks that balance need some
    # sign-in: with none, phi has no minimizer and the prices no solution
    total = sum(sc.signin.values())
    if not total > 0:
        out.append(
            f"/signin: total sign-in rate {total} must be > 0; without sign-ins "
            "the sign-outs leave no driver stocks that clear the market"
        )

    for n in sc.signout_bonus:
        if n not in nodes:
            out.append(f"/signout_bonus/{n}: node absent from network")

    tp, dp = sc.traveler_params, sc.driver_params
    coefficients = {
        **{f"/traveler_params/{name}": getattr(tp, name) for name in _TRAVELER_FIELDS},
        **{f"/driver_params/{name}": getattr(dp, name) for name in _DRIVER_FIELDS},
        **{f"/driver_params/beta0_r/{n}": value for n, value in dp.beta0_r.items()},
        **{f"/signout_bonus/{n}": value for n, value in sc.signout_bonus.items()},
    }
    # a coefficient is reported once: by its range if it has one and fails
    # it, else if it is not finite (NaN and +inf pass the `>= 0` test, and
    # +inf the `> 0` test)
    ranges = [("/traveler_params/beta2", "> 0")]
    ranges += [(f"/traveler_params/beta1_{x}", ">= 0") for x in ("drive", "ride", "multi", "wait")]
    ranges += [("/driver_params/beta3", "> 0"), ("/driver_params/beta1", ">= 0")]
    for pointer, need in ranges:
        value = coefficients[pointer]
        if value < 0 or (need == "> 0" and not value > 0):
            out.append(f"{pointer}: {coefficients.pop(pointer)} must be {need}")
    for pointer, value in coefficients.items():
        if not math.isfinite(value):
            out.append(f"{pointer}: {value} must be finite")

    return out


#: A 4-node network; the OD ids 0 and 5 are absent from it.
PROPERTY_NODES = (1, 2, 3, 4)
PROPERTY_NETWORK = Network.from_links(
    [(a, b, 1.0 + a + b) for a, b in product(PROPERTY_NODES, repeat=2) if a != b],
    name="property",
)
#: Mostly valid values, and zero, negative, NaN and infinite ones.
property_values = st.one_of(
    st.floats(0.5, 60.0),
    st.sampled_from([0.0, -0.0, -2.5, math.nan, math.inf, -math.inf]),
)
property_ods = st.builds(
    ODSpec,
    r=st.integers(0, 5), s=st.integers(0, 5), demand=property_values, hub=st.integers(0, 5),
    **{name: property_values for name in (
        "drive_time", "hub_access_time", "transit_time", "transit_wait",
        "transit_fare", "drive_cost", "parking_time", "parking_cost")},
)
#: Entries towards origins 0-5, each possibly missing.
property_relocation = st.dictionaries(
    st.sampled_from(list(product(PROPERTY_NODES, range(6)))), property_values, min_size=12,
)


@settings(max_examples=300, deadline=None)
@given(ods=st.lists(property_ods, max_size=6), relocation=property_relocation)
def test_validate_words_violations_as_the_walk_does(ods, relocation):
    # every message of the walk, in its order, for a constructed scenario
    # and, where its document loads, for the loaded one
    sc = Scenario(
        name="property",
        network=PROPERTY_NETWORK,
        ods=tuple(ods),
        relocation_times=relocation,
        signin={n: 1.0 for n in PROPERTY_NODES},
        traveler_params=TravelerParams(),
        driver_params=DriverParams(),
    )
    assert validate(sc) == reference_validate(sc)
    try:
        loaded = load(save(sc))
    except SchemaViolation:
        return
    assert validate(loaded) == reference_validate(loaded)
