"""Builtin instances, validation, and the JSON schema round-trips."""
import dataclasses
import json
import math
from typing import Any

import numpy as np
import pytest

from modal_market.netgraph import shortest_time
from modal_market.scenario import (
    SchemaViolation,
    UnknownScenarioId,
    builtin,
    builtin_sioux,
    load,
    save,
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

    def test_nonpositive_beta2(self, five_node):
        sc = with_param(five_node, "traveler_params.beta2", 0.0)
        assert any("beta2" in v for v in validate(sc))

    def test_missing_relocation_entry(self, five_node):
        reloc = dict(five_node.relocation_times)
        del reloc[(5, 1)]
        sc = dataclasses.replace(five_node, relocation_times=reloc)
        assert any("relocation_times/5/1" in v for v in validate(sc))

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
