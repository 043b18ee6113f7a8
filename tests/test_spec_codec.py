"""The deployment spec's one JSON codec against the hand-written one.

Every spec record reads and writes JSON through the codec it inherits
(``repro.deploy.spec._Record``).  The reference below is the codec the
records had before: one ``to_dict``/``from_dict`` pair per record,
written out by hand.  Generated specs must serialize, parse and hash
exactly as the reference does, the specs the repository builds must
round-trip to the same bytes, and malformed input must fail with the
same messages.
"""

import hashlib
import importlib.util
import json
import os
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.deploy.spec import (
    SPEC_FORMAT,
    ApplicationSpec,
    ConcernSpec,
    DeploymentSpec,
    FaultCampaignSpec,
    FaultSiteSpec,
    NodeSpec,
    ObservabilitySpec,
    PartitionSpec,
    QoSProfile,
    ReplicationSpec,
    ServantSpec,
    UserSpec,
)
from repro.errors import DeploymentError
from repro.runtime.harness import RunConfig
from repro.runtime.scenarios import get_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# the reference: the hand-written per-record codec
# ---------------------------------------------------------------------------


def _ref_to_dict(record):
    """The JSON form each record's own ``to_dict`` used to write."""
    if isinstance(record, QoSProfile):
        return {
            "name": record.name,
            "timeout_ms": record.timeout_ms,
            "retries": record.retries,
            "oneway": record.oneway,
        }
    if isinstance(record, NodeSpec):
        return {"name": record.name, "workers": record.workers, "seed": record.seed}
    if isinstance(record, ServantSpec):
        return {
            "name": record.name,
            "type": record.type_name,
            "state": dict(record.state),
            "read_only_ops": list(record.read_only_ops),
            "qos": record.qos,
        }
    if isinstance(record, PartitionSpec):
        return {
            "key": record.key,
            "servants": [_ref_to_dict(servant) for servant in record.servants],
            "node": record.node,
        }
    if isinstance(record, ReplicationSpec):
        return {"count": record.count, "snapshot_every": record.snapshot_every}
    if isinstance(record, ObservabilitySpec):
        return {
            "sample_rate": record.sample_rate,
            "slow_call_ms": record.slow_call_ms,
            "event_log_capacity": record.event_log_capacity,
            "span_capacity": record.span_capacity,
        }
    if isinstance(record, FaultSiteSpec):
        return {"site": record.site, "probability": record.probability}
    if isinstance(record, FaultCampaignSpec):
        return {
            "sites": [_ref_to_dict(site) for site in record.sites],
            "armed": record.armed,
        }
    if isinstance(record, ConcernSpec):
        return {
            "concern": record.concern,
            "params": dict(record.params),
            "after": list(record.after),
        }
    if isinstance(record, ApplicationSpec):
        return {
            "name": record.name,
            "builder": record.builder,
            "model_xmi": record.model_xmi,
            "concerns": [_ref_to_dict(concern) for concern in record.concerns],
        }
    if isinstance(record, UserSpec):
        return {
            "name": record.name,
            "password": record.password,
            "roles": list(record.roles),
        }
    assert isinstance(record, DeploymentSpec)
    data = {
        "format": SPEC_FORMAT,
        "name": record.name,
        "application": _ref_to_dict(record.application),
        "nodes": [_ref_to_dict(node) for node in record.nodes],
        "partitions": [_ref_to_dict(partition) for partition in record.partitions],
        "replication": _ref_to_dict(record.replication),
        "faults": _ref_to_dict(record.faults),
        "users": [_ref_to_dict(user) for user in record.users],
        "qos_profiles": [_ref_to_dict(profile) for profile in record.qos_profiles],
        "client_qos": record.client_qos,
        "observability": _ref_to_dict(record.observability),
        "sim_latency_ms": record.sim_latency_ms,
        "real_latency_ms": record.real_latency_ms,
        "delivery_workers": record.delivery_workers,
        "seed": record.seed,
    }
    if record.transport != "inproc":
        data["transport"] = record.transport
    return data


def _ref_servant(data):
    return ServantSpec(
        name=data["name"],
        type_name=data["type"],
        state=dict(data.get("state", {})),
        read_only_ops=tuple(data.get("read_only_ops", ())),
        qos=data.get("qos"),
    )


def _ref_partition(data):
    return PartitionSpec(
        key=data["key"],
        servants=tuple(_ref_servant(entry) for entry in data.get("servants", ())),
        node=data.get("node"),
    )


def _ref_application(data):
    return ApplicationSpec(
        name=data["name"],
        builder=data.get("builder"),
        model_xmi=data.get("model_xmi"),
        concerns=tuple(
            ConcernSpec(
                concern=entry["concern"],
                params=dict(entry.get("params", {})),
                after=tuple(entry.get("after", ())),
            )
            for entry in data.get("concerns", ())
        ),
    )


def _ref_from_dict(data):
    """What ``DeploymentSpec.from_dict`` used to build from ``data``."""
    if not isinstance(data, dict):
        raise DeploymentError(
            f"deployment spec must be a JSON object, got {type(data).__name__}"
        )
    declared = data.get("format", SPEC_FORMAT)
    if declared != SPEC_FORMAT:
        raise DeploymentError(
            f"unsupported spec format {declared!r} (expected {SPEC_FORMAT!r})"
        )
    try:
        replication = data.get("replication", {})
        faults = data.get("faults", {})
        observability = data.get("observability", {})
        return DeploymentSpec(
            name=data["name"],
            application=_ref_application(data["application"]),
            nodes=tuple(
                NodeSpec(
                    name=entry["name"],
                    workers=entry.get("workers", 0),
                    seed=entry.get("seed"),
                )
                for entry in data.get("nodes", ())
            ),
            partitions=tuple(_ref_partition(entry) for entry in data.get("partitions", ())),
            replication=ReplicationSpec(
                count=replication.get("count", 0),
                mode=replication.get("mode", "log"),
                snapshot_every=replication.get("snapshot_every", 64),
            ),
            faults=FaultCampaignSpec(
                sites=tuple(
                    FaultSiteSpec(site=entry["site"], probability=entry["probability"])
                    for entry in faults.get("sites", ())
                ),
                armed=faults.get("armed", False),
            ),
            users=tuple(
                UserSpec(
                    name=entry["name"],
                    password=entry["password"],
                    roles=tuple(entry.get("roles", ())),
                )
                for entry in data.get("users", ())
            ),
            qos_profiles=tuple(
                QoSProfile(
                    name=entry["name"],
                    timeout_ms=entry.get("timeout_ms"),
                    retries=entry.get("retries", 0),
                    oneway=entry.get("oneway", False),
                )
                for entry in data.get("qos_profiles", ())
            ),
            client_qos=data.get("client_qos"),
            observability=ObservabilitySpec(
                sample_rate=observability.get("sample_rate", 1.0),
                slow_call_ms=observability.get("slow_call_ms", 50.0),
                event_log_capacity=observability.get("event_log_capacity", 1024),
                span_capacity=observability.get("span_capacity", 4096),
            ),
            sim_latency_ms=data.get("sim_latency_ms", 0.5),
            real_latency_ms=data.get("real_latency_ms", 0.0),
            delivery_workers=data.get("delivery_workers", 2),
            seed=data.get("seed", 0),
            transport=data.get("transport", "inproc"),
        )
    except KeyError as exc:
        raise DeploymentError(
            f"deployment spec is missing required key {exc.args[0]!r}"
        ) from None


def _ref_digest(spec):
    data = _ref_to_dict(spec)
    for partition in data["partitions"]:
        partition.pop("node", None)
    canon = json.dumps(data, sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# generated specs
# ---------------------------------------------------------------------------

_names = st.text(alphabet="abcxyz-/0", min_size=0, max_size=6)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
_optional_names = st.none() | _names
_json_scalars = st.none() | st.booleans() | st.integers(-5, 5) | _floats | _names
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_names, inner, max_size=3),
    max_leaves=6,
)
_json_objects = st.dictionaries(_names, _json_values, max_size=3)
_name_tuples = st.lists(_names, max_size=3).map(tuple)


def _tuples_of(strategy):
    return st.lists(strategy, max_size=3).map(tuple)


_servants = st.builds(
    ServantSpec,
    name=_names,
    type_name=_names,
    state=_json_objects,
    read_only_ops=_name_tuples,
    qos=_optional_names,
)
_applications = st.builds(
    ApplicationSpec,
    name=_names,
    builder=_optional_names,
    model_xmi=_optional_names,
    concerns=_tuples_of(
        st.builds(ConcernSpec, concern=_names, params=_json_objects, after=_name_tuples)
    ),
)
_specs = st.builds(
    DeploymentSpec,
    name=_names,
    application=_applications,
    nodes=_tuples_of(
        st.builds(
            NodeSpec, name=_names, workers=st.integers(-1, 8), seed=st.none() | st.integers()
        )
    ),
    partitions=_tuples_of(
        st.builds(
            PartitionSpec, key=_names, servants=_tuples_of(_servants), node=_optional_names
        )
    ),
    replication=st.builds(
        ReplicationSpec,
        count=st.integers(-1, 4),
        mode=st.sampled_from(["full", "log"]),
        snapshot_every=st.integers(0, 128),
    ),
    faults=st.builds(
        FaultCampaignSpec,
        sites=_tuples_of(st.builds(FaultSiteSpec, site=_names, probability=_floats)),
        armed=st.booleans(),
    ),
    users=_tuples_of(
        st.builds(UserSpec, name=_names, password=_names, roles=_name_tuples)
    ),
    qos_profiles=_tuples_of(
        st.builds(
            QoSProfile,
            name=_names,
            timeout_ms=st.none() | _floats,
            retries=st.integers(0, 5),
            oneway=st.booleans(),
        )
    ),
    client_qos=_optional_names,
    observability=st.builds(
        ObservabilitySpec,
        sample_rate=_floats,
        slow_call_ms=_floats,
        event_log_capacity=st.integers(0, 4096),
        span_capacity=st.integers(0, 4096),
    ),
    sim_latency_ms=_floats,
    real_latency_ms=_floats,
    delivery_workers=st.integers(0, 4),
    seed=st.integers(),
    transport=st.sampled_from(["inproc", "socket", "process"]),
)


def _thinned(data, rng):
    """``data`` with keys dropped at random, at every depth — required
    ones included, so both codecs' defaults and errors are exercised."""
    if isinstance(data, list):
        return [_thinned(item, rng) for item in data]
    if not isinstance(data, dict):
        return data
    return {
        key: _thinned(value, rng) for key, value in data.items() if rng.random() > 0.15
    }


def _outcome(decode, data):
    try:
        return ("ok", decode(data))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("error", type(exc), str(exc))


@given(_specs, st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_codec_matches_the_hand_written_codec(spec, rng):
    data = spec.to_dict()
    # the same keys in the same order, at every depth
    assert json.dumps(data) == json.dumps(_ref_to_dict(spec))
    assert spec.digest() == _ref_digest(spec)
    wire = json.loads(json.dumps(data))
    assert DeploymentSpec.from_dict(wire) == _ref_from_dict(wire) == spec
    thinned = _thinned(wire, rng)
    assert _outcome(DeploymentSpec.from_dict, thinned) == _outcome(_ref_from_dict, thinned)


# ---------------------------------------------------------------------------
# the specs the repository builds
# ---------------------------------------------------------------------------

SCENARIOS = (
    "banking",
    "banking_async",
    "banking_elastic",
    "auction",
    "medical_records",
    "component_shipping",
    "banking_openloop",
)
EXAMPLES = ("deployment_spec.json", "deployment_target.json")


def _perfbench_workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    loader = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def _built_specs():
    specs = {
        name: get_scenario(name).deployment_spec(RunConfig(scenario=name))
        for name in SCENARIOS
    }
    workloads = _perfbench_workloads()
    specs["perfbench bank_spec(1)"] = workloads.bank_spec(1)
    for transport in ("inproc", "socket"):
        specs[f"perfbench echo_spec(1, {transport!r})"] = workloads.echo_spec(1, transport)
    for name in EXAMPLES:
        with open(os.path.join(ROOT, "examples", name)) as handle:
            specs[f"examples/{name}"] = DeploymentSpec.from_json(handle.read())
    return specs


class TestBuiltSpecs:
    def test_every_built_spec_round_trips_to_the_same_bytes(self):
        specs = _built_specs()
        assert len(specs) == 12
        for name, spec in specs.items():
            text = spec.to_json()
            assert text == json.dumps(_ref_to_dict(spec), indent=2, sort_keys=True), name
            assert spec.digest() == _ref_digest(spec), name
            restored = DeploymentSpec.from_json(text)
            assert restored == spec, name
            assert restored.to_json() == text, name

    def test_example_files_parse_as_the_reference_parses_them(self):
        for name in EXAMPLES:
            with open(os.path.join(ROOT, "examples", name)) as handle:
                data = json.load(handle)
            assert DeploymentSpec.from_dict(data) == _ref_from_dict(data), name


# ---------------------------------------------------------------------------
# the codec's own rules
# ---------------------------------------------------------------------------


def _example():
    with open(os.path.join(ROOT, "examples", "deployment_spec.json")) as handle:
        return json.load(handle)


class TestCodecRules:
    def test_tuples_become_lists_and_lists_become_tuples(self):
        servant = ServantSpec("p/T/0", "T", read_only_ops=["get"])
        assert servant.read_only_ops == ("get",)
        assert servant.to_dict()["read_only_ops"] == ["get"]
        spec = DeploymentSpec.from_dict(_example())
        assert isinstance(spec.nodes, tuple)
        assert isinstance(spec.partitions[0].servants, tuple)

    def test_dicts_are_shallow_copies(self):
        state = {"balance": 1.0, "history": [1]}
        servant = ServantSpec("p/T/0", "T", state=state)
        written = servant.to_dict()["state"]
        assert written == state and written is not servant.state
        assert written["history"] is state["history"]
        data = servant.to_dict()
        assert ServantSpec.from_dict(data).state is not data["state"]

    def test_type_name_travels_as_type(self):
        data = ServantSpec("p/T/0", "Account").to_dict()
        assert list(data) == ["name", "type", "state", "read_only_ops", "qos"]
        assert ServantSpec.from_dict({"name": "p/T/0", "type": "Account"}).type_name == (
            "Account"
        )

    def test_absent_keys_take_the_field_defaults(self):
        assert DeploymentSpec.from_dict(
            {"name": "n", "application": {"name": "a"}}
        ) == DeploymentSpec(name="n", application=ApplicationSpec(name="a"))
        assert ReplicationSpec.from_dict({}) == ReplicationSpec()

    def test_missing_required_key_raises_key_error_naming_the_json_key(self):
        with pytest.raises(KeyError) as caught:
            ServantSpec.from_dict({"name": "p/T/0"})
        assert caught.value.args == ("type",)

    def test_transport_is_omitted_only_when_inproc(self):
        spec = DeploymentSpec.from_dict(_example())
        assert "transport" not in spec.to_dict()
        assert replace(spec, transport="socket").to_dict()["transport"] == "socket"
        assert list(spec.to_dict())[0] == "format"

    def test_replication_mode_is_accepted_never_stored(self):
        full = ReplicationSpec.from_dict({"count": 1, "mode": "full"})
        assert full == ReplicationSpec(count=1)
        assert "mode" not in full.to_dict()


class TestMalformedInput:
    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda data: data.pop("name"), "deployment spec is missing required key 'name'"),
            (
                lambda data: data["partitions"][0]["servants"][0].pop("type"),
                "deployment spec is missing required key 'type'",
            ),
            (
                lambda data: data.update(format="repro-deployment-spec/999"),
                "unsupported spec format 'repro-deployment-spec/999' "
                "(expected 'repro-deployment-spec/1')",
            ),
            (
                lambda data: data.update(replication={"count": 1, "mode": "bogus"}),
                "replication mode must be 'full' or 'log', got 'bogus'",
            ),
        ],
        ids=["no-name", "servant-without-type", "unsupported-format", "bogus-mode"],
    )
    def test_message_is_kept(self, damage, message):
        data = _example()
        damage(data)
        with pytest.raises(DeploymentError) as caught:
            DeploymentSpec.from_dict(data)
        assert str(caught.value) == message
        with pytest.raises(DeploymentError) as reference:
            _ref_from_dict(data)
        assert str(reference.value) == message

    @pytest.mark.parametrize(
        "damage, message",
        [
            (
                lambda data: data.update(replication=None),
                "DeploymentSpec key 'replication' must be an object, got null",
            ),
            (
                lambda data: data["nodes"][1].update(workers="two"),
                'NodeSpec key \'workers\' must be an integer, got "two"',
            ),
        ],
        ids=["null-replication", "string-workers"],
    )
    def test_a_wrong_json_type_names_the_record_and_key(
        self, damage, message, tmp_path, capsys
    ):
        """A hand-edited spec with a value of the wrong JSON type fails
        where the codec reads it, and ``deploy --check`` reports it
        instead of dying with a traceback."""
        from repro.cli import main

        data = _example()
        damage(data)
        with pytest.raises(DeploymentError) as caught:
            DeploymentSpec.from_dict(data)
        assert str(caught.value) == message
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        assert main(["deploy", "--spec", str(path), "--check"]) == 1
        assert capsys.readouterr().err.strip() == f"error: {message}"

    @pytest.mark.parametrize(
        "record, data, message",
        [
            (NodeSpec, {"name": "n", "workers": True}, "must be an integer, got true"),
            (NodeSpec, {"name": "n", "workers": 2.5}, "must be an integer, got 2.5"),
            (NodeSpec, {"name": None}, "NodeSpec key 'name' must be a string, got null"),
            (UserSpec, {"name": "u", "password": "p", "roles": "admin"}, "must be an array"),
            (UserSpec, {"name": "u", "password": "p", "roles": [1]}, "'roles' item must be a string"),
            (ServantSpec, {"name": "p/T/0", "type": "T", "state": []}, "must be an object"),
            (QoSProfile, {"name": "q", "timeout_ms": "1"}, "must be a number"),
            (FaultCampaignSpec, {"armed": 1}, "must be a boolean, got 1"),
        ],
        ids=[
            "bool-int", "fractional-int", "null-str", "string-tuple",
            "number-item", "array-dict", "string-float", "number-bool",
        ],
    )
    def test_each_declared_type_is_checked(self, record, data, message):
        with pytest.raises(DeploymentError, match=message):
            record.from_dict(data)

    def test_an_integral_number_reads_as_an_int_and_null_as_an_optional(self):
        assert NodeSpec.from_dict({"name": "n", "workers": 2.0, "seed": None}) == NodeSpec(
            "n", workers=2
        )
        assert type(NodeSpec.from_dict({"name": "n", "workers": 2.0}).workers) is int
        assert QoSProfile.from_dict({"name": "q", "timeout_ms": 5}).timeout_ms == 5

    @pytest.mark.parametrize("data", [[], "spec", 3, None])
    def test_non_object_spec(self, data):
        message = f"deployment spec must be a JSON object, got {type(data).__name__}"
        with pytest.raises(DeploymentError) as caught:
            DeploymentSpec.from_dict(data)
        assert str(caught.value) == message
        with pytest.raises(DeploymentError, match="must be a JSON object"):
            DeploymentSpec.from_json(json.dumps(data))

