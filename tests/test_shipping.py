"""Shipping & reuse tests (§2's open question, implemented and verified)."""

import json

import pytest

from repro.core import (
    ComponentPackage,
    MdaLifecycle,
    MiddlewareServices,
    ShippingError,
    model_fingerprint,
    replay,
    ship,
)
from repro.codegen import generate_module
from repro.metamodel import ModelResource
from repro.uml import UML, find_element, has_stereotype
from repro.xmi import parse_xmi

from helpers import FULL_BANK_PARAMS, build_bank_model, diverging_copy


class TestFingerprint:
    def test_equal_models_equal_fingerprints(self):
        r1, _ = build_bank_model()
        r2, _ = build_bank_model()
        assert model_fingerprint(r1) == model_fingerprint(r2)

    def test_fingerprint_detects_changes(self):
        r1, m1 = build_bank_model()
        r2, m2 = build_bank_model()
        find_element(m2, "accounts.Account").name = "Konto"
        assert model_fingerprint(r1) != model_fingerprint(r2)

    def test_fingerprint_ignores_uuids(self):
        resource, _ = build_bank_model()
        text = __import__("repro.xmi", fromlist=["xmi_string"]).xmi_string(resource)
        restored = parse_xmi(text, UML.package)
        assert model_fingerprint(resource) == model_fingerprint(restored)


class TestShip:
    def test_package_contents(self, shipped):
        assert shipped.name == "bank"
        assert len(shipped.steps) == 3
        assert [s.concern for s in shipped.steps] == [
            "distribution",
            "transactions",
            "security",
        ]
        assert shipped.steps[0].parameters["server_classes"] == ["Account"]
        assert len(shipped.aspect_sources) == 3
        assert "<?xml" in shipped.initial_model_xmi
        assert "<?xml" in shipped.final_model_xmi

    def test_initial_model_is_pre_refinement(self, shipped):
        initial = parse_xmi(shipped.initial_model_xmi, UML.package)
        account = find_element(initial.roots[0], "accounts.Account")
        assert not has_stereotype(account, "Remote")
        final = parse_xmi(shipped.final_model_xmi, UML.package)
        account_final = find_element(final.roots[0], "accounts.Account")
        assert has_stereotype(account_final, "Remote")

    def test_empty_lifecycle_rejected(self, bank_resource, services):
        lifecycle = MdaLifecycle(bank_resource, services=services)
        with pytest.raises(ShippingError):
            ship(lifecycle)

    def test_json_roundtrip(self, shipped):
        text = shipped.to_json()
        restored = ComponentPackage.from_json(text)
        assert restored.name == shipped.name
        assert restored.steps == shipped.steps
        assert restored.final_model_xmi == shipped.final_model_xmi

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ShippingError):
            ComponentPackage.from_json("not json at all")
        with pytest.raises(ShippingError):
            ComponentPackage.from_json('{"format": "something-else"}')


class TestReplay:
    def test_replay_reproduces_final_model(self, shipped):
        lifecycle = replay(shipped, services=MiddlewareServices.create())
        replayed = model_fingerprint(lifecycle.repository.resource)
        expected = model_fingerprint(parse_xmi(shipped.final_model_xmi, UML.package))
        assert replayed == expected

    def test_replayed_lifecycle_is_usable(self, shipped):
        lifecycle = replay(shipped, services=MiddlewareServices.create())
        module = lifecycle.build_application("replayed_bank")
        services = lifecycle.services
        services.credentials.add_user("alice", "pw", roles=["teller"])
        credential = services.auth.login("alice", "pw")
        bank = module.Bank()
        a, b = module.Account(balance=10.0), module.Account(balance=0.0)
        with services.orb.call_context(credentials=credential.token):
            assert bank.transfer(a, b, 4.0) is True
        assert (a.balance, b.balance) == (6.0, 4.0)

    def test_replay_detects_divergence(self, shipped):
        # corrupt a shipped step so the replayed model differs
        with pytest.raises(ShippingError):
            replay(diverging_copy(shipped), services=MiddlewareServices.create())

    def test_replay_without_verification(self, shipped):
        broken = diverging_copy(shipped)
        lifecycle = replay(broken, services=MiddlewareServices.create(), verify=False)
        assert len(lifecycle.applied) == 3

    def test_shipped_aspect_sources_compile(self, shipped):
        for name, source in shipped.aspect_sources.items():
            compile(source, name, "exec")


class TestDerivation:
    def test_ship_keeps_the_vendor_derivation(self, lifecycle, shipped):
        derivation = shipped.derivation()
        assert derivation.transformations == tuple(cmt for cmt, _ in lifecycle.applied)
        assert derivation.source == generate_module(lifecycle.repository.resource.roots[0])
        # it travels with the object, never on the wire or into equality
        restored = ComponentPackage.from_json(shipped.to_json())
        assert restored == shipped
        assert sorted(json.loads(shipped.to_json())) == [
            "aspect_sources",
            "final_model_xmi",
            "format",
            "initial_model_xmi",
            "name",
            "steps",
        ]

    def test_parsed_package_derives_once_by_replay(self, shipped, monkeypatch):
        from repro.runtime.node import Node

        applied = []
        original = MdaLifecycle.apply_plan

        def counting(self, plan):
            applied.append(plan)
            return original(self, plan)

        monkeypatch.setattr(MdaLifecycle, "apply_plan", counting)
        parsed = ComponentPackage.from_json(shipped.to_json())
        Node("n-0").install(parsed)
        assert len(applied) == len(shipped.steps)
        Node("n-1").install(parsed)
        assert len(applied) == len(shipped.steps)

    def test_install_of_a_diverging_parsed_package_fails(self, shipped):
        from repro.runtime.node import Node

        node = Node("n-0")
        with pytest.raises(ShippingError, match="diverges"):
            node.install(diverging_copy(shipped))
        assert not node.deployed


class TestSerializationOnDemand:
    """``ship`` keeps model snapshots and writes the XMI documents on
    first read, so an in-process deploy never writes them."""

    @staticmethod
    def _refined(lifecycle):
        for concern, params in FULL_BANK_PARAMS.items():
            lifecycle.apply_concern(concern, **params)
        return lifecycle

    @staticmethod
    def _fingerprint_of(xmi_text):
        return model_fingerprint(parse_xmi(xmi_text, UML.package))

    def test_an_in_process_deploy_writes_no_xmi(self, monkeypatch):
        import repro.core.shipping as shipping
        from repro.deploy import DeploymentCompiler
        from repro.repository.versioning import Version
        from repro.runtime.harness import RunConfig
        from repro.runtime.scenarios import get_scenario

        writes, materialized = [], []
        write, materialize = shipping.xmi_string, Version.materialize
        monkeypatch.setattr(
            shipping, "xmi_string", lambda model: writes.append(model) or write(model)
        )
        monkeypatch.setattr(
            Version,
            "materialize",
            lambda version: materialized.append(version) or materialize(version),
        )
        spec = get_scenario("banking").deployment_spec(
            RunConfig(scenario="banking", nodes=2)
        )
        federation = DeploymentCompiler().deploy(spec)
        try:
            assert writes == [] and materialized == []
            package = federation.app_package
            text = package.to_json()
            assert len(writes) == 2
            assert package.to_json() == text and len(writes) == 2
        finally:
            federation.shutdown()
        # what a worker process receives still replays and verifies
        restored = ComponentPackage.from_json(text)
        assert restored == package
        lifecycle = replay(restored, services=MiddlewareServices.create())
        assert [cmt.concern for cmt, _ca in lifecycle.applied] == [
            step.concern for step in package.steps
        ]

    def test_the_documents_are_the_models_at_ship_time(self, lifecycle):
        self._refined(lifecycle)
        history = lifecycle.repository.history
        assert history.head_is_current()
        pim = ModelResource("bank")
        for root in history.versions[0].materialize()[0]:
            pim.add_root(root)
        at_ship = model_fingerprint(lifecycle.repository.resource)
        package = ship(lifecycle)
        # refining further after ship leaves the package as shipped
        lifecycle.apply_concern("logging", log_patterns=["*"])
        assert model_fingerprint(lifecycle.repository.resource) != at_ship
        assert self._fingerprint_of(package.initial_model_xmi) == model_fingerprint(pim)
        assert self._fingerprint_of(package.final_model_xmi) == at_ship
        assert ComponentPackage.from_json(package.to_json()) == package
        replay(ComponentPackage.from_json(package.to_json()), services=MiddlewareServices.create())

    def test_an_uncommitted_edit_ships_as_the_live_model(self, lifecycle):
        self._refined(lifecycle)
        account = find_element(lifecycle.repository.resource.roots[0], "accounts.Account")
        account.documentation = "edited after the last commit"
        assert not lifecycle.repository.history.head_is_current()
        at_ship = model_fingerprint(lifecycle.repository.resource)
        package = ship(lifecycle)
        account.documentation = "edited after ship"
        assert self._fingerprint_of(package.final_model_xmi) == at_ship

    def test_equality_writes_both_sides(self, lifecycle):
        self._refined(lifecycle)
        first, second = ship(lifecycle), ship(lifecycle)
        assert first == second
        assert first.final_model_xmi == second.final_model_xmi
        assert "<?xml" in first.initial_model_xmi
