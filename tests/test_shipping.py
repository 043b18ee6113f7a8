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
from repro.uml import UML, find_element, has_stereotype
from repro.xmi import parse_xmi

from helpers import build_bank_model, diverging_copy


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
