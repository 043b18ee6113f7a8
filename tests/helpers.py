"""Shared model builders imported explicitly by test modules.

Kept out of ``conftest.py`` so test modules can ``from helpers import
build_bank_model`` without relying on conftest module resolution (which
is ambiguous when ``benchmarks/conftest.py`` is also importable).
Benchmark fixtures stay self-contained in ``benchmarks/conftest.py``.
"""

from __future__ import annotations

from repro.uml import (
    add_attribute,
    add_class,
    add_operation,
    add_package,
    apply_stereotype,
    ensure_primitives,
    new_model,
)


def build_bank_model():
    """The functional banking PIM with executable operation bodies."""
    resource, model = new_model("bank")
    prims = ensure_primitives(model)
    pkg = add_package(model, "accounts")

    account = add_class(pkg, "Account")
    add_attribute(account, "number", prims["String"])
    add_attribute(account, "balance", prims["Real"])
    deposit = add_operation(
        account, "deposit", [("amount", prims["Real"])], return_type=prims["Real"]
    )
    apply_stereotype(
        deposit, "PythonBody", body="self.balance += amount\nreturn self.balance"
    )
    withdraw = add_operation(
        account, "withdraw", [("amount", prims["Real"])], return_type=prims["Real"]
    )
    apply_stereotype(
        withdraw,
        "PythonBody",
        body=(
            "if amount > self.balance:\n"
            "    raise ValueError('insufficient funds')\n"
            "self.balance -= amount\n"
            "return self.balance"
        ),
    )
    get_balance = add_operation(account, "getBalance", return_type=prims["Real"])
    apply_stereotype(get_balance, "PythonBody", body="return self.balance")

    bank = add_class(pkg, "Bank")
    transfer = add_operation(
        bank,
        "transfer",
        [("source", None), ("target", None), ("amount", prims["Real"])],
        return_type=prims["Boolean"],
    )
    apply_stereotype(
        transfer,
        "PythonBody",
        body="source.withdraw(amount)\ntarget.deposit(amount)\nreturn True",
    )
    return resource, model


FULL_BANK_PARAMS = {
    "distribution": dict(server_classes=["Account"], registry_prefix="bank"),
    "transactions": dict(
        transactional_ops=["Bank.transfer", "Account.withdraw", "Account.deposit"],
        state_classes=["Account"],
    ),
    "security": dict(
        protected_ops=["Bank.transfer"], role_grants={"teller": ["Bank.*"]}
    ),
}


def diverging_copy(package):
    """A JSON copy of a shipped bank package whose first step carries a
    different distribution ``Si``: replaying its steps no longer
    reproduces its final model."""
    from repro.core import ComponentPackage, ShippedStep

    broken = ComponentPackage.from_json(package.to_json())
    broken.steps[0] = ShippedStep(
        "distribution",
        "T_distribution",
        {"server_classes": ["Bank"], "registry_prefix": "bank"},
    )
    return broken
