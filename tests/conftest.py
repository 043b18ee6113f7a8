"""Shared fixtures: a banking PIM (the paper's running-example domain),
a library metamodel for kernel tests, and wired middleware services.

The model builders live in :mod:`helpers`; test modules import them
explicitly (``from helpers import build_bank_model``) instead of
reaching into ``conftest``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from helpers import FULL_BANK_PARAMS, build_bank_model

from repro.core import MdaLifecycle, MiddlewareServices, ship
from repro.metamodel import STRING, UNBOUNDED, MetamodelBuilder


@pytest.fixture()
def library_metamodel():
    """A small non-UML metamodel exercising every kernel feature."""
    b = MetamodelBuilder("library")
    book = b.metaclass("Book")
    author = b.metaclass("Author")
    shelf = b.metaclass("Shelf")
    novel = b.metaclass("Novel", superclasses=[book])
    b.attribute(book, "title", STRING, lower=1)
    b.attribute(book, "tags", STRING, upper=UNBOUNDED)
    b.attribute(author, "name", STRING)
    b.reference(book, "authors", author, upper=UNBOUNDED, opposite="books")
    b.reference(author, "books", book, upper=UNBOUNDED)
    b.reference(shelf, "books", book, upper=UNBOUNDED, containment=True)
    b.reference(book, "sequel", book)
    genre = b.enum("Genre", ["fiction", "science", "history"])
    b.attribute(book, "genre", genre, default="fiction")
    pkg = b.build()
    return {
        "package": pkg,
        "Book": book,
        "Author": author,
        "Shelf": shelf,
        "Novel": novel,
        "Genre": genre,
    }


@pytest.fixture()
def bank_model():
    return build_bank_model()


@pytest.fixture()
def bank_resource(bank_model):
    return bank_model[0]


@pytest.fixture()
def services():
    return MiddlewareServices.create(seed=42)


@pytest.fixture()
def lifecycle(bank_resource, services):
    return MdaLifecycle(bank_resource, services=services)


@pytest.fixture()
def shipped(lifecycle):
    """The refined banking application, packed with ``ship``."""
    for concern, params in FULL_BANK_PARAMS.items():
        lifecycle.apply_concern(concern, **params)
    return ship(lifecycle)


@pytest.fixture()
def woven_bank(lifecycle):
    """The fully refined, generated, and woven banking application."""
    for concern, params in FULL_BANK_PARAMS.items():
        lifecycle.apply_concern(concern, **params)
    module = lifecycle.build_application("bank_app_test")
    services = lifecycle.services
    services.credentials.add_user("alice", "pw", roles=["teller"])
    credential = services.auth.login("alice", "pw")
    return {
        "lifecycle": lifecycle,
        "module": module,
        "services": services,
        "credential": credential,
    }


@pytest.fixture(scope="session", autouse=True)
def lock_witness_session():
    """Turn a witnessed run into a hierarchy check.

    When ``REPRO_LOCK_WITNESS`` is set the named-lock factories already
    produce witnessed primitives (raising on the first inversion in
    ``=1`` mode); this fixture additionally validates, at session end,
    that the acquisition-order graph the run actually observed is
    consistent with the documented hierarchy in
    ``tools/concurrency_baseline.json`` — recorded inversions, rank
    violations, and unapproved same-name nesting all fail the session.
    """
    from repro.analysis import witness

    if not witness.enabled():
        yield
        return
    witness.reset()
    yield
    snapshot = witness.registry().snapshot()
    problems = [
        f"inversion: {r['first']} vs {r['second']}"
        for r in snapshot["inversions"]
    ]
    baseline_path = (
        Path(__file__).resolve().parents[1] / "tools" / "concurrency_baseline.json"
    )
    if baseline_path.exists():
        from repro.analysis.baseline import Baseline, check_witness_edges

        baseline = Baseline.load(baseline_path)
        problems.extend(
            finding.message
            for finding in check_witness_edges(
                [(src, dst) for src, dst, _count in snapshot["edges"]],
                baseline,
                list(snapshot["self_nests"]),
            )
        )
    if problems:
        pytest.fail(
            "lock witness observed hierarchy violations:\n"
            + "\n".join(problems),
            pytrace=False,
        )
