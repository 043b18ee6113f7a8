"""Concurrency toolkit: static analyzer, baseline, witness, tool exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.analysis import witness
from repro.analysis.baseline import (
    Baseline,
    check_baseline,
    check_cycles,
    check_witness_edges,
    find_cycles,
)
from repro.analysis.lockgraph import analyze_paths
from repro.analysis.report import render_findings, render_graph

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "check_concurrency.py"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


# ---------------------------------------------------------------------------
# static analyzer
# ---------------------------------------------------------------------------


class TestLockGraph:
    def test_ab_ba_deadlock_detected(self):
        analysis = analyze_paths([fixture("deadlock.py")])
        assert ("fixture.a", "fixture.b") in analysis.graph.edges
        assert ("fixture.b", "fixture.a") in analysis.graph.edges
        cycles = find_cycles(analysis.graph)
        assert ["fixture.a", "fixture.b"] in cycles

    def test_cycle_finding_names_both_sites(self):
        analysis = analyze_paths([fixture("deadlock.py")])
        findings = check_cycles(analysis.graph)
        cycle = [f for f in findings if "fixture.a -> fixture.b" in f.message]
        assert len(cycle) == 1
        assert cycle[0].kind == "lock-cycle"
        assert cycle[0].severity == "error"
        assert "Deadlocky.ab" in cycle[0].message
        assert "Deadlocky.ba" in cycle[0].message

    def test_try_acquire_edge_cannot_close_cycle(self):
        analysis = analyze_paths([fixture("deadlock.py")])
        edge = analysis.graph.edges[("fixture.try_b", "fixture.try_a")]
        assert edge.trylock
        assert not any("try_a" in " ".join(c) for c in find_cycles(analysis.graph))

    def test_lock_through_helper_argument(self):
        analysis = analyze_paths([fixture("helper_lock.py")])
        edge = analysis.graph.edges.get(("fixture.outer", "fixture.inner"))
        assert edge is not None and not edge.trylock
        assert any("locked_call" in site[2] for site in edge.sites)

    def test_lock_through_helper_return(self):
        analysis = analyze_paths([fixture("helper_lock.py")])
        edge = analysis.graph.edges[("fixture.outer", "fixture.inner")]
        assert any("via_return" in site[2] for site in edge.sites)

    def test_union_receiver_follows_every_member(self):
        analysis = analyze_paths([fixture("union_receiver.py")])
        edges = set(analysis.graph.edges)
        for held in ("fixture.topology", "fixture.sync"):
            # the -> Union[...] return types one, the annotated local
            # the other; each reaches both classes' export()
            assert (held, "fixture.local_state") in edges
            assert (held, "fixture.wire_pool") in edges

    def test_clean_module_has_no_findings(self):
        analysis = analyze_paths([fixture("clean.py")])
        assert analysis.findings == []
        assert check_cycles(analysis.graph) == []
        assert set(analysis.graph.edges) == {("fixture.first", "fixture.second")}

    def test_edge_sites_point_into_fixture(self):
        analysis = analyze_paths([fixture("clean.py")])
        ((path, lineno, via),) = analysis.graph.edges[
            ("fixture.first", "fixture.second")
        ].sites[:1]
        assert path.endswith("clean.py") and lineno > 0
        assert via.endswith("Tidy.both")


class TestGuardedBy:
    @pytest.fixture(scope="class")
    def findings(self):
        return analyze_paths([fixture("guarded.py")]).findings

    def _guard_lines(self, findings):
        return {
            f.line for f in findings if f.kind == "guarded-by"
        }

    def test_exact_violation_set(self, findings):
        source = Path(fixture("guarded.py")).read_text().splitlines()
        expected = {
            i + 1
            for i, line in enumerate(source)
            if "self.count += 1" in line and "with" not in source[i - 1]
            or "self.items.append(0)" in line
            or "self.mapped = 3" in line
            or "self.count = 0" in line and "def __init__" not in source[i - 2]
        }
        # __init__ assignments are exempt; good() mutations are locked
        violations = [f for f in findings if f.kind == "guarded-by"]
        assert len(violations) == 4
        assert self._guard_lines(findings) <= expected

    def test_violation_messages_name_lock_and_field(self, findings):
        messages = [f.message for f in findings if f.kind == "guarded-by"]
        assert any("Counter.count" in m for m in messages)
        assert any("Counter.items" in m for m in messages)
        assert any("Counter.mapped" in m for m in messages)
        assert all("guarded.Counter._lock" in m for m in messages)

    def test_helper_reached_with_lock_is_clean(self, findings):
        # _helper_mutate is flagged via bad_via_helper's unlocked path,
        # but the locked path (good_via_helper) must not double-report
        helper = [
            f for f in findings
            if f.kind == "guarded-by" and "_helper_mutate" in f.message
        ]
        assert len(helper) == 1

    def test_init_is_exempt(self, findings):
        assert all(
            "in guarded.Counter.__init__" not in f.message for f in findings
        )


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


class TestBaseline:
    def _baseline(self, **kw):
        base = {
            "hierarchy": [["fixture.first"], ["fixture.second"]],
            "edges": {("fixture.first", "fixture.second")},
            "self_nest_ok": set(),
        }
        base.update(kw)
        return Baseline(
            hierarchy=base["hierarchy"],
            edges=base["edges"],
            self_nest_ok=base["self_nest_ok"],
        )

    def test_clean_against_matching_baseline(self):
        analysis = analyze_paths([fixture("clean.py")])
        assert check_baseline(analysis.graph, self._baseline()) == []

    def test_new_edge_is_drift(self):
        analysis = analyze_paths([fixture("clean.py")])
        findings = check_baseline(analysis.graph, self._baseline(edges=set()))
        assert [f.kind for f in findings] == ["unbaselined-edge"]

    def test_stale_edge_is_drift(self):
        analysis = analyze_paths([fixture("clean.py")])
        baseline = self._baseline()
        baseline.edges.add(("fixture.gone", "fixture.away"))
        findings = check_baseline(analysis.graph, baseline)
        assert [f.kind for f in findings] == ["stale-baseline"]

    def test_hierarchy_rank_violation(self):
        analysis = analyze_paths([fixture("clean.py")])
        upside_down = self._baseline(
            hierarchy=[["fixture.second"], ["fixture.first"]]
        )
        findings = check_baseline(analysis.graph, upside_down)
        assert [f.kind for f in findings] == ["hierarchy-violation"]

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "baseline.json"
        original = self._baseline(self_nest_ok={"dispatch.servant"})
        original.save(path)
        loaded = Baseline.load(path)
        assert loaded.hierarchy == original.hierarchy
        assert loaded.edges == original.edges
        assert loaded.self_nest_ok == original.self_nest_ok

    def test_updated_replaces_edges_only(self):
        analysis = analyze_paths([fixture("clean.py")])
        updated = self._baseline(edges=set()).updated(analysis.graph)
        assert updated.edges == {("fixture.first", "fixture.second")}
        assert updated.hierarchy == [["fixture.first"], ["fixture.second"]]

    def test_witness_edges_checked_against_ranks(self):
        baseline = self._baseline()
        clean = check_witness_edges(
            [("fixture.first", "fixture.second")], baseline
        )
        assert clean == []
        bad = check_witness_edges(
            [("fixture.second", "fixture.first")], baseline
        )
        assert [f.kind for f in bad] == ["hierarchy-violation"]
        nests = check_witness_edges([], baseline, ["fixture.first"])
        assert [f.kind for f in nests] == ["self-nest"]


class TestShippedTree:
    """The acceptance gate: the real tree is clean against its baseline."""

    def test_src_repro_is_clean(self):
        analysis = analyze_paths([str(REPO / "src" / "repro")])
        baseline = Baseline.load(REPO / "tools" / "concurrency_baseline.json")
        findings = analysis.findings + check_baseline(analysis.graph, baseline)
        assert findings == [], render_findings(findings)

    def test_all_named_locks_are_ranked(self):
        analysis = analyze_paths([str(REPO / "src" / "repro")])
        baseline = Baseline.load(REPO / "tools" / "concurrency_baseline.json")
        ranked = set(baseline.ranks())
        named = {
            lock_id
            for lock_id in analysis.index.locks
            if "." in lock_id and not lock_id.startswith("repro.")
        }
        assert named <= ranked, sorted(named - ranked)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


class TestRendering:
    def test_render_graph_lists_edges_and_sites(self):
        analysis = analyze_paths([fixture("clean.py")])
        text = render_graph(analysis.graph, hierarchy=[["fixture.first"]])
        assert "fixture.first -> fixture.second" in text
        assert "Tidy.both" in text
        assert "[0] fixture.first" in text
        assert "[unranked] fixture.second" in text

    def test_render_findings_counts(self):
        analysis = analyze_paths([fixture("guarded.py")])
        text = render_findings(analysis.findings)
        assert text.endswith("4 error(s), 0 warning(s)")
        assert "guarded.py:" in text


# ---------------------------------------------------------------------------
# tool exit codes (0 clean / 1 findings / 2 usage error)
# ---------------------------------------------------------------------------


class TestToolExitCodes:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, str(TOOL), *args],
            capture_output=True,
            text=True,
            cwd=str(REPO),
        )

    def test_clean_fixture_exits_zero(self):
        result = self._run("--no-baseline", fixture("clean.py"))
        assert result.returncode == 0, result.stdout + result.stderr

    def test_deadlock_fixture_exits_one(self):
        result = self._run("--no-baseline", fixture("deadlock.py"))
        assert result.returncode == 1
        assert "lock-cycle" in result.stdout

    def test_guarded_fixture_exits_one(self):
        result = self._run("--no-baseline", fixture("guarded.py"))
        assert result.returncode == 1
        assert "guarded-by" in result.stdout

    def test_no_paths_exits_two(self):
        result = self._run("--no-baseline")
        assert result.returncode == 2

    def test_missing_path_exits_two(self):
        result = self._run("--no-baseline", "does/not/exist")
        assert result.returncode == 2

    def test_shipped_tree_exits_zero(self):
        result = self._run("src/repro")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_cli_analyze_subcommand(self):
        from repro.cli import main

        assert main(["analyze", "--no-baseline", fixture("clean.py")]) == 0
        assert main(["analyze", "--no-baseline", fixture("deadlock.py")]) == 1


# ---------------------------------------------------------------------------
# runtime witness
# ---------------------------------------------------------------------------


@pytest.fixture()
def fresh_witness(monkeypatch):
    """Isolated registry + held-stacks + witness mode for one test."""
    monkeypatch.setenv("REPRO_LOCK_WITNESS", "1")
    monkeypatch.setattr(witness, "_registry", witness.WitnessRegistry())
    monkeypatch.setattr(witness, "_held_local", threading.local())
    return witness


class TestWitness:
    def test_factories_return_stdlib_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOCK_WITNESS", raising=False)
        assert isinstance(witness.named_lock("x"), type(threading.Lock()))
        assert isinstance(witness.named_rlock("x"), type(threading.RLock()))
        assert isinstance(witness.named_condition("x"), threading.Condition)

    def test_factories_return_witnessed_when_enabled(self, fresh_witness):
        assert isinstance(witness.named_lock("x"), witness.WitnessLock)
        assert isinstance(witness.named_rlock("x"), witness.WitnessRLock)
        assert isinstance(
            witness.named_condition("x"), witness.WitnessCondition
        )

    def test_zero_mode_is_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOCK_WITNESS", "0")
        assert not witness.enabled()

    def test_orders_recorded_as_edges(self, fresh_witness):
        a, b = witness.named_lock("w.a"), witness.named_lock("w.b")
        with a:
            with b:
                assert witness.held_names() == ["w.a", "w.b"]
        assert witness.registry().edge_pairs() == {("w.a", "w.b")}

    def test_inversion_raises_with_both_orders(self, fresh_witness):
        a, b = witness.named_lock("w.a"), witness.named_lock("w.b")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(witness.LockOrderInversion) as excinfo:
                a.acquire()
        assert "w.a -> w.b" in str(excinfo.value)
        assert "w.b -> w.a" in str(excinfo.value)

    def test_record_mode_collects_without_raising(
        self, fresh_witness, monkeypatch
    ):
        monkeypatch.setenv("REPRO_LOCK_WITNESS", "record")
        a, b = witness.named_lock("w.a"), witness.named_lock("w.b")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        snapshot = witness.registry().snapshot()
        assert len(snapshot["inversions"]) == 1

    def test_reentrant_reacquisition_adds_no_edges(self, fresh_witness):
        lock = witness.named_rlock("w.r")
        other = witness.named_lock("w.o")
        with other:
            with lock:
                with lock:
                    pass
        assert witness.registry().edge_pairs() == {("w.o", "w.r")}

    def test_same_name_different_object_is_self_nest(self, fresh_witness):
        first = witness.named_rlock("w.family")
        second = witness.named_rlock("w.family")
        with first:
            with second:
                pass
        registry = witness.registry()
        assert registry.self_nests == {"w.family": 1}
        assert registry.edge_pairs() == set()
        assert registry.inversions == []

    def test_failed_try_acquire_records_nothing(self, fresh_witness):
        a, b = witness.named_lock("w.a"), witness.named_lock("w.b")
        with a:
            with b:
                pass

        grabbed = threading.Event()
        release = threading.Event()

        def holder():
            with a:
                grabbed.set()
                release.wait(5)

        thread = threading.Thread(target=holder, daemon=True)
        thread.start()
        assert grabbed.wait(5)
        with b:
            # would be the inverted order, but a failed try never waits
            assert not a.acquire(blocking=False)
        release.set()
        thread.join(5)
        assert witness.registry().inversions == []

    def test_condition_shares_lock_identity(self, fresh_witness):
        mutex = witness.named_lock("w.q")
        not_empty = witness.named_condition("w.q", lock=mutex)
        idle = witness.named_condition("w.q", lock=mutex)
        ready = []

        def producer():
            with not_empty:
                ready.append(1)
                not_empty.notify()

        with not_empty:
            thread = threading.Thread(target=producer, daemon=True)
            thread.start()
            assert not_empty.wait_for(lambda: ready, timeout=5)
        thread.join(5)
        with idle:
            assert witness.held_names() == ["w.q"]
        assert witness.registry().edge_pairs() == set()

    def test_snapshot_shape_is_json_serializable(self, fresh_witness):
        a, b = witness.named_lock("w.a"), witness.named_lock("w.b")
        with a:
            with b:
                pass
        as_text = json.dumps(witness.registry().snapshot())
        assert "w.a" in as_text

    def test_reset_clears_everything(self, fresh_witness):
        a, b = witness.named_lock("w.a"), witness.named_lock("w.b")
        with a:
            with b:
                pass
        witness.reset()
        snapshot = witness.registry().snapshot()
        assert snapshot == {"edges": [], "self_nests": {}, "inversions": []}
