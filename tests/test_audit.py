import hashlib
import json

import pytest

from iocodes import BadParam, CodeRejected, Graph, audit, audit_graphs, audit_trees, families, verify_tight_families
from iocodes.audit import _audit_instance, records_to_csv, sample_twin_free_graphs, summary_to_json
from iocodes.families import TREE_CAP
from iocodes.formats import parse_graph6
from iocodes.graphs import VertexSet
from iocodes.verify import Verdict, is_io_code


class TestTreeAudit:
    def test_small_run_clean(self):
        records, summary = audit_trees(9, 3)
        assert summary["violations"] == 0
        assert summary["instances"] == len(records)
        # the degree-3 subdivided star on 7 vertices is the one flagged row
        exceptional = [r for r in records if r.bound_status == "exceptional_star"]
        assert len(exceptional) == 1
        assert exceptional[0].n == 7

    def test_order_range_reaches_the_tree_cap(self, monkeypatch):
        for n_max in (4, TREE_CAP + 1):
            with pytest.raises(BadParam, match=f"5 <= n_max <= {TREE_CAP}"):
                audit_trees(n_max)
        # the cap is accepted and every order up to it is asked for; the
        # counts at each order are checked in test_families.py
        orders = []
        monkeypatch.setattr(audit, "enumerate_twin_free_trees", lambda n: orders.append(n) or iter(()))
        _, summary = audit_trees(TREE_CAP)
        assert orders == list(range(5, TREE_CAP + 1))
        assert summary["n_max"] == TREE_CAP

    def test_default_delta_is_per_instance(self):
        records, _ = audit_trees(8)
        for r in records:
            assert r.delta == max(3, r.max_degree)

    def test_extremal_detection(self):
        records, _ = audit_trees(12, 3)
        extremal = [r for r in records if r.is_extremal]
        assert any(r.n == 12 and r.gamma == 10 for r in extremal)

    def test_gamma_floor_at_n5(self):
        records, _ = audit_trees(5, 3)
        assert records and all(r.gamma >= 4 for r in records)

    def test_witness_reverifies_from_record(self):
        records, _ = audit_trees(9)
        for r in records:
            g = parse_graph6(r.graph6)
            code = VertexSet(g.n, r.witness_code)
            assert is_io_code(g, code).ok
            assert len(code) == r.gamma

    def test_deterministic_and_delta_monotone(self):
        records3, _ = audit_trees(9, 3)
        again, _ = audit_trees(9, 3)
        assert records_to_csv(records3) == records_to_csv(again)
        records4, _ = audit_trees(9, 4)
        gamma4 = {r.graph6: r.gamma for r in records4}
        for r in records3:
            assert gamma4[r.graph6] == r.gamma  # gamma does not depend on delta

    def test_tree_audit_to_16_is_pinned(self):
        records, summary = audit_trees(16)
        digest = hashlib.sha256(records_to_csv(records).encode()).hexdigest()
        assert digest == "b2fe93ecc1365b943f95653847495ef872ee4b23aa1f7d5ae7287e2b05f34e33"
        assert summary["instances"] == 3149 and summary["fallbacks"] == 3

    def test_capped_tree_audit_to_14_is_pinned(self):
        # pinned while the audit built every tree and filtered out those with twins
        records, summary = audit_trees(14, 3)
        digest = hashlib.sha256(records_to_csv(records).encode()).hexdigest()
        assert digest == "6aca61ed118dcfa2548ee24c70010811bcd05a44705c98e51399d070c091eb04"
        assert summary["instances"] == 411


class TestGraphAudit:
    def test_n5_clean(self):
        records, summary = audit_graphs(5)
        assert summary["violations"] == 0
        assert summary["instances"] == 5
        assert summary["labeled_instances"] > summary["instances"]

    def test_c5_row(self):
        records, _ = audit_graphs(5)
        c5_rows = [r for r in records if r.m == 5 and r.max_degree == 2]
        assert len(c5_rows) == 1 and c5_rows[0].gamma == 4

    def test_audit_to_7_is_pinned(self):
        records, summary = audit_graphs(7)
        digest = hashlib.sha256(records_to_csv(records).encode()).hexdigest()
        assert digest == "fe63a193abe5c55169d7b5c7122fdc79d90771989922c9d8b53728de2e15311b"
        assert summary["labeled_instances"] == 87222

    @pytest.mark.parametrize(
        "delta, digest, instances, labeled",
        [
            (3, "e2a055c73f5d5b60ea90f758a4191f61400258a003ea0898c49916964bebedf4", 35, 57312),
            (4, "b63ea51667926ab57337650a7e4f27f02c7e644298ce136a4fefcbb7a926e53e", 49, 83877),
        ],
    )
    def test_capped_audits_to_7_are_pinned(self, delta, digest, instances, labeled):
        # pinned while every level was grown uncapped and filtered afterwards
        records, summary = audit_graphs(7, delta)
        assert hashlib.sha256(records_to_csv(records).encode()).hexdigest() == digest
        assert summary["instances"] == instances and summary["labeled_instances"] == labeled

    def test_levels_are_grown_once(self, monkeypatch):
        calls = 0
        canonical_graph = families.canonical_graph

        def counted(g):
            nonlocal calls
            calls += 1
            return canonical_graph(g)

        monkeypatch.setattr(families, "canonical_graph", counted)
        audit_graphs(7)
        # one growth per order, of levels 1-5, 1-6 and 1-7, took 1,077;
        # growing disconnected classes too, 792
        assert calls <= 287


class TestTightFamilies:
    def test_report(self):
        report = verify_tight_families(3, 3)
        assert report["ok"]
        assert report["stars"][3]["expected"] == (6, 5, 10)
        assert report["gadget_cycles"][3]["gamma"] == 15

    def test_reference_only_mode(self):
        report = verify_tight_families(3, 6)
        assert report["ok"]
        assert report["gadget_cycles"][6]["reference_size"] == 30
        assert report["gadget_cycles"][6]["gamma"] is None
        assert report["gadget_cycles"][5]["lower_bound_certified"] is True
        assert 4 not in report["gadget_cycles"]

    def test_reports_are_pinned(self):
        # sha256 over the reports for delta_max 3-7 and p_max 3-8, computed
        # while the exact and decided cycle sizes were caller options
        digest = hashlib.sha256()
        for delta_max in range(3, 8):
            for p_max in range(3, 9):
                digest.update(json.dumps(verify_tight_families(delta_max, p_max), sort_keys=True).encode())
        assert digest.hexdigest() == "ec92fb49b7998ff04107ac6562d1a8e23c714074b0fbee04f08338ff107bca83"


class TestDeltaCheck:
    def test_delta_is_checked_before_any_instance_is_built(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("instances built before the delta check")

        for name in ("enumerate_twin_free_trees", "enumerate_graph_classes", "_random_twin_free_graph"):
            monkeypatch.setattr(audit, name, fail)
        with pytest.raises(BadParam, match="delta must be at least 3, got 2"):
            audit_trees(12, 2)
        with pytest.raises(BadParam, match="delta must be at least 3, got 2"):
            audit_graphs(7, 2)
        with pytest.raises(BadParam, match="delta must be at least 3, got 2"):
            audit.audit_graphs_sampled(4, 8, 11, seed=0, delta=2)


class TestSampledAudit:
    def test_seeded_and_clean(self):
        from iocodes.audit import audit_graphs_sampled

        records, summary = audit_graphs_sampled(8, 8, 11, seed=5)
        assert summary["violations"] == 0
        assert summary["seed"] == 5
        again, _ = audit_graphs_sampled(8, 8, 11, seed=5)
        assert records_to_csv(records) == records_to_csv(again)
        for r in records:
            assert r.c4_free and r.twin_free

    def test_a_range_with_too_few_classes_raises(self):
        # order 5 holds 5 classes, so a sixth is never drawn
        with pytest.raises(BadParam, match="found 5 of 6 instances"):
            audit.audit_graphs_sampled(6, 5, 5, seed=0)


class TestWorkers:
    def test_pool_output_matches_serial(self, monkeypatch):
        from iocodes.audit import WORKERS_ENV, audit_graphs_sampled

        def audits():
            return [audit_trees(9, 3)[0], audit_graphs(7)[0], audit_graphs_sampled(8, 8, 11, seed=5)[0]]

        serial = audits()
        monkeypatch.setenv(WORKERS_ENV, "3")
        for a, b in zip(serial, audits(), strict=True):
            assert records_to_csv(a) == records_to_csv(b)

    @pytest.mark.parametrize("value", ["two", "0", "-3", ""])
    def test_malformed_worker_count_is_an_input_error(self, monkeypatch, capsys, value):
        from iocodes.audit import WORKERS_ENV
        from iocodes.cli import main

        def fail(*args, **kwargs):
            raise AssertionError("instances built before the worker count was read")

        monkeypatch.setenv(WORKERS_ENV, value)
        with monkeypatch.context() as stubbed:
            for name in ("enumerate_twin_free_trees", "enumerate_graph_classes", "_random_twin_free_graph"):
                stubbed.setattr(audit, name, fail)
            for run in (lambda: audit_trees(6), lambda: audit_graphs(5), lambda: audit.audit_graphs_sampled(2, 8, 9, seed=0)):
                with pytest.raises(BadParam, match=f"{WORKERS_ENV} must be a positive integer, got {value!r}"):
                    run()
        assert main(["audit", "trees", "--n-max", "6"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("input error: ") and repr(value) in out.err

    def test_graph_audits_on_a_pool_match_serial(self, monkeypatch):
        from iocodes.audit import WORKERS_ENV, audit_graphs_sampled

        serial = [audit_graphs(6)[0], audit_graphs_sampled(6, 8, 10, seed=3)[0]]
        monkeypatch.setenv(WORKERS_ENV, "2")
        parallel = [audit_graphs(6)[0], audit_graphs_sampled(6, 8, 10, seed=3)[0]]
        for a, b in zip(serial, parallel):
            assert records_to_csv(a) == records_to_csv(b)


class TestHelpers:
    def test_sampler_seeded(self):
        a = sample_twin_free_graphs(5, 8, 10, seed=11)
        b = sample_twin_free_graphs(5, 8, 10, seed=11)
        assert [g.adj for g in a] == [g.adj for g in b]

    def test_csv_and_summary_shapes(self):
        records, summary = audit_trees(7)
        text = records_to_csv(records)
        assert text.splitlines()[0].startswith("graph6,n,m,")
        assert len(text.splitlines()) == len(records) + 1
        payload = json.loads(summary_to_json(summary))
        assert payload["violations"] == 0
        assert payload["fallbacks"] == 0

    def test_fallbacks_are_counted(self):
        # the smallest audited tree where no decomposition case applies
        tree = Graph(15, [(0, 5), (1, 6), (2, 7), (3, 8), (4, 14), (5, 9), (6, 10), (7, 14),
                          (8, 14), (9, 11), (10, 12), (11, 13), (12, 13), (13, 14)])
        record, fallbacks = _audit_instance(tree, None)
        assert fallbacks == 1
        assert record.constructor_status == "within_bound"

    def test_rejected_solver_code_raises(self, monkeypatch):
        verdict = Verdict(False, ("not_totally_dominated", 0))
        monkeypatch.setattr("iocodes.solver.is_io_code", lambda g, s: verdict)
        with pytest.raises(CodeRejected) as err:
            audit_trees(5)
        assert err.value.verdict is verdict
