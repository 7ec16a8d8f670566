"""Unit tests for the pipeline engine and the requirement repository."""

import pytest

from repro.core.pipeline import (
    Job,
    Pipeline,
    PipelineContext,
    Stage,
)
from repro.core.gates import GateResult, SecurityGate
from repro.core.repository import (
    RequirementRecord,
    RequirementRepository,
    RequirementSource,
    RequirementStatus,
    requirement_source,
)
from repro.reqs.ir import Formalization, Provenance, Requirement
from repro.specpatterns.patterns import Absence
from repro.specpatterns.scopes import Globally


class _StubGate(SecurityGate):
    name = "stub"

    def __init__(self, passed=True):
        self._passed = passed
        self.evaluations = 0

    def evaluate(self, context):
        self.evaluations += 1
        return GateResult(passed=self._passed, detail="stub")


class TestPipelineContext:
    def test_put_get_require(self):
        context = PipelineContext(seed=1)
        assert context.get("seed") == 1
        context.put("x", "y")
        assert context.require("x") == "y"
        assert "x" in context

    def test_require_missing_raises_with_inventory(self):
        context = PipelineContext(a=1)
        with pytest.raises(KeyError) as excinfo:
            context.require("missing")
        assert "a" in str(excinfo.value)


class TestPipelineExecution:
    def test_jobs_run_in_order(self):
        order = []
        pipeline = Pipeline([
            Stage("one", jobs=[Job("a", lambda c: order.append("a")),
                               Job("b", lambda c: order.append("b"))]),
            Stage("two", jobs=[Job("c", lambda c: order.append("c"))]),
        ])
        run = pipeline.run()
        assert run.passed
        assert order == ["a", "b", "c"]

    def test_failing_job_stops_pipeline(self):
        def boom(context):
            raise RuntimeError("kaboom")

        later_gate = _StubGate()
        pipeline = Pipeline([
            Stage("one", jobs=[Job("boom", boom)]),
            Stage("two", gates=[later_gate]),
        ])
        run = pipeline.run()
        assert not run.passed
        assert run.failed_stage == "one"
        assert later_gate.evaluations == 0
        assert "kaboom" in run.stage_results[0].job_results[0].detail

    def test_failing_gate_stops_pipeline(self):
        reached = []
        pipeline = Pipeline([
            Stage("one", gates=[_StubGate(passed=False)]),
            Stage("two", jobs=[Job("later",
                                   lambda c: reached.append(True))]),
        ])
        run = pipeline.run()
        assert not run.passed
        assert run.failed_stage == "one"
        assert reached == []

    def test_gate_rows_report(self):
        pipeline = Pipeline([Stage("s", gates=[_StubGate()])])
        run = pipeline.run()
        rows = run.gate_rows()
        assert rows == [{"stage": "s", "gate": "stub", "verdict": "PASS",
                         "detail": "stub"}]

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValueError):
            Pipeline([Stage("s"), Stage("s")])

    def test_jobs_share_context(self):
        pipeline = Pipeline([
            Stage("one", jobs=[Job("write", lambda c: c.put("k", 42))]),
            Stage("two", jobs=[Job("read",
                                   lambda c: str(c.require("k")))]),
        ])
        run = pipeline.run()
        assert run.passed
        assert run.stage_results[1].job_results[0].detail == "42"

    def test_summary(self):
        run = Pipeline([Stage("s")]).run()
        assert "passed" in run.summary()


class TestRepository:
    def _record(self, req_id="R-1", **fields):
        fields.setdefault("source", "resa")
        return RequirementRecord(Requirement(
            rid=req_id, title=req_id, text="The system shall log.",
            **fields))

    def test_add_and_lookup(self):
        repository = RequirementRepository()
        repository.add(self._record())
        assert "R-1" in repository
        assert repository.get("R-1").ir.text == "The system shall log."
        assert len(repository) == 1

    def test_duplicate_id_rejected(self):
        repository = RequirementRepository()
        repository.add(self._record())
        with pytest.raises(ValueError):
            repository.add(self._record())

    def test_lifecycle_is_monotone(self):
        record = self._record()
        record.advance_to(RequirementStatus.ANALYZED)
        record.advance_to(RequirementStatus.FORMALIZED)
        with pytest.raises(ValueError):
            record.advance_to(RequirementStatus.ELICITED)

    def test_advance_to_same_status_allowed(self):
        record = self._record()
        record.advance_to(RequirementStatus.ELICITED)
        assert record.status is RequirementStatus.ELICITED

    def test_queries(self):
        repository = RequirementRepository()
        repository.add(self._record("R-2", source="rqcode"))
        repository.add(self._record("R-1", formalization=(
            Formalization.from_objects(Absence("p"), Globally()))))
        assert [ir.rid for ir in repository.irs()] == ["R-1", "R-2"]
        assert [r.ir.rid for r in repository.formalized()] == ["R-1"]
        assert [requirement_source(ir) for ir in repository.irs()] == [
            RequirementSource.NATURAL_LANGUAGE, RequirementSource.STANDARD]

    def test_status_histogram_and_rows(self):
        repository = RequirementRepository()
        repository.add(self._record())
        histogram = repository.status_histogram()
        assert histogram["elicited"] == 1
        rows = repository.traceability_rows()
        assert rows[0]["req"] == "R-1"
        assert rows[0]["pattern"] == "-"
        assert rows[0]["trace"] == "-"      # no provenance, no chain

    def test_trace_column_commits_to_provenance_chain(self):
        repository = RequirementRepository()
        record = self._record(
            provenance=(Provenance("cve", "CVE-2024-0001"),))
        repository.add(record)
        row = repository.traceability_rows()[0]
        chain = record.ir.provenance_chain_digest()
        assert row["trace"] == chain[:12]
        # The digest commits to the source: a different provenance
        # yields a different trace cell.
        repository.add(self._record(
            "R-2", provenance=(Provenance("cve", "CVE-2024-0002"),)))
        rows = repository.traceability_rows()
        assert rows[0]["trace"] != rows[1]["trace"]
