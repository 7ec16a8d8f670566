"""Risk-aware wave planning: ``plan_waves(jobs, risk)`` and the serial
pipeline's risk re-ordering.

Satellite regression for the risk wiring: without a risk index the
planner (and the serial engine) are byte-identical to the historical
greedy form; with one, high-risk jobs run as early as their declared
conflicts allow and lead their wave.
"""

from repro.core import VeriDevOpsOrchestrator
from repro.core.pipeline import (
    Job,
    Pipeline,
    PipelineContext,
    Stage,
    plan_waves,
)
from repro.reqs.risk import RiskIndex, RiskScorer


class StubRisk:
    """score_for() from a plain dict — the full protocol the planner
    needs."""

    def __init__(self, scores):
        self.scores = scores

    def score_for(self, name, default=0.0):
        return self.scores.get(name, default)


def job(name, reads=(), writes=()):
    return Job(name, lambda context: name, reads=tuple(reads),
               writes=tuple(writes))


class TestPlanWavesWithoutRisk:
    def test_none_risk_matches_historical_greedy(self):
        jobs = [job("a", writes=["x"]), job("b", writes=["y"]),
                job("c", reads=["x"]), job("d", writes=["z"]),
                job("bar"), job("e", writes=["x"])]
        assert plan_waves(jobs) == plan_waves(jobs, None)
        waves = plan_waves(jobs)
        # Greedy flush: c conflicts with a -> new wave; bar is a solo
        # barrier; e restarts after it.
        assert [[j.name for j in wave] for wave in waves] \
            == [["a", "b"], ["c", "d"], ["bar"], ["e"]]


class TestPlanWavesWithRisk:
    def test_high_risk_job_leads_its_wave(self):
        jobs = [job("cold", writes=["x"]), job("hot", writes=["y"])]
        waves = plan_waves(jobs, StubRisk({"hot": 9.0, "cold": 1.0}))
        assert [[j.name for j in wave] for wave in waves] \
            == [["hot", "cold"]]

    def test_earliest_legal_wave_placement(self):
        # Greedy flushes "late" into the last wave because the a/b/c
        # chain kept forcing flushes; earliest-legal pulls it back to
        # wave 0, where nothing conflicts with it.
        jobs = [job("a", writes=["x"]), job("b", reads=["x"]),
                job("c", writes=["x"]), job("late", writes=["q"])]
        greedy = plan_waves(jobs)
        assert [[j.name for j in wave] for wave in greedy] \
            == [["a"], ["b"], ["c", "late"]]
        risky = plan_waves(jobs, StubRisk({"late": 5.0}))
        assert [[j.name for j in wave] for wave in risky] \
            == [["late", "a"], ["b"], ["c"]]

    def test_conflicts_still_respected(self):
        # A high score never lets a job jump its data dependencies.
        jobs = [job("produce", writes=["x"]),
                job("consume", reads=["x"])]
        waves = plan_waves(jobs, StubRisk({"consume": 99.0}))
        assert [[j.name for j in wave] for wave in waves] \
            == [["produce"], ["consume"]]

    def test_barriers_stay_solo_and_ordered(self):
        jobs = [job("a", writes=["x"]), job("bar"),
                job("b", writes=["y"])]
        waves = plan_waves(jobs, StubRisk({"b": 9.0}))
        assert [[j.name for j in wave] for wave in waves] \
            == [["a"], ["bar"], ["b"]]

    def test_ties_break_by_declaration_order(self):
        jobs = [job("first", writes=["x"]), job("second", writes=["y"])]
        waves = plan_waves(jobs, StubRisk({}))
        assert [j.name for j in waves[0]] == ["first", "second"]


class TestSerialPipelineRiskOrder:
    def make_pipeline(self, order):
        def record(name):
            def run(context):
                order.append(name)
            return run

        return Pipeline([Stage("s", jobs=[
            Job("cold", record("cold"), writes=("x",)),
            Job("hot", record("hot"), writes=("y",)),
        ])])

    def test_without_risk_declaration_order_is_untouched(self):
        order = []
        run = self.make_pipeline(order).run(PipelineContext())
        assert run.passed
        assert order == ["cold", "hot"]

    def test_risk_index_reorders_serial_execution(self):
        order = []
        context = PipelineContext()
        context.put("risk_index", StubRisk({"hot": 9.0}))
        run = self.make_pipeline(order).run(context)
        assert run.passed
        assert order == ["hot", "cold"]
        assert [r.name for r in run.stage_results[0].job_results] \
            == ["hot", "cold"]


class TestRunPreventionRiskPlumbing:
    def test_risk_lands_in_context_and_run_passes(self):
        from repro.environment import hardened_ubuntu_host

        orchestrator = VeriDevOpsOrchestrator()
        orchestrator.ingest_standards("ubuntu")
        index = RiskIndex(RiskScorer(fleet_size=1))
        for record in orchestrator.repository.all():
            index.put(record.ir.rid, 1.0)
        run = orchestrator.run_prevention(
            [hardened_ubuntu_host("risky-00")], risk=index)
        assert run.passed
        assert run.context.get("risk_index") is index
