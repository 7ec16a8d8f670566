"""Unit tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestAudit:
    def test_hardened_profile_exits_zero(self):
        code, output = run_cli("audit", "--profile", "ubuntu-hardened")
        assert code == 0
        assert "14/14 passing" in output

    def test_default_profile_exits_nonzero(self):
        code, output = run_cli("audit", "--profile", "ubuntu-default")
        assert code == 1
        assert "FAIL" in output

    def test_unknown_profile_aborts(self):
        with pytest.raises(SystemExit):
            run_cli("audit", "--profile", "solaris")


class TestHarden:
    def test_adversarial_profile_remediated(self):
        code, output = run_cli("harden", "--profile", "ubuntu-adversarial")
        assert code == 0
        assert "14 remediated" in output

    def test_windows_adversarial(self):
        code, output = run_cli("harden", "--profile", "win10-adversarial")
        assert code == 0
        assert "12 remediated" in output


class TestSmells:
    CSV = (
        "REQ ID,Text\n"
        "R1,The system shall lock the account after 3 attempts.\n"
        "R2,The system may be adequate where possible.\n"
    )

    def test_flags_smelly_rows(self, tmp_path):
        csv_path = tmp_path / "reqs.csv"
        csv_path.write_text(self.CSV)
        code, output = run_cli("smells", str(csv_path))
        assert code == 1  # 1/2 smelly > default 0.2 ratio
        assert "vagueness" in output
        assert "1/2 requirements smelly" in output

    def test_threshold_can_be_relaxed(self, tmp_path):
        csv_path = tmp_path / "reqs.csv"
        csv_path.write_text(self.CSV)
        code, _ = run_cli("smells", str(csv_path),
                          "--max-smelly-ratio", "0.6")
        assert code == 0


class TestFormalize:
    def test_timed_conditional(self):
        code, output = run_cli(
            "formalize",
            "When intrusion is detected, the gateway shall alert the "
            "operator within 5 seconds.")
        assert code == 0
        assert "boilerplate: B4" in output
        assert "A<>[0,5]" in output

    def test_prose_fails(self):
        code, output = run_cli("formalize", "security is nice to have")
        assert code == 1
        assert "no boilerplate match" in output


class TestScan:
    def test_vulnerable_inventory(self):
        code, output = run_cli(
            "scan", "--product", "bash=4.3", "--product", "openssl=1.0.1f")
        assert code == 0
        assert "requirements" in output
        assert "CVE-" in output

    def test_fail_on_findings(self):
        code, _ = run_cli(
            "scan", "--product", "bash=4.3", "--fail-on-findings")
        assert code == 1

    def test_patched_inventory_clean(self):
        code, output = run_cli(
            "scan", "--product", "bash=5.2", "--fail-on-findings")
        assert code == 0
        assert "0 requirements" in output

    def test_bad_product_spec_aborts(self):
        with pytest.raises(SystemExit):
            run_cli("scan", "--product", "bash")


class TestPipeline:
    def test_default_host_pipeline_passes(self):
        code, output = run_cli("pipeline", "--profile", "ubuntu-default")
        assert code == 0
        assert "pipeline passed" in output
        assert "stig-compliance" in output

    def test_extra_requirements_flow_in(self):
        code, output = run_cli(
            "pipeline", "--profile", "ubuntu-default",
            "--requirement",
            "The audit subsystem shall not transmit passwords.")
        assert code == 0

    def test_smelly_extra_requirement_fails_gate(self):
        code, output = run_cli(
            "pipeline", "--profile", "ubuntu-default",
            "--requirement", "The system may be adequate where possible.",
            "--requirement", "It could possibly react in a timely manner.",
            "--requirement", "Behaviour should be as good as possible.",
            "--requirement", "Results may be satisfactory if practical.",
            "--requirement", "Users might find it nice and friendly.",
            "--requirement", "Optionally it can be robust and flexible.",
            "--requirement", "Possibly it might be efficient and simple.",
            "--requirement", "Where possible it may remain adequate.",
        )
        assert code == 1
        assert "requirements-quality" in output

    def test_json_output_is_pure_json(self):
        import json

        code, output = run_cli(
            "pipeline", "--profile", "ubuntu-default", "--json")
        assert code == 0
        document = json.loads(output)  # parses as-is: pipeable to jq
        assert document["passed"] is True
        assert document["cache"] is None
        assert any(row["gate"] == "verification"
                   for row in document["gates"])

    def test_cache_cold_then_warm(self, tmp_path):
        import json

        cache_dir = str(tmp_path / "vcache")
        code, output = run_cli(
            "pipeline", "--profile", "ubuntu-default", "--json",
            "--cache", cache_dir)
        assert code == 0
        cold = json.loads(output)["cache"]
        assert cold["misses"] > 0
        assert cold["hits"] == 0
        assert cold["stores"] == cold["misses"]

        code, output = run_cli(
            "pipeline", "--profile", "ubuntu-default", "--json",
            "--cache", cache_dir)
        assert code == 0
        warm = json.loads(output)["cache"]
        # A warm re-run performs zero model-checking calls.
        assert warm["misses"] == 0
        assert warm["invalidations"] == 0
        assert warm["hits"] == cold["misses"]

    def test_jobs_flag_runs_parallel_pipeline(self):
        code, output = run_cli(
            "pipeline", "--profile", "ubuntu-default", "--jobs", "4")
        assert code == 0
        assert "pipeline passed" in output

    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit, match="--jobs"):
            run_cli("pipeline", "--jobs", "0")

    def test_cache_stats_in_text_output(self, tmp_path):
        code, output = run_cli(
            "pipeline", "--profile", "ubuntu-default",
            "--cache", str(tmp_path))
        assert code == 0
        assert "verification cache:" in output
        assert "misses=6" in output

    def test_json_cache_entries_count_the_store(self, tmp_path):
        import json

        from tests.verdict_store import open_store

        shared = tmp_path / "shared"
        other = open_store(tmp_path / "other", shared=shared)
        other.store("someone-elses-task", "fp", {"satisfied": True})
        other.save()
        code, output = run_cli(
            "pipeline", "--profile", "ubuntu-default", "--json",
            "--cache", str(tmp_path / "local"),
            "--shared-cache", str(shared))
        assert code == 0
        entries = json.loads(output)["cache"]["entries"]
        assert entries == len(open_store(
            tmp_path / "local", shared=shared))
        assert entries == 7       # six bundled tasks + the other writer's


class TestSoc:
    def test_drift_scenario_runs_end_to_end(self):
        code, output = run_cli(
            "soc", "--hosts", "4", "--shards", "2", "--drifts", "6",
            "--seed", "3")
        assert code == 0
        assert "SOC run over 4 hosts / 2 shards" in output
        assert "-- incidents --" in output
        assert "events_ingested" in output
        assert "posture after run: worst 100%" in output

    def test_seed_makes_incidents_reproducible(self):
        # Queue-lag numbers vary with thread timing, but the incident
        # set (and exit code) must be a pure function of the seed.
        def incidents_section(output):
            return output.split("-- incidents --")[1] \
                .split("-- shards --")[0]

        args = ("soc", "--hosts", "3", "--shards", "2", "--drifts", "5",
                "--seed", "11")
        first_code, first_out = run_cli(*args)
        second_code, second_out = run_cli(*args)
        assert first_code == second_code == 0
        assert incidents_section(first_out) == incidents_section(second_out)

    def test_policy_flag_is_validated(self):
        with pytest.raises(SystemExit):
            run_cli("soc", "--policy", "bogus")

    def test_all_ubuntu_fleet(self):
        code, output = run_cli(
            "soc", "--hosts", "3", "--windows-every", "0",
            "--drifts", "4", "--shards", "1")
        assert code == 0
        assert "win-" not in output

    def test_unrepaired_fleet_exits_nonzero(self, tmp_path):
        # A chaos plan whose repairs always raise leaves the fleet
        # non-compliant; the CLI must fail the job, not shrug.
        plan_path = tmp_path / "plan.json"
        plan_path.write_text('{"seed": 1, "repair_raise": 1.0}')
        code, output = run_cli(
            "soc", "--hosts", "2", "--windows-every", "0",
            "--drifts", "2", "--shards", "1",
            "--chaos-plan", str(plan_path))
        assert code == 1
        assert "chaos plan: seed 1: repair.raise=1" in output
        assert "reconcile:" in output
        assert "worst 100%" not in output

    def test_chaos_plan_reconciles_and_reports_digest(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            '{"seed": 5, "session_error": 1.0, "max_deliveries": 1}')
        code, output = run_cli(
            "soc", "--hosts", "2", "--windows-every", "0",
            "--drifts", "3", "--shards", "2",
            "--chaos-plan", str(plan_path))
        # Every event dead-letters, but the reconcile sweep restores
        # full compliance: exit zero.
        assert code == 0
        assert "decisions digest" in output
        assert "-- degradation --" in output
        assert "posture after run: worst 100%" in output

    def test_json_report_round_trips(self, tmp_path):
        import json

        plan_path = tmp_path / "plan.json"
        plan_path.write_text('{"seed": 2, "event_duplicate": 0.5}')
        code, output = run_cli(
            "soc", "--hosts", "2", "--windows-every", "0",
            "--drifts", "3", "--shards", "1", "--json",
            "--chaos-plan", str(plan_path))
        assert code == 0
        # --json stdout is the document alone (status lines go to
        # stderr), so it must parse as-is — pipeable to jq.
        document = json.loads(output)
        # Lossless round trip through json, and self-consistent.
        assert json.loads(json.dumps(document)) == document
        assert document["hosts"] == 2
        assert document["events"]["offered"] == \
            document["events"]["ingested"] + document["events"]["rejected"]
        assert document["chaos"]["plan"]["seed"] == 2
        assert len(document["chaos"]["decisions_digest"]) == 64

    def test_malformed_chaos_plan_rejected_with_usable_error(self,
                                                             tmp_path):
        plan_path = tmp_path / "bad.json"
        plan_path.write_text('{"worker_crash": 7}')
        with pytest.raises(SystemExit) as excinfo:
            run_cli("soc", "--chaos-plan", str(plan_path))
        message = str(excinfo.value)
        assert "invalid chaos plan" in message
        assert "worker_crash" in message

    def test_unknown_chaos_field_named_in_error(self, tmp_path):
        plan_path = tmp_path / "bad.json"
        plan_path.write_text('{"disk_full": 0.5}')
        with pytest.raises(SystemExit, match="disk_full"):
            run_cli("soc", "--chaos-plan", str(plan_path))

    def test_unreadable_chaos_plan_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read chaos plan"):
            run_cli("soc", "--chaos-plan", str(tmp_path / "missing.json"))

    def test_process_backend_runs_end_to_end(self):
        code, output = run_cli(
            "soc", "--hosts", "3", "--shards", "2", "--drifts", "4",
            "--seed", "3", "--backend", "process")
        assert code == 0
        assert "posture after run: worst 100%" in output

    def test_backend_flag_is_validated(self):
        with pytest.raises(SystemExit):
            run_cli("soc", "--backend", "fiber")

    def test_process_backend_rejects_drop_oldest(self):
        with pytest.raises(SystemExit, match="drop-oldest"):
            run_cli("soc", "--backend", "process",
                    "--policy", "drop-oldest")

    def test_backend_env_var_is_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOC_BACKEND", "process")
        code, output = run_cli(
            "soc", "--hosts", "2", "--windows-every", "0",
            "--drifts", "2", "--shards", "1")
        assert code == 0
        assert "posture after run: worst 100%" in output


class TestGap:
    def test_hardened_full_coverage(self):
        code, output = run_cli("gap", "--profile", "ubuntu-hardened",
                               "--level", "2")
        assert code == 0
        assert "coverage (evidenced SRs): 100%" in output
        assert "UNMAPPED" in output  # gaps stay visible

    def test_default_profile_has_gaps(self):
        code, output = run_cli("gap", "--profile", "ubuntu-default")
        assert code == 1
        assert "UNSATISFIED" in output or "PARTIAL" in output


class TestReport:
    def test_report_to_stdout(self):
        code, output = run_cli("report", "--profile", "ubuntu-default")
        assert code == 0
        assert "# ubuntu-default security report" in output
        assert "## Pipeline: PASSED" in output

    def test_report_to_file(self, tmp_path):
        target = tmp_path / "report.md"
        code, output = run_cli("report", "--profile", "ubuntu-default",
                               "--output", str(target))
        assert code == 0
        assert target.exists()
        assert "## Requirements" in target.read_text()


class TestCacheTiers:
    def test_shared_cache_warms_a_fresh_machine(self, tmp_path):
        import json

        shared = str(tmp_path / "shared")
        code, output = run_cli(
            "pipeline", "--profile", "ubuntu-default", "--json",
            "--cache", str(tmp_path / "ci-run-1"), "--shared-cache", shared)
        assert code == 0
        cold = json.loads(output)
        assert cold["cache"]["misses"] > 0
        assert cold["cache_tiers"] == ["memory", "remote"]
        assert not (tmp_path / "ci-run-1").exists()

        # A *different* machine (fresh process) re-runs: every
        # verdict comes off the shared remote, zero model-checking.
        code, output = run_cli(
            "pipeline", "--profile", "ubuntu-default", "--json",
            "--cache", str(tmp_path / "ci-run-2"), "--shared-cache", shared)
        assert code == 0
        warm = json.loads(output)["cache"]
        assert warm["misses"] == 0
        assert warm["remote_hits"] == cold["cache"]["misses"]

    def test_cache_alone_persists_to_the_local_tier(self, tmp_path):
        import json

        code, output = run_cli(
            "pipeline", "--profile", "ubuntu-default", "--json",
            "--cache", str(tmp_path))
        assert code == 0
        document = json.loads(output)
        assert document["cache_tiers"] == ["memory", "local"]
        assert "migrated" not in document["cache"]
        assert sorted((tmp_path / "cas" / "buckets").glob("*.json"))

    def test_shared_only_run_makes_no_temp_directory(self, tmp_path,
                                                     monkeypatch):
        import json
        import tempfile

        made = []
        mkdtemp = tempfile.mkdtemp

        def counting_mkdtemp(*args, **kwargs):
            made.append(args)
            return mkdtemp(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkdtemp", counting_mkdtemp)
        code, output = run_cli(
            "pipeline", "--profile", "ubuntu-default", "--json",
            "--shared-cache", str(tmp_path / "shared"))
        assert code == 0
        assert json.loads(output)["cache_tiers"] == ["memory", "remote"]
        assert made == []


class TestPreventionFleet:
    def test_fleet_json_reports_warm_hit_rate(self, tmp_path):
        import json

        code, output = run_cli(
            "prevention", "fleet", "--runs", "3", "--json",
            "--workdir", str(tmp_path))
        assert code == 0
        document = json.loads(output)
        assert document["runs"] == 3
        assert document["passed"] is True
        assert document["verdicts_identical"] is True
        assert document["warm_hit_rate"] >= 0.9
        assert document["latency_s"]["p50"] <= document["latency_s"]["max"]
        for row in document["per_run"]:
            assert row["misses"] == 0

    def test_fleet_text_output(self, tmp_path):
        code, output = run_cli(
            "prevention", "fleet", "--runs", "2",
            "--workdir", str(tmp_path))
        assert code == 0
        assert "warm-hit rate" in output

    def test_fleet_runs_must_be_positive(self, tmp_path):
        with pytest.raises(SystemExit, match="--runs"):
            run_cli("prevention", "fleet", "--runs", "0",
                    "--workdir", str(tmp_path))
