"""Unit tests for the fault-injection campaign subsystem.

The outcome classifier (all five classes, including the edges the ISSUE
calls out: degraded-but-correct is NOT silent data corruption, and a
SecurityMonitor trip wins over SDC), the faultload spec machinery, the
plan expansion, the runner's checkpoint semantics and the HTML report
builder.
"""

from __future__ import annotations

import json
from html.parser import HTMLParser

import pytest

from repro.campaigns import (CANNED_CAMPAIGNS, CampaignRunner,
                             CheckpointMismatchError, FaultloadSpec,
                             HTML_NAME, OUTCOMES, REPORT_NAME, ReportBuilder,
                             classify_pair, classify_run, canned_campaign,
                             expand, load_checkpoint_spec, load_spec,
                             resolve_spec, tally)
from repro.campaigns.plan import trapped_mask_order
from repro.campaigns.spec import MSR_TARGET_WIDTHS


def summary(digest="aa", duration=100.0, energy=50.0, n_traps=3,
            n_timer_returns=3, violations=0):
    return {"digest": digest, "duration_cycles": duration, "energy": energy,
            "n_traps": n_traps, "n_timer_returns": n_timer_returns,
            "n_fault_events": 0, "violations": violations, "observed": 10}


#: A spec small enough for in-test execution (8 runs, 60 events each).
TINY = FaultloadSpec(name="tiny", scope="msr", fault_model="bit_flip",
                     samples=4, seed=3, offsets_v=(-0.080, -0.140),
                     n_ops=60)


class TestClassifier:
    def test_masked_when_identical(self):
        assert classify_pair(summary(), summary()) == "masked"

    def test_degraded_on_duration_shift(self):
        assert classify_pair(summary(),
                             summary(duration=140.0)) == "degraded"

    def test_degraded_on_trap_count_shift(self):
        assert classify_pair(summary(), summary(n_traps=9)) == "degraded"

    def test_degraded_on_energy_shift(self):
        assert classify_pair(summary(), summary(energy=61.0)) == "degraded"

    def test_degraded_but_correct_is_not_sdc(self):
        # The ISSUE's edge: slower and hungrier, but every result bit
        # correct — a quality loss, never silent data corruption.
        slow = summary(duration=400.0, energy=300.0, n_traps=20,
                       n_timer_returns=1)
        assert classify_pair(summary(), slow) == "degraded"

    def test_sdc_on_digest_mismatch(self):
        assert classify_pair(summary(), summary(digest="bb")) == "sdc"

    def test_monitor_trip_wins_over_sdc(self):
        # The ISSUE's edge: corrupted results AND a tripped invariant
        # monitor — the system saw it, so it is detected, not silent.
        corrupted = summary(digest="bb", violations=4)
        assert classify_pair(summary(), corrupted) == "detected"

    def test_detected_without_corruption(self):
        assert classify_pair(summary(),
                             summary(violations=2)) == "detected"

    def test_baseline_violations_are_subtracted(self):
        # A chip whose baseline already violates (deep undervolt near
        # the hardened-IMUL margin) must not mark every faulted run
        # detected: only NEW violations count.
        assert classify_pair(summary(violations=2),
                             summary(violations=2)) == "masked"

    def test_crashed_status(self):
        assert classify_run({"status": "crashed", "faulted": None}) == "crashed"

    def test_ok_status_delegates_to_pair(self):
        outcome = {"status": "ok", "baseline": summary(),
                   "faulted": summary(digest="bb")}
        assert classify_run(outcome) == "sdc"

    def test_tally_zero_fills_every_class(self):
        counts = tally(["sdc", "masked", "sdc"])
        assert counts == {"crashed": 0, "detected": 0, "sdc": 2,
                          "degraded": 0, "masked": 1}
        assert list(counts) == list(OUTCOMES)

    def test_tally_rejects_unknown_labels(self):
        with pytest.raises(ValueError, match="unknown outcome"):
            tally(["exploded"])


class TestSpec:
    def test_validation_rejects_unknown_scope(self):
        with pytest.raises(ValueError, match="unknown scope"):
            FaultloadSpec(name="x", scope="ram", fault_model="bit_flip")

    def test_validation_rejects_model_scope_mismatch(self):
        with pytest.raises(ValueError, match="invalid for scope"):
            FaultloadSpec(name="x", scope="vmin", fault_model="bit_flip")

    def test_validation_rejects_positive_offsets(self):
        with pytest.raises(ValueError, match="negative"):
            FaultloadSpec(name="x", scope="msr", fault_model="bit_flip",
                          offsets_v=(0.05,))

    def test_validation_rejects_unknown_msr_targets(self):
        with pytest.raises(ValueError, match="unknown MSR target"):
            FaultloadSpec(name="x", scope="msr", fault_model="bit_flip",
                          targets=("SUIT_TURBO",))

    def test_json_round_trip(self):
        spec = CANNED_CAMPAIGNS["vmin_drift_nginx"]
        assert FaultloadSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_unknown_json_field_fails_loudly(self):
        payload = TINY.to_json_dict()
        payload["sample"] = 9  # typo of "samples"
        with pytest.raises(ValueError, match="unknown spec field"):
            FaultloadSpec.from_json_dict(payload)

    def test_digest_pins_content(self):
        assert TINY.digest() == TINY.digest()
        assert TINY.digest() != TINY.with_overrides(seed=4).digest()

    def test_load_spec_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(TINY.to_json_dict()))
        assert load_spec(path) == TINY

    def test_load_spec_toml(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "spec.toml"
        path.write_text(
            '[campaign]\nname = "t"\nscope = "injector"\n'
            'fault_model = "bit_flip"\nsamples = 2\n'
            'offsets_v = [-0.05]\nflip_rate = 0.01\n')
        spec = load_spec(path)
        assert spec.name == "t" and spec.scope == "injector"

    def test_resolve_spec_canned_and_unknown(self):
        assert resolve_spec("msr_bitflip_nginx") is \
            CANNED_CAMPAIGNS["msr_bitflip_nginx"]
        with pytest.raises(ValueError, match="unknown canned campaign"):
            canned_campaign("warp_core_breach")


class TestPlanExpansion:
    def test_matrix_size_and_offset_major_order(self):
        plans = expand(TINY)
        assert len(plans) == TINY.n_runs
        assert [p.index for p in plans] == list(range(TINY.n_runs))
        assert [p.offset_v for p in plans[:TINY.samples]] == \
            [TINY.offsets_v[0]] * TINY.samples

    def test_msr_bits_within_target_width(self):
        for plan in expand(TINY):
            for injection in plan.injections:
                assert 0 <= injection.bit < \
                    MSR_TARGET_WIDTHS[injection.target]

    def test_vmin_unknown_target_rejected_eagerly(self):
        spec = FaultloadSpec(name="x", scope="vmin", fault_model="drift",
                             targets=("WARP",))
        with pytest.raises(ValueError, match="unknown faultable opcode"):
            expand(spec)

    def test_mask_order_is_the_trapped_set(self):
        from repro.isa.faultable import TRAPPED_OPCODES

        order = trapped_mask_order()
        assert len(order) == len(TRAPPED_OPCODES)
        assert list(order) == sorted(order)


class TestRunner:
    def test_checkpoint_written_and_resumed(self, tmp_path):
        runner = CampaignRunner(TINY, out_dir=tmp_path)
        runner.run(stop_after=3)
        assert (tmp_path / "campaign.ckpt.json").exists()
        assert len(runner.results) == 3
        resumed = CampaignRunner(TINY, out_dir=tmp_path)
        report = resumed.run(resume=True)
        assert report["n_completed"] == TINY.n_runs
        assert report["incomplete"] == []

    def test_resume_refuses_foreign_checkpoint(self, tmp_path):
        CampaignRunner(TINY, out_dir=tmp_path).run(stop_after=1)
        other = CampaignRunner(TINY.with_overrides(seed=99),
                               out_dir=tmp_path)
        with pytest.raises(CheckpointMismatchError, match="different"):
            other.run(resume=True)

    def test_load_checkpoint_spec_round_trips(self, tmp_path):
        CampaignRunner(TINY, out_dir=tmp_path).run(stop_after=1)
        assert load_checkpoint_spec(tmp_path) == TINY

    def test_outputs_written_and_html_parses(self, tmp_path):
        runner = CampaignRunner(TINY, out_dir=tmp_path)
        runner.run()
        report = runner.write_outputs()
        on_disk = json.loads((tmp_path / REPORT_NAME).read_text())
        assert on_disk == report
        html = (tmp_path / HTML_NAME).read_text()
        parser = HTMLParser()
        parser.feed(html)
        parser.close()
        assert TINY.name in html

    def test_runs_counter_incremented(self):
        from repro.obs import get_registry

        counter = get_registry().counter(
            "campaign_runs_total", label_names=("outcome",))
        before = sum(counter.value(outcome=o) for o in OUTCOMES)
        CampaignRunner(TINY.with_overrides(samples=1,
                                           offsets_v=(-0.08,))).run()
        after = sum(counter.value(outcome=o) for o in OUTCOMES)
        assert after == before + 1

    def test_report_is_pure_function_of_results(self, tmp_path):
        runner = CampaignRunner(TINY, out_dir=tmp_path)
        runner.run()
        assert runner.build_report() == runner.build_report()


class TestReportBuilder:
    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="unsupported report schema"):
            ReportBuilder({"schema": "something.else"})

    def test_escapes_untrusted_text(self):
        runner = CampaignRunner(TINY)
        report = runner.run()
        report["runs"][0]["injections"] = ["<script>alert(1)</script>"]
        html = ReportBuilder(report).render()
        assert "<script>" not in html
        assert "&lt;script&gt;" in html

    def test_renders_rate_curve_for_canned_campaigns(self):
        # Acceptance criterion: the dashboard renders SDC rate vs
        # undervolt depth for both canned campaigns (one polyline per
        # rate series, one x-axis label per depth grid point).
        for name in ("msr_bitflip_nginx", "vmin_drift_nginx"):
            spec = CANNED_CAMPAIGNS[name].with_overrides(samples=2, n_ops=60)
            html = ReportBuilder(CampaignRunner(spec).run()).render()
            assert html.count("<polyline") == 3  # sdc, detected, crashed
            for offset in spec.offsets_v:
                assert f"{abs(offset) * 1e3:g}" in html


class TestCli:
    """``python -m repro campaign ...`` end to end (the canned MSR
    campaign at one sample per depth, sub-second)."""

    RUN = ["campaign", "run", "--spec", "msr_bitflip_nginx", "--seed", "42",
           "--samples", "1"]

    def test_run_writes_artifacts_and_summary(self, tmp_path, capsys):
        from repro.cli import main

        assert main(self.RUN + ["--out", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "campaign   : msr_bitflip_nginx" in text
        assert "outcomes   :" in text
        assert f"artifacts  : {tmp_path / REPORT_NAME}" in text
        assert "incomplete" not in text
        report = json.loads((tmp_path / REPORT_NAME).read_text())
        assert report["n_completed"] == report["n_runs"]
        assert (tmp_path / HTML_NAME).exists()

    def test_interrupted_run_resumes_to_the_full_report(self, tmp_path,
                                                         capsys):
        from repro.cli import main

        full = tmp_path / "full"
        assert main(self.RUN + ["--out", str(full)]) == 0
        part = tmp_path / "part"
        assert main(self.RUN + ["--out", str(part), "--max-runs", "2"]) == 0
        text = capsys.readouterr().out
        assert "(2/" in text and "incomplete :" in text
        assert main(["campaign", "resume", "--out", str(part)]) == 0
        assert "incomplete" not in capsys.readouterr().out
        for name in (REPORT_NAME, "campaign.ckpt.json", HTML_NAME):
            assert (part / name).read_bytes() == (full / name).read_bytes()

    def test_report_rerenders_the_identical_dashboard(self, tmp_path,
                                                      capsys):
        from repro.cli import main

        assert main(self.RUN + ["--out", str(tmp_path)]) == 0
        original = (tmp_path / HTML_NAME).read_bytes()
        (tmp_path / HTML_NAME).unlink()
        assert main(["campaign", "report", "--out", str(tmp_path)]) == 0
        assert f"wrote {tmp_path / HTML_NAME}" in capsys.readouterr().out
        assert (tmp_path / HTML_NAME).read_bytes() == original

    def test_list_names_the_canned_campaigns(self, capsys):
        from repro.cli import main

        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        for name in CANNED_CAMPAIGNS:
            assert name in out

    def test_resume_with_another_seed_fails_loudly(self, tmp_path):
        from repro.cli import main

        assert main(self.RUN + ["--out", str(tmp_path),
                                "--max-runs", "1"]) == 0
        with pytest.raises(SystemExit, match="different"):
            main(["campaign", "resume", "--out", str(tmp_path),
                  "--seed", "43"])

    def test_report_without_a_report_fails_loudly(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["campaign", "report", "--out", str(tmp_path)])
