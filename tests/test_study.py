"""The shared study layer: checkpoints, pool fan-out and the HTML kit.

``repro.runtime.study`` owns the checkpoint format both runners write;
these tests hold its failure modes once, parametrized over the
campaign and DSE runners, and pin the serial/pooled equivalence of
:func:`~repro.runtime.study.fan_out`.
"""

from __future__ import annotations

import json
import os
from html.parser import HTMLParser

import pytest

from repro.campaigns import CampaignRunner, FaultloadSpec
from repro.cli import main
from repro.dse import DseRunner, DseSpec
from repro.obs.html import line_chart, page, table
from repro.runtime.study import (CheckpointMismatchError, atomic_write_json,
                                 fan_out)

#: (runner class, sub-second spec, stop kwarg, CLI argv prefix).
STUDIES = [
    pytest.param(CampaignRunner,
                 FaultloadSpec(name="tiny", scope="msr",
                               fault_model="bit_flip", samples=2, seed=3,
                               offsets_v=(-0.080, -0.140), n_ops=60),
                 "stop_after", ["campaign", "resume"], id="campaign"),
    pytest.param(DseRunner,
                 DseSpec(name="tiny", generations=2, population=4, seed=2,
                         deadlines_us=(20.0, 50.0),
                         offsets_mv=(-70.0, -97.0)),
                 "stop_after_generations", ["dse", "resume"], id="dse"),
]

CORRUPTIONS = {
    "truncated": lambda text: text[:len(text) // 2],
    "not-json": lambda text: "\x00garbage",
    "not-an-object": lambda text: "[1, 2]\n",
}


def _interrupted(runner_cls, spec, stop_kwarg, out):
    runner_cls(spec, out_dir=out).run(**{stop_kwarg: 1})
    return out / runner_cls.CKPT_NAME


@pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
@pytest.mark.parametrize("runner_cls,spec,stop_kwarg,argv", STUDIES)
class TestCorruptCheckpoint:
    def test_resume_names_the_file(self, tmp_path, runner_cls, spec,
                                   stop_kwarg, argv, corrupt):
        path = _interrupted(runner_cls, spec, stop_kwarg, tmp_path)
        path.write_text(CORRUPTIONS[corrupt](path.read_text()))
        with pytest.raises(CheckpointMismatchError, match="unreadable") \
                as err:
            runner_cls(spec, out_dir=tmp_path).run(resume=True)
        assert str(path) in str(err.value)
        with pytest.raises(CheckpointMismatchError, match=str(path)):
            runner_cls.load_checkpoint_spec(tmp_path)

    def test_cli_exits_with_one_line(self, tmp_path, runner_cls, spec,
                                     stop_kwarg, argv, corrupt):
        path = _interrupted(runner_cls, spec, stop_kwarg, tmp_path)
        path.write_text(CORRUPTIONS[corrupt](path.read_text()))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_json_dict()))
        flag = "--spec" if argv[0] == "campaign" else "--search"
        for extra in ([], [flag, str(spec_path)]):
            with pytest.raises(SystemExit) as err:
                main(argv + ["--out", str(tmp_path)] + extra)
            message = str(err.value.code)
            assert str(path) in message and "\n" not in message


@pytest.mark.parametrize("runner_cls,spec,stop_kwarg,argv", STUDIES)
class TestCheckpointFormat:
    def test_schema_digest_and_spec_lead_the_payload(
            self, tmp_path, runner_cls, spec, stop_kwarg, argv):
        path = _interrupted(runner_cls, spec, stop_kwarg, tmp_path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == runner_cls.CKPT_SCHEMA
        assert payload["spec_digest"] == spec.digest()
        assert runner_cls.SPEC_TYPE.from_json_dict(payload["spec"]) == spec
        assert not path.with_suffix(path.suffix + ".tmp").exists()

    def test_unknown_schema_is_refused(self, tmp_path, runner_cls, spec,
                                       stop_kwarg, argv):
        path = _interrupted(runner_cls, spec, stop_kwarg, tmp_path)
        payload = json.loads(path.read_text())
        payload["schema"] = "something.else"
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointMismatchError, match="schema"):
            runner_cls(spec, out_dir=tmp_path).run(resume=True)

    def test_resume_of_a_finished_study_rewrites_identical_bytes(
            self, tmp_path, runner_cls, spec, stop_kwarg, argv):
        runner = runner_cls(spec, out_dir=tmp_path)
        runner.run()
        runner.write_outputs()
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        again = runner_cls(spec, out_dir=tmp_path)
        again.run(resume=True)
        again.write_outputs()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_atomic_write_replaces_whole_files(tmp_path):
    path = tmp_path / "x.json"
    atomic_write_json(path, {"b": 1, "a": [1, 2]})
    atomic_write_json(path, {"c": 3})
    assert path.read_text() == '{\n  "c": 3\n}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


def _square(x: int) -> int:
    return x * x


def _exit_on(x: int, bad: int) -> int:
    if x == bad:
        os._exit(3)  # a hard worker death, not an exception
    return x


class TestFanOut:
    def test_serial_and_pooled_paths_agree(self):
        tasks = [(i,) for i in range(6)]
        serial = list(fan_out(_square, tasks, jobs=1))
        assert serial == [(i, i * i) for i in range(6)]
        assert sorted(fan_out(_square, tasks, jobs=2)) == serial

    def test_no_tasks_yield_nothing(self):
        assert list(fan_out(_square, [], jobs=4)) == []

    def test_lost_workers_are_substituted_or_raised(self):
        tasks = [(i, 1) for i in range(3)]
        got = dict(fan_out(_exit_on, tasks, jobs=2,
                           on_lost=lambda i, exc: ("lost", i)))
        assert sorted(got) == [0, 1, 2]
        assert got[1] == ("lost", 1)
        with pytest.raises(Exception):
            list(fan_out(_exit_on, tasks, jobs=2))


class TestHtmlKit:
    def test_page_escapes_the_title_and_parses(self):
        text = page("<b>&", "<p>body</p>", "td { color: red; }")
        assert "<title>&lt;b&gt;&amp;</title>" in text
        assert "td { color: red; }" in text
        parser = HTMLParser()
        parser.feed(text)
        parser.close()

    def test_table_rows_and_classes(self):
        html = table(("a", "b"), [(1, "x"), (2, "y")], ["hot"])
        assert html == ("<table><thead><tr><th>a</th><th>b</th></tr></thead>"
                        '<tbody><tr class="hot"><td>1</td><td>x</td></tr>'
                        "<tr><td>2</td><td>y</td></tr></tbody></table>")

    def test_line_chart_clamps_into_the_plot(self):
        svg = line_chart("t", ["0", "1"], ["lo", "hi"], "x",
                         [("#000", [-1.0, 2.0])], width=100, height=100,
                         pad=10)
        assert 'points="10.0,90.0 90.0,10.0"' in svg
        assert svg.count("<circle") == 2
