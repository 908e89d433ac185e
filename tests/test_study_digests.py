"""Frozen study artifacts: campaign and DSE outputs through the CLI.

``tests/fixtures/study_digests.json`` pins, for a small campaign and
the quick DSE search, the sha256 of the JSON report, the checkpoint,
the ``index.html`` body (everything after ``</head>``, so the shared
stylesheet may change) and the CLI's stdout (artifact paths replaced
by ``OUT``).  Each study runs twice: uninterrupted, and interrupted
then resumed.  Any change to a report schema, checkpoint layout,
dashboard body or summary line shows up here as a changed digest.

Regenerate (only for an intended change of study outputs)::

    PYTHONPATH=src python -m tests.test_study_digests
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path
from typing import Dict, List

from repro.cli import main

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "study_digests.json"

#: (name, subcommand, artifact names, argv runs).  Every run after the
#: first continues the same ``--out`` directory.
STUDIES = (
    ("campaign", "campaign",
     ("campaign_report.json", "campaign.ckpt.json", "index.html"),
     [["run", "--spec", "msr_bitflip_nginx", "--seed", "42",
       "--samples", "1"]]),
    ("campaign-resumed", "campaign",
     ("campaign_report.json", "campaign.ckpt.json", "index.html"),
     [["run", "--spec", "msr_bitflip_nginx", "--seed", "42",
       "--samples", "1", "--max-runs", "2"],
      ["resume"]]),
    ("dse", "dse",
     ("dse_report.json", "dse.ckpt.json", "index.html"),
     [["run", "--search", "nginx_quick"]]),
    ("dse-resumed", "dse",
     ("dse_report.json", "dse.ckpt.json", "index.html"),
     [["run", "--search", "nginx_quick", "--max-generations", "1"],
      ["resume"]]),
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(command: str, argv: List[str], out: Path) -> str:
    """stdout of one CLI invocation, with the artifact path masked."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main([command, *argv, "--out", str(out)]) == 0
    return buffer.getvalue().replace(str(out), "OUT")


def compute() -> Dict[str, str]:
    """Digest of every artifact and stdout of every study run."""
    digests: Dict[str, str] = {}
    for name, command, artifacts, runs in STUDIES:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            for i, argv in enumerate(runs):
                digests[f"{name}/stdout.{i}"] = _sha(_run(command, argv, out))
            for artifact in artifacts:
                text = (out / artifact).read_text(encoding="utf-8")
                if artifact.endswith(".html"):
                    text = text.split("</head>", 1)[1]
                digests[f"{name}/{artifact}"] = _sha(text)
    return digests


def test_study_artifacts_match_frozen_digests():
    expected = json.loads(FIXTURE.read_text())
    got = compute()
    drifted = sorted(k for k in expected if got.get(k) != expected[k])
    assert not drifted, f"study outputs changed in: {drifted}"
    assert sorted(got) == sorted(expected)


def test_resumed_studies_equal_uninterrupted_ones():
    expected = json.loads(FIXTURE.read_text())
    for name in ("campaign", "dse"):
        for key, value in expected.items():
            if key.startswith(f"{name}/") and "stdout" not in key:
                artifact = key.split("/", 1)[1]
                assert expected[f"{name}-resumed/{artifact}"] == value, key


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
