"""The golden-value regression harness.

Every module in :data:`EXPERIMENT_MODULES` has a snapshot under
``tests/goldens/`` pinning each metric's fast-mode value at its derived
seed.  This suite re-runs every experiment and fails if any reproduced
metric drifts beyond its stored tolerance — the whole paper
reproduction as a single regression gate.

The handful of genuinely slow experiments carry ``@pytest.mark.slow``
and are excluded from the default run (``-m "not slow"`` is in
``addopts``); run them with ``pytest -m slow`` or ``make test-all``.

Regenerate snapshots after an intentional change with::

    python -m repro.runtime.goldens --update
"""

from __future__ import annotations

import copy
import importlib

import pytest

from repro.experiments.runall import EXPERIMENT_MODULES
from repro.runtime import goldens
from repro.runtime.seeding import derive_seed

#: Experiments kept out of tier-1: table6_main's fast-mode run takes
#: ~10.5 s on a 2-core host.
SLOW_MODULES = frozenset({"table6_main"})


def _golden_params():
    for name in EXPERIMENT_MODULES:
        marks = [pytest.mark.slow] if name in SLOW_MODULES else []
        yield pytest.param(name, marks=marks, id=name)


@pytest.mark.parametrize("name", list(_golden_params()))
def test_metrics_match_golden(name):
    """Re-run one experiment and pin every metric against its golden."""
    golden = goldens.load_golden(name)
    assert golden["module"] == name
    assert golden["seed"] == derive_seed(golden["base_seed"], name)
    module = importlib.import_module(f"repro.experiments.{name}")
    result = module.run(seed=golden["seed"], fast=True)
    violations = goldens.compare_result(result, golden)
    assert not violations, (
        f"{name} drifted from its golden snapshot "
        f"(tests/goldens/{name}.json):\n" + "\n".join(violations))


class TestGoldenCoverage:
    """Meta-tests: new experiments cannot ship unpinned."""

    def test_every_experiment_has_a_golden(self):
        missing = [name for name in EXPERIMENT_MODULES
                   if not goldens.golden_path(name).exists()]
        assert not missing, (
            f"experiments without golden snapshots: {missing}; "
            "run `python -m repro.runtime.goldens --update`")

    def test_no_stale_goldens(self):
        known = set(EXPERIMENT_MODULES)
        stale = [path.name for path in goldens.goldens_dir().glob("*.json")
                 if path.stem not in known]
        assert not stale, f"golden files without experiments: {stale}"

    def test_goldens_pin_at_least_one_value(self):
        # Every experiment is pinned by metrics, or — for pure table
        # regenerations with no headline metric — by its lines hash.
        unpinned = [name for name in EXPERIMENT_MODULES
                    if not goldens.load_golden(name)["metrics"]
                    and "lines_sha256" not in goldens.load_golden(name)]
        assert not unpinned, f"goldens pinning nothing: {unpinned}"


class TestComparator:
    """The comparison itself must detect drift and schema changes."""

    @pytest.fixture
    def golden(self):
        return goldens.load_golden("table3_temperature")

    @pytest.fixture
    def result(self, golden):
        module = importlib.import_module(
            "repro.experiments.table3_temperature")
        return module.run(seed=golden["seed"], fast=True)

    def test_detects_value_drift(self, golden, result):
        tampered = copy.deepcopy(golden)
        name = next(iter(tampered["metrics"]))
        tampered["metrics"][name]["measured"] += 1.0
        violations = goldens.compare_result(result, tampered)
        assert any("drifted" in v for v in violations)

    def test_detects_removed_metric(self, golden, result):
        tampered = copy.deepcopy(golden)
        tampered["metrics"]["no_such_metric"] = {
            "measured": 0.0, "paper": None, "unit": "%",
            "rel_tol": 1e-6, "abs_tol": 1e-9}
        violations = goldens.compare_result(result, tampered)
        assert any("not produced" in v for v in violations)

    def test_detects_unpinned_metric(self, golden, result):
        tampered = copy.deepcopy(golden)
        name = next(iter(tampered["metrics"]))
        del tampered["metrics"][name]
        violations = goldens.compare_result(result, tampered)
        assert any("no golden value" in v for v in violations)

    def test_tolerance_is_honoured(self, golden, result):
        widened = copy.deepcopy(golden)
        name = next(iter(widened["metrics"]))
        widened["metrics"][name]["measured"] += 0.5
        widened["metrics"][name]["abs_tol"] = 1.0
        assert goldens.compare_result(result, widened) == []
