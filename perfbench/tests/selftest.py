"""Checks of the benchmark itself; they take a few minutes.

    python3 -m pytest -q perfbench/tests/selftest.py

The file name keeps these checks out of the repository's default test run.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import COUNT_NAMES, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def harness():
    return run.Harness(time.monotonic() + 1800)


@pytest.fixture(scope="module")
def expected():
    import json

    return json.loads(run.EXPECTED.read_text())


@pytest.fixture
def tracer():
    t = Tracer().install()
    yield t
    t.uninstall()


# -- the benchmark -------------------------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_with_the_same_seed(harness, workload):
    # A run of run_seconds may hold only one traced pass of suite or
    # construct, so its own check of repeated counts cannot fail there.
    first = harness.one_pass(workload, 7, True)["trace"]
    second = harness.one_pass(workload, 7, True)["trace"]
    assert {k: first[k] for k in COUNT_NAMES} == {k: second[k] for k in COUNT_NAMES}
    assert first["core.sset.built"] > 0
    assert (first["fibration.find_lift.calls"] > 0) == (workload != "construct")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_outputs_match_expectations_under_two_seeds(harness, expected, workload):
    passes = [harness.one_pass(workload, seed, False) for seed in (11, 12)]
    orders = [p["order"] for p in passes]
    assert orders[0] != orders[1], "the two seeds should order the jobs differently"
    attempted, failed, problems = run.check(workload, passes, expected)
    assert attempted == 2 * len(expected[workload])
    assert (failed, problems) == (0, [])


def test_construct_never_reaches_the_lifting_engine(harness, expected):
    p = harness.one_pass("construct", 3, True)
    assert p["trace"]["fibration.has_rlp.calls"] == 0
    assert p["trace"]["core.sset.built"] > 0
    assert run.check("construct", [p], expected)[1] == 0


def test_suite_pins_the_q_refutation(expected):
    for n in (4, 5):
        pinned = expected["suite"][f"criterion{n}"]
        assert pinned["ok"] is False
        assert "slice(q_sharp,0): REFUTED" in pinned["detail"]


def test_reference_is_fixed_and_independent_of_ssw():
    import subprocess

    code = "import sys, reference; print(reference.work(), any(m.startswith('ssw') for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["15879", "False"]


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    pct, value = run.tail(list(range(50)))
    assert (pct, value) == (80.0, 39)


# -- the tracer ----------------------------------------------------------------


def test_rebinds_every_module_that_imported_by_name(tracer):
    import ssw.core
    import ssw.fibration

    wrapped = ssw.core.enumerate_maps
    assert wrapped.__wrapped__.__module__ == "ssw.core"
    assert ssw.fibration.enumerate_maps is wrapped  # imported at module level
    # slices and decor import it inside functions, from ssw.core at call time
    from ssw.core import standard_simplex
    from ssw.decor import SHARP, scale
    from ssw.slices import slice_over_vertex

    before = tracer.counts["core.enumerate_maps.calls"]
    slice_over_vertex(scale(standard_simplex(1), SHARP), "1", cap=2)
    assert tracer.counts["core.enumerate_maps.calls"] > before
    assert tracer.counts["slices.build_representable.calls"] == 1


def test_uninstall_restores_the_originals():
    import ssw.core
    import ssw.fibration

    original = ssw.core.enumerate_maps
    act = ssw.core.SSet.act
    t = Tracer().install()
    assert ssw.fibration.enumerate_maps is not original
    t.uninstall()
    assert ssw.core.enumerate_maps is original
    assert ssw.fibration.enumerate_maps is original
    assert ssw.core.SSet.act is act


def test_recursive_calls_are_counted_without_nested_spans(tracer):
    from ssw.core import EZ, SSet, standard_simplex

    d3 = standard_simplex(3)
    X = SSet(d3.cells, d3.faces)  # a fresh object, so its act cache is empty
    tracer.counts.clear()
    tracer.spans.clear()
    X.act(EZ("0123", (0, 1, 2, 3)), (0,))  # act -> _inj -> act -> ...
    assert tracer.counts["core.act.calls"] > 1
    assert tracer.spans["core.act"] == 1


def test_problems_for_is_timed_across_its_iteration(tracer):
    from ssw.core import standard_simplex
    from ssw.decor import SHARP, scale
    from ssw.fibration import is_infty_bicategory

    is_infty_bicategory(scale(standard_simplex(2), SHARP), bound=3)
    problems = tracer.counts["fibration.problems"]
    assert problems == tracer.counts["fibration.find_lift.calls"] > 0
    # one span per resume of the generator, not one for its creation only
    assert tracer.spans["fibration.problems_for"] >= problems
    assert tracer.self_s["fibration.problems_for"] > 0


def test_has_rlp_is_split_by_family_kind(tracer):
    from ssw.core import standard_simplex
    from ssw.decor import SHARP, scale
    from ssw.fibration import is_inner_fibration
    from ssw.slices import slice_over_vertex

    C = scale(standard_simplex(1), SHARP)
    sl = slice_over_vertex(C, "1", cap=3)
    is_inner_fibration(sl.projection, sl.scaled, C, bound=3)
    kinds = {k.split(".")[2] for k in tracer.counts if k.startswith("fibration.family.")}
    assert kinds == {"weak-fibration", "inner-horns"}
    report = tracer.report()
    assert report["fibration.family.weak-fibration.s"] > 0
    assert report["fibration.family.scaled-anodyne.s"] == 0
    assert sum(report[f"fibration.family.{k}.problems"] for k in kinds) == report["fibration.problems"]
