"""Scenario directory loading against the bundled toy fixtures.

The toy fixture deliberately exercises the awkward corners of the
format: repeated runs, a timeout row recorded with a runtime below the
cutoff, a memout, an algorithm row missing entirely for one instance,
a missing feature cell, and split feature cost groups.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaselect.aslib import load_scenario, write_scenario
from metaselect.errors import InconsistentScenario, InvalidConfig, MetaselectError
from metaselect.scenario import ScenarioSpec
from metaselect.synthetic import SyntheticConfig, generate_synthetic

TOY_DIR = Path(__file__).resolve().parents[1] / "fixtures" / "toy"
TOY_TINY_DIR = TOY_DIR.parent / "toy_tiny"


def test_toy_shape(toy):
    assert toy.name == "toy"
    assert toy.n_instances == 30
    assert toy.algorithms == ("astar", "bfs", "greedy")
    assert toy.n_features == 3
    assert toy.cutoff == 100.0


def _cell(scenario, instance, algorithm):
    i, a = scenario.instances.index(instance), scenario.algorithms.index(algorithm)
    return scenario.runtimes[i, a], scenario.solved[i, a]


def test_solved_runtime_kept_verbatim(toy):
    assert _cell(toy, "toy_02", "astar") == (87.3834, True)


def test_unsolved_runs_canonicalize_to_cutoff(toy):
    # recorded as timeout at 37s: status wins, runtime becomes the cutoff
    assert _cell(toy, "toy_03", "bfs") == (100.0, False)
    # memout counts as unsolved too
    assert _cell(toy, "toy_05", "greedy") == (100.0, False)
    unsolved = ~toy.solved
    assert np.all(toy.runtimes[unsolved] == toy.cutoff)


def test_missing_run_row_is_unsolved(toy):
    # toy_07 has no astar row at all
    assert _cell(toy, "toy_07", "astar") == (100.0, False)


def test_missing_feature_cell_is_nan(toy):
    row = toy.features[toy.instances.index("toy_04")]
    assert row[0] == 0.2108 and np.isnan(row[2])


def test_feature_cost_groups_are_summed(toy):
    # toy_00: cheap_group 0.3022 + probing_group 0.4652
    assert toy.feature_costs[0] == pytest.approx(0.7674, abs=1e-12)


def test_folds_partition_instances(toy):
    assert toy.fold_ids() == [1, 2, 3, 4, 5]
    seen = np.concatenate([toy.fold_split(f)[1] for f in toy.fold_ids()])
    assert sorted(seen.tolist()) == list(range(toy.n_instances))
    for f in toy.fold_ids():
        train, test = toy.fold_split(f)
        assert not set(train) & set(test)


def test_missing_cost_file_means_free_features(toy_tiny):
    assert toy_tiny.n_instances == 3
    assert np.all(toy_tiny.feature_costs == 0.0)


def test_missing_required_file_raises(tmp_path):
    src = TOY_DIR
    dst = tmp_path / "broken"
    shutil.copytree(src, dst)
    (dst / "algorithm_runs.arff").unlink()
    with pytest.raises((InvalidConfig, InconsistentScenario)):
        load_scenario(dst)


@pytest.mark.parametrize("cutoff", ["0", "-5", "inf", "nan"])
def test_cutoff_must_be_positive_and_finite(tmp_path, cutoff):
    dst = tmp_path / "bad_cutoff"
    shutil.copytree(TOY_DIR, dst)
    description = dst / "description.txt"
    text = description.read_text().replace(
        "algorithm_cutoff_time: 100", f"algorithm_cutoff_time: {cutoff}"
    )
    description.write_text(text)
    with pytest.raises(InconsistentScenario, match="cutoff must be positive and finite"):
        load_scenario(dst)


def _edited_toy_tiny(tmp_path, filename, edits):
    dst = tmp_path / "edited"
    shutil.copytree(TOY_TINY_DIR, dst)
    path = dst / filename
    text = path.read_text(encoding="utf-8")
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path.write_text(text, encoding="utf-8")
    return dst


@pytest.mark.parametrize(
    "filename, edits, match",
    [
        ("algorithm_runs.arff",
         [("repetition NUMERIC", "repetition STRING"), ("inst_a,1,algo_x", "inst_a,abc,algo_x")],
         "repetition .* not a number"),
        ("algorithm_runs.arff",
         [("runtime NUMERIC", "runtime STRING"), ("algo_x,10.0", "algo_x,fast")],
         "runtime .* not a number"),
        ("feature_values.arff",
         [("width NUMERIC", "width STRING"), ("inst_a,1,4.0", "inst_a,1,abc")],
         "width of instance 'inst_a' is 'abc', not a number"),
        ("cv.arff", [("inst_a,1,1", "inst_a,1,nan")], "no integer fold .*inst_a"),
        ("cv.arff", [("inst_a,1,1", "inst_a,1,inf")], "no integer fold .*inst_a"),
        ("cv.arff", [("inst_a,1,1", "inst_a,1,2.5")], "no integer fold .*inst_a"),
        ("cv.arff", [("inst_a,1,1", "inst_a,1,1e300")], "no integer fold .*inst_a"),
        ("cv.arff", [("inst_a,1,1", "inst_a,1,?")], "no integer fold .*inst_a"),
        ("cv.arff", [("fold NUMERIC", "part NUMERIC")], "lacks required column 'fold'"),
        ("cv.arff", [("inst_b,1,2\n", "")], "no integer fold .*inst_b"),
        ("cv.arff", [("inst_c,1,1", "inst_c,1,1\ninst_z,1,1")], "absent from runs.*inst_z"),
    ],
    ids=[
        "repetition-text", "runtime-text", "feature-text", "fold-nan", "fold-inf",
        "fold-fraction", "fold-beyond-int64", "fold-missing-cell", "no-fold-column",
        "no-cv-row", "cv-row-without-runs",
    ],
)
def test_malformed_scenario_raises_inconsistent_scenario(tmp_path, filename, edits, match):
    with pytest.raises(InconsistentScenario, match=match):
        load_scenario(_edited_toy_tiny(tmp_path, filename, edits))


def test_non_utf8_file_raises_inconsistent_scenario(tmp_path):
    dst = _edited_toy_tiny(tmp_path, "feature_values.arff", [])
    path = dst / "feature_values.arff"
    path.write_bytes(path.read_bytes().replace(b"inst_a,", "'inst_é',".encode("latin-1")))
    with pytest.raises(InconsistentScenario, match="feature_values.arff is not UTF-8"):
        load_scenario(dst)


def test_scenario_without_feature_columns_loads_zero_features(tmp_path):
    dst = _edited_toy_tiny(
        tmp_path, "feature_values.arff",
        [("@ATTRIBUTE width NUMERIC\n@ATTRIBUTE density NUMERIC\n", ""),
         (",4.0,0.25", ""), (",-2.0,0.75", ""), (",1.0,?", "")],
    )
    scenario = load_scenario(dst)
    assert scenario.features.shape == (3, 0)


def test_write_scenario_roundtrip(tmp_path):
    original = generate_synthetic(
        SyntheticConfig(n_instances=12, n_algorithms=3, n_features=2, n_folds=3,
                        unsolved_rate=0.2, feature_cost=0.4, seed=7)
    )
    out = write_scenario(original, tmp_path / "dumped")
    again = load_scenario(out)
    assert again.instances == original.instances
    assert again.algorithms == original.algorithms
    assert again.cutoff == original.cutoff
    np.testing.assert_array_equal(again.solved, original.solved)
    np.testing.assert_array_equal(again.runtimes, original.runtimes)
    np.testing.assert_array_equal(again.features, original.features)
    np.testing.assert_array_equal(again.feature_costs, original.feature_costs)
    np.testing.assert_array_equal(again.folds, original.folds)


def test_write_toy_roundtrip_preserves_truth(toy, tmp_path):
    again = load_scenario(write_scenario(toy, tmp_path / "toy2"))
    np.testing.assert_array_equal(again.runtimes, toy.runtimes)
    np.testing.assert_array_equal(again.solved, toy.solved)
    # NaN-safe feature comparison
    np.testing.assert_array_equal(again.features, toy.features)
    np.testing.assert_allclose(again.feature_costs, toy.feature_costs, atol=1e-12)


TOY_WRITTEN_SHA256 = {
    "algorithm_runs.arff": "66be610824be662789cbd7d3689f86b1e931870bd044ea94e786727d94ab4255",
    "cv.arff": "0522c789577d7fb5a2c969c6e4b6f7d5a697bb679357bb9c4df354036cdc89d4",
    "description.txt": "705f2cb6be8f6e69499f35db1c0ff20d836669bb012c3c0ee286a2dea1ce5642",
    "feature_costs.arff": "b25f0bfd863893655be9c914d8bd5a10dfe38af802302b06f3d4ef489ecc5f87",
    "feature_values.arff": "bccd533535e52037ec24b46fde4d99064855cbb9e38ad3817e4a9f73eaa91e82",
}


def test_written_toy_files_are_byte_pinned(toy, tmp_path):
    out = write_scenario(toy, tmp_path / "toy2")
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == TOY_WRITTEN_SHA256


# printable ASCII, with the characters ARFF quoting must handle and
# non-ASCII ones drawn about half of the time; the files are UTF-8
ID_TEXT = st.text(
    st.sampled_from(" '\",%?{}\téß字")
    | st.characters(min_codepoint=0x21, max_codepoint=0x7E),
    max_size=6,
).filter(lambda s: not ("'" in s and '"' in s))


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    d = draw(st.integers(0, 3))
    cutoff = draw(st.floats(1e-3, 1e6))
    solved = np.array(draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k)))
    runtimes = np.array(
        [draw(st.floats(0.0, cutoff)) if s else cutoff for s in solved]
    )
    features = draw(
        st.lists(st.floats(allow_nan=True), min_size=n * d, max_size=n * d)
    )
    return ScenarioSpec.create(
        name=draw(st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E) | st.just("é"),
                          max_size=8)),
        instances=draw(st.lists(ID_TEXT, min_size=n, max_size=n, unique=True)),
        algorithms=draw(st.lists(ID_TEXT, min_size=k, max_size=k, unique=True)),
        cutoff=cutoff,
        runtimes=runtimes.reshape(n, k),
        solved=solved.reshape(n, k),
        features=np.array(features).reshape(n, d),
        feature_costs=draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n)),
        folds=draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)),
    )


@settings(max_examples=80, deadline=None)
@given(scenarios())
def test_written_scenarios_load_back_unchanged(original):
    # ids with quotes, commas, blanks, `%`, `?`, braces and non-ASCII
    # characters; zero or NaN features, unsolved cells and nonzero costs
    with tempfile.TemporaryDirectory() as tmp:
        again = load_scenario(write_scenario(original, Path(tmp) / "s"))
    assert again.name == original.name
    assert again.instances == original.instances
    assert again.algorithms == original.algorithms
    assert again.cutoff == original.cutoff
    for field in ("runtimes", "solved", "features", "feature_costs", "folds"):
        np.testing.assert_array_equal(getattr(again, field), getattr(original, field))


@pytest.mark.parametrize(
    "instance, name", [("a'b\"c", "s"), ("a\nb", "s"), ("a", " s"), ("a", "s\nt")]
)
def test_write_scenario_rejects_what_it_cannot_read_back(tmp_path, instance, name):
    spec = ScenarioSpec.create(
        name=name, instances=[instance], algorithms=["x"], cutoff=1.0,
        runtimes=[[0.5]], solved=[[True]], features=[[0.0]],
    )
    with pytest.raises(MetaselectError):
        write_scenario(spec, tmp_path / "s")
