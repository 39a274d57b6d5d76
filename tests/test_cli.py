import csv
import json
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treetweak import cli
from treetweak.cli import main
from treetweak.forest import (
    TreeEnsemble,
    ensemble_to_dict,
    load_model,
    predict_ensemble,
    route,
    save_model,
    trees_from_nodes,
)
from treetweak.feature_space import FeatureMeta, FeatureSpace, Instance, load_instances
from treetweak.tweaker import Found

from conftest import plain_space, stump, tree


def write_gaussian_csv(path, seed=60, m=240, n=4):
    rng = np.random.default_rng(seed)
    half = m // 2
    rows = []
    for _ in range(half):
        rows.append(list(rng.normal(0.0, 1.0, n)) + [-1])
    for _ in range(m - half):
        rows.append(list(rng.normal(1.0, 1.0, n)) + [1])
    rng.shuffle(rows)
    header = ",".join([f"f{i}" for i in range(n)] + ["label"])
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def assert_one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


def write_stump_model(path):
    ens = TreeEnsemble(trees_from_nodes([stump(0, 0.0, -1, 1)]), plain_space(1), importances=[1.0])
    save_model(ens, path)
    return path


def edited_model(edit):
    """A model-text corruption that applies ``edit`` to the parsed document."""
    def corrupt(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return corrupt


def strict_json(text):
    """``json.loads`` refusing NaN and +-Infinity, which JSON does not have."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestTrainCommand:
    def test_trains_and_reports_metrics(self, tmp_path, capsys):
        data = write_gaussian_csv(tmp_path / "train.csv")
        model = tmp_path / "model.json"
        code = main(
            [
                "train",
                "--data", str(data),
                "--model-out", str(model),
                "--trees", "10",
                "--seed", "7",
            ]
        )
        assert code == 0
        assert model.exists()
        err = capsys.readouterr().err
        assert "roc_auc=" in err and "f1=" in err and "mcc=" in err
        ens = load_model(model)
        assert ens.num_trees == 10

    def test_a_z_score_past_the_float_range_exits_1(self, tmp_path, capsys):
        # Column x0's mean is -4.25e307, so line 2's z-score overflows.
        data = tmp_path / "train.csv"
        data.write_text("x0,label\n1.7e308,-1\n-1.7e308,1\n-1.7e308,-1\n0,1\n")
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(data), "--model-out", str(model)]) == 1
        assert assert_one_error_line(capsys).startswith("error: line 2: column 'x0'")
        assert not model.exists()

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([-1, 1], "holdout of 0 of 2 instances holds 0 negative and 0 positive"),
            ([-1, 1, -1], "holdout of 1 of 3 instances holds 1 negative and 0 positive"),
            ([-1] * 5, "holdout of 1 of 5 instances holds 1 negative and 0 positive"),
        ],
        ids=["empty-holdout", "one-class-holdout", "one-class-table"],
    )
    def test_an_unusable_holdout_stops_before_training(
        self, tmp_path, capsys, monkeypatch, labels, message
    ):
        def refuse(*args):
            raise AssertionError("train_forest called")

        monkeypatch.setattr(cli, "train_forest", refuse)
        data = tmp_path / "train.csv"
        rows = [f"{i}.0,{label}" for i, label in enumerate(labels)]
        data.write_text("f0,label\n" + "\n".join(rows) + "\n")
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--model-out", str(model)]) == 1
        line = assert_one_error_line(capsys)
        assert message in line and "evaluation needs both classes" in line
        assert not model.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--trees", "0"], "num_trees must be >= 1"),
            (["--max-depth", "0"], "max_depth must be >= 1"),
            (["--min-samples-split", "1"], "min_samples_split must be >= 2"),
            (["--features-per-split", "0"], "features_per_split must be in [1, 3], got 0"),
            (["--features-per-split", "4"], "features_per_split must be in [1, 3], got 4"),
            (["--test-fraction", "0"], "test_fraction must be in (0, 1)"),
            (["--test-fraction", "1"], "test_fraction must be in (0, 1)"),
            (["--seed", "-1"], "seed must be >= 0"),
        ],
        ids=["trees-0", "max-depth-0", "min-samples-split-1", "features-per-split-0",
             "features-per-split-n+1", "test-fraction-0", "test-fraction-1", "seed--1"],
    )
    def test_out_of_range_setting_exits_1_and_writes_no_model(
        self, tmp_path, capsys, flags, message
    ):
        data = write_gaussian_csv(tmp_path / "train.csv", m=20, n=3)
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--model-out", str(model)] + flags) == 1
        assert assert_one_error_line(capsys) == f"error: {message}"
        assert not model.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--trees", "0"], "num_trees must be >= 1"),
            (["--max-depth", "0"], "max_depth must be >= 1"),
            (["--min-samples-split", "1"], "min_samples_split must be >= 2"),
            (["--seed", "-1"], "seed must be >= 0"),
            (["--test-fraction", "0"], "test_fraction must be in (0, 1)"),
            (["--test-fraction", "1"], "test_fraction must be in (0, 1)"),
        ],
        ids=["trees-0", "max-depth-0", "min-samples-split-1", "seed--1",
             "test-fraction-0", "test-fraction-1"],
    )
    def test_training_settings_checked_before_the_data_is_read(
        self, tmp_path, capsys, flags, message
    ):
        missing = str(tmp_path / "missing.csv")
        model = tmp_path / "m.json"
        assert main(["train", "--data", missing, "--model-out", str(model)] + flags) == 1
        assert assert_one_error_line(capsys) == f"error: {message}"
        assert not model.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("f0,label\n1.0,-1\n", "fitting needs at least 2 rows"),
            ("f0,label\n1.0,yes\n2.0,-1\n", "line 2: label 'yes' is not an integer"),
        ],
        ids=["one-row", "label-yes"],
    )
    def test_an_unusable_table_exits_1_and_writes_no_model(
        self, tmp_path, capsys, text, message
    ):
        data = tmp_path / "train.csv"
        data.write_text(text)
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--model-out", str(model)]) == 1
        assert assert_one_error_line(capsys) == f"error: {message}"
        assert not model.exists()

    def test_same_seed_twice_identical_files(self, tmp_path):
        data = write_gaussian_csv(tmp_path / "train.csv")
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        for out in (m1, m2):
            args = [
                "train", "--data", str(data), "--model-out", str(out),
                "--trees", "5", "--seed", "3",
            ]
            assert main(args) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = main(
            ["train", "--data", str(missing), "--model-out", str(tmp_path / "m.json")]
        )
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_oversized_field_exits_1_with_one_error_line(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        data.write_text("f0,label\n1.0,-1\n" + "1" * 200_000 + ",1\n")
        model = tmp_path / "m.json"
        code = main(["train", "--data", str(data), "--model-out", str(model)])
        assert code == 1
        assert "line 3" in assert_one_error_line(capsys)

    def test_overflowing_column_exits_1_and_writes_no_model(self, tmp_path, capsys):
        # The column's mean and std overflow a float; the model would hold
        # Infinity, which a strict JSON reader and the loader reject.
        data = tmp_path / "train.csv"
        column = ["1e308", "1e308", "1e308", "1.5e308", "-1e308", "1e308"]
        rows = [f"{v},{i},{(-1) ** i}" for i, v in enumerate(column)]
        data.write_text("a,b,label\n" + "\n".join(rows) + "\n")
        model = tmp_path / "m.json"
        code = main(["train", "--data", str(data), "--model-out", str(model)])
        assert code == 1
        assert "'a'" in assert_one_error_line(capsys)
        assert not model.exists()

    def test_no_label_column_exits_1_and_writes_no_model(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        data.write_text("f0,f1\n1.0,2.0\n3.0,4.0\n5.0,7.0\n")
        model = tmp_path / "m.json"
        code = main(["train", "--data", str(data), "--model-out", str(model)])
        assert code == 1
        assert "label" in assert_one_error_line(capsys)
        assert not model.exists()

    @pytest.mark.parametrize(
        "doc",
        [
            [{"name": "f0"}],
            {"label_column": "label"},
            {"columns": {"name": "f0"}},
            {"columns": [{"categorical": True}]},
            {"columns": [{"name": 3}]},
            {"columns": [{"name": "f0", "categorical": True, "categories": "ab"}]},
            {"columns": [{"name": "f0", "adjustable": "false"}]},
            {"columns": [{"name": "f0", "categorial": True}]},
            {"columns": [{"name": "f0"}], "label_colum": "label"},
            {"columns": [{"name": "f0"}], "label_column": 5},
            "[" * 100_000 + "]" * 100_000,  # the text itself: json.dumps would recurse
            # Was trained as a continuous column.
            {"columns": [{"name": "f0", "categories": ["x", "y"]}]},
        ],
        ids=[
            "not-an-object", "no-columns", "columns-not-a-list", "no-name",
            "name-not-a-string", "categories-not-a-list", "adjustable-not-a-bool",
            "unknown-column-key", "unknown-top-level-key", "label-column-not-a-string",
            "nested-100000-deep", "categories-without-categorical",
        ],
    )
    def test_malformed_schema_exits_1_with_one_error_line(self, tmp_path, capsys, doc):
        data = write_gaussian_csv(tmp_path / "train.csv", m=20, n=1)
        schema = tmp_path / "schema.json"
        schema.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code = main(
            [
                "train", "--data", str(data), "--schema", str(schema),
                "--model-out", str(tmp_path / "m.json"),
            ]
        )
        assert code == 1
        assert "schema" in assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "header, schema, repeat",
        [
            ("a,a,label", None, "a"),
            (
                "layout,label",
                {"columns": [{"name": "layout", "categorical": True,
                              "categories": ["x", "y", "x"]}]},
                "layout=x",
            ),
        ],
        ids=["csv-header", "schema-categories"],
    )
    def test_duplicate_feature_name_is_named(self, tmp_path, capsys, header, schema, repeat):
        data = tmp_path / "train.csv"
        cells = ["x,1", "y,-1"] if schema else ["1,2,1", "3,4,-1"]
        data.write_text("\n".join([header] + cells * 2) + "\n")
        args = ["train", "--data", str(data), "--model-out", str(tmp_path / "m.json")]
        if schema:
            (tmp_path / "schema.json").write_text(json.dumps(schema))
            args += ["--schema", str(tmp_path / "schema.json")]
        assert main(args) == 1
        line = assert_one_error_line(capsys)
        assert line == f"error: duplicate feature name {repeat!r}"
        assert not (tmp_path / "m.json").exists()


class TestTweakCommand:
    def test_all_positive_instances_skipped(self, tmp_path, capsys):
        model = write_stump_model(tmp_path / "model.json")
        data = tmp_path / "inst.csv"
        data.write_text("x0\n1.0\n2.0\n")
        out = tmp_path / "out.json"
        code = main(
            ["tweak", "--model", str(model), "--data", str(data), "--out", str(out)]
        )
        assert code == 0
        assert "0 eligible" in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert doc["eligible"] == 0
        assert doc["skipped_positive"] == [0, 1]
        assert doc["results"] == []

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda text: text.replace('"right": 2', '"right": Infinity'),
             "malformed model document: tree 0: node 0 has right"),
            (lambda text: "[" * 200_000, "not valid JSON"),
            (lambda text: f"[{text}]", "model document must be a JSON object"),
            (edited_model(lambda doc: doc.update(trees=[])),
             "malformed model document: an ensemble needs at least one tree"),
            (edited_model(lambda doc: doc.update(importances=[0.5, 0.5])),
             "malformed model document: importances must have one entry per feature"),
            (edited_model(lambda doc: doc.update(importances=[-1.0])),
             "malformed model document: importances must be nonnegative"),
            (edited_model(lambda doc: doc["feature_space"]["features"][0].update(std_dev=0.0)),
             "malformed model document: feature 'x0' has std_dev <= 0"),
            (edited_model(lambda doc: doc["feature_space"]["features"].append(
                doc["feature_space"]["features"][0])),
             "malformed model document: duplicate feature name 'x0'"),
            (edited_model(lambda doc: doc["feature_space"]["features"].clear()),
             "malformed model document: a feature space needs at least one feature"),
            # Loaded, and then encoded a row's x into layout=y's column.
            (edited_model(lambda doc: doc.update(
                importances=[1.0, 0.0, 0.0],
                feature_space={"features": doc["feature_space"]["features"] + [
                    {"name": f"layout={c}", "kind": "one_hot", "group": "layout",
                     "category": "x", "adjustable": False, "mean": 0.5, "std_dev": 0.5}
                    for c in "xy"
                ]},
            )),
             "malformed model document: one-hot group 'layout' repeats category 'x'"),
            # dict() would read both, and write them back as {"a": 1} and {}.
            (edited_model(lambda doc: doc.update(metadata=[["a", 1]])),
             "malformed model document: metadata must be a JSON object"),
            (edited_model(lambda doc: doc.update(metadata=[])),
             "malformed model document: metadata must be a JSON object"),
        ],
        ids=["infinite-child", "deep-nesting", "json-array", "no-trees",
             "importances-of-another-length", "negative-importance", "zero-std-dev",
             "duplicate-feature-name", "no-features", "repeated-category",
             "metadata-pairs", "metadata-empty-list"],
    )
    def test_corrupt_model_exits_1_with_one_error_line(
        self, tmp_path, capsys, corrupt, message
    ):
        model = write_stump_model(tmp_path / "model.json")
        model.write_text(corrupt(model.read_text()))
        data = tmp_path / "inst.csv"
        data.write_text("x0\n-1.0\n")
        out = tmp_path / "out.json"
        code = main(
            ["tweak", "--model", str(model), "--data", str(data), "--out", str(out)]
        )
        assert code == 1
        assert assert_one_error_line(capsys).startswith(f"error: {message}")
        assert not out.exists()

    def test_stump_fixture_contains_analytic_candidate(self, tmp_path):
        model = write_stump_model(tmp_path / "model.json")
        data = tmp_path / "inst.csv"
        data.write_text("x0,label\n-1.0,-1\n")
        out = tmp_path / "out.json"
        code = main(
            [
                "tweak",
                "--model", str(model),
                "--data", str(data),
                "--out", str(out),
                "--epsilon", "0.1",
                "--delta", "euclidean",
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["covered"] == 1
        (result,) = doc["results"]
        assert result["status"] == "found"
        assert result["label"] == -1
        best = result["transformations"][0]
        assert best["candidate_standardized"] == [pytest.approx(0.1)]
        assert best["cost"] == pytest.approx(1.1)
        (rec,) = best["recommendations"]
        assert rec["feature"] == "x0"
        assert rec["direction"] == "increase"

    @pytest.mark.parametrize(
        "spec", [(0, 1.7e308, -1, 1), (0, -1.7e308, 1, -1)], ids=["above", "below"]
    )
    def test_a_placement_that_overflows_is_not_covered(self, tmp_path, spec):
        model = tmp_path / "model.json"
        save_model(TreeEnsemble(trees_from_nodes([tree(spec)]), plain_space(1)), model)
        data = tmp_path / "inst.csv"
        data.write_text("x0\n0\n")
        out = tmp_path / "out.json"
        assert main(
            [
                "tweak", "--model", str(model), "--data", str(data), "--out", str(out),
                "--epsilon", "1e308", "--delta", "euclidean",
            ]
        ) == 0
        doc = strict_json(out.read_text())
        assert (doc["eligible"], doc["covered"]) == (1, 0)
        assert doc["results"][0]["status"] == "not_covered"

    @pytest.mark.parametrize("vote", [-1, 1], ids=["eligible", "positive"])
    def test_a_z_score_past_the_float_range_exits_1(self, tmp_path, capsys, vote):
        # 1e300 standardizes to 1e310, which the stump would route right.
        space = FeatureSpace([FeatureMeta("x0", std_dev=1e-10)])
        model = tmp_path / "model.json"
        save_model(TreeEnsemble(trees_from_nodes([stump(0, 0.0, -vote, vote)]), space), model)
        data = tmp_path / "inst.csv"
        data.write_text("x0\n1e300\n")
        out = tmp_path / "out.json"
        assert main(["tweak", "--model", str(model), "--data", str(data), "--out", str(out)]) == 1
        assert assert_one_error_line(capsys).startswith("error: line 2: column 'x0'")
        assert not out.exists()

    def test_a_raw_value_past_the_float_range_exits_1(self, tmp_path, capsys):
        # The candidate 1e10 + 0.05 is 1e310 in raw units.
        space = FeatureSpace([FeatureMeta("x0", std_dev=1e300)])
        model = tmp_path / "model.json"
        save_model(TreeEnsemble(trees_from_nodes([stump(0, 1e10, -1, 1)]), space), model)
        data = tmp_path / "inst.csv"
        data.write_text("x0\n0\n")
        out = tmp_path / "out.json"
        assert main(["tweak", "--model", str(model), "--data", str(data), "--out", str(out)]) == 1
        assert assert_one_error_line(capsys) == (
            "error: results[0].transformations[0].recommendations[0].change_raw is not finite"
        )
        assert not out.exists()

    @pytest.mark.parametrize("doc, where", [
        ({"rank_correlations": {"top_1_vs_top_2": math.nan}}, "rank_correlations.top_1_vs_top_2"),
        ({"results": [{"cost": 1.0}, {"to_raw": [0.5, -math.inf]}]}, "results[1].to_raw[1]"),
    ])
    def test_a_non_finite_number_is_named_by_its_json_location(self, tmp_path, doc, where):
        # The writer of the tweak and report documents.
        out = tmp_path / "out.json"
        with pytest.raises(ValueError, match=f"^{re.escape(where)} is not finite$"):
            cli._write_json(doc, out)
        assert not out.exists()

    def test_output_revalidates_under_loaded_model(self, tmp_path):
        rng = np.random.default_rng(61)
        data = write_gaussian_csv(tmp_path / "train.csv", seed=61, m=200, n=3)
        model = tmp_path / "model.json"
        assert main(
            [
                "train", "--data", str(data), "--model-out", str(model),
                "--trees", "7", "--seed", "5",
            ]
        ) == 0
        inst = tmp_path / "inst.csv"
        rows = ["f0,f1,f2"] + [
            ",".join(str(v) for v in rng.normal(0.0, 1.0, 3)) for _ in range(20)
        ]
        inst.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out.json"
        assert main(
            [
                "tweak", "--model", str(model), "--data", str(inst),
                "--out", str(out), "--epsilon", "0.1", "--top-k", "2",
            ]
        ) == 0
        ens = load_model(model)
        doc = json.loads(out.read_text())
        revalidated = 0
        for result in doc["results"]:
            for trans in result["transformations"]:
                candidate = Instance(trans["candidate_standardized"])
                assert predict_ensemble(ens, candidate) == 1
                revalidated += 1
        assert doc["covered"] == sum(
            1 for r in doc["results"] if r["status"] == "found"
        )
        if doc["covered"]:
            assert revalidated > 0


    def test_tweak_builds_objects_only_for_the_rows_it_shows(
        self, tmp_path, monkeypatch
    ):
        import treetweak.cli as cli_mod

        real_tweak = cli_mod.tweak
        outcomes = []

        def recording_tweak(*args, **kwargs):
            outcomes.append(real_tweak(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(cli_mod, "tweak", recording_tweak)
        data = write_gaussian_csv(tmp_path / "train.csv", seed=62, m=200, n=3)
        model = tmp_path / "model.json"
        assert main(
            [
                "train", "--data", str(data), "--model-out", str(model),
                "--trees", "9", "--seed", "4",
            ]
        ) == 0
        inst = tmp_path / "inst.csv"
        inst.write_text("f0,f1,f2\n-1.0,-1.0,-1.0\n-0.5,-1.5,0.0\n")
        out = tmp_path / "out.json"
        assert main(
            [
                "tweak", "--model", str(model), "--data", str(inst),
                "--out", str(out), "--top-k", "2",
            ]
        ) == 0
        found = [o for o in outcomes if isinstance(o, Found)]
        results = json.loads(out.read_text())["results"]
        shown = [r for r in results if r["status"] == "found"]
        assert len(found) == len(shown) > 0
        assert max(o.num_candidates for o in found) > 2
        for outcome, result in zip(found, shown):
            assert "all_candidates" not in vars(outcome)
            assert result["num_candidates"] == outcome.num_candidates
            assert len(outcome._built) == len(result["transformations"]) <= 2


@st.composite
def mixed_tables(draw):
    """A labelled CSV and its schema: 40-80 rows, 1-3 continuous columns,
    each adjustable or not, and 0-2 categorical columns of 2-3 categories
    left at their default (non-adjustable). The label is +1 where a
    weighted sum of the columns, each category counting as its ordinal, is
    above its median, so each class holds about half the rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(40, 80))
    adjustable = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    levels = draw(st.lists(st.integers(2, 3), max_size=2))
    X = rng.normal(size=(m, len(adjustable)))
    K = rng.integers(0, levels, size=(m, len(levels)))
    score = X @ rng.normal(size=len(adjustable)) + K @ rng.normal(size=len(levels))
    labels = np.where(score > np.median(score), 1, -1)
    names = [f"c{j}" for j in range(len(adjustable))] + [f"k{j}" for j in range(len(levels))]
    lines = [",".join(names + ["label"])] + [
        ",".join([repr(v) for v in x] + ["abc"[k] for k in ks] + [str(y)])
        for x, ks, y in zip(X.tolist(), K.tolist(), labels.tolist())
    ]
    columns = [{"name": f"c{j}", "adjustable": a} for j, a in enumerate(adjustable)]
    columns += [{"name": f"k{j}", "categorical": True} for j in range(len(levels))]
    return "\n".join(lines) + "\n", {"columns": columns}


class TestSchemaPipeline:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        table=mixed_tables(),
        trees=st.integers(3, 7),
        depth=st.integers(1, 4),
        seed=st.integers(0, 99),
    )
    def test_every_transformation_keeps_the_contract(
        self, tmp_path, table, trees, depth, seed
    ):
        # The paper's contract through train and tweak over mixed schemas.
        # Adjustable one-hot groups are left out: ROADMAP item 6 (the
        # strict xfail below).
        text, schema = table
        data, schema_file = tmp_path / "train.csv", tmp_path / "schema.json"
        model, out = tmp_path / "model.json", tmp_path / "out.json"
        data.write_text(text)
        schema_file.write_text(json.dumps(schema))
        assert main(
            [
                "train", "--data", str(data), "--schema", str(schema_file),
                "--model-out", str(model), "--trees", str(trees),
                "--max-depth", str(depth), "--seed", str(seed),
            ]
        ) == 0
        assert main(
            ["tweak", "--model", str(model), "--data", str(data), "--out", str(out)]
        ) == 0
        ens = load_model(model)
        rows = load_instances(data, ens.feature_space)
        frozen = ~ens.feature_space.adjustable_mask
        for result in json.loads(out.read_text())["results"]:
            x = rows[result["instance_index"]].values
            for trans in result["transformations"]:
                candidate = Instance(trans["candidate_standardized"])
                assert predict_ensemble(ens, candidate) == 1
                leaf = route(ens, trans["source_tree"], candidate)
                assert (leaf.path_index, leaf.leaf_label) == (trans["source_path"], 1)
                assert (candidate.values[frozen] == x[frozen]).all()

    def test_categorical_and_frozen_columns_end_to_end(self, tmp_path):
        rng = np.random.default_rng(77)
        train = tmp_path / "train.csv"
        lines = ["signal,history,layout,label"]
        for _ in range(240):
            label = int(rng.choice((-1, 1)))
            signal = rng.normal(1.2 * label, 1.0)
            history = rng.normal(0.8 * label, 1.0)
            layout = rng.choice(["list", "grid"])
            lines.append(f"{signal},{history},{layout},{label}")
        train.write_text("\n".join(lines) + "\n")
        schema = tmp_path / "schema.json"
        schema.write_text(
            json.dumps(
                {
                    "columns": [
                        {"name": "signal"},
                        {"name": "history", "adjustable": False},
                        {"name": "layout", "categorical": True,
                         "categories": ["grid", "list"]},
                    ]
                }
            )
        )
        model = tmp_path / "model.json"
        assert main(
            [
                "train", "--data", str(train), "--schema", str(schema),
                "--model-out", str(model), "--trees", "12", "--seed", "2",
            ]
        ) == 0

        ens = load_model(model)
        assert set(ens.feature_space.one_hot_groups) == {"layout"}
        frozen = [f.name for f in ens.feature_space.features if not f.adjustable]
        assert "history" in frozen
        assert "layout=grid" in frozen and "layout=list" in frozen

        inst = tmp_path / "inst.csv"
        inst_lines = ["signal,history,layout"]
        for _ in range(15):
            inst_lines.append(
                f"{rng.normal(-1.5, 0.5)},{rng.normal(-1.0, 0.5)},"
                f"{rng.choice(['list', 'grid'])}"
            )
        inst.write_text("\n".join(inst_lines) + "\n")
        out = tmp_path / "out.json"
        assert main(
            [
                "tweak", "--model", str(model), "--data", str(inst),
                "--out", str(out), "--epsilon", "0.1", "--delta", "euclidean",
            ]
        ) == 0
        doc = json.loads(out.read_text())
        # every recommendation touches only the adjustable column
        for result in doc["results"]:
            for trans in result["transformations"]:
                for rec in trans["recommendations"]:
                    assert rec["feature"] == "signal"


    def _category_switches(self, tmp_path):
        """Every ``category_switches`` entry of ``tweak`` on a forest over a
        frozen ``age`` and an adjustable 4-category ``layout``, whose chance
        of a +1 label rises with the category."""
        rng = np.random.default_rng(1)
        layouts = ["list", "grid", "tiles", "cards"]
        rows = [
            (rng.normal(40.0, 10.0), layout, 1 if rng.random() < (1 + 2 * c) / 8 else -1)
            for c, layout in ((int(c), layouts[c]) for c in rng.integers(0, 4, 400))
        ]
        train = tmp_path / "train.csv"
        train.write_text(
            "\n".join(["age,layout,label"] + [f"{a},{l},{y}" for a, l, y in rows]) + "\n"
        )
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"columns": [
            {"name": "age", "adjustable": False},
            {"name": "layout", "categorical": True, "categories": layouts,
             "adjustable": True},
        ]}))
        model = tmp_path / "model.json"
        assert main(
            [
                "train", "--data", str(train), "--schema", str(schema),
                "--model-out", str(model), "--trees", "25", "--seed", "1",
            ]
        ) == 0
        out = tmp_path / "out.json"
        assert main(
            [
                "tweak", "--model", str(model), "--data", str(train),
                "--out", str(out), "--delta", "euclidean",
            ]
        ) == 0
        doc = json.loads(out.read_text())
        switches = [
            switch
            for result in doc["results"]
            for trans in result["transformations"]
            for switch in trans.get("category_switches", [])
        ]
        assert switches
        return layouts, switches

    def test_an_adjustable_categorical_column_is_reported_as_category_switches(
        self, tmp_path
    ):
        layouts, switches = self._category_switches(tmp_path)
        for switch in switches:
            assert switch["group"] == "layout"
            assert switch["from"] in layouts and switch["to"] in layouts

    @pytest.mark.xfail(
        strict=True,
        reason="placement moves one indicator of a one-hot group, which the "
        "arg-max projection can read as no switch at all (ROADMAP item 6)",
    )
    def test_no_category_switch_stays_on_its_category(self, tmp_path):
        _, switches = self._category_switches(tmp_path)
        assert all(switch["from"] != switch["to"] for switch in switches)

    def test_unknown_category_names_its_line_and_column(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        rows = [f"{i % 7 - 3},{('list', 'grid')[i % 2]},{(-1, 1)[i % 2]}" for i in range(40)]
        train.write_text("\n".join(["signal,layout,label"] + rows) + "\n")
        schema = tmp_path / "schema.json"
        schema.write_text(
            json.dumps({"columns": [{"name": "signal"},
                                    {"name": "layout", "categorical": True}]})
        )
        model = tmp_path / "model.json"
        assert main(
            [
                "train", "--data", str(train), "--schema", str(schema),
                "--model-out", str(model), "--trees", "3", "--seed", "1",
            ]
        ) == 0
        capsys.readouterr()
        inst = tmp_path / "inst.csv"
        inst.write_text("signal,layout\n0.1,list\n\n0.2,tiles\n0.3,tiles\n")
        code = main(
            [
                "tweak", "--model", str(model), "--data", str(inst),
                "--out", str(tmp_path / "out.json"),
            ]
        )
        assert code == 1
        assert assert_one_error_line(capsys) == (
            "error: line 4: column 'layout': unknown category 'tiles'"
        )


class TestFlagsAndEnv:
    def test_allow_satisfied_skip_is_wired(self, tmp_path):
        model = write_stump_model(tmp_path / "model.json")
        data = tmp_path / "inst.csv"
        data.write_text("x0\n-1.0\n")
        out = tmp_path / "out.json"
        assert main(
            [
                "tweak", "--model", str(model), "--data", str(data),
                "--out", str(out), "--epsilon", "0.1",
                "--delta", "euclidean", "--allow-satisfied-skip",
            ]
        ) == 0
        # the stump's positive path is not satisfied by x, so the result
        # matches the default mode here
        doc = json.loads(out.read_text())
        best = doc["results"][0]["transformations"][0]
        assert best["candidate_standardized"] == [pytest.approx(0.1)]

    def test_budget_flag_is_wired(self, tmp_path, capsys):
        model = write_stump_model(tmp_path / "model.json")
        data = tmp_path / "inst.csv"
        data.write_text("x0\n-1.0\n")
        out = tmp_path / "out.json"
        assert main(
            [
                "tweak", "--model", str(model), "--data", str(data),
                "--out", str(out), "--budget", "0",
            ]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["results"][0]["status"] == "not_covered"
        assert "budget" in doc["results"][0]["reason"]

    @staticmethod
    def fresh_root_logger(monkeypatch):
        """Empty the root logger's handlers, so that basicConfig configures
        it as in a fresh process, and unset its level; both come back after
        the test."""
        monkeypatch.setattr(logging.root, "handlers", [])
        monkeypatch.setattr(logging.root, "level", logging.NOTSET)

    def test_log_env_var_naming_a_non_level_falls_back(self, monkeypatch):
        # logging.BASIC_FORMAT is a string, not a level.
        monkeypatch.setenv("TREETWEAK_LOG", "basic_format")
        self.fresh_root_logger(monkeypatch)
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert logging.root.level == logging.WARNING

    def test_log_env_var_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TREETWEAK_LOG", "debug")
        self.fresh_root_logger(monkeypatch)
        model = write_stump_model(tmp_path / "model.json")
        data = tmp_path / "inst.csv"
        data.write_text("x0\n-0.5\n")
        out = tmp_path / "out.json"
        assert main(
            ["tweak", "--model", str(model), "--data", str(data), "--out", str(out)]
        ) == 0
        assert logging.root.level == logging.DEBUG

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("tweak", ["--epsilon", "inf"]),
            ("tweak", ["--epsilon", "nan"]),
            ("tweak", ["--budget", "-1"]),
            ("tweak", ["--top-k", "0"]),
            ("sweep", ["--epsilon-grid", "0.1,inf"]),
            ("sweep", ["--budget", "-1"]),
        ],
    )
    @pytest.mark.parametrize("x0", ["-1.0", "1.0"], ids=["eligible", "all-positive"])
    def test_out_of_range_value_exits_1_without_output(
        self, tmp_path, capsys, command, flags, x0
    ):
        model = write_stump_model(tmp_path / "model.json")
        data = tmp_path / "inst.csv"
        data.write_text(f"x0\n{x0}\n")
        out = tmp_path / "out"
        code = main(
            [command, "--model", str(model), "--data", str(data), "--out", str(out)]
            + flags
        )
        assert code == 1
        assert_one_error_line(capsys)
        assert not out.exists()

    def test_top_k_checked_before_the_model_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        out = tmp_path / "out.json"
        code = main(
            ["tweak", "--model", missing, "--data", missing, "--out", str(out),
             "--top-k", "0"]
        )
        assert code == 1
        assert "top-k" in assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--epsilon-grid", "nan"],
            ["--epsilon-grid", ","],
            ["--deltas", ","],
            ["--deltas", "nope"],
            ["--budget", "-1"],
            ["--epsilon-grid", "0.1,abc"],
        ],
    )
    def test_sweep_arguments_checked_before_the_model_is_read(
        self, tmp_path, capsys, flags
    ):
        missing = str(tmp_path / "missing.json")
        out = tmp_path / "out.csv"
        code = main(["sweep", "--model", missing, "--data", missing, "--out", str(out)] + flags)
        assert code == 1
        line = assert_one_error_line(capsys)
        assert "missing.json" not in line
        if flags[-1] == "0.1,abc":
            # float's own message named the value but not the flag.
            assert "epsilon-grid" in line
        assert not out.exists()


class TestSweepCommand:
    def test_default_grid_emits_25_rows(self, tmp_path):
        model = write_stump_model(tmp_path / "model.json")
        data = tmp_path / "inst.csv"
        data.write_text("x0\n-0.5\n-1.5\n-2.5\n")
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--model", str(model), "--data", str(data), "--out", str(out)]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 26  # header + 5 epsilon x 5 delta
        header = rows[0]
        for row in rows[1:]:
            record = dict(zip(header, row))
            assert 0.0 <= float(record["coverage"]) <= 1.0
            assert record["eligible"] == "3"

    def test_empty_eligible_rows(self, tmp_path):
        model = write_stump_model(tmp_path / "model.json")
        data = tmp_path / "inst.csv"
        data.write_text("x0\n5.0\n")
        out = tmp_path / "sweep.csv"
        assert main(
            [
                "sweep", "--model", str(model), "--data", str(data),
                "--out", str(out), "--epsilon-grid", "0.1",
                "--deltas", "euclidean",
            ]
        ) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        record = dict(zip(rows[0], rows[1]))
        assert record["coverage"] == "0.0"
        assert record["micro_avg_cost"] == ""


NO_FEATURE = {"recommendations": [{"direction": "increase"}]}


class TestReportCommand:
    def _write_recommendations(self, path):
        doc = {
            "results": [
                {
                    "status": "found",
                    "transformations": [
                        {"recommendations": [{"feature": "a"}]},
                        {"recommendations": [{"feature": "a"}, {"feature": "b"}]},
                    ],
                },
                {
                    "status": "found",
                    "transformations": [
                        {"recommendations": [{"feature": "b"}]},
                        {"recommendations": [{"feature": "a"}]},
                    ],
                },
                {
                    "status": "found",
                    "transformations": [
                        {"recommendations": [{"feature": "a"}]},
                    ],
                },
                {"status": "not_covered", "transformations": []},
            ]
        }
        path.write_text(json.dumps(doc))
        return path

    def test_frequency_tables_sum_to_one(self, tmp_path):
        recs = self._write_recommendations(tmp_path / "recs.json")
        out = tmp_path / "report.json"
        assert main(["report", "--recommendations", str(recs), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        for m in ("top_1", "top_2", "top_3"):
            assert sum(doc["frequency"][m].values()) == pytest.approx(1.0, abs=1e-9)
        assert doc["helpfulness"] is None

    def test_helpfulness_from_ratings(self, tmp_path):
        recs = self._write_recommendations(tmp_path / "recs.json")
        ratings = tmp_path / "ratings.csv"
        ratings.write_text(
            "feature_name,verdict\n"
            "a,helpful\na,helpful\na,helpful\na,non_helpful\n"
            "b,non_helpful\nb,non_actionable\n"
        )
        out = tmp_path / "report.json"
        assert main(
            [
                "report", "--recommendations", str(recs),
                "--ratings", str(ratings), "--out", str(out),
            ]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["helpfulness"]["a"] == pytest.approx(0.75)
        assert doc["helpfulness"]["b"] == 0.0

    def test_rank_correlation_matches_offline_recomputation(self, tmp_path):
        from treetweak.recommend import rank_correlation, ranking_from_scores

        recs = self._write_recommendations(tmp_path / "recs.json")
        out = tmp_path / "report.json"
        assert main(["report", "--recommendations", str(recs), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        freq = doc["frequency"]
        common = set(freq["top_1"]) & set(freq["top_2"])
        expected = rank_correlation(
            ranking_from_scores({f: freq["top_1"][f] for f in common}),
            ranking_from_scores({f: freq["top_2"][f] for f in common}),
        )
        assert doc["rank_correlations"]["top_1_vs_top_2"] == pytest.approx(expected)

    def test_lists_sharing_fewer_than_two_features_are_not_correlated(self, tmp_path):
        recs = tmp_path / "recs.json"
        recs.write_text(json.dumps({"results": [{
            "status": "found",
            "transformations": [{"recommendations": [{"feature": "a"}]}],
        }]}))
        out = tmp_path / "report.json"
        assert main(["report", "--recommendations", str(recs), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["rank_correlations"] == {}

    @pytest.mark.parametrize(
        "doc",
        [[], {"results": [{"status": "found", "transformations": [NO_FEATURE]}]}],
        ids=["list-document", "recommendation-without-feature"],
    )
    def test_malformed_recommendations_exit_1(self, tmp_path, capsys, doc):
        recs = tmp_path / "recs.json"
        recs.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        code = main(["report", "--recommendations", str(recs), "--out", str(out)])
        assert code == 1
        assert "recs.json" in assert_one_error_line(capsys)

    def test_ratings_row_width_reports_its_line(self, tmp_path, capsys):
        recs = self._write_recommendations(tmp_path / "recs.json")
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("feature_name,verdict\na,helpful\n\na,helpful,extra\n")
        code = main(
            [
                "report", "--recommendations", str(recs),
                "--ratings", str(ratings), "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        assert "line 4" in assert_one_error_line(capsys)

    def test_ratings_unknown_verdict_reports_its_line(self, tmp_path, capsys):
        recs = self._write_recommendations(tmp_path / "recs.json")
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("feature_name,verdict\na,helpful\na,useful\n")
        code = main(
            [
                "report", "--recommendations", str(recs),
                "--ratings", str(ratings), "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        err = assert_one_error_line(capsys)
        assert "line 3" in err and "'useful'" in err

    def test_bad_ratings_header_fails(self, tmp_path, capsys):
        recs = self._write_recommendations(tmp_path / "recs.json")
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("name,verdict\na,helpful\n")
        code = main(
            [
                "report", "--recommendations", str(recs),
                "--ratings", str(ratings), "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1
        assert "feature_name" in capsys.readouterr().err


# A small valid model: x = (-1, -1) is negative under both trees.
_MODEL = ensemble_to_dict(
    TreeEnsemble(
        trees_from_nodes([tree((0, 0.0, -1, (1, 0.5, 1, -1))), stump(1, 0.0, -1, 1)]),
        plain_space(2),
        importances=[0.5, 0.5],
    )
)
_NEST = "nest-here"  # a placeholder that no model document contains
_OTHER_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=3),
    st.just([]), st.just({}),
)


def json_paths(doc):
    """The path (keys and indices) of every value below the document root."""
    paths, stack = [], [((), doc)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, dict):
            items = value.items()
        elif isinstance(value, list):
            items = enumerate(value)
        else:
            continue
        for key, child in items:
            paths.append(path + (key,))
            stack.append((path + (key,), child))
    return paths


@st.composite
def mutated_models(draw):
    """The text of the small model after one to three mutations: a value of
    another type, a dropped key or list item, a child index moved, or a
    value wrapped in deeply nested lists."""
    doc = json.loads(json.dumps(_MODEL))
    depth = 0
    for _ in range(draw(st.integers(1, 3))):
        paths = json_paths(doc)
        children = [p for p in paths if p[-1] in ("left", "right")]
        kind = draw(st.sampled_from(["retype", "drop", "child", "nest"]))
        path = draw(st.sampled_from(children if kind == "child" and children else paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, value = path[-1], parent[path[-1]]
        if kind == "drop":
            del parent[key]
        elif kind == "child" and type(value) is int:
            parent[key] = value + draw(st.sampled_from([-2, -1, 1, 2, 10**30]))
        elif kind == "nest" and not depth:
            depth = draw(st.integers(1, 100_000))
            parent[key] = _NEST
        else:
            parent[key] = draw(_OTHER_VALUE.filter(lambda v: type(v) is not type(value)))
    text = json.dumps(doc)
    return text.replace(f'"{_NEST}"', "[" * depth + "0" + "]" * depth)


class TestModelFuzz:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=mutated_models())
    def test_tweak_reports_a_bad_model_in_one_error_line(self, tmp_path, capsys, text):
        model, data = tmp_path / "model.json", tmp_path / "inst.csv"
        model.write_text(text)
        data.write_text("x0,x1\n-1.0,-1.0\n")
        capsys.readouterr()
        code = main(
            ["tweak", "--model", str(model), "--data", str(data),
             "--out", str(tmp_path / "out.json")]
        )
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            lines = err.splitlines()
            assert code in (1, 2) and len(lines) == 1, err
            assert lines[0].startswith("error:"), err
        else:
            # Some mutations leave a valid model (an int threshold, a
            # metadata value of another type); the run must have read one.
            load_model(model)


def _recommendation(feature, change):
    return {
        "feature": feature, "direction": "increase", "change_standardized": change,
        "change_raw": change, "from_raw": -1.0, "to_raw": change - 1.0, "importance_rank": 1,
    }


def _found(index, *ranked):
    """A covered instance's entry; each argument is one transformation's
    recommendations, best first."""
    return {
        "instance_index": index, "label": None, "status": "found",
        "num_candidates": len(ranked),
        "transformations": [
            {"rank": rank, "cost": 1.0, "source_tree": 0, "source_path": 1,
             "candidate_standardized": [0.05, 0.45], "recommendations": recs}
            for rank, recs in enumerate(ranked, start=1)
        ],
    }


# A small valid "tweak --out" document: two covered instances and one not.
_RECOMMENDATIONS = {
    "model": "model.json", "epsilon": 0.05, "delta": "cosine", "top_k": 3,
    "eligible": 3, "covered": 2, "coverage": 2 / 3, "skipped_positive": [3],
    "results": [
        _found(
            0,
            [_recommendation("x0", 1.05), _recommendation("x1", 1.45)],
            [_recommendation("x1", 2.0)],
        ),
        _found(1, [_recommendation("x1", 1.05)]),
        {"instance_index": 2, "label": -1, "status": "not_covered",
         "reason": "no candidate flips the ensemble", "num_candidates": 0,
         "transformations": []},
    ],
}


@st.composite
def mutated_recommendations(draw):
    """The text of the small recommendations document after one to three
    mutations: a value of another type, a dropped key or list item, a
    feature name that is not a string, or a value wrapped in deeply nested
    lists."""
    doc = json.loads(json.dumps(_RECOMMENDATIONS))
    depth = 0
    for _ in range(draw(st.integers(1, 3))):
        paths = json_paths(doc)
        names = [p for p in paths if p[-1] == "feature"]
        kind = draw(st.sampled_from(["retype", "drop", "name", "nest"]))
        path = draw(st.sampled_from(names if kind == "name" and names else paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, value = path[-1], parent[path[-1]]
        if kind == "drop":
            del parent[key]
        elif kind == "nest" and not depth:
            depth = draw(st.integers(1, 100_000))
            parent[key] = _NEST
        else:
            parent[key] = draw(_OTHER_VALUE.filter(lambda v: type(v) is not type(value)))
    text = json.dumps(doc)
    return text.replace(f'"{_NEST}"', "[" * depth + "0" + "]" * depth)


class TestReportFuzz:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=mutated_recommendations())
    def test_report_writes_a_report_or_one_error_line(self, tmp_path, capsys, text):
        recs, out = tmp_path / "recs.json", tmp_path / "report.json"
        recs.write_text(text)
        out.unlink(missing_ok=True)  # left by an earlier example
        capsys.readouterr()
        code = main(["report", "--recommendations", str(recs), "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            lines = err.splitlines()
            assert code in (1, 2) and len(lines) == 1, err
            assert lines[0].startswith("error:"), err
        else:
            report = json.loads(out.read_text())
            assert set(report) == {"frequency", "rank_correlations", "helpfulness"}
