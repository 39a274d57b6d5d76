import csv
import json

import numpy as np
import pytest

from treetweak.cli import main
from treetweak.forest import (
    TreeEnsemble,
    load_model,
    predict_ensemble,
    save_model,
)
from treetweak.feature_space import Instance
from treetweak.tweaker import Found

from conftest import plain_space, stump


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
    ens = TreeEnsemble((stump(0, 0.0, -1, 1),), plain_space(1), importances=[1.0])
    save_model(ens, path)
    return path


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
        ],
        ids=[
            "not-an-object", "no-columns", "columns-not-a-list", "no-name",
            "name-not-a-string", "categories-not-a-list", "adjustable-not-a-bool",
            "unknown-column-key", "unknown-top-level-key",
        ],
    )
    def test_malformed_schema_exits_1_with_one_error_line(self, tmp_path, capsys, doc):
        data = write_gaussian_csv(tmp_path / "train.csv", m=20, n=1)
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(doc))
        code = main(
            [
                "train", "--data", str(data), "--schema", str(schema),
                "--model-out", str(tmp_path / "m.json"),
            ]
        )
        assert code == 1
        assert "schema" in assert_one_error_line(capsys)


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

    @pytest.mark.parametrize("corruption", ["infinite-child", "deep-nesting"])
    def test_corrupt_model_exits_1_with_one_error_line(
        self, tmp_path, capsys, corruption
    ):
        model = write_stump_model(tmp_path / "model.json")
        if corruption == "infinite-child":
            text = model.read_text()
            assert '"right": 2' in text
            model.write_text(text.replace('"right": 2', '"right": Infinity'))
        else:
            model.write_text("[" * 200_000)
        data = tmp_path / "inst.csv"
        data.write_text("x0\n-1.0\n")
        out = tmp_path / "out.json"
        code = main(
            ["tweak", "--model", str(model), "--data", str(data), "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

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


class TestSchemaPipeline:
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

    def test_log_env_var_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TREETWEAK_LOG", "debug")
        model = write_stump_model(tmp_path / "model.json")
        data = tmp_path / "inst.csv"
        data.write_text("x0\n-0.5\n")
        out = tmp_path / "out.json"
        assert main(
            ["tweak", "--model", str(model), "--data", str(data), "--out", str(out)]
        ) == 0

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
