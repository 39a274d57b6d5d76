import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treetweak.errors import (
    LengthMismatch,
    NonFiniteValue,
    ParseError,
    SchemaMismatch,
    TreeTweakError,
    UnknownCategory,
    ZeroVariance,
)
from treetweak.feature_space import (
    ColumnSpec,
    FeatureMeta,
    FeatureSpace,
    Instance,
    OneHotMember,
    TableSchema,
    destandardize,
    fit_standardizer,
    load_instances,
    load_schema,
    load_table,
    one_hot_encode,
    standardize,
)
from treetweak.recommend import load_ratings

from conftest import plain_space


class TestFitStandardizer:
    def test_two_point_column(self):
        space = FeatureSpace([FeatureMeta("a")])
        fitted = fit_standardizer([[2.0], [4.0]], space)
        assert fitted.features[0].mean == pytest.approx(3.0)
        assert fitted.features[0].std_dev == pytest.approx(math.sqrt(2.0))
        z = [standardize([v], fitted).values[0] for v in (2.0, 4.0)]
        assert z == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_constant_column_rejected(self):
        space = FeatureSpace([FeatureMeta("a")])
        with pytest.raises(ZeroVariance):
            fit_standardizer([[5.0], [5.0], [5.0]], space)

    def test_table_of_another_width_rejected(self):
        with pytest.raises(SchemaMismatch, match="2 columns"):
            fit_standardizer([[1.0], [2.0]], plain_space(2))

    def test_standardized_table_has_unit_stats(self):
        # Oracle: recompute sample statistics on the transformed output.
        rng = np.random.default_rng(11)
        table = rng.normal(3.0, 2.5, size=(60, 10)) * rng.uniform(0.5, 4.0, size=10)
        space = plain_space(10)
        fitted = fit_standardizer(table, space)
        z = np.stack([standardize(row, fitted).values for row in table])
        assert np.all(np.abs(z.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(z.std(axis=0, ddof=1) - 1.0) < 1e-9)

    def test_std_of_a_huge_column_is_representable(self):
        # The squared deviations of +-1e200 overflow; the std, about
        # 1.15e200, does not. The other column keeps np.std's bits.
        rng = np.random.default_rng(3)
        small = rng.normal(0, 1, 4)
        table = np.column_stack([[1e200, -1e200, 1e200, -1e200], small])
        fitted = fit_standardizer(table, plain_space(2))
        assert fitted.features[0].mean == 0.0
        assert fitted.features[0].std_dev == pytest.approx(2e200 / math.sqrt(3), rel=1e-15)
        assert fitted.features[1].std_dev == float(np.std(small, ddof=1))

    def test_column_too_wide_for_a_std_is_rejected(self):
        with pytest.raises(NonFiniteValue, match="'a'"):
            fit_standardizer([[1.7e308], [-1.7e308]], FeatureSpace([FeatureMeta("a")]))

    def test_constant_indicator_column_gets_unit_scale(self):
        space = FeatureSpace(
            [
                FeatureMeta("c=x", one_hot=OneHotMember("c", "x"), adjustable=False),
                FeatureMeta("c=y", one_hot=OneHotMember("c", "y"), adjustable=False),
                FeatureMeta("a"),
            ]
        )
        table = [[1.0, 0.0, 2.0], [1.0, 0.0, 5.0], [1.0, 0.0, 9.0]]
        fitted = fit_standardizer(table, space)
        assert fitted.features[0].std_dev == 1.0
        assert fitted.features[1].std_dev == 1.0


class TestStandardize:
    def test_value_at_mean_maps_to_zero(self):
        space = FeatureSpace([FeatureMeta("a", mean=10.0, std_dev=2.0)])
        assert standardize([10.0], space).values[0] == 0.0

    def test_two_sigma_above(self):
        space = FeatureSpace([FeatureMeta("a", mean=10.0, std_dev=2.0)])
        assert standardize([14.0], space).values[0] == 2.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            standardize([1.0, 2.0], plain_space(3))

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        space = FeatureSpace(
            [
                FeatureMeta(f"f{i}", mean=float(m), std_dev=float(s))
                for i, (m, s) in enumerate(
                    zip(rng.normal(0, 10, 8), rng.uniform(0.1, 5.0, 8))
                )
            ]
        )
        for _ in range(1000):
            raw = rng.normal(0, 20, 8)
            back = destandardize(standardize(raw, space), space)
            np.testing.assert_allclose(back, raw, atol=1e-9)

    def test_a_z_score_past_the_float_range_names_its_feature(self):
        space = FeatureSpace([FeatureMeta("a"), FeatureMeta("b", std_dev=1e-10)])
        with pytest.raises(NonFiniteValue, match=r"^feature 'b': 1e\+300 is beyond the float"):
            standardize([0.0, 1e300], space)
        # A value that is not finite to begin with is left to the search.
        assert np.isnan(standardize([math.nan, 1.0], space).values[0])


class TestDestandardize:
    def test_zero_maps_to_mean(self):
        space = FeatureSpace(
            [FeatureMeta("a", mean=4.0, std_dev=2.0), FeatureMeta("b", mean=-1.0)]
        )
        np.testing.assert_allclose(
            destandardize(Instance([0.0, 0.0]), space), [4.0, -1.0]
        )

    def test_one_sigma(self):
        space = FeatureSpace([FeatureMeta("a", mean=3.0, std_dev=2.0)])
        assert destandardize(Instance([1.0]), space)[0] == 5.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            destandardize([1.0, 2.0], plain_space(3))

    def test_tweak_pivots_around_raw_threshold(self):
        # A standardized threshold moved by +-eps lands at t +- eps*sigma in
        # raw units, pivoting around the raw threshold t.
        mean, sigma, t, eps = 7.0, 3.0, 11.5, 0.25
        space = FeatureSpace([FeatureMeta("a", mean=mean, std_dev=sigma)])
        theta = (t - mean) / sigma
        up = destandardize(Instance([theta + eps]), space)[0]
        down = destandardize(Instance([theta - eps]), space)[0]
        assert up == pytest.approx(t + eps * sigma)
        assert down == pytest.approx(t - eps * sigma)

    def test_a_raw_value_past_the_float_range_is_inf(self):
        space = FeatureSpace([FeatureMeta("a", std_dev=1e300)])
        assert destandardize(Instance([1e10]), space).tolist() == [math.inf]


class TestOneHot:
    def test_encode_middle_category(self):
        np.testing.assert_array_equal(
            one_hot_encode(["b"], ["a", "b", "c"]), [[0.0, 1.0, 0.0]]
        )

    def test_encode_first_category(self):
        np.testing.assert_array_equal(
            one_hot_encode(["a"], ["a", "b", "c"]), [[1.0, 0.0, 0.0]]
        )

    def test_each_category_has_its_own_column(self):
        categories = ["a", "b", "c", "d"]
        np.testing.assert_array_equal(one_hot_encode(categories, categories), np.eye(4))

    def test_unknown_category(self):
        with pytest.raises(UnknownCategory):
            one_hot_encode(["z"], ["a", "b"])

    def test_exactly_one_hot_per_row(self):
        rows = one_hot_encode(["a", "c", "b", "c"], ["a", "b", "c"])
        assert np.all(rows.sum(axis=1) == 1.0)


class TestInstance:
    def test_label_domain(self):
        with pytest.raises(ValueError):
            Instance([1.0], label=0)

    def test_values_are_float_vector(self):
        inst = Instance([1, 2, 3], label=1)
        assert inst.values.dtype == float
        assert len(inst) == 3

    def test_values_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            Instance([[1.0, 2.0]])


class TestLoadTable(object):
    def _write(self, path, text):
        path.write_text(text)
        return path

    def test_small_labeled_csv(self, tmp_path):
        csv = self._write(
            tmp_path / "d.csv",
            "a,b,label\n1,10,-1\n2,20,1\n3,30,-1\n4,40,1\n",
        )
        space, instances = load_table(csv)
        assert space.n == 2
        assert len(instances) == 4
        assert [inst.label for inst in instances] == [-1, 1, -1, 1]

    def test_zero_label_rejected(self, tmp_path):
        csv = self._write(tmp_path / "d.csv", "a,label\n1,0\n2,1\n")
        with pytest.raises(ParseError):
            load_table(csv)

    def test_header_mismatch(self, tmp_path):
        csv = self._write(tmp_path / "d.csv", "a,b\n1,2\n3,4\n")
        schema = TableSchema((ColumnSpec("a"), ColumnSpec("c")))
        with pytest.raises(SchemaMismatch):
            load_table(csv, schema)

    def test_categorical_column_expands(self, tmp_path):
        csv = self._write(
            tmp_path / "d.csv",
            "a,c,label\n1,red,-1\n2,green,1\n3,blue,-1\n4,red,1\n",
        )
        schema = TableSchema((ColumnSpec("a"), ColumnSpec("c", categorical=True)))
        space, instances = load_table(csv, schema)
        # one continuous + 3 indicator columns
        assert space.n == 4
        assert set(space.one_hot_groups) == {"c"}
        assert len(space.one_hot_groups["c"]) == 3
        # indicator members default to non-adjustable
        assert all(not space.features[i].adjustable for i in space.one_hot_groups["c"])

    def test_non_numeric_cell(self, tmp_path):
        csv = self._write(tmp_path / "d.csv", "a,label\nx,-1\n2,1\n")
        with pytest.raises(ParseError):
            load_table(csv)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_reports_its_line(self, tmp_path, cell):
        csv = self._write(
            tmp_path / "d.csv", f"a,b,label\n1,10,-1\n2,20,1\n3,{cell},-1\n"
        )
        with pytest.raises(ParseError) as info:
            load_table(csv)
        assert info.value.line == 4
        assert "'b'" in str(info.value)

    def test_a_z_score_past_the_float_range_reports_its_line(self, tmp_path):
        # Column b's mean is -4.25e307, so line 2's 1.7e308 is 2.125e308
        # above it, past the float range.
        csv = self._write(
            tmp_path / "d.csv",
            "a,b,label\n0,1.7e308,-1\n1,-1.7e308,1\n2,-1.7e308,-1\n3,0,1\n",
        )
        with pytest.raises(ParseError, match=r"^line 2: column 'b': 1\.7e\+308 is beyond"):
            load_table(csv)


class TestLoadInstances:
    def test_round_trip_through_raw_header(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_text("a,c,label\n1,red,-1\n2,green,1\n3,blue,-1\n4,red,1\n")
        schema = TableSchema((ColumnSpec("a"), ColumnSpec("c", categorical=True)))
        space, fitted_instances = load_table(train, schema)

        newfile = tmp_path / "new.csv"
        newfile.write_text("a,c\n2,blue\n1,red\n")
        loaded = load_instances(newfile, space)
        assert len(loaded) == 2
        # the indicator for blue must be the hot one after destandardizing
        raw = destandardize(loaded[0], space)
        blue = [
            i
            for i in space.one_hot_groups["c"]
            if space.features[i].one_hot.category == "blue"
        ][0]
        assert raw[blue] == pytest.approx(1.0)

    def test_unknown_category_rejected(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_text("c,label\nred,-1\ngreen,1\nred,-1\ngreen,1\n")
        schema = TableSchema((ColumnSpec("c", categorical=True),))
        space, _ = load_table(train, schema)
        newfile = tmp_path / "new.csv"
        newfile.write_text("c\npurple\n")
        with pytest.raises(UnknownCategory):
            load_instances(newfile, space)

    @pytest.mark.parametrize("cell", ["nan", "-inf", "Infinity"])
    def test_non_finite_cell_reports_its_line(self, tmp_path, cell):
        train = tmp_path / "train.csv"
        train.write_text("a,c,b,label\n1,red,5,-1\n2,green,6,1\n3,red,8,-1\n")
        schema = TableSchema(
            (ColumnSpec("a"), ColumnSpec("c", categorical=True), ColumnSpec("b"))
        )
        space, _ = load_table(train, schema)
        newfile = tmp_path / "new.csv"
        newfile.write_text(f"a,c,b\n2,red,7\n1,green,{cell}\n")
        with pytest.raises(ParseError) as info:
            load_instances(newfile, space)
        assert info.value.line == 3
        assert "'b'" in str(info.value)

    def test_a_z_score_past_the_float_range_reports_its_line(self, tmp_path):
        space = FeatureSpace([FeatureMeta("a"), FeatureMeta("b", std_dev=1e-10)])
        newfile = tmp_path / "new.csv"
        newfile.write_text("a,b\n1,2\n\n3,1e300\n")
        with pytest.raises(ParseError, match=r"^line 4: column 'b': 1e\+300 is beyond"):
            load_instances(newfile, space)


# The raw columns a, c (categorical), b, and a space encoded from them.
_ACB = TableSchema(
    (ColumnSpec("a"), ColumnSpec("c", categorical=True), ColumnSpec("b"))
)
_ACB_DECLARED = TableSchema(
    (
        ColumnSpec("a"),
        ColumnSpec("c", categorical=True, categories=("green", "red")),
        ColumnSpec("b"),
    )
)
_ACB_SPACE = FeatureSpace(
    [FeatureMeta("a")]
    + [FeatureMeta(f"c={v}", one_hot=OneHotMember("c", v)) for v in ("green", "red")]
    + [FeatureMeta("b")]
)
_BOTH_LOADERS = pytest.mark.parametrize(
    "load",
    [
        lambda path: load_table(path, _ACB),
        lambda path: load_instances(path, _ACB_SPACE),
    ],
    ids=["load_table", "load_instances"],
)


class TestSharedParse:
    @_BOTH_LOADERS
    def test_line_numbers_count_blank_lines(self, tmp_path, load):
        path = tmp_path / "new.csv"
        path.write_text("a,c,b\n1,red,5\n\n\n3,green,x\n")
        with pytest.raises(ParseError) as info:
            load(path)
        assert info.value.line == 5
        assert "'b'" in str(info.value)

    @_BOTH_LOADERS
    def test_row_checks_come_before_cell_checks(self, tmp_path, load):
        # A bad cell on line 2, a short row on line 3: both loaders report
        # the row first.
        path = tmp_path / "new.csv"
        path.write_text("a,c,b\n1,red,x\n2,green\n")
        with pytest.raises(ParseError) as info:
            load(path)
        assert info.value.line == 3
        assert "expected 3 fields" in str(info.value)

    @pytest.mark.parametrize(
        "load",
        [
            lambda path: load_table(path, _ACB_DECLARED),
            lambda path: load_instances(path, _ACB_SPACE),
        ],
        ids=["load_table", "load_instances"],
    )
    def test_unknown_category_names_the_first_row_holding_it(self, tmp_path, load):
        path = tmp_path / "new.csv"
        path.write_text("a,c,b\n1,red,5\n\n2,blue,6\n3,blue,7\n")
        with pytest.raises(UnknownCategory) as info:
            load(path)
        assert info.value.line == 4
        assert info.value.value == "blue"
        assert info.value.categories == ("green", "red")
        assert str(info.value) == "line 4: column 'c': unknown category 'blue'"

    @pytest.mark.parametrize(
        "doc, where, key",
        [
            ({"columns": [{"name": "a", "categorial": True}]}, "column 'a'", "categorial"),
            ({"columns": [{"name": "a"}], "label": "y"}, "the schema", "label"),
        ],
        ids=["column", "top-level"],
    )
    def test_schema_with_an_unknown_key_is_rejected(self, tmp_path, doc, where, key):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch) as info:
            load_schema(path)
        assert f"{where} has the unknown key {key!r}" in str(info.value)

    def test_schema_with_every_known_key_loads(self, tmp_path):
        path = tmp_path / "s.json"
        column = {"name": "c", "categorical": True, "categories": ["x"], "adjustable": True}
        path.write_text(json.dumps({"columns": [column], "label_column": "y"}))
        assert load_schema(path) == TableSchema((ColumnSpec("c", True, ("x",), True),), "y")

    def test_unknown_verdict_reports_its_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("feature_name,verdict\na,helpful\n\nb,useful\n")
        with pytest.raises(ParseError) as info:
            load_ratings(path)
        assert info.value.line == 4
        assert "'useful'" in str(info.value)

    def test_group_members_need_not_be_contiguous(self, tmp_path):
        # A model file may list a group's members apart from each other.
        space = FeatureSpace(
            [
                FeatureMeta("c=x", one_hot=OneHotMember("c", "x"), mean=0.5),
                FeatureMeta("a", mean=1.0, std_dev=2.0),
                FeatureMeta("c=y", one_hot=OneHotMember("c", "y"), mean=0.5),
            ]
        )
        path = tmp_path / "new.csv"
        path.write_text("c,a\ny,5\n")
        [inst] = load_instances(path, space)
        np.testing.assert_array_equal(inst.values, [-0.5, 2.0, 0.5])

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "new.csv"
        path.write_text("a,c,b\n")
        assert load_instances(path, _ACB_SPACE) == []
        with pytest.raises(ParseError) as info:
            load_table(path)
        assert info.value.line == 2


_CELLS = st.one_of(
    st.sampled_from(
        ["a", "b", "c", "label", "1", "-1", "2.5", "nan", "red", "green", '"', ""]
    ),
    st.text(max_size=3),
)
_CSV_TEXT = st.builds(
    lambda header, rows, sep: sep.join([header] + [",".join(r) for r in rows]),
    st.sampled_from(["a,c,b,label", "a,c,b", "feature_name,verdict", "label", ""]),
    st.lists(st.lists(_CELLS, max_size=5), max_size=5),
    st.sampled_from(["\n", "\r\n", "\n\n"]),
)
_FILE = st.one_of(_CSV_TEXT.map(str.encode), st.binary(max_size=16))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(
            ["columns", "name", "categorical", "categories", "adjustable"]
        ),
        inner,
        max_size=4,
    ),
    max_leaves=8,
)
_COLUMN = st.fixed_dictionaries(
    {"name": st.sampled_from(["a", "b", "c"])},
    optional={
        "categorical": st.booleans() | _JSON,
        "categories": st.lists(st.sampled_from(["red", "x"]), max_size=3) | _JSON,
        "adjustable": st.none() | st.booleans() | _JSON,
    },
)
_SCHEMA = st.one_of(
    _JSON, st.fixed_dictionaries({"columns": st.lists(_COLUMN, max_size=3)})
)


class TestReadersFuzz:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=_FILE, schema_doc=_SCHEMA, ratings=_FILE)
    def test_readers_raise_only_errors_the_cli_reports(
        self, tmp_path, data, schema_doc, ratings
    ):
        # The CLI maps TreeTweakError and ValueError (UnicodeDecodeError is
        # one) to exit code 1 and a single "error:" line.
        paths = {name: tmp_path / name for name in ("d.csv", "s.json", "r.csv")}
        paths["d.csv"].write_bytes(data)
        paths["s.json"].write_text(json.dumps(schema_doc))
        paths["r.csv"].write_bytes(ratings)
        calls = [
            lambda: load_table(paths["d.csv"]),
            lambda: load_instances(paths["d.csv"], _ACB_SPACE),
            lambda: load_table(paths["d.csv"], load_schema(paths["s.json"])),
            lambda: load_ratings(paths["r.csv"]),
        ]
        for call in calls:
            try:
                call()
            except (TreeTweakError, ValueError):
                pass
