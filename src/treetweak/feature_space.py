"""Feature schema, z-score standardization, and the readers of the data
tables and schema files the CLI takes.

All downstream math runs in standardized units: categorical columns are
expanded to 0/1 indicator groups, then every column is mapped to z-scores
using sample statistics fitted on the training table. The fitted
:class:`FeatureSpace` is immutable and travels with the model so that new
instances are encoded identically at tweak time. Training tables and new
instances go through one parse; they and ``--schema`` files raise a typed
error on malformed input, a CSV fault with its file line. Ratings are read
in :mod:`treetweak.recommend`, with the same :func:`read_csv`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from treetweak.errors import (
    LengthMismatch,
    NonFiniteValue,
    ParseError,
    SchemaMismatch,
    UnknownCategory,
    ZeroVariance,
)

LABEL_COLUMN = "label"


@dataclass(frozen=True)
class OneHotMember:
    """Marks a feature as one indicator column of a categorical group."""

    group: str
    category: str


@dataclass(frozen=True)
class FeatureMeta:
    """One feature: name, kind, adjustability, and standardization stats.

    ``mean``/``std_dev`` are in original units and default to the identity
    transform (0, 1) until :func:`fit_standardizer` fills them in.
    """

    name: str
    one_hot: OneHotMember | None = None
    adjustable: bool = True
    mean: float = 0.0
    std_dev: float = 1.0

    @property
    def is_continuous(self) -> bool:
        return self.one_hot is None


class FeatureSpace:
    """Ordered feature schema; indices are stable across save/load.

    Immutable after construction and therefore safe to share read-only
    across any number of concurrent workers.
    """

    def __init__(self, features: Iterable[FeatureMeta]):
        feats = tuple(features)
        if not feats:
            raise SchemaMismatch("a feature space needs at least one feature")
        names = [f.name for f in feats]
        if len(set(names)) != len(names):
            repeat = next(name for i, name in enumerate(names) if name in names[:i])
            raise SchemaMismatch(f"duplicate feature name {repeat!r}")
        members = [f.one_hot for f in feats if f.one_hot is not None]
        if len(set(members)) != len(members):
            repeat = next(m for i, m in enumerate(members) if m in members[:i])
            raise SchemaMismatch(
                f"one-hot group {repeat.group!r} repeats category {repeat.category!r}"
            )
        for f in feats:
            if not (math.isfinite(f.mean) and math.isfinite(f.std_dev)):
                raise NonFiniteValue(f"feature {f.name!r}: mean or std_dev not finite")
            if not f.std_dev > 0:
                raise ZeroVariance(f.name, f"feature {f.name!r} has std_dev <= 0")
        groups: dict[str, list[int]] = {}
        for i, f in enumerate(feats):
            if f.one_hot is not None:
                groups.setdefault(f.one_hot.group, []).append(i)
        self.features = feats
        self.one_hot_groups = {g: tuple(ix) for g, ix in groups.items()}
        self._means = np.array([f.mean for f in feats], dtype=float)
        self._stds = np.array([f.std_dev for f in feats], dtype=float)
        self._adjustable = np.array([f.adjustable for f in feats], dtype=bool)

    @property
    def n(self) -> int:
        return len(self.features)

    @property
    def adjustable_mask(self) -> np.ndarray:
        return self._adjustable

    def to_dict(self) -> dict:
        out = []
        for f in self.features:
            entry = {
                "name": f.name,
                "adjustable": f.adjustable,
                "mean": float(f.mean),
                "std_dev": float(f.std_dev),
            }
            if f.one_hot is None:
                entry["kind"] = "continuous"
            else:
                entry["kind"] = "one_hot"
                entry["group"] = f.one_hot.group
                entry["category"] = f.one_hot.category
            out.append(entry)
        return {"features": out}

    @classmethod
    def from_dict(cls, doc: dict) -> "FeatureSpace":
        """The space :meth:`to_dict` wrote; raises ValueError on a value of
        another JSON type (bool is not a number)."""
        feats = []
        for i, entry in enumerate(doc["features"]):
            kind, name, adjustable = entry["kind"], entry["name"], entry["adjustable"]
            mean, std_dev = entry["mean"], entry["std_dev"]
            one_hot, names = None, [name]
            if kind == "one_hot":
                one_hot = OneHotMember(entry["group"], entry["category"])
                names += [one_hot.group, one_hot.category]
            if (
                kind not in ("continuous", "one_hot")
                or not all(isinstance(text, str) for text in names)
                or type(adjustable) is not bool
                or any(type(v) is bool or not isinstance(v, (int, float)) for v in (mean, std_dev))
            ):
                raise ValueError(
                    f"feature {i}: expected string names, a kind of 'continuous' or "
                    "'one_hot', a boolean 'adjustable' and numbers 'mean' and 'std_dev'"
                )
            feats.append(FeatureMeta(name, one_hot, adjustable, float(mean), float(std_dev)))
        return cls(feats)


@dataclass(frozen=True, eq=False)
class Instance:
    """An n-dimensional vector in standardized space, optionally labeled.

    Labels use the {-1, +1} convention throughout; {0, 1} labels are
    rejected rather than remapped to avoid silent polarity bugs.
    """

    values: np.ndarray
    label: int | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("instance values must be a 1-D vector")
        object.__setattr__(self, "values", arr)
        if self.label is not None and self.label not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {self.label!r}")

    def __len__(self) -> int:
        return len(self.values)


def fit_standardizer(rows, space: FeatureSpace) -> FeatureSpace:
    """Fit per-feature sample mean and std (ddof=1) on an encoded table.

    ``rows`` is an (m, n) numeric table aligned with ``space.features``
    (categorical columns already expanded to indicators). Continuous
    features with zero sample variance are a hard error: silently dropping
    or rescaling them would desynchronize saved models. Indicator columns
    that happen to be constant (a category absent from, or universal in,
    the table) fall back to unit scale instead.
    """
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != space.n:
        raise SchemaMismatch(
            f"expected a 2-D table with {space.n} columns, got shape {arr.shape}"
        )
    if arr.shape[0] < 2:
        raise ValueError("fitting needs at least 2 rows")
    # A column too large to sum overflows to inf or NaN here, which the
    # FeatureSpace below rejects by name.
    with np.errstate(over="ignore", invalid="ignore"):
        means = arr.mean(axis=0)
        stds = arr.std(axis=0, ddof=1)
        # Squared deviations overflow long before the std does: take the
        # std of such a column again at a power-of-two scale, leaving every
        # other column's bits alone.
        wide = np.flatnonzero(~np.isfinite(stds))
        if wide.size:
            exponent = np.frexp(np.abs(arr[:, wide]).max(axis=0))[1]
            scaled = np.ldexp(arr[:, wide], -exponent)
            stds[wide] = np.ldexp(scaled.std(axis=0, ddof=1), exponent)
    fitted = []
    for i, f in enumerate(space.features):
        std = float(stds[i])
        if std == 0.0:
            if f.is_continuous:
                raise ZeroVariance(f.name)
            std = 1.0  # constant indicator column: keep identity scale
        fitted.append(replace(f, mean=float(means[i]), std_dev=std))
    return FeatureSpace(fitted)


def _z_scores(raw: np.ndarray, space: FeatureSpace, lines=None) -> np.ndarray:
    """``(raw - mean) / std`` per feature of a row, or of a table whose rows
    sit on file ``lines``. A finite value whose z-score is not finite
    raises NonFiniteValue naming its feature, or in a table ParseError
    naming its line and column."""
    with np.errstate(over="ignore"):
        z = (raw - space._means) / space._stds
    bad = np.isfinite(raw) & ~np.isfinite(z)
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        name = space.features[at[-1]].name
        what = f"{name!r}: {float(raw[at])!r} is beyond the float range once standardized"
        if lines is None:
            raise NonFiniteValue(f"feature {what}")
        raise ParseError(lines[at[0]], f"column {what}")
    return z


def standardize(raw, space: FeatureSpace, label: int | None = None) -> Instance:
    """Map a raw-unit vector to z-scores: (raw - mean) / std per feature.
    Raises NonFiniteValue, naming the feature, for a finite value whose
    z-score is not."""
    arr = np.asarray(raw, dtype=float)
    if arr.shape != (space.n,):
        raise LengthMismatch(f"expected {space.n} values, got shape {arr.shape}")
    return Instance(_z_scores(arr, space), label=label)


def destandardize(inst, space: FeatureSpace) -> np.ndarray:
    """Inverse of :func:`standardize`: raw = mean + std * z, inf where that
    lies beyond the float range."""
    arr = inst.values if isinstance(inst, Instance) else np.asarray(inst, dtype=float)
    if arr.shape != (space.n,):
        raise LengthMismatch(f"expected {space.n} values, got shape {arr.shape}")
    with np.errstate(over="ignore"):
        return space._means + space._stds * arr


def one_hot_encode(values: Sequence, categories: Sequence[str]) -> np.ndarray:
    """Expand a categorical column to len(categories) indicator columns.

    Row i has a single 1 in the column of its category and 0 elsewhere.
    """
    index = {c: j for j, c in enumerate(categories)}
    out = np.zeros((len(values), len(categories)), dtype=float)
    for i, v in enumerate(values):
        j = index.get(v)
        if j is None:
            raise UnknownCategory(v, tuple(categories))
        out[i, j] = 1.0
    return out


@dataclass(frozen=True)
class ColumnSpec:
    """Declares one raw input column before encoding.

    ``categories=None`` on a categorical column means "infer the sorted
    set of observed values". ``adjustable=None`` resolves to True for
    continuous columns and False for categorical ones: tweaking a single
    indicator dimension independently can break the exactly-one-hot
    invariant, so category switches are opt-in.
    """

    name: str
    categorical: bool = False
    categories: tuple[str, ...] | None = None
    adjustable: bool | None = None


@dataclass(frozen=True)
class TableSchema:
    columns: tuple[ColumnSpec, ...]
    label_column: str = LABEL_COLUMN


def read_csv(path):
    """The header and the ``(line, row)`` data rows of a CSV file, ``line``
    1-based in the file. Skips blank lines; a csv error is a ParseError."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if row:
                    rows.append((reader.line_num, row))
        except csv.Error as exc:
            raise ParseError(reader.line_num, str(exc)) from None
    if not rows:
        raise ParseError(1, "empty file")
    return rows[0][1], rows[1:]


def _parse_label(text: str, line: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ParseError(line, f"label {text!r} is not an integer") from None
    if value not in (-1, 1):
        raise ParseError(line, f"label must be -1 or +1, got {value}")
    return value


def _parse_float(text: str, column: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(line, f"column {column!r}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ParseError(line, f"column {column!r}: {text!r} is not a finite number")
    return value


def _parse_table(path, schema: TableSchema | None):
    """Read and one-hot encode a raw CSV; the parse both loaders share.

    The header must be the schema's column names, optionally followed by
    its label column. Without a schema, every column is continuous and a
    trailing "label" column is the label. Faults are reported in one
    order: first each row's width and label, over all rows; then the
    columns left to right, each at its first bad row (not a number, not
    finite, an unknown category). Returns the column specs (categorical
    ones with the categories used), the ``[m, n]`` encoded matrix, the
    labels (None without a label column) and each row's file line.
    """
    header, rows = read_csv(path)
    if schema is None:
        names = header[:-1] if header[-1] == LABEL_COLUMN else header
        schema = TableSchema(tuple(ColumnSpec(name) for name in names))
    expected = [c.name for c in schema.columns]
    if header not in (expected, expected + [schema.label_column]):
        raise SchemaMismatch(
            f"header {header!r} does not match the columns {expected!r}"
        )
    has_label = len(header) > len(expected)
    labels = []
    for line, row in rows:
        if len(row) != len(header):
            raise ParseError(line, f"expected {len(header)} fields, got {len(row)}")
        labels.append(_parse_label(row[-1], line) if has_label else None)

    columns = []
    blocks = [np.empty((len(rows), 0))]
    for j, col in enumerate(schema.columns):
        if col.categorical:
            raw = [row[j] for _, row in rows]
            col = replace(col, categories=col.categories or tuple(sorted(set(raw))))
            try:
                blocks.append(one_hot_encode(raw, col.categories))
            except UnknownCategory as exc:
                line = rows[raw.index(exc.value)][0]
                raise UnknownCategory(exc.value, exc.categories, line, col.name) from None
        else:
            parsed = [_parse_float(row[j], col.name, line) for line, row in rows]
            blocks.append(np.asarray(parsed, dtype=float).reshape(-1, 1))
        columns.append(col)
    return tuple(columns), np.hstack(blocks), labels, [line for line, _ in rows]


def load_table(path, schema: TableSchema | None = None):
    """Load a raw CSV, one-hot encode, fit the standardizer, standardize.

    Returns ``(fitted_space, instances)``. The header row must match the
    schema's column names, optionally followed by a final label column.
    Without a schema, every column is treated as continuous and adjustable,
    and a trailing column named "label" is taken as the label. Faults are
    reported in the order :func:`_parse_table` gives; a file without data
    rows raises ParseError.
    """
    columns, encoded, labels, lines = _parse_table(path, schema)
    if not labels:
        raise ParseError(2, "no data rows")
    metas: list[FeatureMeta] = []
    for col in columns:
        adjustable = not col.categorical if col.adjustable is None else col.adjustable
        if col.categorical:
            metas.extend(
                FeatureMeta(f"{col.name}={cat}", OneHotMember(col.name, cat), adjustable)
                for cat in col.categories
            )
        else:
            metas.append(FeatureMeta(col.name, adjustable=adjustable))
    space = fit_standardizer(encoded, FeatureSpace(metas))
    z = _z_scores(encoded, space, lines)
    return space, [Instance(row, label=label) for row, label in zip(z, labels)]


def _raw_schema(space: FeatureSpace) -> tuple[TableSchema, list[int]]:
    """The raw columns a fitted space encodes, and the space's feature
    index of each encoded column, in encoded order.

    A categorical group is one column, at its first member, with its
    members' categories in member order; the members need not be
    contiguous in the space.
    """
    columns: list[ColumnSpec] = []
    index: list[int] = []
    for i, f in enumerate(space.features):
        if f.one_hot is None:
            columns.append(ColumnSpec(f.name))
            index.append(i)
        elif space.one_hot_groups[f.one_hot.group][0] == i:
            members = space.one_hot_groups[f.one_hot.group]
            categories = tuple(space.features[j].one_hot.category for j in members)
            columns.append(
                ColumnSpec(f.one_hot.group, categorical=True, categories=categories)
            )
            index.extend(members)
    return TableSchema(tuple(columns)), index


def load_instances(path, space: FeatureSpace) -> list[Instance]:
    """Load raw instances and standardize them with an already-fitted space.

    Used at tweak time: the file's columns are the raw ones the model was
    trained from (categorical groups as single columns), and the model's
    stored statistics are applied, never refitted. Faults are reported in
    the order :func:`_parse_table` gives; a file without data rows loads
    as no instances.
    """
    schema, index = _raw_schema(space)
    _, encoded, labels, lines = _parse_table(path, schema)
    raw = np.empty_like(encoded)
    raw[:, index] = encoded
    z = _z_scores(raw, space, lines)
    return [Instance(row, label=label) for row, label in zip(z, labels)]


def _reject_unknown_keys(path, obj: dict, known: set, where: str) -> None:
    unknown = sorted(set(obj) - known)
    if unknown:
        raise SchemaMismatch(f"schema {path}: {where} has the unknown key {unknown[0]!r}")


def load_schema(path) -> TableSchema:
    """Read a JSON schema ``{"columns": [{"name", "categorical", "categories",
    "adjustable"}, ...], "label_column"}``; only ``columns`` and each
    ``name`` are required. Any other shape or key raises SchemaMismatch."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise SchemaMismatch(f"schema {path}: nested too deeply") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("columns"), list):
        raise SchemaMismatch(f"schema {path}: expected an object with a 'columns' list")
    _reject_unknown_keys(path, doc, {"columns", "label_column"}, "the schema")
    columns = []
    for c in doc["columns"]:
        if not isinstance(c, dict) or not isinstance(c.get("name"), str):
            raise SchemaMismatch(f"schema {path}: every column needs a string 'name'")
        known = {"name", "categorical", "categories", "adjustable"}
        _reject_unknown_keys(path, c, known, f"column {c['name']!r}")
        categorical = c.get("categorical", False)
        adjustable = c.get("adjustable")
        categories = c.get("categories", [])
        if not (
            isinstance(categorical, bool)
            and isinstance(adjustable, (bool, type(None)))
            and isinstance(categories, list)
            and all(isinstance(v, str) for v in categories)
        ):
            raise SchemaMismatch(
                f"schema {path}: column {c['name']!r} needs a boolean 'categorical' "
                "and 'adjustable' and a list of strings as 'categories'"
            )
        if "categories" in c and not categorical:
            raise SchemaMismatch(
                f"schema {path}: column {c['name']!r} lists 'categories' but is "
                "not 'categorical': true"
            )
        spec = ColumnSpec(c["name"], categorical, tuple(categories) or None, adjustable)
        columns.append(spec)
    label_column = doc.get("label_column", LABEL_COLUMN)
    if not isinstance(label_column, str):
        raise SchemaMismatch(f"schema {path}: 'label_column' must be a string")
    return TableSchema(tuple(columns), label_column)
