"""Little-endian reader shared by the three binary formats (`.rcds`
datasets, `RCWT` checkpoints, `RCTT` transition tensors), the reader and
writer of every JSON file, the typed loader of the config objects read
from JSON, and the predictions record array with the reader and writer of
its file.

The whole file is read into one writable buffer; fields are decoded with
precompiled `struct.Struct`s and arrays come back as `np.frombuffer` views
of that buffer (writable, native float32/float64 on little-endian hosts).
Every read is bounds-checked and a malformed file raises `DataFormatError`
naming the format and the offset.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import struct
import types
import typing

import numpy as np

from .errors import CropRotError, DataFormatError

U8 = struct.Struct("<B")
U16 = struct.Struct("<H")
U32 = struct.Struct("<I")
_DTYPES = {code: np.dtype(code) for code in ("<u2", "<u4", "<u8", "<f4", "<f8")}


class Reader:
    def __init__(self, path, kind):
        self.kind = kind
        self.offset = 0
        with open(path, "rb") as fh:
            self.size = os.fstat(fh.fileno()).st_size
            self.buf = bytearray(self.size)
            got = fh.readinto(self.buf)
        if got != self.size:
            raise DataFormatError(f"{kind} file {path} changed size while being read")

    def take(self, n, what):
        """Start offset of the next `n` bytes; moves past them."""
        start = self.offset
        if start + n > self.size:
            raise DataFormatError(
                f"truncated {self.kind} file while reading {what} at offset "
                f"{start}: {n} bytes needed, {self.size - start} left"
            )
        self.offset = start + n
        return start

    def raw(self, n, what):
        start = self.take(n, what)
        return bytes(self.buf[start:start + n])

    def magic(self, expected, what="magic"):
        got = self.raw(len(expected), what)
        if got != expected:
            raise DataFormatError(
                f"bad {what} {got!r} at offset 0; expected {expected!r}"
            )

    def unpack(self, st, what):
        return st.unpack_from(self.buf, self.take(st.size, what))

    def array(self, code, count, what):
        """`count` items of dtype `code` ("<u2", "<u4", "<u8", "<f4", "<f8") as a
        view of the buffer."""
        dtype = _DTYPES[code]
        return np.frombuffer(self.buf, dtype, count, self.take(dtype.itemsize * count, what))

    def finish(self):
        """Refuse bytes after the last record."""
        extra = self.size - self.offset
        if extra:
            raise DataFormatError(
                f"{extra} trailing bytes after the last record of the {self.kind} "
                f"file at offset {self.offset}"
            )


def read_json(path, what, error=DataFormatError):
    """The JSON object in `path`.  A missing file raises DataFormatError,
    and one that is not UTF-8 JSON or does not hold an object raises
    `error`; both name `what` and the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DataFormatError(f"missing {what} {path}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise error(f"{what} {path} is not UTF-8 JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{what} {path} does not hold a JSON object")
    return doc


def json_object(value, what, keys, error):
    """`value`, which must be a JSON object with no key outside `keys` (any
    key when None); else raises `error` naming `what`."""
    if type(value) is not dict:
        raise error(f"{what} is not a JSON object")
    unknown = [] if keys is None else sorted(value.keys() - set(keys))
    if unknown:
        raise error(f"{what}: unknown keys {', '.join(unknown)}")
    return value


def is_int(value):
    """Whether `value` is a JSON integer.  type() is not isinstance(): JSON
    true and false are not integers here, and neither is 2.0."""
    return type(value) is int


# annotation or its origin -> (the JSON types it takes, their name)
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string"), tuple: ((list,), "a list"), dict: ((dict,), "an object")}


def _conform(tp, value):
    """`value` as a value of the field annotation `tp`: int, float, str,
    `X | None` (an X), `tuple[X, ...]` (a list of X, made a tuple) or
    `dict[...]` (an object, whose entries the class's `validate()`
    checks); a float is a JSON number that a float holds finitely, kept as
    given.  A value that does not match raises TypeError naming it."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        return _conform(args[0], value)
    json_types, name = _JSON_TYPES[origin or tp]
    if type(value) not in json_types:
        raise TypeError(f"{json.dumps(value)} is not {name}")
    if origin is tuple:
        return tuple(_conform(args[0], v) for v in value)
    if tp is float:
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise TypeError(f"{json.dumps(value)} is not a finite float")
    return value


_type_hints = functools.cache(typing.get_type_hints)


def from_json(cls, doc, what, error):
    """The dataclass `cls` built from the JSON object `doc`, whose keys
    must name fields, give each field without a default and match the
    fields' annotations (an int field takes a JSON integer, a float field
    any number), and checked by its `validate()`.  A violation, or a
    CropRotError of `validate()`, raises `error` naming `what` and the key."""
    hints = _type_hints(cls)
    json_object(doc, what, hints, error)
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in doc
               and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise error(f"{what}: missing keys {', '.join(missing)}")
    values = {}
    for name, value in doc.items():
        try:
            values[name] = _conform(hints[name], value)
        except TypeError as exc:
            raise error(f"{what}: {name}: {exc}") from None
    obj = cls(**values)
    try:
        obj.validate()
    except CropRotError as exc:
        raise error(f"{what}: {exc}") from None
    return obj


def json_text(doc, what):
    """`doc` as indented JSON with sorted keys and a final newline.  A
    value JSON cannot encode raises DataFormatError naming `what`, so a
    writer can refuse it before it opens any file."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{what}: {exc}") from None


def write_text(path, text):
    """Write the str `text` to `path` as UTF-8, in one write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_json(path, doc):
    """Write `json_text(doc)` to `path`."""
    write_text(path, json_text(doc, f"JSON file {path}"))


def _number_lists(a):
    """The text `json.dumps(indent=2)` gives each row of the (N, L) array
    `a`, L >= 1, as a list inside a record of a predictions file; one
    `.tolist()`."""
    sep, end = ",\n        ", "\n      ]"
    texts = ["[\n        " + sep.join(map(repr, row)) + end for row in a.tolist()]
    if not np.isfinite(a).all():
        # repr gives nan, inf and -inf; json writes NaN, Infinity, -Infinity
        texts = [t.replace("nan", "NaN").replace("inf", "Infinity") for t in texts]
    return texts


def predictions(ids, years, labels, logits):
    """The predictions of N parcel-years as one record array with the
    fields of a predictions file's records: `parcel_id` (uint64),
    `year_index` and `true_label` (int64) and `logits` (float32, shape
    (L,)), from (N,) ids, years and true labels and (N, L) logits."""
    logits = np.asarray(logits)
    out = np.recarray(len(logits), [
        ("parcel_id", np.uint64), ("year_index", np.int64), ("true_label", np.int64),
        ("logits", np.float32, logits.shape[1:]),
    ])
    out["parcel_id"], out["year_index"], out["true_label"] = ids, years, labels
    out["logits"] = logits
    return out


def write_predictions(path, meta, splits):
    """Write a predictions file: the object `meta` and, under each name of
    `splits` ("val", "test"), one record per row of that split's (preds,
    posterior): a `predictions` array and its (N, L) posteriors or None.
    The bytes are exactly those of `write_json(path, {"meta": meta, name:
    records, ...})` with each record the object {"logits", "parcel_id",
    "posterior" (when given), "true_label", "year_index"}; each column is
    read with one `.tolist()` and the records are filled into a fixed
    template."""
    head = '    {\n      "logits": %s,\n      "parcel_id": %d,\n'
    tail = '      "true_label": %d,\n      "year_index": %d\n    }'
    docs = {"meta": json.dumps(meta, indent=2, sort_keys=True).replace("\n", "\n  ")}
    for name, (preds, posterior) in splits.items():
        if not len(preds):
            docs[name] = "[]"
            continue
        columns = [_number_lists(preds.logits), preds.parcel_id.tolist()]
        template = head
        if posterior is not None:
            columns.append(_number_lists(posterior))
            template += '      "posterior": %s,\n'
        columns += [preds.true_label.tolist(), preds.year_index.tolist()]
        template += tail
        docs[name] = "[\n" + ",\n".join(template % row for row in zip(*columns)) + "\n  ]"
    text = ",\n".join(f"  {json.dumps(key)}: {docs[key]}" for key in sorted(docs))
    write_text(path, "{\n" + text + "\n}\n")


def _record_ok(ints, logits, num_classes):
    """Whether a record's (parcel_id, year_index, true_label) are integers,
    the id in [0, 2^64), the year in the int64 range and the label in
    [0, num_classes), and its logits list has num_classes entries."""
    pid, year, label = ints
    return (all(map(is_int, ints)) and len(logits) == num_classes
            and 0 <= pid < 2**64 and -2**63 <= year < 2**63 and 0 <= label < num_classes)


def read_predictions(path):
    """(meta, val, test) of a predictions file, val and test as
    `predictions` arrays.  Both splits must hold records.  Every record
    needs integer ids and true label, the parcel id in [0, 2^64), and
    finite logits, as many as the first val record's L, with the true
    label in [0, L); a posterior, when present, must be a list of numbers
    (it is checked, not returned).  A (parcel id, year) may appear once
    across val and test."""
    doc = read_json(path, "predictions file")
    if not (isinstance(doc.get("meta"), dict)
            and isinstance(doc.get("val"), list) and isinstance(doc.get("test"), list)):
        raise DataFormatError(
            f"predictions file {path} needs the keys meta (an object), val and test (lists)"
        )
    records = doc["val"] + doc["test"]
    try:
        ints = [(d["parcel_id"], d["year_index"], d["true_label"]) for d in records]
        lists = [d["logits"] for d in records]
        numbers = lists + [d["posterior"] for d in records if "posterior" in d]
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"predictions file {path}: bad record ({exc!r})") from None
    if not all(type(v) is list and set(map(type, v)) <= {int, float} for v in numbers):
        raise DataFormatError(
            f"predictions file {path}: bad record (logits and posterior must be lists of numbers)"
        )
    # temperature fitting needs val records; an empty test list would score
    # nothing (an ECE of 0 before and after)
    for name in ("val", "test"):
        if not doc[name]:
            raise DataFormatError(f"predictions file {path}: no {name} records")
    num_classes = len(lists[0])
    for t, v in zip(ints, lists):
        if not _record_ok(t, v, num_classes):
            raise DataFormatError(
                f"predictions file {path}: record {t!r} needs integer ids, a parcel id "
                f"in [0, 2^64), {num_classes} logits, a label in [0, {num_classes})")
    seen = set()
    for key in (t[:2] for t in ints):
        if key in seen:
            raise DataFormatError(f"predictions file {path}: parcel {key[0]}, year {key[1]} "
                                  "appears more than once")
        seen.add(key)
    try:
        with np.errstate(over="ignore"):
            logits = np.array(lists, np.float32)
        finite = np.isfinite(logits).all()
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise DataFormatError(f"predictions file {path}: non-finite logit")
    ids, years, labels = zip(*ints)
    preds = predictions(ids, years, labels, logits)
    split = len(doc["val"])
    return doc["meta"], preds[:split], preds[split:]
