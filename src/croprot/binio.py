"""Little-endian reader shared by the three binary formats (`.rcds`
datasets, `RCWT` checkpoints, `RCTT` transition tensors), the reader and
writer of every JSON file, and the predictions-file writer.

The whole file is read into one writable buffer; fields are decoded with
precompiled `struct.Struct`s and arrays come back as `np.frombuffer` views
of that buffer (writable, native float32/float64 on little-endian hosts).
Every read is bounds-checked and a malformed file raises `DataFormatError`
naming the format and the offset.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .errors import DataFormatError

U8 = struct.Struct("<B")
U16 = struct.Struct("<H")
U32 = struct.Struct("<I")
_DTYPES = {code: np.dtype(code) for code in ("<u2", "<u4", "<f4", "<f8")}


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

    def _take(self, n, what):
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
        start = self._take(n, what)
        return bytes(self.buf[start:start + n])

    def magic(self, expected, what="magic"):
        got = self.raw(len(expected), what)
        if got != expected:
            raise DataFormatError(
                f"bad {what} {got!r} at offset 0; expected {expected!r}"
            )

    def unpack(self, st, what):
        return st.unpack_from(self.buf, self._take(st.size, what))

    def array(self, code, count, what):
        """`count` items of dtype `code` ("<u2", "<u4", "<f4", "<f8") as a
        view of the buffer."""
        dtype = _DTYPES[code]
        return np.frombuffer(self.buf, dtype, count, self._take(dtype.itemsize * count, what))

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


def write_json(path, doc):
    """Write `doc` to `path` as indented JSON with sorted keys and a final
    newline, in one write."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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


def write_predictions(path, meta, splits):
    """Write a predictions file: the object `meta` and, under each name of
    `splits` ("val", "test"), one record per row of that split's (ids,
    years, labels, logits, posterior): (N,) integer arrays, (N, L) logits
    and (N, L) posteriors or None, L >= 1.  The bytes are exactly those of
    `write_json(path, {"meta": meta, name: records, ...})` with each record
    the object {"logits", "parcel_id", "posterior" (when given),
    "true_label", "year_index"}; each array is read with one `.tolist()`
    and the records are filled into a fixed template."""
    head = '    {\n      "logits": %s,\n      "parcel_id": %d,\n'
    tail = '      "true_label": %d,\n      "year_index": %d\n    }'
    docs = {"meta": json.dumps(meta, indent=2, sort_keys=True).replace("\n", "\n  ")}
    for name, (ids, years, labels, logits, posterior) in splits.items():
        if not len(ids):
            docs[name] = "[]"
            continue
        columns = [_number_lists(logits), ids.tolist()]
        template = head
        if posterior is not None:
            columns.append(_number_lists(posterior))
            template += '      "posterior": %s,\n'
        columns += [labels.tolist(), years.tolist()]
        template += tail
        docs[name] = "[\n" + ",\n".join(template % row for row in zip(*columns)) + "\n  ]"
    text = ",\n".join(f"  {json.dumps(key)}: {docs[key]}" for key in sorted(docs))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + text + "\n}\n")
