"""Full classifier: encoders + head, with binary checkpoints.

Checkpoint layout: magic "RCWT", version u32, parameter count u32, then
per parameter a name (u16 length + utf-8), ndim u8, dims u32 each, and the
little-endian float32 data.  A JSON sidecar records the architecture.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .binio import U8, U16, Reader, from_json, json_text, read_json, write_text
from .encoders import EncoderDims, LtaeWeights, PseWeights
from .errors import ConfigError, DataFormatError
from .heads import HeadWeights

CKPT_MAGIC = b"RCWT"
CKPT_VERSION = 1
_CKPT_HEADER = struct.Struct("<II")


@dataclass
class ModelDims(EncoderDims):
    num_classes: int = 20
    head_hidden: int = 64


class CropModel:
    def __init__(self, dims: ModelDims, variant: str, seed: int = 0, dtype=np.float32):
        self.dims = dims
        self.variant = variant
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
        self.pse = PseWeights(dims, rng, dtype=dtype)
        self.ltae = LtaeWeights(dims, rng, dtype=dtype)
        self.head = HeadWeights(
            variant, dims.num_classes, dims.descriptor, dims.head_hidden, rng, dtype=dtype
        )
        # one vector holds every parameter, in parameter order; each
        # parameter's data is a view into it, so Adam updates all of them
        # with a few vector operations.  Rebinding a parameter's data
        # detaches it from the vector.
        params = self.parameters()
        self.vector = np.concatenate([p.data.reshape(-1) for p in params])
        start = 0
        for p in params:
            p.data = self.vector[start : start + p.data.size].reshape(p.data.shape)
            start += p.data.size

    def named_parameters(self):
        """(name, Tensor) pairs in checkpoint order: "<part>.<attribute>"
        for the parts pse, ltae and head, each in its NAMES order."""
        return [
            (f"{prefix}.{name}", getattr(part, name))
            for prefix, part in (("pse", self.pse), ("ltae", self.ltae), ("head", self.head))
            for name in part.NAMES
        ]

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def state_arrays(self):
        return [np.array(p.data) for p in self.parameters()]

    def load_state_arrays(self, arrays):
        """Copy `arrays`, one per parameter, into the parameter views."""
        params = self.parameters()
        if len(arrays) != len(params):
            raise DataFormatError("parameter count mismatch")
        for p, a in zip(params, arrays):
            if p.data.shape != a.shape:
                raise DataFormatError(
                    f"parameter shape mismatch: {p.data.shape} vs {a.shape}"
                )
        for p, a in zip(params, arrays):
            p.data[...] = a


def save_checkpoint(path, model: CropModel):
    """Write `model`'s parameters to the RCWT file `path` and its
    architecture to the sidecar `path`.json.  A parameter that is not
    finite as float32, as `load_checkpoint` requires (a NaN or infinity,
    or a float64 value beyond float32's range), or an architecture JSON
    cannot encode, raises DataFormatError before either file is opened."""
    path = str(path)
    sidecar = json_text({"dims": asdict(model.dims), "variant": model.variant},
                        f"checkpoint sidecar {path}.json")
    named = []
    with np.errstate(over="ignore"):  # float32 overflow is refused as non-finite
        for name, p in model.named_parameters():
            values = np.ascontiguousarray(p.data, dtype="<f4")
            if not np.isfinite(values).all():
                raise DataFormatError(f"checkpoint {path}: parameter {name} is not finite "
                                      "as float32")
            named.append((name, values))
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<II", CKPT_VERSION, len(named)))
        for name, values in named:
            raw = name.encode()
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", values.ndim))
            for d in values.shape:
                fh.write(struct.pack("<I", d))
            fh.write(values.tobytes())
    write_text(path + ".json", sidecar)


def load_checkpoint(path):
    path = str(path)
    sidecar = read_json(path + ".json", "checkpoint sidecar")
    dims = from_json(ModelDims, sidecar.get("dims"), f"checkpoint sidecar {path}.json dims",
                     DataFormatError)
    try:
        model = CropModel(dims, sidecar.get("variant"))
    except ConfigError as exc:
        # a sidecar that describes no model is a malformed data file
        raise DataFormatError(f"checkpoint sidecar {path}.json: {exc}") from None
    r = Reader(path, "RCWT")
    r.magic(CKPT_MAGIC, "checkpoint magic")
    version, count = r.unpack(_CKPT_HEADER, "header")
    if version != CKPT_VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version}")
    names = [name.encode() for name, _ in model.named_parameters()]
    if count != len(names):
        raise DataFormatError(
            f"RCWT file holds {count} parameters; a {model.variant!r} model has {len(names)}"
        )
    arrays = []
    for want in names:
        at = r.offset
        (nlen,) = r.unpack(U16, "parameter name length")
        name = r.raw(nlen, "parameter name")
        if name != want:
            raise DataFormatError(
                f"RCWT parameter name {name!r} at offset {at}; expected {want!r}"
            )
        (ndim,) = r.unpack(U8, "parameter rank")
        shape = tuple(int(d) for d in r.array("<u4", ndim, "parameter shape"))
        values = r.array("<f4", math.prod(shape), "parameter values")
        if not np.isfinite(values).all():
            raise DataFormatError(f"RCWT parameter {want.decode()} holds non-finite values")
        arrays.append(values.reshape(shape))
    r.finish()
    model.load_state_arrays(arrays)
    return model
