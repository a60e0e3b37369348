import json
from dataclasses import fields, replace

import numpy as np
import pytest

from croprot.errors import ConfigError, DataFormatError
from croprot.model import CropModel, ModelDims, load_checkpoint, save_checkpoint

from conftest import assert_parameter_views, tiny_dims


class TestParameters:
    def test_count_and_names(self, tiny_model):
        named = tiny_model.named_parameters()
        assert len(named) == 17
        assert [p for _, p in named] == tiny_model.parameters()
        assert named[0][0] == "pse.w1" and named[-1][0] == "head.b2"

    def test_name_order(self):
        for variant in ("single", "obs"):
            names = [n for n, _ in CropModel(tiny_dims(), variant).named_parameters()]
            assert names == [
                "pse.w1", "pse.b1", "pse.w2", "pse.b2", "pse.w3", "pse.b3",
                "ltae.wk", "ltae.bk", "ltae.query", "ltae.wo1", "ltae.bo1",
                "ltae.wo2", "ltae.bo2",
                "head.w1", "head.b1", "head.w2", "head.b2",
            ]

    def test_same_seed_same_weights(self):
        a = CropModel(tiny_dims(), "single", seed=9)
        b = CropModel(tiny_dims(), "single", seed=9)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        a = CropModel(tiny_dims(), "single", seed=1)
        b = CropModel(tiny_dims(), "single", seed=2)
        assert not np.array_equal(a.parameters()[0].data, b.parameters()[0].data)

    def test_state_round_trip(self, tiny_model):
        arrays = tiny_model.state_arrays()
        other = CropModel(tiny_dims(), "single", seed=99)
        other.load_state_arrays(arrays)
        for pa, pb in zip(tiny_model.parameters(), other.parameters()):
            assert np.array_equal(pa.data, pb.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_parameters_are_views_of_one_vector(self, dtype):
        model = CropModel(tiny_dims(), "dec", seed=3, dtype=dtype)
        assert model.vector.dtype == dtype
        assert_parameter_views(model)
        model.load_state_arrays(CropModel(tiny_dims(), "dec", seed=4).state_arrays())
        assert_parameter_views(model)
        # the vector is the parameters joined in order
        assert model.vector.tobytes() == b"".join(a.tobytes() for a in model.state_arrays())

    def test_shape_mismatch_rejected(self, tiny_model):
        arrays = tiny_model.state_arrays()
        arrays[0] = arrays[0][:, :-1]
        with pytest.raises(DataFormatError):
            tiny_model.load_state_arrays(arrays)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tiny_model, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, tiny_model)
        back = load_checkpoint(path)
        assert back.variant == tiny_model.variant
        assert back.dims == tiny_model.dims
        for pa, pb in zip(tiny_model.parameters(), back.parameters()):
            assert np.array_equal(pa.data, pb.data)
        assert_parameter_views(back)

    @pytest.mark.parametrize("variant", ["single", "dec-concat", "obs"])
    def test_save_load_save_same_bytes(self, tmp_path, variant):
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(first, CropModel(tiny_dims(), variant, seed=5))
        save_checkpoint(second, load_checkpoint(first))
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "a.bin.json").read_bytes() == (tmp_path / "b.bin.json").read_bytes()

    def test_bad_magic(self, tiny_model, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, tiny_model)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"????"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="RCWT"):
            load_checkpoint(path)

    def test_truncated(self, tiny_model, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, tiny_model)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(DataFormatError, match="truncated"):
            load_checkpoint(path)

    def test_missing_sidecar(self, tiny_model, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, tiny_model)
        (tmp_path / "model.bin.json").unlink()
        with pytest.raises(DataFormatError, match="sidecar"):
            load_checkpoint(path)

    @pytest.mark.parametrize("sidecar", [
        "{not json",
        "[]",
        '{"variant": "single"}',
        '{"dims": {"d1": 4}}',
    ])
    def test_malformed_sidecar(self, tiny_model, tmp_path, sidecar):
        path = tmp_path / "model.bin"
        save_checkpoint(path, tiny_model)
        (tmp_path / "model.bin.json").write_text(sidecar)
        with pytest.raises(DataFormatError, match="sidecar"):
            load_checkpoint(path)

    def test_unknown_dims_key(self, tiny_model, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, tiny_model)
        side = tmp_path / "model.bin.json"
        doc = json.loads(side.read_text())
        doc["dims"]["width"] = 3
        side.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="width"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tiny_model, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, tiny_model)
        path.write_bytes(path.read_bytes() + b"\0\0\0")
        with pytest.raises(DataFormatError, match="3 trailing bytes.*RCWT"):
            load_checkpoint(path)

    def test_parameter_names_checked(self, tiny_model, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, tiny_model)
        raw = path.read_bytes()
        # same length, so the rest of the file still parses
        path.write_bytes(raw.replace(b"ltae.wo1", b"ltae.wo9"))
        with pytest.raises(DataFormatError, match="RCWT parameter name b'ltae.wo9'.*ltae.wo1"):
            load_checkpoint(path)

    def test_parameter_count_checked(self, tiny_model, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, tiny_model)
        raw = bytearray(path.read_bytes())
        raw[8:12] = (len(tiny_model.parameters()) - 1).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="RCWT file holds 16 parameters"):
            load_checkpoint(path)

    def test_non_finite_weights_refused(self, tiny_model, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, tiny_model)
        # the file's last value belongs to the last parameter
        path.write_bytes(path.read_bytes()[:-4] + np.float32(np.inf).tobytes())
        with pytest.raises(DataFormatError, match="RCWT parameter head.b2 holds non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dtype, value", [(np.float32, np.nan), (np.float32, -np.inf),
                                              (np.float64, 1e300), (np.float64, -1e39)])
    def test_save_refuses_what_load_refuses(self, tmp_path, dtype, value):
        # a value float32 does not hold finitely: no checkpoint or sidecar
        # is written, rather than one that load_checkpoint refuses
        model = CropModel(tiny_dims(), "dec", seed=2, dtype=dtype)
        model.ltae.wo1.data[1, 2] = value
        with pytest.raises(DataFormatError, match="parameter ltae.wo1 is not finite as float32"):
            save_checkpoint(tmp_path / "model.bin", model)
        assert list(tmp_path.iterdir()) == []

    def test_save_refuses_dims_json_cannot_encode(self, tmp_path):
        # a numpy integer in the dims builds a model, but no JSON sidecar:
        # it is refused before the weights are written, so no file is left
        model = CropModel(replace(tiny_dims(), channels=np.int64(3)), "single", seed=2)
        path = tmp_path / "model.bin"
        with pytest.raises(DataFormatError, match=f"^checkpoint sidecar {path}.json: Object of "
                                                  "type int64 is not JSON serializable$"):
            save_checkpoint(path, model)
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", [f.name for f in fields(ModelDims)])
def test_zero_dims_refused(name):
    # heads = 0 used to raise ZeroDivisionError, d_k = 0 or channels = 0 as well
    dims = replace(tiny_dims(), **{name: 0})
    with pytest.raises(ConfigError, match=f"{name} must be >= 1, got 0"):
        dims.validate()
    with pytest.raises(ConfigError, match=name):
        CropModel(dims, "single")
