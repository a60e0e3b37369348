"""Span tracing of croprot's layers from outside the library.

Each traced function is wrapped at every name it is reachable through: the
defining module and every croprot module that imported it by name (for
example `croprot.training.sample_pixels` as well as
`croprot.data.sample_pixels`).  A wrapper records one span per call with
its parent span, so a layer's self time is its span duration minus the
time its child spans cover.  Spans stay in memory until `collect`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path) for every traced function.
TARGETS = [
    ("data.generate_synthetic", "croprot.data", "generate_synthetic"),
    ("data.save_dataset", "croprot.data", "save_dataset"),
    ("data.load_dataset", "croprot.data", "load_dataset"),
    ("data.make_folds", "croprot.data", "make_folds"),
    ("data.sample_pixels", "croprot.data", "sample_pixels"),
    ("encoders.encode_batch", "croprot.encoders", "encode_batch"),
    ("encoders.positional_encoding_matrix", "croprot.encoders",
     "positional_encoding_matrix"),
    ("autodiff.matmul", "croprot.autodiff", "matmul"),
    ("autodiff.add_bias", "croprot.autodiff", "add_bias"),
    ("autodiff.relu", "croprot.autodiff", "relu"),
    ("autodiff.mean_std_pool", "croprot.autodiff", "mean_std_pool"),
    ("autodiff.einsum2", "croprot.autodiff", "einsum2"),
    ("autodiff.softmax", "croprot.autodiff", "softmax"),
    ("autodiff.backward", "croprot.autodiff", "backward"),
    ("heads.decode", "croprot.heads", "decode"),
    ("heads.obs_feature", "croprot.heads", "obs_feature"),
    ("model.load_checkpoint", "croprot.model", "load_checkpoint"),
    ("model.save_checkpoint", "croprot.model", "save_checkpoint"),
    ("model.state_arrays", "croprot.model", "CropModel.state_arrays"),
    ("training.train_single_split", "croprot.training", "train_single_split"),
    ("training.predict", "croprot.training", "predict"),
    ("training.batch_logits", "croprot.training", "batch_logits"),
    ("training.cross_entropy", "croprot.training", "cross_entropy"),
    ("training.optimizer_step", "croprot.training", "optimizer_step"),
    ("calibration.fit_temperature", "croprot.calibration", "fit_temperature"),
    ("calibration.nll", "croprot.calibration", "nll"),
    ("crf.estimate_transitions", "croprot.crf", "estimate_transitions"),
    ("crf.crf_score", "croprot.crf", "crf_score"),
    ("analytics.confusion", "croprot.analytics", "confusion"),
    ("analytics.rotation_table", "croprot.analytics", "rotation_table"),
    ("analytics.export_embeddings", "croprot.analytics", "export_embeddings"),
    ("cli.main", "croprot.cli", "main"),
    ("cli.cmd_eval", "croprot.cli", "cmd_eval"),
    ("cli.cmd_calibrate", "croprot.cli", "cmd_calibrate"),
    ("cli.cmd_crf", "croprot.cli", "cmd_crf"),
    ("cli.cmd_rotations", "croprot.cli", "cmd_rotations"),
    ("cli.cmd_embed", "croprot.cli", "cmd_embed"),
]


# A probe turns a call's arguments and result into a number stored on its span.
def _encoded_rows(args, kwargs, result):
    return args[0].shape[0]


def _records(args, kwargs, result):
    return len(result)


def _tape_ops(args, kwargs, result):
    return len(args[0].ops)


PROBES = {
    "encoders.encode_batch": _encoded_rows,
    "training.predict": _records,
    "autodiff.backward": _tape_ops,
}


def _resolve(module_name, path):
    """Return (owner, attribute, function) or None if the name is gone."""
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    fn = getattr(owner, parts[-1], None) if owner is not None else None
    if not callable(fn):
        return None
    return owner, parts[-1], fn


class Tracer:
    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.missing = []
        self.spans = []  # (name index, parent span, start, end, probe value)
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self._wrappers = {}
        for idx, (name, module_name, path) in enumerate(TARGETS):
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, fn = found
            self._wrappers[idx] = (owner, attr, fn, self._wrap(idx, fn, PROBES.get(name)))

    def _wrap(self, idx, fn, probe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (idx, parent, start, end, 0)
            if probe is not None:
                spans[sid] = (idx, parent, start, end, probe(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Patch every binding of every traced function in loaded croprot
        modules (class attributes for methods)."""
        originals = {id(fn): wrapper for _, _, fn, wrapper in self._wrappers.values()}
        for owner, attr, fn, wrapper in self._wrappers.values():
            if owner.__dict__.get(attr) is fn:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "croprot" or mod_name.startswith("croprot.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and value is wrapper.__wrapped__:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def collect(self):
        """Aggregate and clear the recorded spans.

        Returns (per-name totals, derived totals).  Totals per name are
        calls, seconds and self seconds; derived totals are the sums the
        ratio metrics need."""
        spans = self.spans
        child = [0.0] * len(spans)
        for idx, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        for sid, (idx, _, start, end, _) in enumerate(spans):
            name = self.names[idx]
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[sid]

        encode = self.names.index("encoders.encode_batch")
        predict = self.names.index("training.predict")
        train = self.names.index("training.train_single_split")

        def under(sid, target):
            parent = spans[sid][1]
            while parent >= 0:
                if spans[parent][0] == target:
                    return True
                parent = spans[parent][1]
            return False

        derived = defaultdict(float)
        for sid, (idx, _, start, end, value) in enumerate(spans):
            if idx == encode:
                derived["encode_rows"] += value
                if under(sid, predict):
                    derived["predict_encode_rows"] += value
            elif idx == predict:
                derived["predict_records"] += value
                if under(sid, train):
                    derived["val_predict_s"] += end - start
            elif value:
                derived[self.names[idx] + ".value"] += value
        spans.clear()
        return {"calls": calls, "s": total, "self_s": self_s}, derived
