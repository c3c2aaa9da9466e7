"""Checkpoint files for the tests: edit a saved file's header and payload,
and write the earlier formats 2 (one JSON document, each tensor as base64 of
its little-endian float64 bytes) and 3 (today's layout, the IGM gates'
tensors named one by one) the way their writers did, so that tests can check
they are refused."""

import base64
import dataclasses
import json
import re

from claimspan.numerics import named_arrays


def edit_checkpoint(path, edit) -> None:
    """Rewrite the checkpoint at ``path`` with ``edit(header, payload)``,
    which gets the parsed header line and the bytes after it and returns
    both, changed."""
    line, _newline, payload = path.read_bytes().partition(b"\n")
    header, payload = edit(json.loads(line), payload)
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)


def tensors_edit(edit):
    """An ``edit_checkpoint`` edit that applies ``edit`` to the header's
    tensor list."""
    return lambda header, payload: ({**header, "tensors": edit(header["tensors"])}, payload)


def read_header(path) -> dict:
    """The parsed header line of a checkpoint."""
    with open(path, "rb") as fh:
        return json.loads(fh.readline())


def as_format_3(header, payload):
    """An ``edit_checkpoint`` edit giving a saved file format 3's header: the
    same bytes, its gate tensors named ``descnet.w_c1`` ... ``descnet.b_r2``
    (``descnet.conflict.w1`` is ``descnet.w_c1``, ``descnet.refine.b2`` is
    ``descnet.b_r2``)."""
    def old_name(name):
        m = re.fullmatch(r"descnet\.(conflict|refine)\.([wb])(\d)", name)
        return f"descnet.{m[2]}_{m[1][0]}{m[3]}" if m else name
    tensors = [[old_name(name), shape] for name, shape in header["tensors"]]
    return {**header, "format_version": 3, "tensors": tensors}, payload


def save_checkpoint_v2(path, config, vocab, bank_texts, params) -> None:
    """A format-2 checkpoint of the model."""
    doc = {
        "format_version": 2,
        "config": dataclasses.asdict(config),
        "vocab": vocab.words,
        "bank_texts": bank_texts,
        "params": {
            name: {"shape": list(arr.shape),
                   "values": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")}
            for name, arr in named_arrays(params)
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
