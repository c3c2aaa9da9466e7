"""Checkpoint files for the tests: edit a saved file's header and payload,
and write the earlier format 2 (one JSON document, each tensor as base64 of
its little-endian float64 bytes) the way its writer did, so that tests can
check it is refused."""

import base64
import dataclasses
import json

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
