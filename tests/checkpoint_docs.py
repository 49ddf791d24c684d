"""Valid checkpoint documents of every family, and malformed variants.

Each malformed case names a family, a path into its document and what to put
there: a function of the old value, a replacement value, or DROP to delete
the key. An empty path replaces the whole document. ``locations`` and
``kind_of`` let a generator make such cases itself: any location, given a
value of another JSON kind or, in an object, dropped.
"""

import copy
import json

import numpy as np

from tera.adapters import (
    CHECKPOINT_FORMAT_VERSION,
    FrozenFactorStore,
    init_hira,
    init_lora,
    init_tera,
    init_vera,
)
from tera.tensor_ops import TensorizationScheme

MASTER_SEED = 3
DROP = object()
NAN, INF = float("nan"), float("inf")


def store():
    return FrozenFactorStore(MASTER_SEED)


FAMILIES = ("tera", "lora", "vera", "hira")


def adapter(family):
    """A small adapter of ``family`` with nonzero trainable values."""
    rng = np.random.default_rng(0)
    if family == "tera":
        built = init_tera(4, 4, TensorizationScheme((2, 2, 2, 2), 2), store())
    elif family == "lora":
        built = init_lora(3, 4, 2)
    elif family == "vera":
        built = init_vera(3, 4, 2, store())
    else:
        built = init_hira(3, 4, 2, w0_seed=5)
    for arr in built.trainable_arrays():
        arr[...] = rng.standard_normal(arr.shape)
    return built


def valid_doc(family):
    doc = adapter(family).to_doc()
    return {"format_version": CHECKPOINT_FORMAT_VERSION, **doc}


MALFORMED = {
    "tera-fewer-d-vectors-than-modes": ("tera", ["d_vectors"], lambda v: v[:-1]),
    "tera-no-scheme": ("tera", ["scheme"], DROP),
    "tera-no-master-seed": ("tera", ["master_seed"], DROP),
    "tera-d-vector-too-long": ("tera", ["d_vectors", 0], lambda v: v + [1.0]),
    "tera-nan-d": ("tera", ["d_vectors", 0, 1], NAN),
    "tera-inf-d": ("tera", ["d_vectors", 3, 0], -INF),
    "tera-string-mode-sizes": ("tera", ["scheme", "mode_sizes"], ["2", "2", "2", "2"]),
    "tera-zero-init-mode-out-of-range": ("tera", ["zero_init_mode"], 4),
    "tera-identity-flag-not-boolean": ("tera", ["identity_factors"], "yes"),
    "tera-identity-factors-on-reduced-ranks": ("tera", [], lambda v: {
        **v, "identity_factors": True, "scheme": {**v["scheme"], "ranks": [1, 2, 2, 2]},
        "d_vectors": [v["d_vectors"][0][:1], *v["d_vectors"][1:]]}),
    "tera-not-an-object": ("tera", [], lambda v: [v]),
    "lora-rank-disagrees-with-a": ("lora", ["rank"], 3),
    "lora-b-rows-disagree-with-a": ("lora", ["b"], lambda v: v[:-1]),
    "lora-ragged-a": ("lora", ["a", 0], lambda v: v[:-1]),
    "lora-string-rank": ("lora", ["rank"], "2"),
    "lora-nan-a": ("lora", ["a", 1, 0], NAN),
    "lora-unhashable-type": ("lora", ["adapter_type"], ["lora"]),
    "lora-boolean-format-version": ("lora", ["format_version"], True),
    "vera-d-length-differs-from-rank": ("vera", ["d"], lambda v: v + [0.5]),
    "vera-b-length-differs-from-shape": ("vera", ["b"], lambda v: v[:-1]),
    "vera-no-shape": ("vera", ["shape"], DROP),
    "vera-inf-b": ("vera", ["b", 2], INF),
    "vera-nan-d-init": ("vera", ["d_init"], NAN),
    "hira-rank-disagrees-with-a": ("hira", ["rank"], 1),
    "hira-b-columns-disagree-with-w0": ("hira", ["b"], lambda v: [r[:-1] for r in v]),
    "hira-no-w0": ("hira", ["w0"], DROP),
    "hira-numeric-checksum": ("hira", ["w0", "checksum"], 5),
    "hira-nan-b": ("hira", ["b", 1, 3], NAN),
    "tera-boolean-in-d-vector": ("tera", ["d_vectors", 0, 1], True),
    "lora-boolean-in-a": ("lora", ["a", 2, 0], False),
}

# The kinds of JSON value; integers and other numbers are one kind, as in JSON.
JSON_KINDS = ("null", "boolean", "number", "string", "array", "object")


def kind_of(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


def locations(doc):
    """Every path into ``doc``, the empty path (the document) first."""
    yield []
    if isinstance(doc, dict):
        children = doc.items()
    else:
        children = enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        for path in locations(child):
            yield [key, *path]


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutated(doc, path, change):
    """A copy of ``doc`` with ``change`` made at ``path``."""
    doc = copy.deepcopy(doc)
    if not path:
        return change(doc) if callable(change) else change
    parent = value_at(doc, path[:-1])
    if change is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = change(parent[path[-1]]) if callable(change) else change
    return doc


def malformed_doc(case):
    family, path, change = MALFORMED[case]
    return mutated(valid_doc(family), path, change)


def write(doc, path):
    # json writes non-finite floats as the bare tokens NaN and Infinity,
    # which is how such values reached checkpoints before saving refused them
    path.write_text(json.dumps(doc))
    return path
