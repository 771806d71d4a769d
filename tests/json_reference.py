"""The plain document encoding: json.dumps with every array in list form.

``io`` keeps the arrays of a document (matrix index and entries, party
bases, weight tables) as numpy arrays until it writes them.  This
reference turns every array into nested lists and lets ``json.dumps``
format every number on its own; ``tests/test_io.py`` requires the written
bytes to equal its output, so decomposition files keep this encoding.
"""

import json

import numpy as np


def reference_text(doc: dict) -> str:
    """json.dumps of the document with every array in list form."""
    return json.dumps(doc, default=np.ndarray.tolist)
