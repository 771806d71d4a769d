"""The document encoder as the library ran it before: json.dumps of the list form.

``io`` keeps each matrix of a document as an array, formats each
distinct [re, im] pair of a large entry table once and joins the text
from those.  This reference turns every array into nested lists and lets
``json.dumps`` format every float on its own; ``tests/test_io.py``
requires the written bytes to equal its output.
"""

import json

import numpy as np


def reference_text(doc: dict) -> str:
    """json.dumps of the document with every array in list form."""
    return json.dumps(doc, default=np.ndarray.tolist)
