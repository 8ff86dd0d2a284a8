"""Stored reference outputs, one gzipped JSON file per workload.

Layout: {"commit": <sha the outputs were generated at>,
         "seeds": {"<seed>": {"configs": <sha256 of the generated configs>,
                              "outputs": {"<config>|<suffix>": <CSV text>}}}}
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"


def ref_path(workload):
    return REFS / f"{workload}.json.gz"


def load_refs(workload):
    path = ref_path(workload)
    if not path.exists():
        return {"commit": None, "seeds": {}}
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save_refs(workload, refs):
    REFS.mkdir(exist_ok=True)
    data = json.dumps(refs, sort_keys=True, indent=0).encode()
    with open(ref_path(workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(data)
