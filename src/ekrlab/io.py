"""Family serialization.

JSON forms: {"n": int, "sets": [[1-indexed, strictly increasing], ...]} or
the compact {"n": int, "masks_hex": ["0x..", ...]}.  Readers accept either;
writers emit the sets form unless asked for the compact one.
"""

from __future__ import annotations

import json
from pathlib import Path

from .bitops import mask_of
from .families import SetFamily, UniformFamily


def family_to_dict(fam, compact: bool = False) -> dict:
    if compact:
        return {"n": fam.n, "masks_hex": [hex(m) for m in fam]}
    return {"n": fam.n, "sets": [list(s) for s in fam.member_sets()]}


def _masks_from_dict(d: dict) -> tuple[int, list[int]]:
    n = int(d["n"])
    if ("sets" in d) == ("masks_hex" in d):
        raise ValueError('family JSON needs exactly one of "sets" / "masks_hex"')
    if "sets" in d:
        masks = []
        for s in d["sets"]:
            if list(s) != sorted(set(int(e) for e in s)):
                raise ValueError(f"set {s} is not strictly increasing")
            masks.append(mask_of(int(e) for e in s))
        return n, masks
    return n, [int(h, 16) for h in d["masks_hex"]]


def set_family_from_dict(d: dict, edges=None) -> SetFamily:
    n, masks = _masks_from_dict(d)
    return SetFamily.from_masks(n, masks, edges=edges)


def uniform_family_from_dict(d: dict) -> UniformFamily:
    n, masks = _masks_from_dict(d)
    sizes = {m.bit_count() for m in masks}
    if len(sizes) > 1:
        raise ValueError(f"not k-uniform: member sizes {sorted(sizes)}")
    k = sizes.pop() if sizes else int(d.get("k", 0))
    return UniformFamily(n, k, masks)


def load_family(source, uniform: bool = False):
    """Read a family from a path, JSON object text, or dict."""
    if isinstance(source, dict):
        d = source
    elif Path(str(source)).exists():
        d = json.loads(Path(source).read_text())
    elif str(source).lstrip().startswith("{"):
        d = json.loads(str(source))
    else:
        raise ValueError(f"family file not found: {source}")
    return uniform_family_from_dict(d) if uniform else set_family_from_dict(d)


def dump_family(fam, path=None, compact: bool = False) -> str:
    text = json.dumps(family_to_dict(fam, compact), sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text
