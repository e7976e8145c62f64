"""Family serialization.

JSON forms: {"n": int, "sets": [[1-indexed, strictly increasing], ...]} or
{"n": int, "masks_hex": ["0x..", ...]}.  Readers accept either;
`family_to_dict` writes the sets form.
"""

from __future__ import annotations

import json
from pathlib import Path

from .bitops import mask_of
from .families import (KINDS, MAX_DENSE_N, SetFamily, UniformFamily,
                       _check_ground)


def family_to_dict(fam) -> dict:
    return {"n": fam.n, "sets": [list(s) for s in fam.member_sets()]}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _masks_from_dict(d: dict, dense: bool = False
                     ) -> tuple[int, list[int], str | None]:
    """(n, member masks, past_n) of family JSON; a ValueError naming the
    field when the JSON has the wrong shape, or, for a `dense` family, a
    ground past the dense cap, checked before any mask is built.

    A member past n is found by comparing its elements, or its mask's bit
    length, with n, so its mask is never printed, nor built from elements
    (a set's mask is then a stand-in of the same size).  past_n names the
    first such member, or is None; the caller raises it once the checks
    that come first have passed."""
    if not isinstance(d, dict):
        raise ValueError('family JSON must be an object with "n" and "sets" '
                         '(or "masks_hex")')
    if ("sets" in d) == ("masks_hex" in d):
        raise ValueError('family JSON needs exactly one of "sets" / "masks_hex"')
    n = d.get("n")
    if not _is_int(n):
        raise ValueError('family JSON field "n" must be an integer')
    if dense:
        _check_ground(n)
    if "masks_hex" in d:
        hexes = d["masks_hex"]
        if not (isinstance(hexes, (list, tuple))
                and all(isinstance(h, str) for h in hexes)):
            raise ValueError('family JSON field "masks_hex" must be a list '
                             'of hex strings')
        masks = []
        for i, h in enumerate(hexes):
            try:
                masks.append(int(h, 16))
            except ValueError:
                raise ValueError(f'family JSON field "masks_hex" entry {i} '
                                 'is not a hex string') from None
        past_n = next((f"masks_hex entry {i} out of range for n={n}"
                       for i, m in enumerate(masks) if m.bit_length() > n),
                      None)
        return n, masks, past_n
    sets = d["sets"]
    if not (isinstance(sets, (list, tuple))
            and all(isinstance(s, (list, tuple)) for s in sets)
            and all(issubclass(kind, int) and not issubclass(kind, bool)
                    for kind in {type(e) for s in sets for e in s})):
        raise ValueError('family JSON field "sets" must be a list of lists '
                         'of integers')
    # a mask is a sum over a table of powers of two; an element off the
    # table goes to mask_of, which names an element below 1
    power = {e: 1 << (e - 1) for e in range(1, min(n, MAX_DENSE_N) + 1)}
    masks = []
    past_n = None
    for s in sets:
        if list(s) != sorted(set(s)):
            raise ValueError(f"set {list(s)} is not strictly increasing")
        try:
            masks.append(sum(map(power.__getitem__, s)))
        except KeyError:
            if s[0] >= 1 and s[-1] > n:
                past_n = past_n or f"element {s[-1]} out of range for n={n}"
                masks.append((1 << len(s)) - 1)
            else:
                masks.append(mask_of(s))
    return n, masks, past_n


def set_family_from_dict(d: dict, edges=None) -> SetFamily:
    n, masks, past_n = _masks_from_dict(d, dense=True)
    if past_n is not None:
        raise ValueError(past_n)
    if "k" in d:
        raise ValueError(f'family JSON field "k" marks {KINDS[1]}, '
                         f'not {KINDS[0]}')
    return SetFamily.from_masks(n, masks, edges=edges)


def uniform_family_from_dict(d: dict) -> UniformFamily:
    n, masks, past_n = _masks_from_dict(d)
    sizes = {m.bit_count() for m in masks}
    if len(sizes) > 1:
        raise ValueError(f"not k-uniform: member sizes {sorted(sizes)}")
    k = d.get("k", next(iter(sizes), 0))
    if not _is_int(k):
        raise ValueError('family JSON field "k" must be an integer')
    if sizes - {k}:
        raise ValueError(f'family JSON field "k" is {k}, but its members '
                         f'have {sizes.pop()} elements')
    if past_n is not None and k <= n:  # UniformFamily names a k past n
        raise ValueError(past_n)
    return UniformFamily(n, k, masks)


def load_family(source, uniform: bool = False):
    """Read a family from a path, JSON object text, or dict."""
    if isinstance(source, dict):
        d = source
    elif str(source).lstrip().startswith("{"):
        # before the file probe, which raises on text longer than a file
        # name may be
        d = json.loads(str(source))
    elif Path(str(source)).exists():
        d = json.loads(Path(source).read_text())
    else:
        # JSON text that is not an object (a list of sets, say) is a
        # malformed family, not a missing file
        try:
            d = json.loads(str(source))
        except ValueError:
            raise ValueError(f"family file not found: {source}") from None
    return uniform_family_from_dict(d) if uniform else set_family_from_dict(d)
