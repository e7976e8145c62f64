"""Kernel backend selection.

The compiled extension is used when present; set EKRLAB_KERNELS=pure to force
the pure-Python fallback (EKRLAB_KERNELS=compiled insists on the extension
and raises if it is missing).
"""

from __future__ import annotations

import os

from . import _pure

_choice = os.environ.get("EKRLAB_KERNELS", "").strip().lower()

if _choice == "pure":
    _impl = _pure
elif _choice == "compiled":
    from . import _core as _impl  # noqa: F401
else:
    try:
        from . import _core as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _pure

BACKEND: str = _impl.BACKEND_NAME

#: largest ground size the compiled counting kernels accept
MAX_COUNT_N = 22

#: largest universe the compiled search kernel accepts
MAX_SEARCH_SETS = 64


def monotone_masks(n: int):
    return _impl.monotone_masks(n)


def weight_pivot_counts(fam: int, n: int):
    if _impl is not _pure and n > MAX_COUNT_N:
        return _pure.weight_pivot_counts(fam, n)
    return _impl.weight_pivot_counts(fam, n)


def weight_counts(fam: int, n: int):
    if _impl is not _pure and n > MAX_COUNT_N:
        return _pure.weight_counts(fam, n)
    return _impl.weight_counts(fam, n)


def search_uniform(masks, preds_masks, mode, param, shifted,
                   node_budget=None, resume_path=None, resume_best=-1,
                   resume_witness=(), checkpoint_cb=None, checkpoint_every=0):
    needs_pure = (
        _impl is not _pure
        and (len(masks) > MAX_SEARCH_SETS or resume_path or checkpoint_cb is not None)
    )
    impl = _pure if needs_pure else _impl
    if impl is _pure:
        return _pure.search_uniform(masks, preds_masks, mode, param, shifted,
                                    node_budget=node_budget,
                                    resume_path=resume_path,
                                    resume_best=resume_best,
                                    resume_witness=resume_witness,
                                    checkpoint_cb=checkpoint_cb,
                                    checkpoint_every=checkpoint_every)
    return impl.search_uniform(masks, preds_masks, mode, param, shifted,
                               node_budget=node_budget)


# enumeration of all predicate-satisfying families stays pure (generator)
iter_predicate_families = _pure.iter_predicate_families
BudgetExceeded = _pure.BudgetExceeded
