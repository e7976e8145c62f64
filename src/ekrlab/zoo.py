"""Constructors for the named extremal and tightness families, with
closed-form measures and slice counts cross-checked against enumeration.

Distinguished coordinates always occupy an initial block (the dictator is
coordinate 1, an umvirate sits on [t], special windows are contiguous), so
serialized families are reproducible; isomorphic copies come from the
explicit `perm` argument of `construct`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .bitops import elements_of, mask_of, popcount, swap_coordinates
from .families import EdgeGround, SetFamily, UniformFamily
from .numerics import _Frozen, default_dps, log, to_mpf, workdps

class FamilySpec(_Frozen):
    """Serializable description of a zoo family: a name plus parameters."""

    __slots__ = ("name", "params")

    def __init__(self, name: str, params: dict | None = None):
        params = {} if params is None else params
        if not isinstance(name, str) or name not in FAMILY_NAMES:
            raise ValueError(f"unknown family {name!r}; known: {FAMILY_NAMES}")
        if not isinstance(params, dict):
            raise ValueError(f"params must be an object, got {params!r}")
        for key, val in params.items():
            if not isinstance(val, int) or isinstance(val, bool):
                raise ValueError(f"parameter {key!r} must be an integer, "
                                 f"got {val!r}")
        entry = FAMILIES[name]
        missing = [k for k in entry.params
                   if k not in params and k not in _OPTIONAL]
        if missing:
            raise ValueError(f"missing parameters: {missing}")
        extra = set(params) - set(entry.params)
        if extra:
            raise ValueError(f"unexpected parameters: {sorted(extra)}")
        for ok, msg in entry.check(*entry.values(params)):
            if not ok:
                raise ValueError(msg)
        super().__init__(name, params)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FamilySpec) and self.name == other.name
                and self.params == other.params)

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, d: dict) -> "FamilySpec":
        if not isinstance(d, dict) or "name" not in d:
            raise ValueError(f'a family spec is an object with a "name", got {d!r}')
        params = d.get("params", {})
        if not isinstance(params, dict):
            # checked here too, since the constructor reads None as no params
            raise ValueError(f"params must be an object, got {params!r}")
        return cls(d["name"], dict(params))


# -- direct constructors -------------------------------------------------------


def dictatorship(n: int, j: int = 1) -> SetFamily:
    """All subsets containing the fixed element j."""
    b = 1 << (j - 1)
    return SetFamily.from_predicate(n, lambda m: bool(m & b), width=j)


def t_umvirate(n: int, b) -> SetFamily:
    """S_B: all subsets containing B (int t means B = [t])."""
    bm = mask_of(range(1, b + 1)) if isinstance(b, int) else mask_of(b)
    return SetFamily.from_predicate(n, lambda m: m & bm == bm,
                                   width=bm.bit_length())


def or_family(n: int, b) -> SetFamily:
    """OR_B: all subsets meeting B (int s means B = [s]); the dual of S_B."""
    bm = mask_of(range(1, b + 1)) if isinstance(b, int) else mask_of(b)
    return SetFamily.from_predicate(n, lambda m: bool(m & bm),
                                   width=bm.bit_length())


def _window(lo: int, hi: int) -> int:
    """Mask of {lo, .., hi} (empty when hi < lo)."""
    return mask_of(range(lo, hi + 1)) if hi >= lo else 0


def _slice(n: int, k: int, pred) -> UniformFamily:
    """The k-sets of [n] that satisfy pred."""
    return UniformFamily(n, k, (m for m in map(
        mask_of, itertools.combinations(range(1, n + 1), k)) if pred(m)))


def ak_family(n: int, k: int, t: int, r: int) -> UniformFamily:
    """k-sets meeting [t+2r] in at least t+r elements."""
    w = _window(1, t + 2 * r)
    return _slice(n, k, lambda m: popcount(m & w) >= t + r)


def _gi_predicate(i: int):
    one = 1
    win = _window(2, i)

    def pred(m: int) -> bool:
        if m & one:
            return bool(m & win)
        return m & win == win

    return pred


def frankl_gi(n: int, k: int, i: int) -> UniformFamily:
    """k-sets containing 1 and meeting {2..i}, or avoiding 1 and containing
    {2..i}."""
    return _slice(n, k, _gi_predicate(i))


def tilde_gi(n: int, i: int) -> SetFamily:
    """Full-cube version of the same predicate."""
    return SetFamily.from_predicate(n, _gi_predicate(i), width=i)


def _f_ts_predicate(t: int, s: int):
    head = _window(1, t)
    win = _window(t + 1, t + s)

    def pred(m: int) -> bool:
        if m & head == head:
            return bool(m & win)
        return popcount(m & head) == t - 1 and m & win == win

    return pred


def f_ts(n: int, k: int, t: int, s: int) -> UniformFamily:
    return _slice(n, k, _f_ts_predicate(t, s))


def tilde_f_ts(n: int, t: int, s: int) -> SetFamily:
    return SetFamily.from_predicate(n, _f_ts_predicate(t, s), width=t + s)


def tilde_h_tsr(n: int, t: int, s: int, r: int) -> SetFamily:
    """Sets containing [t] and meeting {t+1..t+r}, plus sets containing
    [t-1] but not t and containing all of {t+1..t+s}."""
    head = _window(1, t)
    headm1 = _window(1, t - 1)
    bt = 1 << (t - 1)
    rwin = _window(t + 1, t + r)
    swin = _window(t + 1, t + s)

    def pred(m: int) -> bool:
        if m & head == head:
            return bool(m & rwin)
        return m & headm1 == headm1 and not m & bt and m & swin == swin

    return SetFamily.from_predicate(n, pred, width=t + max(r, s))


def _d_predicate(s: int, d: int, el: int):
    sm1 = _window(1, s - 1)
    smask = _window(1, s)
    bs = 1 << (s - 1)
    dwin = _window(s + 1, s + d)
    lwin = _window(s + 1, s + el)

    def pred(m: int) -> bool:
        if m & sm1:
            return True
        if m & smask == bs:
            return bool(m & dwin)
        return not m & smask and m & lwin == lwin

    return pred


def tilde_d_sdl(n: int, s: int, d: int, el: int) -> SetFamily:
    """Sets meeting [s-1]; or meeting [s] exactly in {s} and meeting
    {s+1..s+d}; or avoiding [s] and containing {s+1..s+l}."""
    return SetFamily.from_predicate(n, _d_predicate(s, d, el),
                                   width=s + max(d, el))


def c_ts(n: int, t: int, s: int) -> SetFamily:
    """Sets containing [t] and meeting {t+1..t+s}; its k-slices are initial
    lex segments."""
    head = _window(1, t)
    win = _window(t + 1, t + s)
    return SetFamily.from_predicate(
        n, lambda m: m & head == head and bool(m & win), width=t + s)


def hm_matching_layout(n: int, k: int, s: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Fixed embedding for the Hilton-Milner-type matching family.

    x_i = i+1 for i = 0..s-1.  T_i (1 <= i <= s-1) takes its anchor x_i plus
    the i-th fresh (k-1)-block after coordinate s; T_s is a fresh k-block.
    Blocks are consecutive, so the layout is reproducible.
    """
    xs = tuple(range(1, s + 1))
    ts = []
    base = s
    for i in range(1, s):
        block = tuple(range(base + 1, base + k))
        ts.append(mask_of((xs[i],) + block))
        base += k - 1
    ts.append(mask_of(range(base + 1, base + k + 1)))
    return xs, tuple(ts)


def hm_matching_e(n: int, k: int, s: int) -> UniformFamily:
    """Hilton-Milner-type matching family: the sets anchored at some x_i and
    meeting the later blocks T_{i+1},..,T_s, plus the blocks themselves."""
    xs, ts = hm_matching_layout(n, k, s)
    tails = [0] * s  # tails[i] = T_{i+1} | ... | T_s
    acc = 0
    for i in range(s - 1, -1, -1):
        acc |= ts[i]
        tails[i] = acc
    blocks = frozenset(ts)
    return _slice(n, k, lambda m: m in blocks or any(
        m & (1 << (xs[i] - 1)) and m & tails[i] for i in range(s)))


def conj_h(n: int, k: int, s: int, d: int) -> UniformFamily:
    """The conjectured matching-stability extremal family, k-uniform: the
    k-slice of tilde_D_sdl with l = d."""
    return _slice(n, k, _d_predicate(s, d, d))


def triangle_umvirate(v: int) -> SetFamily:
    """All graphs on [v] containing the fixed triangle on vertices {1,2,3}."""
    eg = EdgeGround(v)
    tri = eg.edge_mask([(1, 2), (1, 3), (2, 3)])
    return SetFamily.from_predicate(eg.n, lambda m: m & tri == tri, edges=eg,
                                   width=tri.bit_length())


# -- the family table ----------------------------------------------------------


def comb0(a: int, b: int) -> int:
    """Binomial with the zero convention outside 0 <= b <= a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def _ak_size(k, n, _, t, r):
    w = t + 2 * r
    return sum(comb0(w, i) * comb0(n - w, k - i)
               for i in range(t + r, min(w, k) + 1))


def _gi_size(k, n, i):
    c = comb0
    return (c(n - 1, k - 1) - c(n - i, k - 1)) + c(n - i, k - i + 1)


def _f_ts_size(k, n, t, s):
    c = comb0
    return ((c(n - t, k - t) - c(n - t - s, k - t))
            + t * c(n - t - s, k - t - s + 1))


def _d_size(k, n, s, d, el):
    c = comb0
    return ((c(n, k) - c(n - s + 1, k))
            + (c(n - s, k - 1) - c(n - s - d, k - 1))
            + c(n - s - el, k - el))


def _hm_size(k, n, own_k, s):
    # counted from the defining predicate; no compact closed form kept
    if own_k != k:
        raise ValueError("hm_matching_E is counted at its own k only")
    return len(hm_matching_e(n, k, s))


def _ts_checks(n, t, s):
    return ((t >= 1 and s >= 1, f"need t,s >= 1, got t={t}, s={s}"),
            (t + s <= n, f"need t+s <= n, got t+s={t + s}, n={n}"))


class _Family(_Frozen):
    """One zoo family.  `params` are its parameters in the order `build`
    takes them; `check(*values)` gives the (condition, message) pairs a
    valid spec meets, in order; `mu(p, 1-p, *values)` is its closed-form
    measure (None: no closed form); `size(k, *values)` is the size of its
    k-slice.  A family with a "k" parameter is k-uniform; the others live
    on the whole cube."""

    __slots__ = ("params", "check", "build", "mu", "size")

    @property
    def uniform(self) -> bool:
        return "k" in self.params

    def values(self, params: dict) -> list:
        return [params[k] if k in params else _OPTIONAL[k]
                for k in self.params]


#: the parameters a spec may leave out, with the value they then take
_OPTIONAL = {"j": 1}

FAMILIES = {
    "dictatorship": _Family(
        ("n", "j"),
        lambda n, j: ((1 <= j <= n, f"need 1 <= j <= n, got j={j}, n={n}"),),
        dictatorship, lambda p, q, n, j: p,
        lambda k, n, j: comb0(n - 1, k - 1)),
    "t_umvirate": _Family(
        ("n", "t"),
        lambda n, t: ((1 <= t <= n, f"need 1 <= t <= n, got t={t}, n={n}"),),
        t_umvirate, lambda p, q, n, t: p ** t,
        lambda k, n, t: comb0(n - t, k - t)),
    "or_family": _Family(
        ("n", "s"),
        lambda n, s: ((1 <= s <= n, f"need 1 <= s <= n, got s={s}, n={n}"),),
        or_family, lambda p, q, n, s: 1 - q ** s,
        lambda k, n, s: comb0(n, k) - comb0(n - s, k)),
    "ak_family": _Family(
        ("n", "k", "t", "r"),
        lambda n, k, t, r: (
            (t >= 1 and r >= 0, f"need t >= 1, r >= 0, got t={t}, r={r}"),
            (t + 2 * r <= n, f"need t+2r <= n, got t+2r={t + 2 * r}, n={n}"),
            (t + r <= k <= n, f"need t+r <= k <= n, got k={k}")),
        ak_family, None, _ak_size),
    "frankl_Gi": _Family(
        ("n", "k", "i"),
        lambda n, k, i: (
            (2 <= k <= n - 1, f"need 2 <= k <= n-1, got k={k}, n={n}"),
            (3 <= i <= k + 1, f"need 3 <= i <= k+1, got i={i}")),
        frankl_gi, None, lambda k, n, _, i: _gi_size(k, n, i)),
    "tilde_Gi": _Family(
        ("n", "i"),
        lambda n, i: ((3 <= i <= n, f"need 3 <= i <= n, got i={i}, n={n}"),),
        tilde_gi,
        lambda p, q, n, i: p * (1 - q ** (i - 1)) + q * p ** (i - 1),
        _gi_size),
    "F_ts": _Family(
        ("n", "k", "t", "s"),
        lambda n, k, t, s: (*_ts_checks(n, t, s),
                            (t <= k <= n, f"need t <= k <= n, got k={k}")),
        f_ts, None, lambda k, n, _, t, s: _f_ts_size(k, n, t, s)),
    "tilde_F_ts": _Family(
        ("n", "t", "s"), _ts_checks, tilde_f_ts,
        lambda p, q, n, t, s: p**t * (1 - q**s) + t * p ** (t - 1) * q * p**s,
        _f_ts_size),
    "tilde_H_tsr": _Family(
        ("n", "t", "s", "r"),
        lambda n, t, s, r: (
            (t >= 1 and s >= 1 and r >= 1, f"need t,s,r >= 1, got {t},{s},{r}"),
            (t + max(s, r) <= n, f"need t+max(s,r) <= n, got n={n}")),
        tilde_h_tsr,
        lambda p, q, n, t, s, r: p**t * (1 - q**r) + q * p ** (t + s - 1),
        lambda k, n, t, s, r: ((comb0(n - t, k - t) - comb0(n - t - r, k - t))
                               + comb0(n - t - s, k - t - s + 1))),
    "tilde_D_sdl": _Family(
        ("n", "s", "d", "l"),
        lambda n, s, d, el: (
            (s >= 1 and d >= 1 and el >= 1, f"need s,d,l >= 1, got {s},{d},{el}"),
            (s + max(d, el) <= n, f"need s+max(d,l) <= n, got n={n}")),
        tilde_d_sdl,
        lambda p, q, n, s, d, el: (1 - q ** (s - 1) + q ** (s - 1)
                                   * (p * (1 - q**d) + q * p**el)),
        _d_size),
    "C_ts_lex": _Family(
        ("n", "t", "s"),
        lambda n, t, s: ((t >= 1 and s >= 1 and t + s <= n,
                          f"invalid (n,t,s)=({n},{t},{s})"),),
        c_ts, lambda p, q, n, t, s: p**t * (1 - q**s),
        lambda k, n, t, s: comb0(n - t, k - t) - comb0(n - t - s, k - t)),
    "hm_matching_E": _Family(
        ("n", "k", "s"),
        lambda n, k, s: (
            (k >= 1 and s >= 1, f"need k,s >= 1, got k={k}, s={s}"),
            (n >= s + (s - 1) * (k - 1) + k,
             f"need n >= s+(s-1)(k-1)+k = {s + (s - 1) * (k - 1) + k}, "
             f"got n={n}")),
        hm_matching_e, None, _hm_size),
    "conj_H": _Family(
        ("n", "k", "s", "d"),
        lambda n, k, s, d: (
            (s >= 1 and d >= 1, f"need s,d >= 1, got s={s}, d={d}"),
            (s + d <= n and d <= k <= n, f"invalid (n,k,s,d)=({n},{k},{s},{d})")),
        conj_h, None, lambda k, n, _, s, d: _d_size(k, n, s, d, d)),
    "triangle_umvirate": _Family(
        ("v",), lambda v: ((v >= 3, f"need v >= 3 vertices, got {v}"),),
        triangle_umvirate, lambda p, q, v: p**3,
        lambda k, v: comb0(v * (v - 1) // 2 - 3, k - 3)),
}

FAMILY_NAMES = tuple(FAMILIES)


# -- spec dispatch -------------------------------------------------------------


def construct(spec: FamilySpec, perm=None):
    """Realize a FamilySpec; optional perm (1-indexed permutation of the
    ground) produces the isomorphic relabeled copy."""
    entry = FAMILIES[spec.name]
    fam = entry.build(*entry.values(spec.params))
    return fam if perm is None else relabel(fam, perm)


def relabel(fam, perm):
    """Apply a ground permutation: element e goes to perm[e-1].  A dense
    family moves by coordinate swaps on its bits, at most n-1 of them."""
    n = fam.n
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("perm must be a permutation of 1..n")

    def remap(m: int) -> int:
        out = 0
        for e in elements_of(m):
            out |= 1 << (perm[e - 1] - 1)
        return out

    if isinstance(fam, UniformFamily):
        return UniformFamily(n, fam.k, (remap(m) for m in fam.members))
    bits = fam.bits
    at = list(range(n))  # at[q]: the coordinate now at position q
    where = list(range(n))  # where[c]: the position of coordinate c
    for c in range(n):
        q, target = where[c], perm[c] - 1
        if q != target:
            bits = swap_coordinates(bits, n, q, target)
            other = at[target]
            at[q], at[target] = other, c
            where[other], where[c] = q, target
    return SetFamily(n, bits, fam.edges)


def closed_form_mu(spec: FamilySpec, p) -> Fraction:
    """The family's closed-form measure, evaluated exactly at rational p."""
    p = Fraction(p)
    entry = FAMILIES[spec.name]
    if entry.mu is None:
        raise ValueError(f"no closed-form measure for {spec.name!r}")
    return entry.mu(p, 1 - p, *entry.values(spec.params))


def closed_form_size(spec: FamilySpec, k: int) -> int:
    """Exact size of the k-uniform slice of the family."""
    entry = FAMILIES[spec.name]
    return entry.size(k, *entry.values(spec.params))


def ak_max(n: int, k: int, t: int) -> tuple[int, list[int]]:
    """max_r of the AK family sizes and every r attaining it."""
    best = -1
    argmax: list[int] = []
    r = 0
    while t + 2 * r <= n and t + r <= k:
        size = closed_form_size(FamilySpec("ak_family",
                                           {"n": n, "k": k, "t": t, "r": r}), k)
        if size > best:
            best, argmax = size, [r]
        elif size == best:
            argmax.append(r)
        r += 1
    return best, argmax


class RootInfo(_Frozen):
    """The bias p0 where a tightness family meets its defining equation;
    `value` is a Fraction when exact, else a real."""

    __slots__ = ("value", "exact")


#: family -> the parameters (a, b) of its defining equation, below
ROOT_EXPONENTS = {"tilde_H_tsr": ("r", "s"), "tilde_D_sdl": ("d", "l")}


def defining_root(spec: FamilySpec) -> RootInfo:
    """Unique p0 in (0,1) with (1-p0)**(a-1) == p0**(b-1); bisected to
    working precision, uniqueness by a sign check."""
    if spec.name not in ROOT_EXPONENTS:
        raise ValueError(f"defining root exists for {' / '.join(ROOT_EXPONENTS)} only")
    a, b = (spec.params[key] for key in ROOT_EXPONENTS[spec.name])
    if a < 2 or b < 2:
        raise ValueError("defining equation needs both exponents >= 2")
    if a == b:
        return RootInfo(Fraction(1, 2), True)

    def g(x):
        return (a - 1) * log(1 - x) - (b - 1) * log(x)

    with workdps(default_dps()) as prec:
        lo, hi = to_mpf("1e-9"), 1 - to_mpf("1e-9")
        if not (g(lo) > 0 > g(hi)):
            raise ArithmeticError("sign check failed; no bracketed root")
        for _ in range(prec + 20):
            mid = (lo + hi) / 2
            if g(mid) > 0:
                lo = mid
            else:
                hi = mid
        return RootInfo((lo + hi) / 2, False)
