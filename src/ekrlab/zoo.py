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
from .numerics import _Frozen, default_dps, log, nstr, to_mpf, workdps

FAMILY_NAMES = (
    "dictatorship", "t_umvirate", "or_family", "ak_family", "frankl_Gi",
    "tilde_Gi", "F_ts", "tilde_F_ts", "tilde_H_tsr", "tilde_D_sdl",
    "C_ts_lex", "hm_matching_E", "conj_H", "triangle_umvirate",
)


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
        _VALIDATORS[name](dict(params))
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


def _need(params: dict, *keys):
    missing = [k for k in keys if k not in params]
    if missing:
        raise ValueError(f"missing parameters: {missing}")
    extra = set(params) - set(keys)
    if extra:
        raise ValueError(f"unexpected parameters: {sorted(extra)}")
    return [params[k] for k in keys]


def _check(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _v_dictatorship(p):
    vals = _need(p, "n", *(["j"] if "j" in p else []))
    n = vals[0]
    j = vals[1] if len(vals) > 1 else 1
    _check(1 <= j <= n, f"need 1 <= j <= n, got j={j}, n={n}")


def _v_t_umvirate(p):
    n, t = _need(p, "n", "t")
    _check(1 <= t <= n, f"need 1 <= t <= n, got t={t}, n={n}")


def _v_or_family(p):
    n, s = _need(p, "n", "s")
    _check(1 <= s <= n, f"need 1 <= s <= n, got s={s}, n={n}")


def _v_ak(p):
    n, k, t, r = _need(p, "n", "k", "t", "r")
    _check(t >= 1 and r >= 0, f"need t >= 1, r >= 0, got t={t}, r={r}")
    _check(t + 2 * r <= n, f"need t+2r <= n, got t+2r={t + 2 * r}, n={n}")
    _check(t + r <= k <= n, f"need t+r <= k <= n, got k={k}")


def _v_frankl_gi(p):
    n, k, i = _need(p, "n", "k", "i")
    _check(2 <= k <= n - 1, f"need 2 <= k <= n-1, got k={k}, n={n}")
    _check(3 <= i <= k + 1, f"need 3 <= i <= k+1, got i={i}")


def _v_tilde_gi(p):
    n, i = _need(p, "n", "i")
    _check(3 <= i <= n, f"need 3 <= i <= n, got i={i}, n={n}")


def _v_f_ts(p):
    n, k, t, s = _need(p, "n", "k", "t", "s")
    _check(t >= 1 and s >= 1, f"need t,s >= 1, got t={t}, s={s}")
    _check(t + s <= n, f"need t+s <= n, got t+s={t + s}, n={n}")
    _check(t <= k <= n, f"need t <= k <= n, got k={k}")


def _v_tilde_f_ts(p):
    n, t, s = _need(p, "n", "t", "s")
    _check(t >= 1 and s >= 1, f"need t,s >= 1, got t={t}, s={s}")
    _check(t + s <= n, f"need t+s <= n, got t+s={t + s}, n={n}")


def _v_tilde_h(p):
    n, t, s, r = _need(p, "n", "t", "s", "r")
    _check(t >= 1 and s >= 1 and r >= 1, f"need t,s,r >= 1, got {t},{s},{r}")
    _check(t + max(s, r) <= n, f"need t+max(s,r) <= n, got n={n}")


def _v_tilde_d(p):
    n, s, d, el = _need(p, "n", "s", "d", "l")
    _check(s >= 1 and d >= 1 and el >= 1, f"need s,d,l >= 1, got {s},{d},{el}")
    _check(s + max(d, el) <= n, f"need s+max(d,l) <= n, got n={n}")


def _v_c_ts(p):
    n, t, s = _need(p, "n", "t", "s")
    _check(t >= 1 and s >= 1 and t + s <= n, f"invalid (n,t,s)=({n},{t},{s})")


def _v_hm_e(p):
    n, k, s = _need(p, "n", "k", "s")
    _check(k >= 1 and s >= 1, f"need k,s >= 1, got k={k}, s={s}")
    _check(n >= s + (s - 1) * (k - 1) + k,
           f"need n >= s+(s-1)(k-1)+k = {s + (s - 1) * (k - 1) + k}, got n={n}")


def _v_conj_h(p):
    n, k, s, d = _need(p, "n", "k", "s", "d")
    _check(s >= 1 and d >= 1, f"need s,d >= 1, got s={s}, d={d}")
    _check(s + d <= n and d <= k <= n, f"invalid (n,k,s,d)=({n},{k},{s},{d})")


def _v_triangle(p):
    (v,) = _need(p, "v")
    _check(v >= 3, f"need v >= 3 vertices, got {v}")


_VALIDATORS = {
    "dictatorship": _v_dictatorship, "t_umvirate": _v_t_umvirate,
    "or_family": _v_or_family, "ak_family": _v_ak, "frankl_Gi": _v_frankl_gi,
    "tilde_Gi": _v_tilde_gi, "F_ts": _v_f_ts, "tilde_F_ts": _v_tilde_f_ts,
    "tilde_H_tsr": _v_tilde_h, "tilde_D_sdl": _v_tilde_d, "C_ts_lex": _v_c_ts,
    "hm_matching_E": _v_hm_e, "conj_H": _v_conj_h, "triangle_umvirate": _v_triangle,
}


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


def ak_family(n: int, k: int, t: int, r: int) -> UniformFamily:
    """k-sets meeting [t+2r] in at least t+r elements."""
    w = _window(1, t + 2 * r)
    return UniformFamily(n, k, (m for m in _ksets(n, k)
                                if popcount(m & w) >= t + r))


def _ksets(n: int, k: int):
    for combo in itertools.combinations(range(1, n + 1), k):
        yield mask_of(combo)


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
    pred = _gi_predicate(i)
    return UniformFamily(n, k, (m for m in _ksets(n, k) if pred(m)))


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
    return UniformFamily(n, k, (m for m in _ksets(n, k)
                                if _f_ts_predicate(t, s)(m)))


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


def tilde_d_sdl(n: int, s: int, d: int, el: int) -> SetFamily:
    """Sets meeting [s-1]; or meeting [s] exactly in {s} and meeting
    {s+1..s+d}; or avoiding [s] and containing {s+1..s+l}."""
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

    return SetFamily.from_predicate(n, pred, width=s + max(d, el))


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

    members = set(ts)
    for m in _ksets(n, k):
        if any(m & (1 << (xs[i] - 1)) and m & tails[i] for i in range(s)):
            members.add(m)
    return UniformFamily(n, k, members)


def conj_h(n: int, k: int, s: int, d: int) -> UniformFamily:
    """The conjectured matching-stability extremal family, k-uniform."""
    sm1 = _window(1, s - 1)
    smask = _window(1, s)
    bs = 1 << (s - 1)
    dwin = _window(s + 1, s + d)

    def pred(m: int) -> bool:
        if m & sm1:
            return True
        if m & smask == bs:
            return bool(m & dwin)
        return not m & smask and m & dwin == dwin

    return UniformFamily(n, k, (m for m in _ksets(n, k) if pred(m)))


def triangle_umvirate(v: int) -> SetFamily:
    """All graphs on [v] containing the fixed triangle on vertices {1,2,3}."""
    eg = EdgeGround(v)
    tri = eg.edge_mask([(1, 2), (1, 3), (2, 3)])
    return SetFamily.from_predicate(eg.n, lambda m: m & tri == tri, edges=eg,
                                   width=tri.bit_length())


# -- spec dispatch -------------------------------------------------------------


def construct(spec: FamilySpec, perm=None):
    """Realize a FamilySpec; optional perm (1-indexed permutation of the
    ground) produces the isomorphic relabeled copy."""
    p = dict(spec.params)
    name = spec.name
    if name == "dictatorship":
        fam = dictatorship(p["n"], p.get("j", 1))
    elif name == "t_umvirate":
        fam = t_umvirate(p["n"], p["t"])
    elif name == "or_family":
        fam = or_family(p["n"], p["s"])
    elif name == "ak_family":
        fam = ak_family(p["n"], p["k"], p["t"], p["r"])
    elif name == "frankl_Gi":
        fam = frankl_gi(p["n"], p["k"], p["i"])
    elif name == "tilde_Gi":
        fam = tilde_gi(p["n"], p["i"])
    elif name == "F_ts":
        fam = f_ts(p["n"], p["k"], p["t"], p["s"])
    elif name == "tilde_F_ts":
        fam = tilde_f_ts(p["n"], p["t"], p["s"])
    elif name == "tilde_H_tsr":
        fam = tilde_h_tsr(p["n"], p["t"], p["s"], p["r"])
    elif name == "tilde_D_sdl":
        fam = tilde_d_sdl(p["n"], p["s"], p["d"], p["l"])
    elif name == "C_ts_lex":
        fam = c_ts(p["n"], p["t"], p["s"])
    elif name == "hm_matching_E":
        fam = hm_matching_e(p["n"], p["k"], p["s"])
    elif name == "conj_H":
        fam = conj_h(p["n"], p["k"], p["s"], p["d"])
    elif name == "triangle_umvirate":
        fam = triangle_umvirate(p["v"])
    else:  # pragma: no cover
        raise ValueError(name)
    if perm is not None:
        fam = relabel(fam, perm)
    return fam


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
    q = 1 - p
    pr = dict(spec.params)
    name = spec.name
    if name == "dictatorship":
        return p
    if name == "t_umvirate":
        return p ** pr["t"]
    if name == "or_family":
        return 1 - q ** pr["s"]
    if name == "tilde_Gi":
        i = pr["i"]
        return p * (1 - q ** (i - 1)) + q * p ** (i - 1)
    if name == "tilde_F_ts":
        t, s = pr["t"], pr["s"]
        return p**t * (1 - q**s) + t * p ** (t - 1) * q * p**s
    if name == "tilde_H_tsr":
        t, s, r = pr["t"], pr["s"], pr["r"]
        return p**t * (1 - q**r) + q * p ** (t + s - 1)
    if name == "tilde_D_sdl":
        s, d, el = pr["s"], pr["d"], pr["l"]
        return 1 - q ** (s - 1) + q ** (s - 1) * (p * (1 - q**d) + q * p**el)
    if name == "C_ts_lex":
        t, s = pr["t"], pr["s"]
        return p**t * (1 - q**s)
    if name == "triangle_umvirate":
        return p**3
    raise ValueError(f"no closed-form measure for {spec.name!r}")


def comb0(a: int, b: int) -> int:
    """Binomial with the zero convention outside 0 <= b <= a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def closed_form_size(spec: FamilySpec, k: int) -> int:
    """Exact size of the k-uniform slice of the family."""
    pr = dict(spec.params)
    name = spec.name
    c = comb0
    n = pr.get("n")
    if name == "dictatorship":
        return c(n - 1, k - 1)
    if name == "t_umvirate":
        return c(n - pr["t"], k - pr["t"])
    if name == "or_family":
        return c(n, k) - c(n - pr["s"], k)
    if name == "ak_family":
        t, r = pr["t"], pr["r"]
        w = t + 2 * r
        return sum(c(w, i) * c(n - w, k - i) for i in range(t + r, min(w, k) + 1))
    if name in ("frankl_Gi", "tilde_Gi"):
        i = pr["i"]
        return (c(n - 1, k - 1) - c(n - i, k - 1)) + c(n - i, k - i + 1)
    if name in ("F_ts", "tilde_F_ts"):
        t, s = pr["t"], pr["s"]
        return (c(n - t, k - t) - c(n - t - s, k - t)) + t * c(n - t - s, k - t - s + 1)
    if name == "tilde_H_tsr":
        t, s, r = pr["t"], pr["s"], pr["r"]
        return (c(n - t, k - t) - c(n - t - r, k - t)) + c(n - t - s, k - t - s + 1)
    if name == "tilde_D_sdl":
        s, d, el = pr["s"], pr["d"], pr["l"]
        return ((c(n, k) - c(n - s + 1, k))
                + (c(n - s, k - 1) - c(n - s - d, k - 1))
                + c(n - s - el, k - el))
    if name == "C_ts_lex":
        t, s = pr["t"], pr["s"]
        return c(n - t, k - t) - c(n - t - s, k - t)
    if name == "conj_H":
        s, d = pr["s"], pr["d"]
        return ((c(n, k) - c(n - s + 1, k))
                + (c(n - s, k - 1) - c(n - s - d, k - 1))
                + c(n - s - d, k - d))
    if name == "triangle_umvirate":
        m = pr["v"] * (pr["v"] - 1) // 2
        return c(m - 3, k - 3)
    if name == "hm_matching_E":
        # counted from the defining predicate; no compact closed form kept
        fam = hm_matching_e(n, pr["k"], pr["s"])
        if pr["k"] != k:
            raise ValueError("hm_matching_E is counted at its own k only")
        return len(fam)
    raise ValueError(f"no slice-count formula for {spec.name!r}")


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

    __slots__ = ("value", "exact", "bracket", "equation")


def defining_root(spec: FamilySpec) -> RootInfo:
    """Unique p0 in (0,1) with (1-p0)**(r-1) == p0**(s-1) (and the d/l
    analogue); bisected to working precision, uniqueness by a sign check."""
    pr = dict(spec.params)
    if spec.name == "tilde_H_tsr":
        a, b = pr["r"], pr["s"]
        eq = f"(1-p)^{a - 1} = p^{b - 1}"
    elif spec.name == "tilde_D_sdl":
        a, b = pr["d"], pr["l"]
        eq = f"(1-p)^{a - 1} = p^{b - 1}"
    else:
        raise ValueError("defining root exists for tilde_H_tsr / tilde_D_sdl only")
    if a < 2 or b < 2:
        raise ValueError("defining equation needs both exponents >= 2")
    if a == b:
        return RootInfo(Fraction(1, 2), True, (Fraction(1, 2), Fraction(1, 2)), eq)

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
        val = (lo + hi) / 2
        return RootInfo(val, False,
                        (Fraction(nstr(lo, 25)), Fraction(nstr(hi, 25))), eq)
