"""Approach strings: one flat, parseable name per evaluated method.

Grammar (whitespace is ignored):

    oracle
    sbs
    <selector atom>                     peralgo(trees=50), sunny(k=16), ...
    voting[<agg>]{<atom>,<atom>,...;search=all|exhaustive}
    bagging[<agg>]{<atom>;k=10;seed=S}
    boosting{<atom>;iters=20;seed=S}
    stacking{meta=<atom>;bases=<atom>,...;fs=none|vt(0.16);split=shared|disjoint(0.7)}
    ass{meta=<atom>;bases=<atom>,...;inner=3}

This module reads syntax only. Each bracket and `key=value` segment
becomes a keyword argument of the kind's model constructor, and an
omitted one takes that constructor's default; the constructor alone
judges the values (`<agg>` is an aggregation registry key, k >= 1, ...).
Atoms go to `selectors.parse_selector_spec`, which takes their keys from
the selector constructors alike and shares the `key=value` reader.
`canonical_approach_spec` therefore validates a spec by building its
unfitted model, whose construction only checks and stores arguments.
It normalizes parameter order and atom spelling while preserving member
order; model randomness is derived from the canonical string, so two
spellings of the same approach train identically.
"""

from __future__ import annotations

import inspect
import re
from dataclasses import dataclass, field

from .ensembles import (
    BaggingEnsemble,
    BoostingEnsemble,
    StackingEnsemble,
    VotingEnsemble,
)
from .errors import InvalidConfig
from .meta import AlgorithmSelectorSelector
from .selectors import (
    Selector,
    _int,
    _key_value_segments,
    canonical_selector_spec,
    make_selector,
)

ORACLE = "oracle"

_MODELS = {
    "selector": make_selector,
    "voting": VotingEnsemble,
    "bagging": BaggingEnsemble,
    "boosting": BoostingEnsemble,
    "stacking": StackingEnsemble,
    "ass": AlgorithmSelectorSelector,
}
# The constructors' keyword defaults: the one place an approach default lives.
_DEFAULTS = {
    kind: {
        name: p.default
        for name, p in inspect.signature(model).parameters.items()
        if p.default is not p.empty
    }
    for kind, model in _MODELS.items()
}

_KIND_RE = re.compile(r"^(voting|bagging|boosting|stacking|ass)(?:\[([^\]]*)\])?\{(.*)\}$")

_OPENERS = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = {")": "(", "]": "[", "}": "{"}


def _split_top(text: str, sep: str) -> list[str]:
    """Split on `sep` only where no bracket of any shape is open."""
    parts, depth, start = [], [], 0
    for pos, ch in enumerate(text):
        if ch in _OPENERS:
            depth.append(ch)
        elif ch in _CLOSERS:
            if not depth or depth[-1] != _CLOSERS[ch]:
                raise InvalidConfig(f"unbalanced {ch!r} in {text!r}")
            depth.pop()
        elif ch == sep and not depth:
            parts.append(text[start:pos])
            start = pos + 1
    if depth:
        raise InvalidConfig(f"unclosed {depth[-1]!r} in {text!r}")
    parts.append(text[start:])
    return parts


def _parse_mode(value: str, bare: str, wrapped: str, mode_key: str, number_key: str) -> dict:
    """Parse `bare` or `wrapped(<float>)` into constructor keywords; an
    empty `wrapped()` leaves the number to the constructor's default."""
    if value == bare:
        return {mode_key: bare}
    match = re.fullmatch(re.escape(wrapped) + r"\(([^()]*)\)", value)
    if match is None:
        raise InvalidConfig(f"expected {bare} or {wrapped}(<value>), got {value!r}")
    raw = match.group(1)
    if raw == "":
        return {mode_key: wrapped}
    try:
        return {mode_key: wrapped, number_key: float(raw)}
    except ValueError:
        raise InvalidConfig(f"{wrapped} takes a number, got {raw!r}") from None


def _atoms(text: str, error: str) -> tuple[str, ...]:
    atoms = [a for a in _split_top(text, ",") if a]
    if not atoms:
        raise InvalidConfig(error)
    return tuple(canonical_selector_spec(a) for a in atoms)


def _fmt(value: float) -> str:
    return f"{value:g}"


@dataclass(frozen=True)
class ParsedApproach:
    kind: str                      # oracle | selector | voting | bagging | boosting | stacking | ass
    members: tuple[str, ...] = ()  # canonical selector atoms (stacking/ass: bases), in order
    params: dict = field(default_factory=dict)  # the kind's constructor keyword arguments
    seed: int | None = None        # bagging/boosting `seed=`: enters the name, hence the entropy

    @property
    def aggregation(self) -> str | None:
        return self.params.get("aggregation")


def parse_approach(spec: str) -> ParsedApproach:
    text = re.sub(r"\s+", "", spec)
    if not text:
        raise InvalidConfig("empty approach string")
    if text.lower() == ORACLE:
        return ParsedApproach(kind=ORACLE)

    match = _KIND_RE.match(text)
    if match is None:
        return ParsedApproach(kind="selector", members=(canonical_selector_spec(text),))

    kind, agg, body = match.groups()
    segments = _split_top(body, ";")
    seed = None

    if kind == "voting":
        members = _atoms(segments[0], "voting needs at least one member")
        args = {"member_specs": members, **_key_value_segments(segments[1:], {"search"}, kind)}
    elif kind in ("bagging", "boosting"):
        if not segments[0]:
            raise InvalidConfig(f"{kind} needs a member spec")
        key, keyword = ("k", "k") if kind == "bagging" else ("iters", "iterations")
        params = _key_value_segments(segments[1:], {key, "seed"}, kind)
        members = (canonical_selector_spec(segments[0]),)
        args = {"member_spec": members[0]}
        if key in params:
            args[keyword] = _int(params, key)
        if "seed" in params:
            seed = _int(params, "seed")
    else:
        tuning = {"fs", "split"} if kind == "stacking" else {"inner"}
        params = _key_value_segments(segments, {"meta", "bases"} | tuning, kind)
        if "meta" not in params:
            raise InvalidConfig(f"{kind} needs meta=<spec>")
        if "bases" not in params:
            raise InvalidConfig(f"{kind} needs bases=<spec>,...")
        members = _atoms(params["bases"], f"{kind} needs at least one base spec")
        args = {"base_specs": members, "meta_spec": canonical_selector_spec(params["meta"])}
        if "inner" in params:
            args["inner_folds"] = _int(params, "inner")
        if "fs" in params:
            args.update(
                _parse_mode(params["fs"], "none", "vt", "feature_selection", "vt_threshold")
            )
        if "split" in params:
            args.update(_parse_mode(params["split"], "shared", "disjoint", "split", "split_ratio"))

    if agg is not None:
        if "aggregation" not in _DEFAULTS[kind]:
            raise InvalidConfig(f"{kind} does not take an aggregation")
        args["aggregation"] = agg
    return ParsedApproach(kind, members, {**_DEFAULTS[kind], **args}, seed)


def _canonical(parsed: ParsedApproach) -> str:
    kind, p = parsed.kind, parsed.params
    if kind == ORACLE:
        return ORACLE
    if kind == "selector":
        return parsed.members[0]
    members = ",".join(parsed.members)
    seed = "" if parsed.seed is None else f";seed={parsed.seed}"
    if kind == "voting":
        return f"voting[{p['aggregation']}]{{{members};search={p['search']}}}"
    if kind == "bagging":
        return f"bagging[{p['aggregation']}]{{{members};k={p['k']}{seed}}}"
    if kind == "boosting":
        return f"boosting{{{members};iters={p['iterations']}{seed}}}"
    if kind == "ass":
        return f"ass{{meta={p['meta_spec']};bases={members};inner={p['inner_folds']}}}"
    fs = "none" if p["feature_selection"] == "none" else f"vt({_fmt(p['vt_threshold'])})"
    split = "shared" if p["split"] == "shared" else f"disjoint({_fmt(p['split_ratio'])})"
    return f"stacking{{meta={p['meta_spec']};bases={members};fs={fs};split={split}}}"


def _build(parsed: ParsedApproach, global_seed: int) -> Selector:
    return _MODELS[parsed.kind](_canonical(parsed), global_seed, **parsed.params)


def canonical_approach_spec(spec: str) -> str:
    """The canonical form of `spec`, once its model's constructor has
    accepted every value (InvalidConfig otherwise)."""
    parsed = parse_approach(spec)
    if parsed.kind == ORACLE:
        return ORACLE
    return _build(parsed, 0).spec


def build_approach(spec: str, global_seed: int = 0) -> Selector:
    """Construct the untrained model an approach string names.

    `oracle` has no model form (the evaluation loop computes it from the
    truth directly), so asking for it here is a config error.
    """
    parsed = parse_approach(spec)
    if parsed.kind == ORACLE:
        raise InvalidConfig("oracle is computed by the evaluation loop, not trained")
    return _build(parsed, global_seed)
