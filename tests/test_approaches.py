import numpy as np
import pytest

from metaselect.approaches import (
    ORACLE,
    build_approach,
    canonical_approach_spec,
    parse_approach,
)
from metaselect.ensembles import (
    BaggingEnsemble,
    BoostingEnsemble,
    StackingEnsemble,
    VotingEnsemble,
)
from metaselect.errors import InvalidConfig
from metaselect.meta import AlgorithmSelectorSelector
from metaselect.selectors import Selector


CANONICAL_CASES = [
    ("oracle", "oracle"),
    ("sbs", "sbs"),
    ("PerAlgo( trees = 20 )", "peralgo(trees=20)"),
    ("voting{sunny,sbs}", "voting[maj]{sunny,sbs;search=all}"),
    (
        "voting[borda]{sunny(k=9), peralgo; search=exhaustive}",
        "voting[borda]{sunny(k=9),peralgo;search=exhaustive}",
    ),
    ("bagging{sunny}", "bagging[maj]{sunny;k=10}"),
    ("bagging[wmaj]{sunny; k=4; seed=3}", "bagging[wmaj]{sunny;k=4;seed=3}"),
    ("boosting{multiclass}", "boosting{multiclass;iters=20}"),
    ("boosting{ multiclass ; iters=7 }", "boosting{multiclass;iters=7}"),
    (
        "stacking{bases=sunny,sbs;meta=multiclass}",
        "stacking{meta=multiclass;bases=sunny,sbs;fs=none;split=shared}",
    ),
    (
        "stacking{split=disjoint(0.7);fs=vt(0.16);meta=multiclass;bases=sunny}",
        "stacking{meta=multiclass;bases=sunny;fs=vt(0.16);split=disjoint(0.7)}",
    ),
    (
        "stacking{meta=sbs;bases=sunny;fs=vt();split=disjoint()}",
        "stacking{meta=sbs;bases=sunny;fs=vt(0.16);split=disjoint(0.7)}",
    ),
    ("ass{meta=sbs;bases=sunny,sbs}", "ass{meta=sbs;bases=sunny,sbs;inner=3}"),
    ("ass{inner=4;meta=SBS;bases=Sunny(k=3)}", "ass{meta=sbs;bases=sunny(k=3);inner=4}"),
]


@pytest.mark.parametrize("raw,canonical", CANONICAL_CASES)
def test_canonicalization(raw, canonical):
    assert canonical_approach_spec(raw) == canonical
    # canonical form is a fixed point
    assert canonical_approach_spec(canonical) == canonical


@pytest.mark.parametrize("canonical", [c for _, c in CANONICAL_CASES if c != ORACLE])
def test_built_model_carries_the_canonical_spec(canonical):
    assert build_approach(canonical, 0).spec == canonical


def test_member_order_is_preserved_in_bases():
    # stacking and ass keep member order; voting sorts nothing either
    spec = "stacking{meta=sbs;bases=sunny,peralgo,sbs}"
    assert "bases=sunny,peralgo,sbs" in canonical_approach_spec(spec)


@pytest.mark.parametrize(
    "raw",
    [
        "voting{}",
        "voting[nope]{sbs}",
        "voting{sbs;search=greedy}",
        "voting{sbs;k=3}",  # unknown key for voting
        "bagging{sunny,sbs}",  # bagging takes exactly one member
        "bagging{sunny;k=0}",
        "bagging{sunny;k=x}",
        "boosting[maj]{sunny}",  # boosting takes no aggregation
        "boosting{sunny;iters=0}",
        "stacking{meta=sbs}",  # missing bases
        "stacking{bases=sbs}",  # missing meta
        "stacking{meta=sbs;bases=sbs;fs=pca}",
        "stacking{meta=sbs;bases=sbs;split=disjoint(1.5)}",
        "stacking{meta=sbs;bases=sbs;split=disjoint(0)}",
        "stacking{meta=sbs;bases=sbs;fs=vt(-0.1)}",
        "stacking{meta=sbs;bases=sbs;fs=vt(inf)}",
        "stacking{meta=sbs;bases=sbs;fs=vt(nan)}",
        "stacking[maj]{meta=sbs;bases=sbs}",  # only voting and bagging aggregate
        "ass[maj]{meta=sbs;bases=sbs}",
        "voting{bagging{sunny;k=3},sbs}",  # members are atoms, no nesting
        "ass{meta=sbs;bases=sbs;inner=1}",
        "ass{bases=sbs}",
        "voting{sbs",  # unbalanced brace
        "oracle(x=1)",
        "unknownkind{sbs}",
        "voting{sbs;search=all;search=all}",  # duplicate key
        # the exhaustive search is gated at 15 members
        "voting{" + ",".join(f"sunny(k={k})" for k in range(1, 17)) + ";search=exhaustive}",
        # selector constructors reject values below 1, also inside ensembles
        "sunny(k=0)",
        "isac(clusters=0)",
        "peralgo(trees=0)",
        "multiclass(trees=-1)",
        "pairwise(mtry=0)",
        "voting{sunny(k=0),sbs}",
        "bagging{peralgo(mtry=0)}",
        "stacking{meta=isac(clusters=0);bases=sbs}",
        "ass{meta=sbs;bases=pairwise(trees=0)}",
        # a seed is nonnegative wherever it is given
        "bagging{sunny;k=2;seed=-4}",
        "boosting{sunny;seed=-1}",
    ],
)
def test_bad_grammar_rejected(raw):
    with pytest.raises(InvalidConfig):
        canonical_approach_spec(raw)


def test_parse_kinds():
    assert parse_approach("oracle").kind == "oracle"
    assert parse_approach("sbs").kind == "selector"
    assert parse_approach("sunny(k=2)").kind == "selector"
    assert parse_approach("voting{sbs}").kind == "voting"
    assert parse_approach("bagging{sbs}").kind == "bagging"
    assert parse_approach("boosting{sbs}").kind == "boosting"
    assert parse_approach("stacking{meta=sbs;bases=sbs}").kind == "stacking"
    assert parse_approach("ass{meta=sbs;bases=sbs}").kind == "ass"


def test_parse_defaults():
    voting = parse_approach("voting{sunny,sbs}")
    assert voting.params["aggregation"] == "maj" and voting.params["search"] == "all"
    bagging = parse_approach("bagging{sunny}")
    assert bagging.params["k"] == 10
    boosting = parse_approach("boosting{sunny}")
    assert boosting.params["iterations"] == 20
    ass = parse_approach("ass{meta=sbs;bases=sunny}")
    assert ass.params["inner_folds"] == 3


def test_build_produces_matching_types():
    built = {
        "sunny(k=3)": Selector,
        "voting{sunny,sbs}": VotingEnsemble,
        "bagging{sunny;k=2}": BaggingEnsemble,
        "boosting{multiclass;iters=2}": BoostingEnsemble,
        "stacking{meta=sbs;bases=sunny}": StackingEnsemble,
        "ass{meta=sbs;bases=sunny}": AlgorithmSelectorSelector,
    }
    for spec, cls in built.items():
        model = build_approach(spec, 0)
        assert isinstance(model, cls), spec
        assert model.spec == canonical_approach_spec(spec)


def test_oracle_cannot_be_built():
    assert ORACLE == "oracle"
    with pytest.raises(InvalidConfig):
        build_approach("oracle", 0)


def test_seed_parameter_is_part_of_identity(toy):
    train, test = toy.fold_split(1)
    xs = toy.features[test]
    a = build_approach("bagging{multiclass(trees=10);k=3}", 0).fit(toy, train)
    b = build_approach("bagging{multiclass(trees=10);k=3;seed=1}", 0).fit(toy, train)
    assert a.spec != b.spec
    assert not np.array_equal(a.scores_batch(xs), b.scores_batch(xs))


def test_whitespace_never_matters():
    tight = canonical_approach_spec("voting[wmaj]{sunny(k=9),sbs;search=exhaustive}")
    spaced = canonical_approach_spec(
        " voting [ wmaj ] { sunny( k = 9 ) , sbs ; search = exhaustive } "
    )
    assert tight == spaced


@pytest.mark.parametrize(
    "spec", ["peralgo(trees=2)", "bagging{sunny;k=2}", "ass{meta=sbs;bases=sunny}"]
)
def test_negative_global_seed_rejected_before_fit(spec):
    with pytest.raises(InvalidConfig):
        build_approach(spec, -1)
