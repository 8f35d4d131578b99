"""Closed-form classification of the trivial-intersection hypergraph of Z_n.

Every invariant here is a pure function of the multiset of prime
exponents of n: the prime values themselves never matter, only how the
exponents are distributed.  predict() is the "expected" side of the
verification harness; the computed side lives in metrics/topology.

genus_one, crosscap_one, toroidal and projective are formula-only
fields: surface embeddings are not recomputed and no check reads these
fields, so they are reported unverified until the surface-embedding
claims are certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import Factorization

# fields cross-checkable against exact computation vs. formula-only claims
COMPUTED_FIELDS = ("is_empty", "single_edge", "diameter", "girth",
                   "chromatic", "star", "hypertree", "planar")
FORMULA_ONLY_FIELDS = ("genus_one", "crosscap_one", "toroidal", "projective")

_GENUS_ONE_PATTERNS = {(3, 3), (3, 4), (3, 5), (3, 6), (4, 4),
                       (1, 1, 3), (1, 1, 4), (1, 1, 5)}
_CROSSCAP_ONE_PATTERNS = {(3, 3), (3, 4), (1, 1, 3), (1, 1, 4)}


@dataclass(frozen=True)
class Classification:
    """Predicted invariant vector for one n.

    diameter is None and girth is None when the hypergraph is empty;
    girth is math.inf for acyclic nonempty cases.  For the empty case
    every boolean field is False and chromatic is 0.
    """

    is_empty: bool
    single_edge: bool
    diameter: int | None
    girth: int | float | None
    chromatic: int
    star: bool
    hypertree: bool
    planar: bool
    genus_one: bool
    crosscap_one: bool
    toroidal: bool
    projective: bool

    def to_json_dict(self) -> dict:
        # the instance dict holds exactly the fields, in declaration order
        return {name: encode_infinite(value)
                for name, value in vars(self).items()}

    @staticmethod
    def from_json_dict(d: dict) -> "Classification":
        return Classification(**{k: decode_infinite(v) for k, v in d.items()})


def encode_infinite(value):
    """value as a result document holds it: math.inf as "infinite"."""
    return "infinite" if value == math.inf else value


def decode_infinite(value):
    """The inverse of encode_infinite."""
    return math.inf if value == "infinite" else value


def predict(f: Factorization) -> Classification:
    """Evaluate every classification formula on the exponent multiset of n."""
    exps = tuple(sorted(f.exponents))
    w = len(exps)
    if w <= 1:
        return Classification(
            is_empty=True, single_edge=False, diameter=None, girth=None,
            chromatic=0, star=False, hypertree=False, planar=False,
            genus_one=False, crosscap_one=False, toroidal=False,
            projective=False)

    single_edge = exps == (1, 1)
    diameter = 1 if single_edge else (2 if w == 2 else 3)
    if (w == 2 and exps[0] == 1) or exps == (1, 1, 1):
        girth: int | float = math.inf
    elif w == 2:
        girth = 4  # both exponents >= 2
    else:
        girth = 2
    star = w == 2 and exps[0] == 1
    hypertree = star or exps == (1, 1, 1)
    planar = (w == 2 and exps[0] <= 2) or exps in ((1, 1, 1), (1, 1, 2))
    genus_one = exps in _GENUS_ONE_PATTERNS
    crosscap_one = exps in _CROSSCAP_ONE_PATTERNS
    return Classification(
        is_empty=False,
        single_edge=single_edge,
        diameter=diameter,
        girth=girth,
        chromatic=2,
        star=star,
        hypertree=hypertree,
        planar=planar,
        genus_one=genus_one,
        crosscap_one=crosscap_one,
        toroidal=planar or genus_one,
        projective=planar or crosscap_one,
    )
