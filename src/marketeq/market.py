"""Contextual market instances: buyer/good contexts and derived quantities.

A market holds n buyer contexts and m good contexts in R^k.  Budgets, values
and supplies are derived, not stored:

* budget B_i  = ||b_i||_2
* value v_ij   = softplus(<b_i, g_j>)
* supply Y_j   = n by default (one unit per buyer), overridable.

Context generation is counter-based: each entity consumes a fixed block of the
underlying random stream (k draws per entity, buyers and goods on separate
substreams), so buyer i's context depends only on (seed, i, k, dist) and never
on n.  Distributions are realized by inverse-CDF transforms of those uniform
draws, which keeps the block property exact.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .ces import CesSpec, Regime, _row_chunks
from .errors import DegenerateBudget, InvalidArgument, check_integer, check_size


class ContextDistribution(enum.Enum):
    STANDARD_NORMAL = "normal"
    UNIFORM01 = "uniform"
    EXPONENTIAL_UNIT_RATE = "exponential"


def softplus(z):
    """log(1 + exp(z)), stable for large |z| via max(z,0) + log1p(exp(-|z|))."""
    z = np.asarray(z, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def softplus_and_slope(z, out=None):
    """(softplus(z), sigmoid(z)) from one shared e = exp(-|z|) pass.

    The slope d softplus / dz is 1/(1+e) where z >= 0 and e/(1+e) elsewhere;
    both results equal the separate stable forms bit for bit.  `out`, three
    float arrays shaped like `z` and not overlapping it (value, slope,
    scratch), receives the results, which are returned in its first two;
    without it the three are allocated.
    """
    z = np.asarray(z, dtype=float)
    value, slope, e = out if out is not None else (np.empty_like(z) for _ in range(3))
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.maximum(z, 0.0, out=value)
    value += np.log1p(e, out=slope)
    # numerator 1 where z >= 0, else e; as e <= 1, a max with the mask picks it
    np.greater_equal(z, 0.0, out=slope)
    np.maximum(e, slope, out=slope)
    e += 1.0
    slope /= e
    return value, slope


def _sample_contexts(seed_seq: np.random.SeedSequence, count: int, k: int, dist: ContextDistribution):
    gen = np.random.Generator(np.random.Philox(seed_seq))
    u = gen.random((count, k))  # one Philox word per component -> per-entity blocks
    # each transform runs in u's own buffer, the one count-by-k array
    if dist is ContextDistribution.UNIFORM01:
        return u
    if dist is ContextDistribution.EXPONENTIAL_UNIT_RATE:
        np.negative(u, out=u)
        np.log1p(u, out=u)
        return np.negative(u, out=u)
    # keep u strictly inside (0, 1) so ndtri stays finite (the shift alone
    # could round the largest representable u up to exactly 1)
    u += 2.0**-54
    np.clip(u, 2.0**-54, np.nextafter(1.0, 0.0), out=u)
    return ndtri(u, out=u)


@dataclass(frozen=True, eq=False)
class Market:
    """Immutable problem instance; share freely across threads.

    The derived budgets, values and default supplies are cached read-only
    arrays; an explicit `supply_override` is kept as given.  `==` and `hash`
    are identity; `digest()` names the market's values.
    """

    n: int
    m: int
    k: int
    buyers: np.ndarray  # (n, k)
    goods: np.ndarray  # (m, k)
    ces: CesSpec
    dist: ContextDistribution | None = None
    seed: int | None = None
    supply_override: np.ndarray | None = None  # explicit Y_j; default Y_j = n

    def __post_init__(self):
        buyers = np.asarray(self.buyers, dtype=float)
        goods = np.asarray(self.goods, dtype=float)
        object.__setattr__(self, "buyers", buyers)
        object.__setattr__(self, "goods", goods)
        if buyers.shape != (self.n, self.k) or goods.shape != (self.m, self.k):
            raise InvalidArgument("context array shapes must match (n, k) and (m, k)")
        check_recipe(self.n, self.m, self.k, self.seed)
        if not (np.all(np.isfinite(buyers)) and np.all(np.isfinite(goods))):
            raise InvalidArgument("contexts must be finite")
        if self.supply_override is not None:
            supplies = np.asarray(self.supply_override, dtype=float)
            object.__setattr__(self, "supply_override", supplies)
            if supplies.shape != (self.m,) or not np.all((supplies > 0) & (supplies < np.inf)):
                raise InvalidArgument("supply override must be m finite, strictly positive reals")

    @cached_property
    def budgets(self) -> np.ndarray:
        """B_i = ||b_i||, shape (n,)."""
        norms = np.linalg.norm(self.buyers, axis=1)
        if np.any(norms <= 0.0):
            raise DegenerateBudget("market contains a zero buyer context")
        return _read_only(norms)

    @cached_property
    def values(self) -> np.ndarray:
        """v_ij = softplus(<b_i, g_j>), shape (n, m); strictly positive.

        Column-major, so each good's values are one n-long contiguous vector
        and the passes over buyers run along it.  One whole matrix product
        into that array, then softplus in its buffer chunk by chunk, so no
        temporary is larger than a chunk of rows.  The product itself is not
        chunked: a one-row chunk would go through a matrix-vector kernel that
        can round differently in the last bit.
        """
        values = np.matmul(self.buyers, self.goods.T, out=np.empty((self.n, self.m), order="F"))
        for rows in _row_chunks(self.n):
            values[rows] = softplus(values[rows])
        return _read_only(values)

    @cached_property
    def supplies(self) -> np.ndarray:
        if self.supply_override is not None:
            return self.supply_override
        return _read_only(np.full(self.m, float(self.n)))

    @property
    def total_budget(self) -> float:
        return float(np.sum(self.budgets))

    def digest(self) -> str:
        """SHA-256 of the contexts and supplies, everything the solvers see."""
        h = hashlib.sha256()
        for array in (self.buyers, self.goods, self.supplies):
            h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
        return h.hexdigest()

    def to_json(self, include_contexts: bool = False) -> dict:
        doc = {
            "version": 1,
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "dist": self.dist.value if self.dist is not None else None,
            "regime": self.ces.regime.value,
            "alpha": self.ces.alpha,
            "seed": self.seed,
        }
        if self.supply_override is not None:
            doc["supplies"] = self.supply_override.tolist()
        if include_contexts or self.dist is None or self.seed is None:
            doc["buyers"] = self.buyers.tolist()
            doc["goods"] = self.goods.tolist()
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "Market":
        try:
            n, m, k, seed = doc["n"], doc["m"], doc["k"], doc.get("seed")
            spec = CesSpec(Regime(doc["regime"]), doc.get("alpha"))
            dist = ContextDistribution(doc["dist"]) if doc.get("dist") else None
            supplies = np.asarray(doc["supplies"], dtype=float) if "supplies" in doc else None
            contexts = ([np.asarray(doc[key], dtype=float) for key in ("buyers", "goods")]
                        if "buyers" in doc else None)
        except (KeyError, TypeError, ValueError) as err:  # a missing key, or a bad value
            raise InvalidArgument(f"bad market document ({type(err).__name__}: {err})") from err
        if contexts is None:
            if dist is None or seed is None:
                raise InvalidArgument("market document without contexts needs dist and seed")
            market = generate_market(n, m, k, dist, spec, seed)
            if supplies is None:
                return market
            contexts = market.buyers, market.goods
        return cls(n=n, m=m, k=k, buyers=contexts[0], goods=contexts[1], ces=spec, dist=dist,
                   seed=seed, supply_override=supplies)

    def save(self, path, include_contexts: bool = False) -> None:
        Path(path).write_text(json.dumps(self.to_json(include_contexts)) + "\n")

    @classmethod
    def load(cls, path) -> "Market":
        return cls.from_json(read_json(path))


def read_json(path):
    """The JSON document at `path`; InvalidArgument if it holds none (FileNotFoundError if absent)."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as err:  # not JSON, or not text at all
        raise InvalidArgument(f"{path} is not a JSON document: {err}") from err


def check_recipe(n: int, m: int, k: int, seed: int | None) -> None:
    """Reject a count below 1 and a negative seed, or either not an integer
    (`check_integer`), and counts whose arrays numpy could not index
    (`check_size`); `seed` is None for a market given by its contexts."""
    for name, value, low in (("n", n, 1), ("m", m, 1), ("k", k, 1)):
        check_integer(name, value, low)
    for name, shape in (("buyers", (n, k)), ("goods", (m, k)), ("values", (n, m))):
        check_size(name, *shape)
    if seed is not None:
        check_integer("seed", seed, 0)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def generate_market(
    n: int,
    m: int,
    k: int,
    dist: ContextDistribution,
    ces: CesSpec,
    seed: int,
) -> Market:
    """Deterministically sample a market; same arguments give a bit-identical result."""
    if seed is None:
        raise InvalidArgument("a generated market needs a seed")
    check_recipe(n, m, k, seed)
    buyer_ss, good_ss = np.random.SeedSequence(seed).spawn(2)
    buyers = _sample_contexts(buyer_ss, n, k, dist)
    goods = _sample_contexts(good_ss, m, k, dist)
    market = Market(n=n, m=m, k=k, buyers=buyers, goods=goods, ces=ces, dist=dist, seed=seed)
    market.budgets  # force the positivity check at generation time
    return market


__all__ = [
    "ContextDistribution",
    "Market",
    "check_recipe",
    "softplus",
    "softplus_and_slope",
    "generate_market",
]
