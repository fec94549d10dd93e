"""Synthetic U.S. domestic flights seed dataset (§5.1's default data).

The paper's default configuration uses real BTS "on-time performance"
flight records [31] because *"it contains real-world data and
distributions"* — skew and correlation are what stress approximate query
processing. The BTS archive is not available offline, so this module
generates a synthetic seed with the same schema (Fig. 2) and the
statistical properties that matter to the benchmark:

* **heavy-tailed, mixture-shaped delays** — most flights are on time, a
  minority is very late (drives missing-bin and relative-error behaviour
  of sampled estimates);
* **correlated DEP_DELAY / ARR_DELAY** (departure delays propagate) and
  a day-time effect (evening flights are later), so the copula scaler has
  real correlation structure to preserve;
* **Zipf-distributed carriers and airports** (hub-and-spoke traffic), so
  nominal group-bys have both huge and tiny groups;
* **distance/air-time geometry** from pseudo-coordinates, so physical
  quantities stay mutually consistent.

The generated table is the *seed*; the copula scaler of
:mod:`repro.data.generator` then scales it to the benchmark sizes, exactly
as IDEBench scales the BTS seed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.common.errors import DataGenerationError
from repro.common.rng import choice_weighted, derive_rng
from repro.data.storage import Categorical, Table, index_dtype

#: Columns of the seed table, in schema order (Fig. 2 of the paper).
FLIGHTS_COLUMNS = (
    "MONTH",
    "DAY_OF_WEEK",
    "DEP_TIME",
    "ARR_TIME",
    "DEP_DELAY",
    "ARR_DELAY",
    "AIR_TIME",
    "DISTANCE",
    "ELAPSED_TIME",
    "UNIQUE_CARRIER",
    "ORIGIN",
    "ORIGIN_STATE",
    "DEST",
    "DEST_STATE",
)

#: Number of distinct carriers. The paper's Exp. 3 workflow uses a 25-bin
#: nominal histogram of carriers, implying 25 distinct carriers.
NUM_CARRIERS = 25
#: Number of distinct airports in the seed.
NUM_AIRPORTS = 60

_STATE_CODES = (
    "AL AK AZ AR CA CO CT DE FL GA HI ID IL IN IA KS KY LA ME MD "
    "MA MI MN MS MO MT NE NV NH NJ NM NY NC ND OH OK OR PA RI SC "
    "SD TN TX UT VT VA WA WV WI WY"
).split()


def _zipf_probabilities(n: int, exponent: float) -> np.ndarray:
    """Zipf(n, s) probability vector: p_k ∝ 1 / k^s."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = 1.0 / np.power(ranks, exponent)
    return weights / weights.sum()


def _carrier_codes(n: int) -> List[str]:
    """Two-letter-plus-index carrier codes, e.g. ``AA0`` … ``ZZ24``."""
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    return [f"{letters[i % 26]}{letters[(i * 7 + 3) % 26]}" for i in range(n)]


def _airport_codes(n: int) -> List[str]:
    """Three-letter synthetic IATA-like codes (deterministic, distinct).

    Indices are mapped through ``i * 7919 mod 26**3`` (7919 is prime and
    coprime to 26³, so the map is a bijection) and then base-26 encoded,
    which spreads codes over the alphabet without collisions.
    """
    if n > 26**3:
        raise DataGenerationError(f"cannot generate more than {26**3} codes")
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    codes = []
    for i in range(n):
        value = (i * 7919) % (26**3)
        first, rest = divmod(value, 26 * 26)
        second, third = divmod(rest, 26)
        codes.append(letters[first] + letters[second] + letters[third])
    if len(set(codes)) != n:
        raise DataGenerationError("airport code generator produced duplicates")
    return codes


def generate_flights_seed(num_rows: int = 100_000, seed: int = 42) -> Table:
    """Generate the synthetic flights seed table.

    Parameters
    ----------
    num_rows:
        Seed size. 100k is plenty for the copula fit (the paper likewise
        fits on "a random sample" of its seed).
    seed:
        Root seed; all internal streams derive from it.
    """
    if num_rows < 1:
        raise DataGenerationError(f"num_rows must be >= 1, got {num_rows}")
    rng = derive_rng(seed, "flights-seed")

    carriers = np.array(_carrier_codes(NUM_CARRIERS), dtype=str)
    airports = np.array(_airport_codes(NUM_AIRPORTS), dtype=str)
    # Airports are pinned to pseudo-coordinates in a continental-US-like
    # box (longitude-ish 0..2600 miles, latitude-ish 0..1200 miles) and to
    # a home state; hub airports (low Zipf rank) sit closer to the middle.
    coord_rng = derive_rng(seed, "flights-seed", "geography")
    airport_x = coord_rng.uniform(0.0, 2600.0, size=NUM_AIRPORTS)
    airport_y = coord_rng.uniform(0.0, 1200.0, size=NUM_AIRPORTS)
    airport_state = coord_rng.choice(_STATE_CODES, size=NUM_AIRPORTS)

    carrier_probs = _zipf_probabilities(NUM_CARRIERS, 1.35)
    airport_probs = _zipf_probabilities(NUM_AIRPORTS, 1.15)

    carrier_idx = choice_weighted(rng, num_rows, carrier_probs)
    origin_idx = choice_weighted(rng, num_rows, airport_probs)
    dest_idx = choice_weighted(rng, num_rows, airport_probs)
    # Avoid origin == destination: re-draw collisions once, then shift.
    collisions = origin_idx == dest_idx
    dest_idx[collisions] = choice_weighted(rng, int(collisions.sum()), airport_probs)
    still = origin_idx == dest_idx
    dest_idx[still] = (dest_idx[still] + 1) % NUM_AIRPORTS

    # --- distance & air time from geometry --------------------------------
    dx = airport_x[origin_idx] - airport_x[dest_idx]
    dy = airport_y[origin_idx] - airport_y[dest_idx]
    distance = np.sqrt(dx * dx + dy * dy) + rng.normal(0.0, 15.0, size=num_rows)
    distance = np.clip(distance, 60.0, None)
    air_time = distance / 8.0 + 18.0 + rng.normal(0.0, 7.0, size=num_rows)
    air_time = np.clip(air_time, 20.0, None)

    # --- departure time: morning/midday/evening mixture -------------------
    component = choice_weighted(rng, num_rows, [0.38, 0.27, 0.35])
    means = np.array([7.6 * 60, 12.5 * 60, 18.1 * 60])
    stds = np.array([75.0, 95.0, 110.0])
    dep_time = rng.normal(means[component], stds[component])
    dep_time = np.clip(dep_time, 0.0, 1439.0)

    # --- delays: on-time mass + moderate + heavy tail ----------------------
    delay_kind = choice_weighted(rng, num_rows, [0.62, 0.28, 0.10])
    dep_delay = np.where(
        delay_kind == 0,
        rng.normal(-3.0, 4.5, size=num_rows),
        np.where(
            delay_kind == 1,
            rng.exponential(14.0, size=num_rows) + 2.0,
            rng.exponential(55.0, size=num_rows) + 15.0,
        ),
    )
    # Evening flights accumulate delay: +0..8 min drift across the day.
    dep_delay = dep_delay + (dep_time / 1440.0) * 8.0
    # Carrier quality effect: higher-rank (rarer) carriers run later.
    carrier_penalty = (carrier_idx / max(NUM_CARRIERS - 1, 1)) * 6.0
    dep_delay = dep_delay + carrier_penalty
    dep_delay = np.clip(dep_delay, -25.0, 720.0)

    arr_delay = 0.87 * dep_delay + rng.normal(0.0, 8.0, size=num_rows)
    arr_delay = np.clip(arr_delay, -40.0, 760.0)

    taxi = rng.normal(24.0, 6.0, size=num_rows)
    elapsed = air_time + np.clip(taxi, 8.0, None) + np.clip(
        arr_delay - dep_delay, -20.0, None
    )
    elapsed = np.clip(elapsed, 25.0, None)
    arr_time = np.mod(dep_time + elapsed, 1440.0)

    # --- calendar ----------------------------------------------------------
    month = 1 + choice_weighted(rng, num_rows, _seasonality_weights())
    day_of_week = 1 + choice_weighted(
        rng, num_rows, [0.155, 0.15, 0.15, 0.155, 0.16, 0.11, 0.12]
    )

    columns: Dict[str, np.ndarray] = {
        "MONTH": month,
        "DAY_OF_WEEK": day_of_week,
        "DEP_TIME": np.rint(dep_time).astype(np.int64),
        # Round before wrapping: rint alone could produce exactly 1440.
        "ARR_TIME": np.mod(np.rint(arr_time), 1440.0).astype(np.int64),
        "DEP_DELAY": np.rint(dep_delay).astype(np.int64),
        "ARR_DELAY": np.rint(arr_delay).astype(np.int64),
        "AIR_TIME": np.rint(air_time).astype(np.int64),
        "DISTANCE": np.rint(distance).astype(np.int64),
        "ELAPSED_TIME": np.rint(elapsed).astype(np.int64),
        "UNIQUE_CARRIER": _encoded(carriers, carrier_idx),
        "ORIGIN": _encoded(airports, origin_idx),
        "ORIGIN_STATE": _encoded(airport_state, origin_idx),
        "DEST": _encoded(airports, dest_idx),
        "DEST_STATE": _encoded(airport_state, dest_idx),
    }
    return Table("flights", {name: columns[name] for name in FLIGHTS_COLUMNS})


def _encoded(names: np.ndarray, index: np.ndarray) -> Categorical:
    """``names[index]`` as a table stores it, with no string per row."""
    categories, rank = np.unique(names, return_inverse=True)
    codes = rank.astype(index_dtype(len(categories))).take(index)
    return Categorical(categories, codes)


def _seasonality_weights() -> np.ndarray:
    """Monthly traffic weights: summer and December peaks."""
    weights = np.array(
        [0.072, 0.068, 0.082, 0.080, 0.084, 0.092, 0.098, 0.096, 0.078, 0.082, 0.078, 0.090]
    )
    return weights / weights.sum()


def flights_column_kinds() -> Dict[str, str]:
    """Logical kind of each seed column (quantitative vs nominal)."""
    nominal = {"UNIQUE_CARRIER", "ORIGIN", "ORIGIN_STATE", "DEST", "DEST_STATE"}
    return {
        name: ("nominal" if name in nominal else "quantitative")
        for name in FLIGHTS_COLUMNS
    }


def hub_airports(top: int = 5) -> Tuple[str, ...]:
    """The ``top`` most frequent airports by construction (Zipf rank)."""
    return tuple(_airport_codes(NUM_AIRPORTS)[:top])
