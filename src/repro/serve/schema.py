"""Request schemas for the what-if service: hand-rolled validation.

The service speaks plain JSON dicts so the stdlib HTTP front-end works
with zero dependencies; these dataclasses give the payloads a typed,
validated shape (pydantic-style, without pydantic).  Every defect in a
payload raises :class:`ValidationError` naming the offending field —
the HTTP layer turns that into a 400 whose body tells the operator
exactly what to fix.

Validation is *eager and closed*: unknown fields are rejected (a typo
like ``"readingtimes"`` must not silently fall back to the default),
and domain rules (known channel profile, known benchmark page, positive
population) are enforced here rather than as a 500 deep inside an
engine.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.ablation.components import VariantSetup
from repro.ablation.objective import (DEFAULT_PAGES,
                                      DEFAULT_READING_TIMES,
                                      PopulationSpec, Scenario)
from repro.capacity.simulator import CapacityConfig
from repro.faults.profiles import PROFILES
from repro.runtime.seeding import DEFAULT_ROOT_SEED
from repro.sched import spec_payload
from repro.stream import DEFAULT_BLOCK_ARRIVALS
from repro.stream.sweep import lognormal_pool
from repro.sched.units import DEFAULT_UNIT_BLOCKS
from repro.webpages.corpus import FULL_BENCHMARK, MOBILE_BENCHMARK


class ValidationError(ValueError):
    """A request payload defect, attributed to one field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name
        self.message = message

    def to_dict(self) -> Dict[str, str]:
        return {"field": self.field, "message": self.message}


def known_page_names() -> Tuple[str, ...]:
    """Every valid ``pages`` entry (Table 3 paper names)."""
    return tuple(entry.paper_name
                 for entry in MOBILE_BENCHMARK + FULL_BENCHMARK)


def _require_mapping(payload) -> dict:
    if not isinstance(payload, dict):
        raise ValidationError(
            "body", f"expected a JSON object, got "
            f"{type(payload).__name__}")
    return payload


def _reject_unknown(payload: dict, allowed) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ValidationError(
            unknown[0], f"unknown field {unknown[0]!r}; allowed: "
            f"{sorted(allowed)}")


def _int_field(payload: dict, name: str, default, *,
               minimum: Optional[int] = None) -> int:
    value = payload.get(name, default)
    if value is None:
        raise ValidationError(name, "is required")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(
            name, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(name, f"must be >= {minimum}, got {value}")
    return int(value)


def _finite(name: str, value) -> float:
    """``value`` as a float; ``json.loads`` accepts ``NaN`` and
    ``Infinity``, which no field can use."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(name, f"must be finite, got {value!r}")
    return number


def _float_field(payload: dict, name: str, default, *,
                 positive: bool = False) -> float:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(name, f"expected a number, got {value!r}")
    value = _finite(name, value)
    if positive and value <= 0:
        raise ValidationError(name, f"must be positive, got {value}")
    return value


def _str_field(payload: dict, name: str, default) -> str:
    value = payload.get(name, default)
    if not isinstance(value, str):
        raise ValidationError(name, f"expected a string, got {value!r}")
    return value


def _profile_field(payload: dict, name: str = "profile") -> str:
    profile = _str_field(payload, name, "ideal")
    if profile not in PROFILES:
        raise ValidationError(
            name, f"unknown channel profile {profile!r}; known: "
            f"{sorted(PROFILES)}")
    return profile


def _pages_field(payload: dict) -> Tuple[str, ...]:
    pages = payload.get("pages", list(DEFAULT_PAGES))
    if not isinstance(pages, (list, tuple)) or not pages:
        raise ValidationError(
            "pages", f"expected a non-empty list of page names, got "
            f"{pages!r}")
    known = known_page_names()
    out = []
    for page in pages:
        if not isinstance(page, str):
            raise ValidationError(
                "pages", f"expected page names, got {page!r}")
        if page not in known:
            raise ValidationError(
                "pages", f"unknown benchmark page {page!r}; known: "
                f"{sorted(known)}")
        out.append(page)
    return tuple(out)


def _readings_field(payload: dict) -> Tuple[float, ...]:
    readings = payload.get("reading_times", list(DEFAULT_READING_TIMES))
    if not isinstance(readings, (list, tuple)) or not readings:
        raise ValidationError(
            "reading_times", f"expected a non-empty list of seconds, "
            f"got {readings!r}")
    out = []
    for value in readings:
        if isinstance(value, bool) or not isinstance(value,
                                                     (int, float)):
            raise ValidationError(
                "reading_times", f"expected numbers, got {value!r}")
        value = _finite("reading_times", value)
        if value < 0:
            raise ValidationError(
                "reading_times", f"must be non-negative, got {value}")
        out.append(value)
    return tuple(out)


def _setup_field(payload: dict) -> Tuple[Tuple[str, object], ...]:
    overrides = payload.get("setup", {})
    if not isinstance(overrides, dict):
        raise ValidationError(
            "setup", f"expected an object of VariantSetup overrides, "
            f"got {overrides!r}")
    try:
        VariantSetup().apply(overrides)
    except KeyError as exc:
        raise ValidationError("setup", str(exc).strip("'\""))
    except (TypeError, ValueError) as exc:
        raise ValidationError("setup", str(exc))
    return tuple(sorted(overrides.items()))


@dataclass(frozen=True)
class PredictRequest:
    """One ``POST /predict`` scenario: profile + pages + timers + users.

    Defaults mirror the ablation layer's canonical scenario, so an
    empty ``{"n_users": 300}`` body asks the paper's own question.
    """

    n_users: int
    profile: str = "ideal"
    pages: Tuple[str, ...] = DEFAULT_PAGES
    reading_times: Tuple[float, ...] = DEFAULT_READING_TIMES
    seed: int = DEFAULT_ROOT_SEED
    n_channels: int = 200
    horizon: float = 3600.0
    mean_interval: float = 25.0
    setup_overrides: Tuple[Tuple[str, object], ...] = ()

    _FIELDS = ("n_users", "profile", "pages", "reading_times", "seed",
               "n_channels", "horizon", "mean_interval", "setup")

    @classmethod
    def from_payload(cls, payload) -> "PredictRequest":
        payload = _require_mapping(payload)
        _reject_unknown(payload, cls._FIELDS)
        return cls(
            n_users=_int_field(payload, "n_users", None, minimum=1),
            profile=_profile_field(payload),
            pages=_pages_field(payload),
            reading_times=_readings_field(payload),
            seed=_int_field(payload, "seed", DEFAULT_ROOT_SEED),
            n_channels=_int_field(payload, "n_channels", 200,
                                  minimum=1),
            horizon=_float_field(payload, "horizon", 3600.0,
                                 positive=True),
            mean_interval=_float_field(payload, "mean_interval", 25.0,
                                       positive=True),
            setup_overrides=_setup_field(payload))

    def setup(self) -> VariantSetup:
        return VariantSetup().apply(dict(self.setup_overrides))

    def population(self) -> PopulationSpec:
        return PopulationSpec(n_users=self.n_users,
                              n_channels=self.n_channels,
                              horizon=self.horizon,
                              mean_interval=self.mean_interval)

    def scenario(self, with_population: bool = False) -> Scenario:
        return Scenario(
            profile=self.profile, pages=self.pages,
            reading_times=self.reading_times, seed=self.seed,
            population=self.population() if with_population else None)

    def canonical(self) -> Tuple:
        """Hashable identity — the micro-batcher's dedup key."""
        return (self.profile, self.pages, self.reading_times, self.seed,
                self.n_users, self.n_channels, self.horizon,
                self.mean_interval, self.setup_overrides)

    def scenario_key(self) -> Tuple:
        """Identity of the evaluation scenario only (batch grouping)."""
        return (self.profile, self.pages, self.reading_times, self.seed)

    def to_dict(self) -> dict:
        return {
            "n_users": self.n_users,
            "profile": self.profile,
            "pages": list(self.pages),
            "reading_times": list(self.reading_times),
            "seed": self.seed,
            "n_channels": self.n_channels,
            "horizon": self.horizon,
            "mean_interval": self.mean_interval,
            "setup": dict(self.setup_overrides),
        }


@dataclass(frozen=True)
class SweepRequest:
    """One ``POST /sweep``: a population sweep handed to ``repro.sched``.

    The service pool is the synthetic lognormal benchmark pool (the
    fleet benchmarks' shape) so the job spec is fully content-addressed
    from the payload alone — the job ID *is* the spec fingerprint, and
    resubmitting the same sweep rejoins the same work directory.
    """

    users: Tuple[int, ...]
    n_channels: int = 200
    mean_interval: float = 25.0
    horizon: float = 3600.0
    config_seed: int = 42
    seed: Optional[int] = None
    pool_size: int = 400
    pool_median: float = 14.0
    pool_sigma: float = 0.5
    pool_seed: int = 7
    block_arrivals: int = DEFAULT_BLOCK_ARRIVALS
    unit_blocks: int = DEFAULT_UNIT_BLOCKS

    _FIELDS = ("users", "n_channels", "mean_interval", "horizon",
               "config_seed", "seed", "pool_size", "pool_median",
               "pool_sigma", "pool_seed", "block_arrivals",
               "unit_blocks")

    @classmethod
    def from_payload(cls, payload) -> "SweepRequest":
        payload = _require_mapping(payload)
        _reject_unknown(payload, cls._FIELDS)
        users = payload.get("users")
        if not isinstance(users, (list, tuple)) or not users:
            raise ValidationError(
                "users", f"expected a non-empty list of user counts, "
                f"got {users!r}")
        counts = []
        for value in users:
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 1:
                raise ValidationError(
                    "users", f"expected positive integers, got "
                    f"{value!r}")
            counts.append(int(value))
        seed = payload.get("seed")
        if seed is not None and (isinstance(seed, bool)
                                 or not isinstance(seed, int)):
            raise ValidationError(
                "seed", f"expected an integer or null, got {seed!r}")
        return cls(
            users=tuple(counts),
            n_channels=_int_field(payload, "n_channels", 200,
                                  minimum=1),
            mean_interval=_float_field(payload, "mean_interval", 25.0,
                                       positive=True),
            horizon=_float_field(payload, "horizon", 3600.0,
                                 positive=True),
            config_seed=_int_field(payload, "config_seed", 42),
            seed=seed,
            pool_size=_int_field(payload, "pool_size", 400, minimum=1),
            pool_median=_float_field(payload, "pool_median", 14.0,
                                     positive=True),
            pool_sigma=_float_field(payload, "pool_sigma", 0.5,
                                    positive=True),
            pool_seed=_int_field(payload, "pool_seed", 7),
            block_arrivals=_int_field(payload, "block_arrivals",
                                      DEFAULT_BLOCK_ARRIVALS,
                                      minimum=1),
            unit_blocks=_int_field(payload, "unit_blocks",
                                   DEFAULT_UNIT_BLOCKS, minimum=1))

    def pool(self) -> np.ndarray:
        return lognormal_pool(size=self.pool_size,
                              median=self.pool_median,
                              sigma=self.pool_sigma,
                              seed=self.pool_seed)

    def config(self) -> CapacityConfig:
        return CapacityConfig(n_channels=self.n_channels,
                              mean_interval=self.mean_interval,
                              horizon=self.horizon,
                              seed=self.config_seed)

    def spec(self) -> dict:
        """The ``repro.sched`` sweep spec (carries its fingerprint)."""
        return spec_payload(self.pool(), list(self.users),
                            self.config(), seed=self.seed,
                            block_arrivals=self.block_arrivals,
                            unit_blocks=self.unit_blocks)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["users"] = list(self.users)
        return out
