"""Per-module-tier rule policy for the determinism lint (the static
gate on §1's reproducibility contract).

Not every determinism rule applies everywhere. The codebase has
designated *authority modules* — :mod:`repro.common.clock` is the one
place allowed to read wall time, :mod:`repro.common.rng` the one place
allowed to construct numpy generators — and a *serialization tier*
(wire codecs, report renderers, spool writers, runtime stores, obs
exporters) where iteration order lands in persisted or golden-pinned
bytes and therefore must be provably stable.

A :class:`Policy` starts every module from a base rule set and applies
ordered :class:`TierRule` overlays selected by path glob. Patterns are
posix-style :mod:`fnmatch` globs matched against the scanned path, so
they work no matter which directory the linter is invoked from
(``*/common/clock.py`` matches ``src/repro/common/clock.py`` as well as
a test tree's ``pkg/common/clock.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import PurePosixPath
from typing import FrozenSet, List, Tuple


def _norm(path: str) -> str:
    return str(PurePosixPath(str(path).replace("\\", "/")))


@dataclass(frozen=True)
class TierRule:
    """One overlay: modules matching ``patterns`` gain/lose rules."""

    name: str
    patterns: Tuple[str, ...]
    enable: Tuple[str, ...] = ()
    disable: Tuple[str, ...] = ()

    def matches(self, path: str) -> bool:
        norm = _norm(path)
        return any(
            fnmatch(norm, pattern) or fnmatch("/" + norm, pattern)
            for pattern in self.patterns
        )


@dataclass(frozen=True)
class Policy:
    """Base rule set plus ordered tier overlays."""

    base: Tuple[str, ...]
    tiers: Tuple[TierRule, ...] = ()

    def rules_for(self, path: str) -> FrozenSet[str]:
        """The rule ids active for ``path`` after all overlays."""
        active = set(self.base)
        for tier in self.tiers:
            if tier.matches(path):
                active.update(tier.enable)
                active.difference_update(tier.disable)
        return frozenset(active)

    def tiers_for(self, path: str) -> List[str]:
        """Names of the overlays that matched (for ``--json`` context)."""
        return [tier.name for tier in self.tiers if tier.matches(path)]


#: Modules whose output is persisted, wire-visible, or golden-pinned:
#: iteration order there is a byte contract, so DET003 applies.
SERIALIZATION_TIER = TierRule(
    name="serialization",
    patterns=(
        "*/common/codec.py",
        "*/bench/codec.py",
        "*/net/protocol.py",
        "*/server/report.py",
        "*/server/spool.py",
        "*/runtime/*.py",
        "*/obs/*.py",
    ),
    enable=("DET003",),
)

#: The single module allowed to touch :mod:`time` directly — it *is* the
#: wall-clock authority every other module must route through.
CLOCK_AUTHORITY_TIER = TierRule(
    name="clock-authority",
    patterns=("*/common/clock.py",),
    disable=("DET001",),
)

#: The single module allowed to construct numpy generators — it derives
#: them from root seed + purpose string for everyone else.
RNG_AUTHORITY_TIER = TierRule(
    name="rng-authority",
    patterns=("*/common/rng.py",),
    disable=("DET004",),
)

#: The policy ``repro lint`` applies to ``src/``: wall-clock, salted
#: hash, unseeded RNG, repr-seed and wall-leak rules everywhere;
#: unstable-iteration only in the serialization tier; authority modules
#: exempted from the rule they implement.
DEFAULT_POLICY = Policy(
    base=("DET001", "DET002", "DET004", "DET005", "DET006"),
    tiers=(SERIALIZATION_TIER, CLOCK_AUTHORITY_TIER, RNG_AUTHORITY_TIER),
)

#: Every rule everywhere — what the fixture corpus and ad-hoc audits use.
STRICT_EVERYWHERE_POLICY = Policy(
    base=("DET001", "DET002", "DET003", "DET004", "DET005", "DET006"),
)
