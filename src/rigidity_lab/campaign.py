"""Seeded randomized campaigns that check index preservation at scale.

A trial draws one irreducible tuple, of rank at most ``max_rank`` with at
most ``max_points`` finite points, and compares the rigidity index of the
tuple with that of its transform, point by point too.  Trial ``i`` of seed
``s`` is seeded from a hash of (s, i) alone, so any trial replays without
the ones before it.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple

from .errors import GenerationError
from .fourier import TupleAnalysis
from .local_systems import MonodromyTuple, random_tuple, tuple_to_json

_REDRAWS_PER_TRIAL = 200


class CampaignConfig:
    def __init__(self, trials: int, max_rank: int, max_points: int, seed: int):
        if trials < 1 or max_rank < 1 or max_points < 1:
            raise ValueError("trials, max_rank and max_points must be positive")
        self.trials, self.max_rank, self.max_points, self.seed = trials, max_rank, max_points, seed


class CampaignResult(NamedTuple):
    """Built once, from ``run_campaign``'s counters; ``to_json`` is what
    ``verify --random`` prints, without ``identity_checks``."""

    trials_run: int
    all_equal: bool
    failures: tuple[dict, ...]
    identity_checks: int

    def to_json(self) -> dict:
        return {
            "trials_run": self.trials_run,
            "all_equal": self.all_equal,
            "failures": list(self.failures),
        }


def _trial_seed(seed: int, index: int) -> int:
    # Stable across interpreter versions, unlike built-in tuple hashing.  Imported
    # here, as only campaigns seed trials: other commands start without it.
    import hashlib

    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _campaign_analyses(config: CampaignConfig) -> Iterator[tuple[int, TupleAnalysis]]:
    """One irreducible tuple per trial, redrawn with fresh dimensions if reducible."""
    for index in range(config.trials):
        rng = random.Random(_trial_seed(config.seed, index))
        for _ in range(_REDRAWS_PER_TRIAL):
            rank = rng.randint(1, config.max_rank)
            k = rng.randint(1, config.max_points)
            seed = rng.getrandbits(63)  # drawn for every draw, so the stream stays the same
            if k == 1 and rank > 1:
                continue  # Q[A] has dimension at most n < n^2: always reducible
            analysis = TupleAnalysis(random_tuple(rank, k, seed))
            if analysis.irreducible:
                yield index, analysis
                break
        else:
            raise GenerationError(
                f"trial {index}: no irreducible tuple found in {_REDRAWS_PER_TRIAL} draws"
            )


def _failure(index: int, kind: str, found: dict, t: MonodromyTuple) -> dict:
    """The record of one failure: trial, kind, what was found, then the tuple."""
    return {"trial": index, "kind": kind, **found, "tuple": tuple_to_json(t)}


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Verify preservation on every campaign tuple and collect anomalies."""
    trials_run, all_equal, failures, identity_checks = 0, True, [], 0
    for index, analysis in _campaign_analyses(config):
        t = analysis.tuple
        report = analysis.preservation
        trials_run += 1
        if not report.equal:
            all_equal = False
            found = {"rig_source": report.rig_source, "rig_fourier": report.rig_fourier}
            failures.append(_failure(index, "index_mismatch", found, t))
        for identity in report.per_point_identities:
            if identity.lhs != identity.rhs:
                failures.append(_failure(index, "centralizer_identity", identity._asdict(), t))
        identity_checks += len(report.per_point_identities)
    return CampaignResult(trials_run, all_equal, tuple(failures), identity_checks)
