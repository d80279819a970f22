"""Subset construction: K hard and K easy examples of each label.

One selection round ranks the active (non-dropped) pool by error term,
balances positives against negatives, takes the K hardest of each label,
then K uniformly sampled from the remainder of each label. Sampling uses
a seeded numpy Generator (PCG64), so selections reproduce bit-for-bit
for a given seed; exactly two permutation draws are consumed per call,
positives remainder first, then negatives remainder.
"""

import hashlib
import math
from dataclasses import dataclass, fields

# deleted fields at their old values, hashed before the field each one
# preceded, so the digests of earlier reports hold
_RETIRED = {"d": "K=0|", "seed": "variant='full'|binarize_threshold=0.5|"}


@dataclass
class SelectionConfig:
    """Hyperparameters of the mining loop.

    d       dropping number: selection count beyond which an example is
            marked an outlier and excluded
    t       augmented views that score an example after each training
            update (a refresh of the pool is one plain forward pass)
    iterations_per_step   selection/training rounds per incremental stage
    tau     IoU threshold for lesion matching
    seed    base seed for all derived random streams
    error_weight_fp, error_weight_fn, error_weight_ji
            weights of FP, FN and 1 - JI in the error term
    """

    d: int = 10
    t: int = 4
    iterations_per_step: int = 10
    tau: float = 0.5
    seed: int = 0
    error_weight_fp: float = 1.0
    error_weight_fn: float = 1.0
    error_weight_ji: float = 1.0

    def __post_init__(self):
        if self.d < 1 or self.t < 1 or self.iterations_per_step < 1:
            raise ValueError("d, t and iterations_per_step must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0,1], got {self.tau}")
        for name, weight in zip(("fp", "fn", "ji"), self.error_weights):
            if not math.isfinite(weight) or weight < 0:
                raise ValueError(f"error_weight_{name} must be a finite "
                                 f"number >= 0, got {weight}")

    @property
    def error_weights(self):
        """The (fp, fn, ji) weights, in the order the error term takes them."""
        return self.error_weight_fp, self.error_weight_fn, self.error_weight_ji

    def fingerprint(self):
        """Short stable digest of the configuration.

        The three weights, the last fields, hash as the one
        ``error_weights`` tuple they replaced, so the digests of earlier
        reports hold.
        """
        names = [f.name for f in fields(self)[:-3]] + ["error_weights"]
        text = "|".join(_RETIRED.get(name, "")
                        + f"{name}={getattr(self, name)!r}" for name in names)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class SelectedSubset:
    """Ids chosen for one training round, split into the four categories."""

    hard_positives: tuple
    hard_negatives: tuple
    easy_positives: tuple
    easy_negatives: tuple

    def all_ids(self):
        """All selected ids: hard positives, hard negatives, easy positives, easy negatives."""
        return (list(self.hard_positives) + list(self.hard_negatives)
                + list(self.easy_positives) + list(self.easy_negatives))

    def __len__(self):
        return (len(self.hard_positives) + len(self.hard_negatives)
                + len(self.easy_positives) + len(self.easy_negatives))


def compute_partition_number(chunk):
    """K for a new chunk: its positive count, floored at 1."""
    if not chunk:
        raise ValueError("cannot compute partition number of an empty chunk")
    positives = sum(1 for record in chunk if record.label == "positive")
    return max(positives, 1)


def _shuffled(items, rng):
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def select_subset(pool, K, rng):
    """One selection round over the pool's active records.

    Active records are sorted by error term descending (ties by id
    ascending) and split by label; the longer label list is truncated to
    the shorter's length so hard pairs stay balanced. The first
    min(K, available) of each list become the hard sets; the remainders
    are shuffled and the first min(K, remaining) become the easy sets.
    Dropped records never appear. An empty pool yields an empty subset.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    active = [r for r in pool.records if not r.dropped]
    ranked = sorted(active, key=lambda r: (-r.E, r.id))
    pos = [r.id for r in ranked if r.label == "positive"]
    neg = [r.id for r in ranked if r.label != "positive"]
    n = min(len(pos), len(neg))
    pos, neg = pos[:n], neg[:n]
    hard_pos, hard_neg = pos[:K], neg[:K]
    easy_pos = _shuffled(pos[K:], rng)[:K]
    easy_neg = _shuffled(neg[K:], rng)[:K]
    return SelectedSubset(
        hard_positives=tuple(hard_pos),
        hard_negatives=tuple(hard_neg),
        easy_positives=tuple(easy_pos),
        easy_negatives=tuple(easy_neg),
    )
