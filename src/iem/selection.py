"""Subset construction: K hard and K easy examples of each label.

One selection round ranks the active (non-dropped) pool by error term,
balances positives against negatives, takes the K hardest of each label,
then K uniformly sampled from the remainder of each label. Sampling uses
a seeded numpy Generator (PCG64), so selections reproduce bit-for-bit
for a given seed; exactly two permutation draws are consumed per call,
positives remainder first, then negatives remainder.
"""

import hashlib
from dataclasses import dataclass


@dataclass
class SelectionConfig:
    """Hyperparameters of the mining loop.

    K       partition number: size of each of the four subset categories;
            0 means derive it per stage from the new chunk's positive count
    d       dropping number: selection count beyond which an example is
            marked an outlier and excluded
    t       augmented views per example when refreshing its error
    iterations_per_step   selection/training rounds per incremental stage
    tau     IoU threshold for lesion matching
    variant error-term variant, "full" or "loss_ji"
    binarize_threshold    probability cutoff for prediction masks
    seed    base seed for all derived random streams
    error_weights         (fp, fn, 1-ji) weights in the error term
    """

    K: int = 0
    d: int = 10
    t: int = 4
    iterations_per_step: int = 10
    tau: float = 0.5
    variant: str = "full"
    binarize_threshold: float = 0.5
    seed: int = 0
    error_weights: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.K < 0:
            raise ValueError("K must be >= 0 (0 selects the per-chunk rule)")
        if self.d < 1 or self.t < 1 or self.iterations_per_step < 1:
            raise ValueError("d, t and iterations_per_step must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0,1], got {self.tau}")
        if self.variant not in ("full", "loss_ji"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 0.0 < self.binarize_threshold < 1.0:
            raise ValueError("binarize_threshold must lie in (0,1)")
        if len(self.error_weights) != 3:
            raise ValueError("error_weights must have three entries")

    def fingerprint(self):
        """Short stable digest of the configuration."""
        text = "|".join(
            f"{name}={getattr(self, name)!r}"
            for name in ("K", "d", "t", "iterations_per_step", "tau",
                         "variant", "binarize_threshold", "seed",
                         "error_weights")
        )
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


def partition_number_for(cfg, chunk):
    """Effective K for a stage: the configured override, or the chunk rule."""
    return cfg.K if cfg.K > 0 else compute_partition_number(chunk)


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
