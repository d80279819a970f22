"""Incremental example mining for streaming segmentation datasets.

The package keeps a pool of annotated examples with per-example error
bookkeeping, selects balanced hard/easy training subsets as new chunks
arrive, and drops persistent outliers. A small per-pixel logistic
segmentation model, a synthetic shifted-stream data generator, and a
four-strategy comparison harness make the loop runnable end to end on a
laptop.
"""
