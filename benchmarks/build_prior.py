"""Rebuild benchmarks/prior.ckpt, the fixed prior the enhance phases use.

The checkpoint is trained once with the library's own score.train at the
acceptance-fixture settings (64 unit-Gaussian items of 16x64, hidden 32,32,
batch 16, patch 32, cosine lr 1.5e-3, 8 x 1000 steps, seeds 11/1234/99) and
committed.  bench.py never retrains it: it checks the file's SHA-256 against
bench.PRIOR_SHA256 before any workload runs, so a later change to the training
arithmetic cannot silently change the prior the enhance numbers are measured
on.  Run this only to reproduce the artifact (about 2.5 min on 2 cores):

    python3 benchmarks/build_prior.py [--out PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time

import bench  # pins BLAS threads and puts ./src on the path
from bench import PRIOR_PATH, fixture_dataset, score, sde


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=PRIOR_PATH)
    args = ap.parse_args()
    sched = sde.SdeSchedule()
    _, dataset = fixture_dataset(sched, 11)
    model = score.ToyScoreNet(hidden=(32, 32), seed=1234, sched=sched)
    cfg = score.TrainConfig(
        lr=1.5e-3, batch_size=16, epochs=8, steps_per_epoch=1000,
        patch_frames=32, lr_decay="cosine", seed=99,
    )
    t0 = time.perf_counter()
    model, history = score.train(model, dataset, cfg, sched)
    score.save_checkpoint(model, sched, args.out)
    with open(args.out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    print(f"trained in {time.perf_counter() - t0:.0f}s with {bench.BLAS_THREADS} BLAS thread(s), "
          f"final epoch loss {history[-1]:.4f}")
    print(f"wrote {args.out} sha256={digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
