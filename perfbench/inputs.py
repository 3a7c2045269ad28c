"""Benchmark inputs, made from the seed by the repo's own generators.

The electronics generator draws each datasheet's shape at random (one to
three part numbers, an optional ordering table), so plain prefixes of two
seeds' corpora differ by ~15% in candidate count and run time.  The
benchmark therefore draws a *stratified* corpus: it generates documents
from the seed and keeps the first ones of each shape until a fixed
composition is filled.  The seed still decides every document's content;
the composition (and so the amount of work) is the same for every seed.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from repro.datasets import load_dataset
from repro.datasets.base import DatasetSpec, GeneratedCorpus

DOMAIN = "electronics"

#: Share of each document shape, (number of parts, has an ordering table):
#: the generator's own expected mix.
SHAPE_SHARES: Dict[Tuple[int, bool], float] = {
    (1, False): 0.32,
    (1, True): 0.08,
    (2, False): 0.32,
    (2, True): 0.08,
    (3, False): 0.16,
    (3, True): 0.04,
}


def shape_quota(n_docs: int) -> Dict[Tuple[int, bool], int]:
    """Documents per shape for an ``n_docs`` corpus (largest remainder)."""
    exact = {shape: share * n_docs for shape, share in SHAPE_SHARES.items()}
    quota = {shape: int(value) for shape, value in exact.items()}
    by_remainder = sorted(exact, key=lambda s: exact[s] - quota[s], reverse=True)
    for shape in by_remainder[: n_docs - sum(quota.values())]:
        quota[shape] += 1
    return quota


def document_shape(raw) -> Tuple[int, bool]:
    return len(raw.metadata["parts"]), 'id="ordering"' in raw.content


def stratified_corpus(n_docs: int, seed: int) -> Tuple[DatasetSpec, GeneratedCorpus]:
    """The dataset spec and an ``n_docs`` corpus of fixed shape composition."""
    pool = 8 * n_docs
    while True:
        dataset = load_dataset(DOMAIN, n_docs=pool, seed=seed)
        quota = shape_quota(n_docs)
        chosen = []
        for raw in dataset.corpus.raw_documents:
            shape = document_shape(raw)
            if quota.get(shape, 0) > 0:
                quota[shape] -= 1
                chosen.append(raw)
        if len(chosen) == n_docs:
            break
        pool *= 2
    names = {raw.name for raw in chosen}
    gold = {entry for entry in dataset.gold_entries if entry[0] in names}
    return dataset, GeneratedCorpus(raw_documents=chosen, gold_entries=gold)


def zipf_ranks(rng: np.random.Generator, n: int, n_keys: int, exponent: float) -> np.ndarray:
    """``n`` draws of key ranks in ``[0, n_keys)`` with P(rank k) ∝ (k+1)^-exponent."""
    weights = 1.0 / np.arange(1, n_keys + 1) ** exponent
    return rng.choice(n_keys, size=n, p=weights / weights.sum())


def environment(root: Path, workdir: Path) -> Dict[str, object]:
    """Where and on what a run was measured (``git_commit`` is None outside
    a git checkout)."""
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=10, check=False,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "workdir_fs": filesystem_type(workdir),
    }


def filesystem_type(path: Path) -> str:
    """The filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    path = Path(path).resolve()
    best, best_type = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, best_type = mount, fields[2]
    except OSError:
        pass
    return best_type


def current_rss_peak_mb(reset: bool = False) -> float:
    """This process's peak RSS (VmHWM) in MB; ``reset`` restarts the peak.

    Resetting writes ``5`` to ``/proc/self/clear_refs`` so an earlier,
    larger iteration cannot mask a later one.
    """
    if reset:
        try:
            with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
                refs.write("5")
        except OSError:
            pass
    return vm_hwm_mb(os.getpid())


def vm_hwm_mb(pid: int) -> float:
    """Peak RSS of ``pid`` in MB, read from /proc (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0
