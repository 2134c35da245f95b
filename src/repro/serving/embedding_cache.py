"""Prompt-embedding cache: memoized text-encoder outputs per (model, prompt).

Text encoding is deterministic per (model, prompt), and serving traffic
repeats popular prompts heavily (the load generator models this with a
Zipf-like popularity skew), so the context embeddings are ideal cache
fodder.  The cache stores one ``(tokens, dim)`` row per (model, prompt)
under LRU eviction; on a batch lookup the misses are encoded **once per
unique prompt** through the pipeline's deduplicating encoder and the full
context tensor is gathered back in request order.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Sequence, Tuple

import numpy as np

CacheKey = Tuple[str, str]  # (model name, prompt)


class EmbeddingCache:
    """LRU cache of per-prompt text-encoder outputs."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, np.ndarray]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "entries": len(self._entries),
            "capacity": self.capacity,
            "evictions": self.evictions,
        }

    # ------------------------------------------------------------------
    def _store(self, key: CacheKey, row: np.ndarray) -> None:
        self._entries[key] = row
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get_contexts(self, model: str, pipeline,
                     prompts: Sequence[str]) -> np.ndarray:
        """Context embeddings for ``prompts``, encoding only cache misses.

        Returns a ``(len(prompts), tokens, dim)`` array in prompt order;
        every lookup counts as one hit or one miss.
        """
        prompts = list(prompts)
        missing: List[str] = []
        rows: Dict[str, np.ndarray] = {}
        for prompt in prompts:
            key = (model, prompt)
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                rows[prompt] = entry
            else:
                self.misses += 1
                if prompt not in missing:
                    missing.append(prompt)
        if missing:
            encoded = pipeline.encode_prompts_deduped(missing)
            for prompt, row in zip(missing, encoded):
                row = np.asarray(row)
                rows[prompt] = row
                self._store((model, prompt), row)
        return np.stack([rows[prompt] for prompt in prompts], axis=0)
