"""Seeded inputs: model order for the zoo campaign, the service mix.

Everything here is pure Python and depends only on the seed, so the
same seed gives the same inputs on every commit; the program under test
sees only what these functions generate.
"""

from __future__ import annotations

import random

#: The extended zoo (11 models), in the zoo's declaration order.
ZOO = (
    "ResNet-50", "VGG-16", "DenseNet-201", "EfficientNet-B7",
    "ResNet-101", "ResNet-152", "VGG-19", "DenseNet-121",
    "DenseNet-169", "EfficientNet-B0", "MobileNetV2",
)

#: The paper's four evaluation models: the subtree pinned by the
#: repository's golden full-sweep digest.
PAPER_SUITE = ZOO[:4]

MACHINES = ("simba", "popstar", "spacx")

#: The two tenants of the service mix: first submissions come from
#: ``TENANTS[0]``, repeats of an earlier spec from ``TENANTS[1]``.
TENANTS = ("tenant-a", "tenant-b")

#: Every fifth service submission repeats an earlier spec.
REPEAT_EVERY = 5

#: Every (machines, models, batch) size of a fresh sweep.
SIZES = tuple(
    (machines, models, batch)
    for machines in (1, 2, 3)
    for models in (2, 3, 4)
    for batch in (1, 2, 4)
)


def zoo_order(seed: int) -> list[str]:
    """The zoo in a seeded order (the digest is order-independent)."""
    names = list(ZOO)
    random.Random(seed).shuffle(names)
    return names


class _Deck:
    """Seeded draws that deal every item once before dealing any again,
    so every stretch of the sequence holds about the same mix whatever
    the seed."""

    def __init__(self, items, rng: random.Random):
        self.items = list(items)
        self.rng = rng
        self.pile: list = []

    def draw(self, k: int) -> list:
        """``k`` distinct items."""
        out: list = []
        while len(out) < k:
            if not self.pile:
                self.pile = list(self.items)
                self.rng.shuffle(self.pile)
            item = self.pile.pop()
            if item in out:  # dealt again after a reshuffle mid-draw
                self.pile.insert(0, item)
            else:
                out.append(item)
        return out


class ServiceMix:
    """An endless, seeded sequence of sweep submissions.

    Entry ``i`` is a pure function of the seed and ``i``: a fresh sweep
    of 1-3 machines x 2-4 zoo models at batch 1, 2 or 4 from
    ``tenant-a``, or -- every fifth entry -- a repeat of an earlier
    fresh spec from ``tenant-b``, which attaches to the first execution
    (dedupe) instead of running again.  Sizes, machines and models are
    dealt from seeded decks (every size of :data:`SIZES` once per 27
    fresh specs, every machine and model about equally often), so the
    seed changes which sweeps run and in what order but hardly how much
    work a stretch of the sequence holds.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)
        self._sizes = _Deck(SIZES, self._rng)
        self._machines = _Deck(MACHINES, self._rng)
        self._models = _Deck(ZOO, self._rng)
        self.entries: list[dict] = []

    def _fresh(self) -> dict:
        (machines, models, batch), = self._sizes.draw(1)
        return {
            "kind": "sweep",
            "machines": self._machines.draw(machines),
            "models": self._models.draw(models),
            "batch": batch,
        }

    def entry(self, i: int) -> dict:
        """``{"index", "tenant", "spec", "repeat_of"}`` for entry ``i``."""
        while len(self.entries) <= i:
            n = len(self.entries)
            if n % REPEAT_EVERY == REPEAT_EVERY - 1:
                fresh = [e for e in self.entries if e["repeat_of"] is None]
                source = self._rng.choice(fresh)
                entry = {
                    "index": n,
                    "tenant": TENANTS[1],
                    "spec": source["spec"],
                    "repeat_of": source["index"],
                }
            else:
                entry = {
                    "index": n,
                    "tenant": TENANTS[0],
                    "spec": self._fresh(),
                    "repeat_of": None,
                }
            self.entries.append(entry)
        return self.entries[i]
