"""Weighted shape mixes: which image each load-generated request carries.

Realistic traffic is heterogeneous — the cluster tier routes by image shape
and the engines cache encoder grids per shape, so a load test that sends
one shape exercises neither.  A :class:`ShapeMix` assigns every request
index a shape drawn from a weighted distribution and synthesises a
deterministic uint8 image for it: request ``i`` of a given mix is the same
pixels in every run (seeded per-index RNG), so replayed runs are bit-level
reproducible and response label maps can be cross-checked against a direct
engine pass when needed.
"""

from __future__ import annotations

import random

import numpy as np

__all__ = ["ShapeMix"]

#: Multiplier decorrelating the per-index RNG streams from the seed.
_INDEX_STRIDE = 1_000_003

#: Names accepted by :meth:`ShapeMix.preset` / the ``@name`` parse form.
_PRESET_NAMES = ("gigapixel", "video")


class ShapeMix:
    """A weighted set of image shapes with deterministic per-index draws.

    Parameters
    ----------
    entries:
        ``[(shape, weight), ...]`` where each shape is ``(height, width)``
        (grayscale — the wire's cheapest form, and the servers' per-shape
        batching only looks at dimensions).  Weights are relative.
    seed:
        Decorrelates the draw sequence between mixes; the same
        ``(entries, seed)`` always assigns the same shape and pixels to a
        given request index.
    """

    def __init__(
        self,
        entries: "list[tuple[tuple[int, int], float]]",
        *,
        seed: int = 0,
    ) -> None:
        if not entries:
            raise ValueError("a shape mix needs at least one entry")
        self.entries = []
        for shape, weight in entries:
            height, width = (int(shape[0]), int(shape[1]))
            if height < 1 or width < 1:
                raise ValueError(f"image shape must be positive, got {shape}")
            if weight <= 0:
                raise ValueError(
                    f"shape weight must be positive, got {weight} for {shape}"
                )
            self.entries.append(((height, width), float(weight)))
        self.seed = int(seed)
        total = sum(weight for _, weight in self.entries)
        self._cumulative = []
        acc = 0.0
        for shape, weight in self.entries:
            acc += weight / total
            self._cumulative.append((acc, shape))

    @classmethod
    def preset(
        cls,
        name: str,
        *,
        shape: "tuple[int, int] | None" = None,
        seed: int = 0,
    ) -> "ShapeMix":
        """A named scenario mix (``"gigapixel"`` or ``"video"``).

        ``"gigapixel"`` models tile fan-out traffic: a gigapixel image
        tiled at one fixed shape floods the cluster with identical-shape
        requests, with a minority of half- and quarter-size tiles from
        concurrent jobs — per-entry weights 12:3:1, so one grid cache
        entry absorbs most of the load.  ``shape`` overrides the dominant
        tile shape (default 256x256).

        ``"video"`` models a frame stream: every request shares one frame
        shape (``shape``, default 48x48), the traffic pattern warm-started
        temporal sessions see (:mod:`repro.seghdc.video`).
        """
        key = str(name).strip().lower()
        if key == "gigapixel":
            tile = shape or (256, 256)
            height, width = int(tile[0]), int(tile[1])
            entries = [
                ((height, width), 12.0),
                ((max(height // 2, 8), max(width // 2, 8)), 3.0),
                ((max(height // 4, 8), max(width // 4, 8)), 1.0),
            ]
        elif key == "video":
            frame = shape or (48, 48)
            entries = [((int(frame[0]), int(frame[1])), 1.0)]
        else:
            raise ValueError(
                f"unknown shape-mix preset {name!r}; available: "
                f"{', '.join(_PRESET_NAMES)}"
            )
        return cls(entries, seed=seed)

    @classmethod
    def parse(cls, text: str, *, seed: int = 0) -> "ShapeMix":
        """Build from the CLI form ``"48x64:3,32x40:1"`` or ``"@preset"``.

        Each comma-separated entry is ``HxW`` with an optional ``:weight``
        (default 1).  A leading ``@`` selects a named scenario preset
        instead — ``@gigapixel`` / ``@video``, optionally with a shape
        override as ``@video:64x64`` (see :meth:`preset`).
        """
        stripped = text.strip()
        if stripped.startswith("@"):
            name, _, dims = stripped[1:].partition(":")
            shape = None
            if dims:
                try:
                    height_text, width_text = dims.lower().split("x")
                    shape = (int(height_text), int(width_text))
                except ValueError:
                    raise ValueError(
                        f"bad preset shape {dims!r}; expected HxW"
                    ) from None
            return cls.preset(name, shape=shape, seed=seed)
        entries = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            dims, _, weight_text = chunk.partition(":")
            try:
                height_text, width_text = dims.lower().split("x")
                shape = (int(height_text), int(width_text))
                weight = float(weight_text) if weight_text else 1.0
            except ValueError:
                raise ValueError(
                    f"bad shape-mix entry {chunk!r}; expected HxW[:weight]"
                ) from None
            entries.append((shape, weight))
        return cls(entries, seed=seed)

    def shape_for(self, index: int) -> "tuple[int, int]":
        """The (deterministic) shape assigned to request ``index``."""
        rng = random.Random(self.seed * _INDEX_STRIDE + index)
        draw = rng.random()
        for cutoff, shape in self._cumulative:
            if draw <= cutoff:
                return shape
        return self._cumulative[-1][1]

    def image_for(self, index: int) -> np.ndarray:
        """Deterministic uint8 pixels for request ``index`` in its shape."""
        shape = self.shape_for(index)
        rng = np.random.default_rng(self.seed * _INDEX_STRIDE + index)
        return rng.integers(0, 256, size=shape, dtype=np.uint8)

    def describe(self) -> dict:
        """JSON-ready spec of the mix."""
        return {
            "entries": [
                {"shape": list(shape), "weight": weight}
                for shape, weight in self.entries
            ],
            "seed": self.seed,
        }
