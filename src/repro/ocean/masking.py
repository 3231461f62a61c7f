"""Coastline (land-mask) handling for collocated-grid stencils.

Centred stencils reach across the coastline.  For quantities with a
zero-gradient (free-slip / no-flux) wall condition -- interface height and
tracers -- the land values next to the coast must mirror the adjacent ocean
values; leaving them at 0 imposes a spurious Dirichlet condition that both
distorts the physics (e.g. lateral diffusion "cooling" the coast toward a
0 degC wall) and destabilizes the pressure gradient.  :class:`LandFiller`
fills the land cells that border the ocean with the mean of their wet
4-neighbours.  It precomputes the coastal stencil once, as flat index
tables over a whole field or level stack, in the plain and in the halo
layout: a cell with one wet neighbour (94 of the 101 coastal cells on the
benchmark's 32 x 28 grid) is one gathered copy, and only the others sum
their neighbours and divide.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


class LandFiller:
    """Fill land cells adjacent to the ocean with neighbouring wet values.

    Parameters
    ----------
    mask:
        Boolean ``(..., ny, nx)``; True over ocean.  Leading axes are the
        levels of a stack that one fill covers at once (the tracers'
        ``(2, nz)``); a field's axes ahead of them are a batch.
    """

    def __init__(self, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim < 2:
            raise ValueError(f"mask must be at least 2-D, got shape {mask.shape}")
        self.mask = mask
        ny, nx = mask.shape[-2:]
        # Every (land cell, neighbour) pair in up / down / left / right
        # order (the summation order of the fill), the wet neighbours moved
        # to the front of each row.  A neighbour beyond the array edge clips
        # to the (dry) cell itself, so the rim needs no special case.
        *levels, jj, ii = np.nonzero(~mask)
        near_j = (jj[:, None] + np.array([-1, 1, 0, 0])).clip(0, ny - 1)
        near_i = (ii[:, None] + np.array([0, 0, -1, 1])).clip(0, nx - 1)
        near_k = [k[:, None] for k in levels]
        wet = mask[(*near_k, near_j, near_i)]  # shape: (n_land, 4)
        wet_first = np.argsort(~wet, axis=1, kind="stable")
        count = wet.sum(axis=1)
        one = np.flatnonzero(count == 1)
        many = np.flatnonzero(count > 1)
        many = many[np.argsort(-count[many], kind="stable")]
        # The index tables, per layout and as one row (a single field) or
        # every row (a batch) of the flattened buffer: the one-neighbour
        # cells and their neighbour; the other coastal cells, by falling
        # neighbour count, their first wet neighbours, and for k >= 1 the
        # k-th ones with the leading run of cells that have one.
        self._tables, self._layouts = {}, {}
        for pad in (0, 1):
            shape = (*mask.shape[:-2], ny + 2 * pad, nx + 2 * pad)
            self._layouts[shape] = halo = bool(pad)
            cell = np.ravel_multi_index((*levels, jj + pad, ii + pad), shape)
            near = np.ravel_multi_index((*near_k, near_j + pad, near_i + pad), shape)
            near = np.take_along_axis(near, wet_first, axis=1)
            tables = (cell[one], near[one, 0], cell[many], near[many, 0])
            rest = [
                (near[many[count[many] > k], k], slice(np.sum(count > k)))
                for k in range(1, count.max(initial=1))
            ]
            for batch, row in ((False, ()), (True, (slice(None),))):
                self._tables[halo, batch] = (
                    *((*row, index) for index in tables),
                    tuple(((*row, near), (*row, lead)) for near, lead in rest),
                    count[many].astype(float),
                )

    def bind(self, buffer: np.ndarray) -> Callable[[], None]:
        """The fill of ``buffer`` in place, as a call without arguments.

        ``buffer`` is a C-contiguous ``(*batch, *mask.shape)`` array, or
        one in the halo layout (one more cell all round each level); the
        call fills its coastal land cells of every level and member.
        """
        stack = self.mask.shape
        batch = buffer.ndim > len(stack)
        trailing = buffer.shape[buffer.ndim - len(stack) :]
        halo = self._layouts.get(trailing)
        if halo is None:
            raise ValueError(f"field shape {buffer.shape} incompatible with mask {stack}")
        if not buffer.flags.c_contiguous:
            raise ValueError("the fill's buffer must be C-contiguous")
        # A single field stays 1-D: its plain index is several times
        # faster than a row-wise one.
        dst, src, cells, first, rest, divisor = self._tables[halo, batch]
        flat = buffer.reshape(-1, math.prod(trailing)) if batch else buffer.reshape(-1)

        def fill() -> None:
            flat[dst] = flat[src]
            total = flat[first]
            for near, lead in rest:
                total[lead] += flat[near]
            total /= divisor
            flat[cells] = total

        return fill

    def __call__(self, fld: np.ndarray) -> np.ndarray:
        """Return a copy of ``fld`` with coastal land cells filled.

        Accepts any array whose trailing dimensions match the mask; axes
        ahead of them are a batch (a 2-D mask fills 3-D stacks level by
        level).
        """
        out = np.array(fld, dtype=float, order="C")
        self.bind(out)()
        return out
