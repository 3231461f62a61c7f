"""Immutable, versioned forecast-product snapshots on disk.

The web-distribution tail of the forecaster's timeline (paper Fig 1)
must serve many concurrent readers while a single writer publishes the
next cycle's products.  The store is a client of the durable-publish
primitive in :mod:`repro.util.fsio` -- ``HEAD.json`` is a versioned
pointer, so commit ordering, restart recovery and the bounded
"unreadable reads as still-publishing" contract (past the bound:
:class:`ProductReadError`) are the pointer's.  Written here, the payload:

- Each published version lives in its own **immutable directory**
  ``v<k>`` holding one file, ``snapshot``: an 8-byte little-endian
  header length, a sorted-key JSON header (version, cycle, the product
  bulletin, each field's metadata, the array table and the SHA-256 of
  the array bytes), then the raw little-endian arrays -- every level of
  every field and its five tile-statistic arrays.  The file is built in
  memory, hashed from the bytes written (never read back) and published
  with :func:`~repro.util.fsio.durable_write`; only then is HEAD, which
  names the version, its directory and the SHA-256 of the header,
  committed.  A reader sees either version ``k`` or ``k+1``, never a
  mixture, and never blocks on the writer.
- Readers read the file once, verify the header against HEAD (for
  ``latest``) and the array bytes against the header (always), and view
  the arrays in the bytes they hashed; a mismatch -- torn copy, NFS lag
  -- is one more unreadable read.
- A retain window drops version directories HEAD has moved past.

Single-writer, many-reader: nothing serializes concurrent writers -- the
realtime cycle is the one publisher (``docs/PRODUCT_SERVICE.md``).
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.products.tiles import TiledField
from repro.realtime.products import ForecastProduct
from repro.util import fsio


class ProductStoreError(RuntimeError):
    """The writer side failed in a way the caller must see."""


class ProductReadError(RuntimeError):
    """The store stayed unreadable past the reader's retry bound."""


class ProductPending(LookupError):
    """The requested version is newer than anything published yet."""


class ProductNotFound(LookupError):
    """The requested version was never published or has been retired."""


def _dirname(version: int) -> str:
    """Canonical directory name of one published version."""
    return f"v{version:08d}"


#: The one file of a version directory.
SNAPSHOT = "snapshot"


def _pack(header: dict, arrays: dict[str, np.ndarray]) -> tuple[list, str]:
    """A snapshot file's buffers, in order, and the SHA-256 of its header.

    The header gains the array table and the arrays' digest; it is padded
    with blanks to a multiple of 8 bytes, so every array starts aligned.
    """
    data = [
        np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")) for a in arrays.values()
    ]
    digest = hashlib.sha256()
    for array in data:
        digest.update(array)
    header["arrays"] = [[key, a.dtype.str, a.shape] for key, a in zip(arrays, data)]
    header["sha256"] = digest.hexdigest()
    text = json.dumps(header, sort_keys=True).encode()
    text += b" " * (-len(text) % 8)
    return [len(text).to_bytes(8, "little"), text, *data], hashlib.sha256(text).hexdigest()


def _unpack(raw: bytes, expected_checksum: str | None) -> tuple[dict, str, dict]:
    """Header, header checksum and array views of one snapshot file's bytes.

    Raises ``ValueError`` when the header differs from
    ``expected_checksum`` (when given) or the arrays from the header.
    """
    start = 8 + int.from_bytes(raw[:8], "little")
    text = raw[8:start]
    checksum = hashlib.sha256(text).hexdigest()
    if expected_checksum is not None and checksum != expected_checksum:
        raise ValueError(
            f"header checksum {checksum[:12]}... does not match HEAD "
            f"{expected_checksum[:12]}..."
        )
    header = json.loads(text)
    actual = hashlib.sha256(memoryview(raw)[start:]).hexdigest()
    if actual != header["sha256"]:
        raise ValueError(
            f"array checksum mismatch ({actual[:12]}... != {header['sha256'][:12]}...)"
        )
    arrays = {}
    for key, dtype, shape in header["arrays"]:
        array = np.frombuffer(raw, dtype, math.prod(shape), start)
        arrays[key] = array.reshape(shape)
        start += array.nbytes
    return header, checksum, arrays


@dataclass(frozen=True)
class ProductSnapshot:
    """One fully-verified published version, loaded into memory.

    Attributes
    ----------
    version:
        The monotone publish counter.
    product:
        The cycle's :class:`~repro.realtime.products.ForecastProduct`.
    fields:
        Tiled/LOD field payloads keyed by field name; their arrays are
        read-only views of the snapshot file's bytes.
    manifest:
        The parsed snapshot header (field inventory, tile meta, array
        table and digest).
    checksum:
        The SHA-256 of the header bytes, which HEAD names.
    """

    version: int
    product: ForecastProduct
    fields: dict[str, TiledField]
    manifest: dict
    checksum: str

    @property
    def cycle_index(self) -> int:
        """The forecast cycle this snapshot was produced by."""
        return int(self.manifest["cycle_index"])

    @cached_property
    def etag(self) -> str:
        """The validator every response rendered from this snapshot carries."""
        return f'"v{self.version}-{self.checksum[:16]}"'


class ProductStore:
    """Writer side: publish immutable versioned product snapshots.

    Parameters
    ----------
    workdir:
        Store root (created on use).
    tile_size / levels:
        Tiling and LOD defaults applied to every published field.
    retain:
        Keep only the newest ``retain`` version directories (None keeps
        everything).  Retired directories disappear *after* HEAD moved
        on, so only readers pinned to an old explicit version can miss --
        and they see :class:`ProductNotFound`, never torn data.
    """

    def __init__(
        self,
        workdir: str | Path,
        tile_size: int = 8,
        levels: int = 2,
        retain: int | None = None,
    ):
        if retain is not None and retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.head_path = self.workdir / "HEAD.json"
        self.tile_size = int(tile_size)
        self.levels = int(levels)
        self.retain = retain
        self._head = fsio.PointerWriter(self.head_path)

    @property
    def version(self) -> int:
        """Version of the last successful publish (0 before the first)."""
        return self._head.version

    def publish(self, product: ForecastProduct, fields: dict[str, np.ndarray]) -> int:
        """Publish one product snapshot; returns the new version number.

        ``fields`` maps field names to full-resolution 2-D arrays with
        NaN over masked cells; each is tiled and downsampled here, once,
        at publish time.  The version's one file is written durably into
        ``v<k>/`` before HEAD is committed.
        """
        if not fields:
            raise ProductStoreError("a product snapshot needs at least one field")
        version = self.version + 1
        vdir = self.workdir / _dirname(version)
        try:
            vdir.mkdir()
        except FileExistsError:
            # A previous attempt died before HEAD committed; the directory
            # was never visible, rebuild it.
            shutil.rmtree(vdir)
            vdir.mkdir()
        tiled = {
            name: TiledField(name, array, tile_size=self.tile_size, levels=self.levels)
            for name, array in sorted(fields.items())
        }
        arrays: dict[str, np.ndarray] = {}
        for field in tiled.values():
            arrays.update(field.arrays())
        header = {
            "version": version,
            "cycle_index": product.cycle_index,
            "product": product.to_dict(),
            "fields": {name: field.meta() for name, field in tiled.items()},
        }
        buffers, checksum = _pack(header, arrays)
        fsio.durable_write(vdir / SNAPSHOT, lambda fh: fh.writelines(buffers))
        self._head.commit(dir=_dirname(version), checksum=checksum)
        self._retire_old_versions()
        return version

    def _retire_old_versions(self) -> None:
        """Drop version directories older than the retain window."""
        if self.retain is None:
            return
        floor = self.version - self.retain
        for path in self.workdir.glob("v*"):
            if path.name[1:].isdigit() and int(path.name[1:]) <= floor:
                shutil.rmtree(path, ignore_errors=True)

    def cleanup(self) -> None:
        """Remove the whole store (end-of-run cleanup)."""
        shutil.rmtree(self.workdir, ignore_errors=True)


def _check_head(head: dict) -> dict:
    """A HEAD record must name its directory and header checksum."""
    if "dir" not in head or "checksum" not in head:
        raise ValueError(f"implausible HEAD {head!r}")
    return head


class ProductReader(fsio.PointerReader):
    """Reader side: fetch published snapshots without ever blocking.

    A :class:`~repro.util.fsio.PointerReader` over ``HEAD.json`` that
    knows how to load and verify the payload HEAD leads to.  Each
    concurrent reader owns its own instance (the unreadable-read counter
    is per-reader state).

    Parameters
    ----------
    workdir:
        The store root a :class:`ProductStore` publishes into.
    max_unreadable_reads:
        Consecutive unreadable (present but unparsable / checksum-
        mismatched) reads tolerated before :class:`ProductReadError`.
    """

    def __init__(self, workdir: str | Path, max_unreadable_reads: int = 64):
        self.workdir = Path(workdir)
        super().__init__(
            self.workdir / "HEAD.json", ProductReadError, max_unreadable_reads
        )

    def read_head(self) -> dict | None:
        """The current HEAD record (None before the first publish, or unreadable)."""
        return self.read(_check_head)

    def latest_version(self) -> int | None:
        """Version number of the current HEAD (None before first publish)."""
        head = self.read_head()
        return None if head is None else head["version"]

    def fetch(self, version: int | None = None) -> ProductSnapshot | None:
        """Load one published snapshot, verifying its checksums.

        ``None`` requests the latest version.  Returns None before the
        first publish.  Raises :class:`ProductPending` for a version
        newer than HEAD (the cycle is still publishing it) and
        :class:`ProductNotFound` for one older than the retain window.
        The version's file is read once; its array bytes are verified
        against the header's SHA-256 and, for the latest version, the
        header against HEAD's checksum, so a torn or partially-published
        snapshot can never be returned -- it reads as unreadable and the
        caller retries against the old HEAD.
        """
        found = self.read(lambda head: self._resolve(head, version))
        if found is None and version is not None:
            raise ProductPending(f"version {version} not published yet")
        if isinstance(found, LookupError):
            raise found
        return found

    def _resolve(self, head: dict, version: int | None):
        """The verified snapshot HEAD leads to for ``version``.

        Raises what makes the store unreadable; *returns* the
        :class:`ProductPending` / :class:`ProductNotFound` answers, which
        are facts about a readable store, for :meth:`fetch` to raise.
        """
        head_version = _check_head(head)["version"]
        if version is None or version == head_version:
            version = head_version
            expected_checksum = head["checksum"]
        elif version > head_version:
            return ProductPending(
                f"version {version} still publishing (latest is {head_version})"
            )
        else:
            expected_checksum = None  # pinned to the immutable file
        try:
            raw = (self.workdir / _dirname(version) / SNAPSHOT).read_bytes()
        except FileNotFoundError:
            if version < head_version:
                return ProductNotFound(
                    f"version {version} retired (oldest retained is newer)"
                )
            # HEAD says this version exists but its file has not become
            # visible to us yet (lagged filesystem): unreadable, retry.
            raise
        header, checksum, arrays = _unpack(raw, expected_checksum)
        if int(header["version"]) != version:
            raise ValueError(
                f"header version {header['version']} != directory {version}"
            )
        fields = {
            name: TiledField.from_payload(meta, arrays)
            for name, meta in header["fields"].items()
        }
        return ProductSnapshot(
            version=version,
            product=ForecastProduct.from_dict(header["product"]),
            fields=fields,
            manifest=header,
            checksum=checksum,
        )


class CycleProductPublisher:
    """Adapter feeding a :class:`ProductStore` from the realtime cycle.

    Pass an instance as ``RealTimeForecastCycle(product_hook=...)``: each
    completed cycle's :class:`~repro.realtime.products.ForecastProduct`
    arrives here together with the forecast, the standard map products
    are derived (selected-nowcast SST, SST uncertainty, surface
    elevation when the layout carries one) and the snapshot is
    published.  Extra per-cycle fields (e.g. a TL section rendered by
    the acoustics chain) can be injected via ``extra_fields``.

    Parameters
    ----------
    store:
        The destination product store.
    model:
        The forecast model (its layout/grid define field views and the
        wet mask).
    extra_fields:
        Optional callable ``(product, forecast) -> dict[str, ndarray]``
        contributing additional named 2-D fields to each snapshot.
    """

    def __init__(self, store: ProductStore, model, extra_fields=None):
        self.store = store
        self.model = model
        self.extra_fields = extra_fields
        self.published_versions: list[int] = []

    def _masked(self, field2d: np.ndarray) -> np.ndarray:
        """Copy of a 2-D field with land cells set to NaN."""
        wet = self.model.grid.mask
        return np.where(wet, np.asarray(field2d, dtype=np.float64), np.nan)

    def __call__(self, product: ForecastProduct, forecast) -> int:
        """Publish one cycle's products; returns the new store version."""
        model = self.model
        layout = model.layout
        central = model.to_vector(forecast.central)
        if (
            product.selected == "ensemble-mean"
            and forecast.member_forecasts.shape[0] >= 2
        ):
            best = forecast.member_forecasts.mean(axis=0)
        else:
            best = central
        fields: dict[str, np.ndarray] = {}
        fields["sst_nowcast"] = self._masked(layout.view(best, "temp")[0])
        var_phys = (
            forecast.subspace.variance_field() * np.asarray(layout.scales) ** 2
        )
        fields["sst_sigma"] = self._masked(np.sqrt(layout.view(var_phys, "temp")[0]))
        if "eta" in layout.names:
            fields["ssh_nowcast"] = self._masked(layout.view(best, "eta"))
        if self.extra_fields is not None:
            for name, array in self.extra_fields(product, forecast).items():
                if name in fields:
                    raise ProductStoreError(f"extra field {name!r} collides")
                fields[name] = np.asarray(array, dtype=np.float64)
        version = self.store.publish(product, fields)
        self.published_versions.append(version)
        return version
