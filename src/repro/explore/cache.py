"""Content-addressed on-disk result cache, and the one result-file codec.

A sweep is keyed by the SHA-256 of its canonical-JSON payload (scenario
definition + evaluation method + cache schema version), so re-running
the same scenario is a single file read and *any* change to the sweep —
one frequency, one transform parameter — moves to a fresh key.

Every stored result (cache entry, job result, ``explore --export
*.npz``) and every binary HTTP result (``application/x-repro-columns``)
is one uncompressed ``.npz`` built by :func:`encode_entry`, stored by
:func:`write_entry` and read by :func:`read_entry`, bit for bit.
Members: ``header`` (UTF-8 JSON of the format version, the payload
minus ``"columns"`` and each string column's vocabulary), ``floats``
(the float64 columns, one row each), ``codes`` (int32 codes of the
string columns) and ``feasible``.  A payload without ``"columns"``
stores ``header`` only.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import tempfile
import zipfile
from pathlib import Path
from typing import IO, Any, Mapping

import numpy as np

from .. import obs
from ..resilience import faults
from .columnar import FLOAT_COLUMNS, OPTIONAL_FLOAT_COLUMNS, STRING_COLUMNS

#: Bump whenever cached *results* could change — payload layout, model
#: equations, fallback thresholds — so old entries miss instead of
#: silently serving stale numbers.  The engine additionally folds the
#: package version and the kernel's fallback constants into the key.
#: It is also the format version in every entry's header.
#: v3: binary ``.npz`` entries (:func:`write_entry`); the JSON ``.json``
#: entries of v1/v2 are no longer read.
CACHE_SCHEMA_VERSION = 3

#: Environment override for the default cache location.
CACHE_DIR_ENV = "REPRO_EXPLORE_CACHE"

_FLOAT_NAMES = FLOAT_COLUMNS + OPTIONAL_FLOAT_COLUMNS


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_hash(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_EXPLORE_CACHE`` or ``~/.cache/repro/explore``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "explore"


def _dictionary_encode(values: np.ndarray) -> tuple[list, np.ndarray]:
    """(vocabulary, int32 codes) of one string column, first-seen order."""
    vocabulary = list(dict.fromkeys(values.tolist()))
    lookup = {word: code for code, word in enumerate(vocabulary)}
    codes = np.fromiter(map(lookup.__getitem__, values), np.int32, len(values))
    return vocabulary, codes


def encode_entry(payload: Mapping[str, Any]) -> bytes:
    """``payload`` as the bytes of one result archive (file or HTTP body).

    ``payload["columns"]`` is ``ResultTable.to_payload_columns()``, if
    present; the rest of the payload must be JSON-encodable.
    """
    header: dict[str, Any] = {
        "format": CACHE_SCHEMA_VERSION,
        "payload": {k: v for k, v in payload.items() if k != "columns"},
    }
    arrays: dict[str, np.ndarray] = {}
    columns = payload.get("columns")
    if columns is not None:
        encoded = [_dictionary_encode(columns[name]) for name in STRING_COLUMNS]
        header["vocab"] = {
            name: words for name, (words, _) in zip(STRING_COLUMNS, encoded)
        }
        arrays = {
            "floats": np.array(
                [columns[name] for name in _FLOAT_NAMES], dtype=np.float64
            ),
            "codes": np.array([codes for _, codes in encoded], dtype=np.int32),
            "feasible": np.asarray(columns["feasible"], dtype=bool),
        }
    text = json.dumps(header).encode("utf-8")
    arrays = {"header": np.frombuffer(text, dtype=np.uint8), **arrays}
    # Build the archive in memory: zipfile's seeks and rewrites of member
    # headers cost more syscalls on a real file.
    buffer = io.BytesIO()
    np.savez(buffer, allow_pickle=False, **arrays)
    return buffer.getvalue()


def write_entry(path: str | Path, payload: Mapping[str, Any]) -> Path:
    """Atomically (temp file, then rename) write :func:`encode_entry` to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = encode_entry(payload)
    descriptor, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return path


def _decode_columns(archive, vocab: Mapping[str, Any]) -> dict[str, np.ndarray]:
    floats, codes, feasible = (archive[m] for m in ("floats", "codes", "feasible"))
    n = len(feasible)
    for name, array, dtype, shape in (
        ("floats", floats, np.float64, (len(_FLOAT_NAMES), n)),
        ("codes", codes, np.int32, (len(STRING_COLUMNS), n)),
        ("feasible", feasible, np.bool_, (n,)),
    ):
        if array.dtype != dtype or array.shape != shape:
            raise ValueError(f"entry member {name!r} is not {dtype}{shape}")
    columns = dict(zip(_FLOAT_NAMES, floats), feasible=feasible)
    for name, row in zip(STRING_COLUMNS, codes):
        words = np.empty(len(vocab[name]), dtype=object)
        words[:] = vocab[name]
        if n and (row.min() < 0 or row.max() >= len(words)):
            raise ValueError(f"entry column {name!r} has a code outside its vocabulary")
        columns[name] = words[row]
    for array in columns.values():
        array.flags.writeable = False
    return columns


def read_entry(source: str | Path | IO[bytes]) -> dict[str, Any]:
    """The payload stored by :func:`write_entry`, columns as read-only arrays.

    ``source`` is a path or a binary file object.  Nothing is unpickled,
    and every malformed input — a torn or foreign file, a missing
    member, bad JSON, another format version, a code outside its
    vocabulary — raises ``ValueError``.  A missing file raises
    ``FileNotFoundError``.
    """
    if not hasattr(source, "read"):
        # np.load leaks the file it opens when the zip is torn.
        with open(source, "rb") as handle:
            return read_entry(handle)
    try:
        with np.load(source, allow_pickle=False) as archive:
            header = json.loads(archive["header"].tobytes())
            if header.get("format") != CACHE_SCHEMA_VERSION:
                raise ValueError(f"entry format is not {CACHE_SCHEMA_VERSION}")
            payload = dict(header["payload"])
            if "vocab" in header:
                payload["columns"] = _decode_columns(archive, header["vocab"])
    except (
        AttributeError, EOFError, KeyError, TypeError, struct.error,
        zipfile.BadZipFile,
    ) as error:
        raise ValueError(f"unreadable result entry: {error!r}") from error
    return payload


class ResultCache:
    """One :func:`write_entry` archive per entry, keyed by content hash."""

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        return self.directory / f"{key}.npz"

    def quarantine_path_for(self, key: str) -> Path:
        """Where a quarantined entry for ``key`` is moved aside to."""
        return self.directory / f"{key}.quarantined"

    def quarantine(self, key: str) -> bool:
        """Move the entry for ``key`` aside so the next get recomputes.

        Used when an entry turns out corrupt — a torn file here, or a
        payload the engine could not parse back into a table.  The file
        is kept (renamed ``.quarantined``) for post-mortem rather than
        deleted; returns True when something was actually moved.
        """
        path = self.path_for(key)
        try:
            os.replace(path, self.quarantine_path_for(key))
        except OSError:
            return False
        obs.inc("cache.disk.quarantined")
        return True

    def get(self, key: str) -> dict | None:
        """The stored payload, or None on miss / quarantined entry.

        A present-but-unreadable entry (torn write, disk error) is
        quarantined — moved aside and recounted — instead of staying in
        place to poison the key forever.
        """
        path = self.path_for(key)
        try:
            data = path.read_bytes()
            if faults.active():
                data = faults.mangle("cache.read", data)
            payload = read_entry(io.BytesIO(data))
        except FileNotFoundError:
            obs.inc("cache.disk.misses")
            return None
        except (OSError, ValueError, faults.FaultError):
            self.quarantine(key)
            obs.inc("cache.disk.misses")
            return None
        obs.inc("cache.disk.hits")
        return payload

    def put(self, key: str, payload: dict) -> Path:
        """Atomically store ``payload`` under ``key``; returns the path."""
        faults.check("cache.write")
        path = write_entry(self.path_for(key), payload)
        obs.inc("cache.disk.puts")
        return path

    def entries(self) -> list[Path]:
        """Paths of every stored entry (empty when the dir is absent)."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.npz"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> dict[str, Any]:
        """Entry count and total size — `repro cache stats` / `/v1/cache/stats`."""
        total_bytes = 0
        entries = self.entries()
        for path in entries:
            try:
                total_bytes += path.stat().st_size
            except OSError:
                pass
        quarantined = (
            len(list(self.directory.glob("*.quarantined")))
            if self.directory.is_dir()
            else 0
        )
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "total_bytes": total_bytes,
            "quarantined": quarantined,
        }

    def prune(self, max_entries: int) -> int:
        """Keep the ``max_entries`` newest entries; returns the number removed.

        Age is mtime (puts rewrite the file, so a refreshed entry counts
        as new).  Bounds an unbounded sweep cache without nuking it.
        """
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")

        def _mtime(path: Path) -> float:
            try:
                return path.stat().st_mtime
            except OSError:
                return 0.0

        entries = sorted(self.entries(), key=_mtime, reverse=True)
        removed = 0
        for path in entries[max_entries:]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
