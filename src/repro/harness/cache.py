"""On-disk content-addressed result store for sweep jobs.

Artifacts live under ``~/.cache/repro`` (override with ``--cache-dir``
or ``REPRO_CACHE_DIR``), one JSON file per job key, sharded by the key's
first two hex digits.  Writes are atomic (private temp file +
``os.replace``) so a killed sweep never leaves a torn artifact, and a
concurrent sweep at worst overwrites an entry with identical content.
Temp names fold in the writer's pid and a per-process counter, so two
writers racing on the *same* key never collide on the intermediate file
either — each stages privately and the last rename wins whole.

Reads touch the entry's mtime (through the injectable harness clock), so
recency is a cross-process signal and :meth:`ResultCache.prune` can
evict least-recently-used entries down to a byte budget — the same
policy the service layer (:mod:`repro.service.store`) applies
automatically on insert.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
from typing import Any, Dict, Iterator, List, Optional

from repro.harness import clock
from repro.harness.jobs import JobSpec

_ENV_VAR = "REPRO_CACHE_DIR"

#: Per-process staging-file counter; combined with the pid it makes
#: every temp name unique even when two processes race on one key.
_TMP_COUNTER = itertools.count()


def _unlink_quietly(name: str) -> None:
    try:
        os.unlink(name)
    except OSError:
        pass


class ResultCache:
    """A content-addressed job-result store with hit/miss accounting."""

    def __init__(self, root: pathlib.Path) -> None:
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0

    @staticmethod
    def default_root() -> pathlib.Path:
        env = os.environ.get(_ENV_VAR)
        if env:
            return pathlib.Path(env)
        return pathlib.Path.home() / ".cache" / "repro"

    @classmethod
    def default(cls) -> "ResultCache":
        return cls(cls.default_root())

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def _temp_path_for(self, key: str) -> pathlib.Path:
        """A staging path no other writer (process or thread) can pick."""
        return self.root / key[:2] / (
            f".{key[:8]}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        )

    def _touch(self, path: pathlib.Path) -> None:
        """Mark an entry recently used (best effort, clock-injectable)."""
        now = clock.now()
        try:
            os.utime(path, (now, now))
        except OSError:
            pass

    def get(self, key: str) -> Optional[Any]:
        """The cached result for ``key``, or None on miss.

        A corrupt entry (torn by an older writer, disk trouble) counts
        as a miss and is removed so the slot heals on the next put.
        Hits refresh the entry's mtime, feeding the LRU eviction order.
        """
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            path.unlink(missing_ok=True)
            return None
        self.hits += 1
        self._touch(path)
        return payload["result"]

    def put(
        self, key: str, spec: JobSpec, result: Any, elapsed_seconds: float
    ) -> pathlib.Path:
        """Atomically persist one job result."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": key,
            "spec": spec.to_dict(),
            "label": spec.label(),
            "elapsed_seconds": elapsed_seconds,
            "created_at": clock.now(),
            "result": result,
        }
        while True:
            tmp = self._temp_path_for(key)
            try:
                fd = os.open(
                    str(tmp), os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
                break
            except FileExistsError:
                continue  # stale leftover from a recycled pid; next counter
        try:
            with os.fdopen(fd, "w") as handle:
                # One ``dumps`` string: ``json.dump`` streams through the
                # pure-Python encoder, ~3x slower on a 50k-record result.
                handle.write(json.dumps(payload))
            os.replace(str(tmp), path)
        except BaseException:
            _unlink_quietly(str(tmp))
            raise
        return path

    # -- management (``repro cache ls|prune|clear``) -------------------

    def _entry_paths(self) -> Iterator[pathlib.Path]:
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir() and len(shard.name) == 2:
                yield from sorted(shard.glob("*.json"))

    def entries(self) -> Iterator[Dict[str, Any]]:
        """Metadata (not results) of every cache entry."""
        now = clock.now()
        for path in self._entry_paths():
            try:
                payload = json.loads(path.read_text())
                stat = path.stat()
            except (OSError, json.JSONDecodeError):
                continue
            created = float(payload.get("created_at", 0.0))
            yield {
                "key": payload.get("key", path.stem),
                "label": payload.get("label", ""),
                "elapsed_seconds": payload.get("elapsed_seconds", 0.0),
                "created_at": created,
                "age_seconds": max(0.0, now - created) if created else 0.0,
                "last_used": stat.st_mtime,
                "bytes": stat.st_size,
            }

    def total_bytes(self) -> int:
        """Bytes currently held across every entry."""
        total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def prune(self, max_bytes: int) -> List[str]:
        """Evict least-recently-used entries until under ``max_bytes``.

        Recency is the entry file's mtime (refreshed on every hit), so
        the order is shared across processes.  Ties break on the key so
        eviction is deterministic.  Returns the evicted keys, oldest
        first.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        stats = []
        total = 0
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            stats.append((stat.st_mtime, path.stem, path, stat.st_size))
            total += stat.st_size
        stats.sort(key=lambda item: (item[0], item[1]))
        evicted: List[str] = []
        for _mtime, key, path, size in stats:
            if total <= max_bytes:
                break
            path.unlink(missing_ok=True)
            total -= size
            evicted.append(key)
        return evicted

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for path in list(self._entry_paths()):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())
