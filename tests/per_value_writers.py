"""The per-value '%.9g' writers, kept as test oracles.

quadflora's writers once rendered every float with its own '%.9g' call
and joined each row's strings. They now render whole value blocks with
``_util.fmt9_rows``; tests compare the files both write. The bodies
below are those writers unchanged, but for ``save``, which writes the
logit cache's one line per grid, each grid's float64 bytes encoded by
``binascii``. ``install`` puts them in place of the library's, so that
a CLI run writes its files through them.
"""

import binascii
from typing import Sequence

import numpy as np

from quadflora import formats
from quadflora._util import atomic_write_text, fmt9_array
from quadflora.errors import FormatError
from quadflora.formats import (
    CACHE_HEADER,
    FEATURES_HEADER,
    HEADS_HEADER,
    _head_params,
    fingerprint_path,
)
from quadflora.synthworld import LEVELS, HeadRegistry, Quadrat


def _join_values(values: np.ndarray) -> str:
    return ";".join(fmt9_array(values))


def write_quadrat_features(quadrats: Sequence[Quadrat], path) -> None:
    lines = [",".join(FEATURES_HEADER)]
    for q in sorted(quadrats, key=lambda q: q.quadrat_id):
        cells = q.features()
        if cells is None:
            raise FormatError(f"quadrat {q.quadrat_id} has no features to write")
        dim = cells.shape[2]
        text = fmt9_array(cells)
        for i in range(q.grid_cells * q.grid_cells):
            row, col = divmod(i, q.grid_cells)
            lines.append(
                f"{q.quadrat_id},{q.transect_id},{q.grid_cells},{dim},"
                f"{row},{col}," + ";".join(text[i * dim : (i + 1) * dim])
            )
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_head_registry(registry: HeadRegistry, path) -> None:
    lines = [",".join(HEADS_HEADER)]
    for level in LEVELS:
        for head_id in sorted(registry.heads.get(level, {})):
            for param, array in sorted(_head_params(registry.heads[level][head_id]).items()):
                matrix = np.atleast_2d(array)
                for row in range(matrix.shape[0]):
                    lines.append(
                        f"{level},{head_id},{param},{row},{_join_values(matrix[row])}"
                    )
    atomic_write_text(path, "\n".join(lines) + "\n")


def save(self, path=None) -> None:
    """LogitCache.save."""
    # Rewriting an unchanged cache would produce the same bytes; skip it
    # so warm reruns stay fast.
    if path is None or path == self.path:
        path = self.path
        if path is None:
            raise FormatError("cache has no path to save to")
        if not self._dirty:
            return
    lines = [",".join(CACHE_HEADER)]
    for key in sorted(self._data):
        data = np.ascontiguousarray(self._data[key], dtype="<f8").tobytes()
        field = binascii.b2a_base64(data, newline=False).decode("ascii")
        lines.append(",".join(map(str, key)) + "," + field)
    text = "\n".join(lines) + "\n"
    atomic_write_text(path, text)
    if self._fingerprint is not None:
        atomic_write_text(fingerprint_path(path), self._sidecar_text(text))
    self._dirty = False


def install(monkeypatch) -> None:
    """Make formats write features, heads and logit caches through these."""
    monkeypatch.setattr(formats, "write_quadrat_features", write_quadrat_features)
    monkeypatch.setattr(formats, "write_head_registry", write_head_registry)
    monkeypatch.setattr(formats.LogitCache, "save", save)
