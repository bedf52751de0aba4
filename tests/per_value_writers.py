"""The per-value '%.9g' writers, kept as test oracles.

quadflora's writers once rendered every float with its own '%.9g' call
and joined each row's strings. They now render whole value blocks with
``_util.fmt9_rows``; tests compare the files both write. The bodies
below are those writers unchanged, but for ``save``, which writes the
logit cache's header and grid index lines by ``cache_file.line`` and
each value's float64 bytes by one ``struct.pack`` call. ``install``
puts them in place of the library's, so that a CLI run writes its files
through them.
"""

import hashlib
import struct
from typing import Sequence

import numpy as np

import cache_file
from quadflora import formats
from quadflora._util import atomic_write_text, fmt9_array
from quadflora.errors import FormatError
from quadflora.formats import FEATURES_HEADER, HEADS_HEADER, _head_params
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
    index, values = [], bytearray()
    for key in sorted(self._data):
        block = self._data[key]
        index.append([*key, *block.shape])
        for value in block.ravel().tolist():
            values += struct.pack("<d", value)
    body = cache_file.line(index) + bytes(values)
    header = {"version": formats.CACHE_VERSION, "sha256": hashlib.sha256(body).hexdigest()}
    fingerprint = self._fingerprint
    if fingerprint is not None:
        header["blas"] = formats.blas_record()
        header["heads"] = {**self._recorded["heads"], **fingerprint.heads}
        header["quadrats"] = {**self._recorded["quadrats"], **fingerprint.quadrats}
    atomic_write_text(path, cache_file.line(header) + body)
    self._dirty = False


def install(monkeypatch) -> None:
    """Make formats write features, heads and logit caches through these."""
    monkeypatch.setattr(formats, "write_quadrat_features", write_quadrat_features)
    monkeypatch.setattr(formats, "write_head_registry", write_head_registry)
    monkeypatch.setattr(formats.LogitCache, "save", save)
