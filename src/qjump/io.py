"""CSV/JSON writers with self-describing config headers.

CSV dialect: comma separator, '.' decimal point, one header row, LF line
endings.  Every file starts with '# key=value' comment lines carrying the
full run configuration, so any output can be regenerated from itself.

Both writers take the same output: equal-length named columns plus named
scalars.  CSV puts the scalars in the header next to the configuration; JSON
writes the configuration, then the columns as lists, then the scalars.  A
scalar may not share a name with a configuration key, which it would hide.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone

import numpy as np

# rows that write_csv converts and writes at a time: one write of the whole
# body held several copies of it in memory at once
_CSV_ROWS = 256


def config_header_lines(config: dict, timestamp: bool = True) -> list[str]:
    lines = []
    if timestamp:
        lines.append(f"# generated={datetime.now(timezone.utc).isoformat()}")
    for key in sorted(config):
        lines.append(f"# {key}={config[key]}")
    return lines


def _check_names(config: dict, scalars: dict):
    clash = sorted(set(config) & set(scalars))
    if clash:
        raise ValueError(f"scalar names {clash} collide with configuration keys")


def write_csv(
    path, columns: dict, scalars: dict, config: dict, timestamp: bool = True
):
    """Write named columns of equal length; the scalars join the config header."""
    names = list(columns)
    arrays = [np.asarray(columns[k]) for k in names]
    if len({a.shape for a in arrays}) != 1:
        raise ValueError("all columns must have the same length")
    _check_names(config, scalars)
    header = [*config_header_lines({**config, **scalars}, timestamp), ",".join(names)]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(header) + "\n")
        for start in range(0, len(arrays[0]), _CSV_ROWS):
            # repr(float(v)) of every value, a column slice at a time
            rows = slice(start, start + _CSV_ROWS)
            cells = [map(repr, map(float, a[rows].tolist())) for a in arrays]
            fh.write("".join([",".join(row) + "\n" for row in zip(*cells)]))


def write_json(
    path, columns: dict, scalars: dict, config: dict, timestamp: bool = True
):
    """Write the config, then the columns as lists, then the scalars."""
    _check_names(config, scalars)
    doc = {"config": {k: config[k] for k in sorted(config)}}
    if timestamp:
        doc["generated"] = datetime.now(timezone.utc).isoformat()
    doc.update({k: np.asarray(v).tolist() for k, v in columns.items()})
    doc.update(scalars)
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
