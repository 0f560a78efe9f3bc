"""CSV/JSON writers with self-describing config headers.

CSV dialect: comma separator, '.' decimal point, one header row, LF line
endings.  Every file starts with '# key=value' comment lines carrying the
full run configuration, so any output can be regenerated from itself.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone

import numpy as np


def config_header_lines(config: dict, timestamp: bool = True) -> list[str]:
    lines = []
    if timestamp:
        lines.append(f"# generated={datetime.now(timezone.utc).isoformat()}")
    for key in sorted(config):
        lines.append(f"# {key}={config[key]}")
    return lines


def write_csv(path, columns: dict, config: dict, timestamp: bool = True):
    """Write named columns of equal length with a config header."""
    names = list(columns)
    arrays = [np.asarray(columns[k]) for k in names]
    if len({a.shape for a in arrays}) != 1:
        raise ValueError("all columns must have the same length")
    with open(path, "w", newline="\n") as fh:
        for line in config_header_lines(config, timestamp):
            fh.write(line + "\n")
        fh.write(",".join(names) + "\n")
        for row in zip(*arrays):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_json(path, payload: dict, config: dict, timestamp: bool = True):
    """Write a JSON document with the config embedded."""
    doc = {"config": {k: config[k] for k in sorted(config)}}
    if timestamp:
        doc["generated"] = datetime.now(timezone.utc).isoformat()
    doc.update(payload)
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def write_series_csv(result, path, config: dict, timestamp: bool = True):
    """Population time-series export: columns t, rho0, rho1."""
    write_csv(
        path,
        {"t": result.times, "rho0": result.rho0, "rho1": result.rho1},
        config,
        timestamp,
    )


def write_emissions_csv(records, path, config: dict, timestamp: bool = True):
    """Emission-record export: columns trajectory_id, emission_time."""
    ids, times = [], []
    for i, rec in enumerate(records):
        ids.extend([i] * rec.times.size)
        times.extend(rec.times)
    write_csv(
        path,
        {"trajectory_id": np.asarray(ids, float), "emission_time": times},
        config,
        timestamp,
    )
