"""CSV files for tests to load: plain CSVs and instance CSV metadata rows."""

import csv
import json

from etsfore import data


def write_csv(values, path: str, names=None, timestamps=None) -> None:
    """Inverse of `data.load_csv`; full float precision so round-trips are exact.

    `values` is (T, m); `names` defaults to ch0..ch{m-1}, and `timestamps`,
    when given, fills a first column.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = names or [f"ch{j}" for j in range(len(values[0]))]
        if timestamps is not None:
            writer.writerow(["timestamp"] + names)
            for ts, row in zip(timestamps, values):
                writer.writerow([ts] + [f"{v:.17g}" for v in row])
        else:
            writer.writerow(names)
            for row in values:
                writer.writerow([f"{v:.17g}" for v in row])


def synth_head(lookback: int, horizon: int, instances: int) -> str:
    """An instance CSV's line 1, as `data.write_synth_csv` writes it."""
    meta = {"lookback": lookback, "horizon": horizon, "instances": instances}
    return f"{data.SYNTH_MAGIC} {json.dumps(meta)}\n"
