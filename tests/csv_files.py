"""Plain CSV files for tests to load."""

import csv

from etsfore.data import Series


def write_csv(series: Series, path: str) -> None:
    """Inverse of `data.load_csv`; full float precision so round-trips are exact."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = series.names or [f"ch{j}" for j in range(series.channels)]
        if series.timestamps is not None:
            writer.writerow(["timestamp"] + names)
            for ts, row in zip(series.timestamps, series.values):
                writer.writerow([ts] + [f"{v:.17g}" for v in row])
        else:
            writer.writerow(names)
            for row in series.values:
                writer.writerow([f"{v:.17g}" for v in row])
