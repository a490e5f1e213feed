"""Fixed reference work that measures how fast the machine is right now.

run.py runs this script as a child process before each geoscale command
and divides the commands' median times by this script's median time.  On a
shared machine the speed of a core changes by a quarter or more within
minutes, and it changes the time of this script and of the geoscale
commands alike, so the ratio holds where the raw times do not.

The work imitates the mix a geoscale command does, without importing
geoscale, so that no change to the program changes it: interpreter start
and numpy import, JSON lines parsed into dicts, float arithmetic and dict
updates in a Python loop, bin lookups with numpy.searchsorted, and numpy
sorts.  It reads and writes no files, and its work depends on nothing but
the constants below.

Run:  python3 bench/calibrate.py     (prints the checksum of its work)
"""

import json
import math

import numpy as np

RECORDS = 6000
BINS = 64
SORTS = 2
SORT_SIZE = 300_000


def main() -> None:
    rng = np.random.default_rng(7)
    edges = np.linspace(0.0, 1.0, BINS + 1)
    lines = [json.dumps({"id": i, "lon": float(x), "lat": float(y),
                         "user": f"u{i % 997}"})
             for i, (x, y) in enumerate(rng.random((RECORDS, 2)))]
    cells: dict = {}
    for line in lines:
        r = json.loads(line)
        if r["id"] % 4 == 0:
            i = int(np.searchsorted(edges, r["lon"]))
        else:
            i = int(r["lon"] * BINS)
        key = (i, r["user"])
        cells[key] = cells.get(key, 0.0) + math.sin(r["lat"]) * math.cos(r["lon"])
    a = rng.random(SORT_SIZE)
    for _ in range(SORTS):
        a = np.sort(a)[::-1].copy()
    print(len(cells), round(math.fsum(cells.values()), 6), float(a[0]))


if __name__ == "__main__":
    main()
