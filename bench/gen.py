"""Seeded inputs for the census-scan and resample workloads.

Writes three files that geoscale reads:

- ``population.geojson``: irregular census units that tile the study rect
  exactly.  Units are jittered lattice quads whose shared edges carry
  wiggle vertices; some quads have a hole filled by an enclave unit, and
  some enclaves belong to a neighbouring unit, which makes that unit a
  MultiPolygon.  Every unit has ``population`` and ``population_18_35``.
- ``land.geojson``: a coastline with many vertices cutting off the
  south-west corner as sea, and an inland lake.
- ``tweets.jsonl``: GPS points and place boxes, about half and half, whose
  per-unit activity follows U = B * P^beta and T = C * (U/A)^gamma (unit
  densities).  It includes commuters, a few bots, coarse admin places and
  records outside the study rect.

Unit, vertex and record counts do not depend on the seed (records to within
rounding), so every seed gives the same amount of work; the same seed gives
byte-identical files.  The generator does not
import geoscale, so its cost does not change when the program does.

Run:  python3 bench/gen.py --seed 1 --out some/dir
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EARTH_RADIUS_KM = 6371.0072
STUDY = (-5.8, 49.9, -1.2, 52.2)   # geoscale's default study rect

_SOURCES = ("app_alpha", "app_beta", "app_gamma", "app_delta")
_SOURCE_P = (0.5, 0.25, 0.15, 0.10)
_PLACE_TYPES = ("city", "neighborhood", "poi")


@dataclass(frozen=True)
class GenConfig:
    nx: int = 16                 # lattice units along longitude
    ny: int = 12                 # lattice units along latitude
    wiggles: int = 2             # extra vertices on every shared edge
    jitter: float = 0.12         # corner jitter, share of a lattice cell
    wiggle_amp: float = 0.05     # perpendicular wiggle, share of edge length
    enclave_frac: float = 0.06   # share of quads with a hole
    coast_vertices: int = 20
    lake_vertices: int = 6
    tweets: int = 8000           # tweets of ordinary users, inside the study
    users: int = 1750
    commuter_frac: float = 0.1
    bots: int = 3
    bot_share: float = 0.015     # each bot's share of the located corpus
    admin_records: int = 200     # coarse places, discarded by ingest
    outside_records: int = 100   # GPS points outside the study rect
    box_frac: float = 0.5        # place boxes vs GPS points
    box_half_min: float = 0.003  # place box half-size range, degrees
    box_half_max: float = 0.02
    beta: float = 1.2
    gamma: float = 1.35
    delta: float = 1.1           # youth density Y = D * P^delta
    youth_d: float = 0.1
    pop_log10_mean: float = 1.6
    pop_log10_sigma: float = 0.3
    noise_dex: float = 0.05


# ---------------------------------------------------------------- geometry

def ring_area_km2(ring) -> float:
    """Signed area of a lon/lat ring with straight edges (exact edge integral
    on the authalic sphere; positive when counter-clockwise)."""
    pts = np.asarray(ring, dtype=float)
    lon1, lat1 = np.radians(pts[:, 0]), np.radians(pts[:, 1])
    lon2, lat2 = np.roll(lon1, -1), np.roll(lat1, -1)
    d = lat2 - lat1
    small = np.abs(d) < 1e-9
    safe = np.where(small, 1.0, d)
    mean_sin = np.where(small, np.sin(0.5 * (lat1 + lat2)),
                        (np.cos(lat1) - np.cos(lat2)) / safe)
    return EARTH_RADIUS_KM ** 2 * math.fsum((lon2 - lon1) * mean_sin)


def unit_area_km2(parts) -> float:
    """Area of a unit given as [[outer, hole, ...], ...]."""
    return math.fsum(abs(ring_area_km2(rings[0]))
                     - math.fsum(abs(ring_area_km2(h)) for h in rings[1:])
                     for rings in parts)


def points_in_rings(lon, lat, rings) -> np.ndarray:
    """Even-odd point-in-polygon over all rings (outer rings and holes)."""
    inside = np.zeros(lon.shape, dtype=bool)
    for ring in rings:
        pts = np.asarray(ring, dtype=float)
        x1, y1 = pts[:, 0], pts[:, 1]
        x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
        for k in range(len(pts)):
            crosses = (y1[k] > lat) != (y2[k] > lat)
            if not crosses.any():
                continue
            xc = x1[k] + (lat - y1[k]) * (x2[k] - x1[k]) / (y2[k] - y1[k])
            inside ^= crosses & (lon < xc)
    return inside


def _closed(ring):
    return [list(p) for p in ring] + [list(ring[0])]


def _star(rng, cx, cy, rx, ry, n, amp):
    """Simple star-shaped ring around (cx, cy), counter-clockwise."""
    theta = 2.0 * math.pi * np.arange(n) / n
    r = 1.0 + amp * rng.uniform(-1.0, 1.0, n)
    return [(float(cx + rx * r[k] * math.cos(theta[k])),
             float(cy + ry * r[k] * math.sin(theta[k]))) for k in range(n)]


# ----------------------------------------------------------------- census

def make_census(cfg: GenConfig, rng) -> list[dict]:
    """Census units tiling the study rect: list of {code, parts} where parts
    is [[outer, hole, ...], ...] with open rings (no repeated vertex)."""
    min_lon, min_lat, max_lon, max_lat = STUDY
    nx, ny = cfg.nx, cfg.ny
    cw, ch = (max_lon - min_lon) / nx, (max_lat - min_lat) / ny
    lon_n = min_lon + cw * np.arange(nx + 1)
    lat_n = min_lat + ch * np.arange(ny + 1)
    lon_n[-1], lat_n[-1] = max_lon, max_lat

    # lattice nodes: interior nodes jitter freely, border nodes slide along
    # the border, the four corners stay put
    node = {}
    for a in range(nx + 1):
        for b in range(ny + 1):
            lon, lat = float(lon_n[a]), float(lat_n[b])
            if 0 < a < nx:
                lon += float(rng.uniform(-cfg.jitter, cfg.jitter)) * cw
            if 0 < b < ny:
                lat += float(rng.uniform(-cfg.jitter, cfg.jitter)) * ch
            node[a, b] = (lon, lat)

    def edge_points(p, q, on_border):
        t = (np.arange(1, cfg.wiggles + 1)
             + rng.uniform(-0.25, 0.25, cfg.wiggles)) / (cfg.wiggles + 1)
        dx, dy = q[0] - p[0], q[1] - p[1]
        off = (np.zeros(cfg.wiggles) if on_border else
               rng.uniform(-cfg.wiggle_amp, cfg.wiggle_amp, cfg.wiggles))
        pts = [(p[0] + t[k] * dx - off[k] * dy, p[1] + t[k] * dy + off[k] * dx)
               for k in range(cfg.wiggles)]
        if on_border:   # keep border vertices exactly on the study border
            if dx == 0.0:
                pts = [(p[0], y) for _, y in pts]
            else:
                pts = [(x, p[1]) for x, _ in pts]
        return [(float(x), float(y)) for x, y in pts]

    # each shared edge is generated once and walked in both directions
    h_edge = {(a, b): edge_points(node[a, b], node[a + 1, b], b in (0, ny))
              for a in range(nx) for b in range(ny + 1)}
    v_edge = {(a, b): edge_points(node[a, b], node[a, b + 1], a in (0, nx))
              for a in range(nx + 1) for b in range(ny)}

    units = []
    for a in range(nx):
        for b in range(ny):
            ring = ([node[a, b]] + h_edge[a, b] + [node[a + 1, b]]
                    + v_edge[a + 1, b] + [node[a + 1, b + 1]]
                    + h_edge[a, b + 1][::-1] + [node[a, b + 1]]
                    + v_edge[a, b][::-1])
            units.append({"code": f"U{a:02d}{b:02d}", "parts": [[ring]],
                          "lattice": (a, b)})

    # enclaves: a hole in a quad, filled by its own unit or by an exclave of
    # the quad to the east or west (which then becomes a MultiPolygon)
    n_enc = max(2, round(cfg.enclave_frac * nx * ny))
    picks = rng.choice(nx * ny, size=n_enc, replace=False)
    by_lattice = {u["lattice"]: u for u in units}
    for k, idx in enumerate(sorted(int(v) for v in picks)):
        a, b = divmod(idx, ny)
        cx = float(lon_n[a]) + 0.5 * cw
        cy = float(lat_n[b]) + 0.5 * ch
        hole = _star(rng, cx, cy, 0.12 * cw, 0.12 * ch, 8, 0.3)
        by_lattice[a, b]["parts"][0].append(hole)
        if k % 2:
            by_lattice[a + 1 if a + 1 < nx else a - 1, b]["parts"].append([hole])
        else:
            units.append({"code": f"E{a:02d}{b:02d}", "parts": [[hole]],
                          "lattice": (a, b)})
    return units


def make_land(cfg: GenConfig, rng) -> list[list]:
    """Land polygons as [[outer, hole, ...], ...]: the study rect minus a
    south-west sea bounded by a wiggly coast, with an inland lake."""
    min_lon, min_lat, max_lon, max_lat = STUDY
    w, h = max_lon - min_lon, max_lat - min_lat
    n = cfg.coast_vertices
    theta = np.linspace(0.0, 0.5 * math.pi, n)
    k = np.arange(1, 6)
    phase = rng.uniform(0.0, 2.0 * math.pi, 5)
    amp = rng.uniform(0.02, 0.06, 5) / k
    r = 1.0 + np.sin(np.outer(theta, 4 * k) + phase) @ amp
    r[0] = r[-1] = 1.0
    coast = [(float(min_lon + 0.45 * w * r[i] * math.cos(theta[i])),
              float(min_lat + 0.55 * h * r[i] * math.sin(theta[i])))
             for i in range(n)]
    # coast runs from the south border to the west border
    coast[0] = (coast[0][0], min_lat)
    coast[-1] = (min_lon, coast[-1][1])
    outer = coast + [(min_lon, max_lat), (max_lon, max_lat), (max_lon, min_lat)]
    lake = _star(rng, min_lon + 0.7 * w, min_lat + 0.65 * h,
                 0.05 * w, 0.06 * h, cfg.lake_vertices, 0.3)
    return [[outer, lake]]


# ----------------------------------------------------------------- corpus

def _sample_in_unit(rng, parts, n):
    """n points uniform over a unit (parts weighted by area)."""
    areas = np.array([max(unit_area_km2([p]), 0.0) for p in parts])
    counts = rng.multinomial(n, areas / areas.sum()) if len(parts) > 1 else [n]
    lons, lats = [], []
    for rings, m in zip(parts, counts):
        if m == 0:
            continue
        pts = np.asarray(rings[0])
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        got_lon, got_lat, have = [], [], 0
        while have < m:
            c_lon = rng.uniform(lo[0], hi[0], 2 * (m - have) + 8)
            c_lat = rng.uniform(lo[1], hi[1], 2 * (m - have) + 8)
            ok = points_in_rings(c_lon, c_lat, rings)
            got_lon.append(c_lon[ok])
            got_lat.append(c_lat[ok])
            have += int(ok.sum())
        lons.append(np.concatenate(got_lon)[:m])
        lats.append(np.concatenate(got_lat)[:m])
    return np.concatenate(lons), np.concatenate(lats)


def make_activity(cfg: GenConfig, rng, units, areas):
    """Per-unit population, youth, user and tweet counts."""
    n = len(units)
    p = 10.0 ** rng.normal(cfg.pop_log10_mean, cfg.pop_log10_sigma, n)
    pop = np.round(p * areas).astype(np.int64)
    youth = np.minimum(np.round(cfg.youth_d * p ** cfg.delta * areas),
                       pop).astype(np.int64)
    dens = pop / areas
    raw_u = areas * dens ** cfg.beta * 10.0 ** rng.normal(0, cfg.noise_dex, n)
    users = np.round(raw_u * cfg.users / raw_u.sum()).astype(np.int64)
    raw_t = (areas * (users / areas) ** cfg.gamma
             * 10.0 ** rng.normal(0, cfg.noise_dex, n))
    tweets = np.round(raw_t * cfg.tweets / raw_t.sum()).astype(np.int64)
    users = np.minimum(users, tweets // 2)     # every user tweets at least twice
    return pop, youth, users, tweets


def _neighbours(units):
    by_lattice = {}
    for k, u in enumerate(units):
        if u["code"].startswith("U"):
            by_lattice[u["lattice"]] = k
    out = []
    for u in units:
        a, b = u["lattice"]
        out.append([by_lattice[q] for q in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1))
                    if q in by_lattice])
    return out


def make_records(cfg: GenConfig, rng, units, users, tweets) -> list[str]:
    """Serialised tweet records, one JSON object per line."""
    min_lon, min_lat, max_lon, max_lat = STUDY
    nbrs = _neighbours(units)
    lines: list[str] = []
    seq = 0

    def emit(user_id, lon, lat, as_box, half, source):
        nonlocal seq
        rec = {"id_str": f"t{seq:08d}", "user": {"id_str": user_id}}
        if as_box:
            hw, hh, ptype = half
            box_lon0 = max(min_lon, lon - hw)
            box_lat0 = max(min_lat, lat - hh)
            box_lon1 = min(max_lon, lon + hw)
            box_lat1 = min(max_lat, lat + hh)
            ring = [[box_lon0, box_lat0], [box_lon1, box_lat0],
                    [box_lon1, box_lat1], [box_lon0, box_lat1]]
            rec["place"] = {"place_type": ptype,
                            "bounding_box": {"type": "Polygon",
                                             "coordinates": [ring]}}
        else:
            rec["coordinates"] = {"type": "Point", "coordinates": [lon, lat]}
        rec["source"] = source
        lines.append(json.dumps(rec, separators=(",", ":")))
        seq += 1

    for k, unit in enumerate(units):
        nu, nt = int(users[k]), int(tweets[k])
        if nu <= 0:
            continue
        counts = 2 + rng.multinomial(nt - 2 * nu, np.full(nu, 1.0 / nu))
        total = int(counts.sum())
        lon, lat = _sample_in_unit(rng, unit["parts"], total)
        owner = np.repeat(np.arange(nu), counts)
        within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        away = ((rng.uniform(size=nu) < cfg.commuter_frac)[owner]
                & (within % 2 == 1) & bool(nbrs[k]))
        if away.any():
            dest = rng.choice(nbrs[k])
            a_lon, a_lat = _sample_in_unit(rng, units[dest]["parts"], int(away.sum()))
            lon[away], lat[away] = a_lon, a_lat
        as_box = rng.uniform(size=total) < cfg.box_frac
        hw = rng.uniform(cfg.box_half_min, cfg.box_half_max, total)
        hh = rng.uniform(cfg.box_half_min, cfg.box_half_max, total)
        ptype = rng.integers(len(_PLACE_TYPES), size=total)
        src = rng.choice(len(_SOURCES), size=total, p=_SOURCE_P)
        lon_l, lat_l = np.round(lon, 6).tolist(), np.round(lat, 6).tolist()
        hw_l, hh_l = np.round(hw, 6).tolist(), np.round(hh, 6).tolist()
        for t in range(total):
            emit(f"{unit['code']}_{int(owner[t])}", lon_l[t], lat_l[t],
                 bool(as_box[t]), (hw_l[t], hh_l[t], _PLACE_TYPES[ptype[t]]),
                 _SOURCES[src[t]])

    located = seq
    per_bot = math.ceil(cfg.bot_share * located / (1.0 - cfg.bots * cfg.bot_share))
    for b in range(cfg.bots):
        lon = round(float(rng.uniform(min_lon + 0.5, max_lon - 0.1)), 6)
        lat = round(float(rng.uniform(min_lat + 0.5, max_lat - 0.1)), 6)
        for _ in range(per_bot):
            emit(f"bot{b}", lon, lat, False, None, "bot_station")
    for _ in range(cfg.admin_records):
        lon = round(float(rng.uniform(min_lon, max_lon)), 6)
        lat = round(float(rng.uniform(min_lat, max_lat)), 6)
        emit(f"admin{seq % 97}", lon, lat, True, (0.8, 0.5, "admin"), "app_alpha")
    for _ in range(cfg.outside_records):
        lon = round(float(rng.uniform(max_lon + 0.1, max_lon + 2.0)), 6)
        lat = round(float(rng.uniform(min_lat, max_lat)), 6)
        emit(f"far{seq % 89}", lon, lat, False, None, "app_beta")
    return lines


# ------------------------------------------------------------------ files

def generate(seed: int, out) -> dict:
    """Write population.geojson, land.geojson, tweets.jsonl and truth.json
    under ``out``; returns the truth dict."""
    cfg = GenConfig()
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([0x6E05CA1E, seed]))
    units = make_census(cfg, rng)
    areas = np.array([unit_area_km2(u["parts"]) for u in units])
    pop, youth, users, tweets = make_activity(cfg, rng, units, areas)
    land = make_land(cfg, rng)
    lines = make_records(cfg, rng, units, users, tweets)

    features = [{
        "type": "Feature",
        "geometry": ({"type": "Polygon",
                      "coordinates": [_closed(r) for r in u["parts"][0]]}
                     if len(u["parts"]) == 1 else
                     {"type": "MultiPolygon",
                      "coordinates": [[_closed(r) for r in rings]
                                      for rings in u["parts"]]}),
        "properties": {"code": u["code"], "population": int(pop[k]),
                       "population_18_35": int(youth[k])},
    } for k, u in enumerate(units)]
    _dump(out / "population.geojson",
          {"type": "FeatureCollection", "features": features})
    _dump(out / "land.geojson", {"type": "FeatureCollection", "features": [{
        "type": "Feature", "properties": {"name": "land"},
        "geometry": {"type": "MultiPolygon",
                     "coordinates": [[_closed(r) for r in rings]
                                     for rings in land]}}]})
    with open(out / "tweets.jsonl", "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    truth = {"seed": seed, "beta": cfg.beta, "gamma": cfg.gamma,
             "alpha": cfg.beta * cfg.gamma, "delta": cfg.delta,
             "units": len(units), "records": len(lines),
             "population": int(pop.sum()), "users": int(users.sum()),
             "tweets": int(tweets.sum())}
    _dump(out / "truth.json", truth)
    return truth


def _dump(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    print(json.dumps(generate(args.seed, args.out)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
