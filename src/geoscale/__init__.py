"""Grid-based scaling analysis of geo-located social media activity.

Bins located records and census polygons onto regular lon/lat grids, fits
power-law relations between tweet, user and population density across
resolutions, maps deviations from the fitted trends, and cross-validates
the exponents by resampling.  A built-in synthetic-data generator with
known ground-truth exponents serves as the test oracle.
"""

from .geometry import (
    EARTH_RADIUS_KM,
    GeoPoint,
    LonLatRect,
    MultiPolygon,
    PolygonWithHoles,
    Ring,
    intersection_area,
    polygon_area,
    spherical_rect_area,
)
from .gridding import DensityGrid, GridSpec, run_grid_pipeline
from .scaling import FitResult, fit_power_law

__version__ = "0.1.0"
