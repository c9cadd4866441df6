"""g2glue: exterior calculus in dimension <= 7, Eguchi-Hanson geometry, cone
spectra, the T^7/Gamma gluing combinatorics, and a spectral existence
iteration on the flat 7-torus, together with a verification CLI."""

from .forms import (
    Form,
    Metric,
    Vector,
    wedge,
    hodge_star,
    interior_product,
    inner_product,
    metric_from_g2,
    cross_product,
    theta,
    theta_split,
    pullback,
    phi0,
    star_phi0,
    PositivityError,
)

__all__ = [
    "Form", "Metric", "Vector",
    "wedge", "hodge_star", "interior_product", "inner_product",
    "metric_from_g2", "cross_product", "theta", "theta_split",
    "pullback", "phi0", "star_phi0", "PositivityError",
]

__version__ = "0.1.0"
