"""Predictability-adjusted Black-Scholes toolkit: pricing with the predictability yield q = p sigma^2, the
offset-convention SDEs, four sigma estimators and implied-p surfaces from option chains.  Each name is imported
from its module (from predbs.pricing import call_price); importing the package itself loads none of them."""

__version__ = "0.1.0"
