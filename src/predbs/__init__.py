"""Predictability-adjusted Black-Scholes toolkit.

Prices European options on an underlying whose returns carry excess
predictability p in [-1, 1], modeled as a continuous dividend yield
p * sigma^2; simulates the offset-convention stochastic integrals and SDEs
behind that adjustment; estimates sigma four ways (VIX, historical, realized,
AR-GARCH forecast); and calibrates implied-excess-predictability surfaces
from option chains.
"""

from .calibration import (
    CalibrationPoint,
    ClampStatus,
    PredictabilitySurface,
    SurfaceDiff,
    build_surface,
    implied_excess_predictability,
    surface_diff,
)
from .data_io import (
    OptionChain,
    OptionQuote,
    parse_option_chain,
    parse_return_series,
    read_surface,
    write_surface,
    write_surface_diff,
)
from .errors import (
    DataQualityError,
    EstimationError,
    InputError,
    ParseError,
    PredbsError,
    QuoteRejectedError,
)
from .pricing import (
    PriceResult,
    PricingInputs,
    call_price,
    d_plus_minus,
    dividend_yield_due_to_predictability,
    dprice_dp,
    norm_cdf,
    pde_residual,
    put_price,
)
from .sde import (
    BrownianPath,
    IntegrandPath,
    McCallEstimate,
    PathBatch,
    PathSimConfig,
    ito_integral,
    mc_risk_neutral_call,
    simulate_stratonovich_alpha,
    stratonovich_alpha_integral,
    stratonovich_half_integral,
)
from .volatility import (
    DAYS_PER_YEAR,
    VOL_METHODS,
    GarchParams,
    ReturnSeries,
    VolEstimate,
    VrpResult,
    fit_ar_garch,
    garch_forecast_vol,
    historical_vol,
    realized_vol,
    simulate_ar_garch,
    variance_risk_premium,
    vix_to_sigma,
)

__version__ = "0.1.0"
