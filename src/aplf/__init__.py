"""Online probabilistic load forecasting.

Per-calendar-type Gaussian channels updated recursively with forgetting,
and a sequential forward recursion that turns the latest parameters into
Gaussian forecasts with calibrated uncertainty.
"""

from .features import TemperatureShiftEncoder, TemperatureTracker, calendar_type
from .forecaster import ForecastPath, InstanceVector, forecast_step, predict
from .metrics import EvalReport, evaluate_forecasts, mape, rmse
from .model_types import (
    ChannelState,
    GaussianChannelParams,
    HyperParams,
    LearnerState,
    ModelParams,
)
from .recursive_learner import OnlineLearner, batch_initialize, channel_update, trace_reset

__version__ = "0.1.0"
