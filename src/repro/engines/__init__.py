"""Engine simulators: the five systems under test (DESIGN.md §1.2).

The paper evaluates MonetDB, approXimateDB/XDB, IDEA, and two commercial
systems ("System X", "System Y"). None are available offline, so each is
reproduced as an engine simulator that computes *real answers* on the
actual data (exact scans, genuine random samples, honest confidence
intervals) while accounting for *time* through a calibrated cost model
over the benchmark clock:

* :mod:`repro.engines.columnstore` — blocking analytical column store
  (MonetDB stand-in);
* :mod:`repro.engines.onlineagg` — online aggregation with report
  intervals and a blocking fallback for non-online-capable queries
  (approXimateDB/XDB stand-in);
* :mod:`repro.engines.progressive` — progressive engine with result reuse
  and optional speculative execution (IDEA stand-in);
* :mod:`repro.engines.sampling` — offline stratified-sample AQP
  (System X stand-in);
* :mod:`repro.engines.frontend` — IDE layer adding rendering overhead on
  top of a backend engine (System Y stand-in).

Shared infrastructure: :mod:`repro.engines.scheduler` (processor-sharing
capacity model — concurrent queries slow each other down, the crux of the
1:N workflows), :mod:`repro.engines.cost` (calibrated throughput/latency
constants and the data-preparation model of §5.2),
:mod:`repro.engines.estimators` (sampling estimators with margins of
error), :mod:`repro.engines.joins` (star-schema join helpers).
"""

from repro.engines.base import Engine, EngineCapabilities, PreparationReport
from repro.engines.columnstore import ColumnStoreEngine
from repro.engines.cost import EngineCostModel, PreparationModel
from repro.engines.frontend import FrontendEngine
from repro.engines.kernel_cache import (
    KernelCache,
    clear_kernel_cache,
    configure_kernel_cache,
    get_kernel,
    kernel_cache,
)
from repro.engines.onlineagg import OnlineAggEngine
from repro.engines.progressive import ProgressiveEngine
from repro.engines.sampling import StratifiedSamplingEngine
from repro.engines.scheduler import ProcessorSharingScheduler

#: Engine registry: paper-facing names → constructor.
ENGINE_REGISTRY = {
    "monetdb-sim": ColumnStoreEngine,
    "xdb-sim": OnlineAggEngine,
    "idea-sim": ProgressiveEngine,
    "system-x-sim": StratifiedSamplingEngine,
}

__all__ = [
    "ColumnStoreEngine",
    "ENGINE_REGISTRY",
    "Engine",
    "EngineCapabilities",
    "EngineCostModel",
    "FrontendEngine",
    "KernelCache",
    "OnlineAggEngine",
    "PreparationModel",
    "PreparationReport",
    "ProcessorSharingScheduler",
    "ProgressiveEngine",
    "StratifiedSamplingEngine",
    "clear_kernel_cache",
    "configure_kernel_cache",
    "get_kernel",
    "kernel_cache",
]
