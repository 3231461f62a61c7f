"""The five workloads, by the names later issues cite."""

from workloads.analysis_dense import AnalysisDense
from workloads.cycle_ref import CycleRef
from workloads.mtc_pool import MtcPool
from workloads.serving import ServeHot, ServePublish

WORKLOADS = {
    cls.name: cls for cls in (CycleRef, MtcPool, AnalysisDense, ServeHot, ServePublish)
}
