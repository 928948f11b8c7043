#include "sim/sim_context.hpp"

namespace qip {

SimContext::SimContext()
    : owned_recorder_(std::make_unique<obs::TraceRecorder>()),
      owned_metrics_(std::make_unique<obs::MetricsRegistry>()),
      recorder_(owned_recorder_.get()),
      metrics_(owned_metrics_.get()) {}

SimContext::SimContext(Replica, const SimContext& parent) : SimContext() {
  if (parent.recorder_->enabled()) {
    recorder_->set_capacity(parent.recorder_->capacity());
    recorder_->enable();
  }
}

SimContext::SimContext(ProcessTag)
    : recorder_(&obs::process_recorder()),
      metrics_(&obs::process_metrics()) {}

void SimContext::absorb(SimContext& cell) {
  if (recorder_->enabled() && cell.recorder_->enabled()) {
    recorder_->merge_from(*cell.recorder_);
    cell.recorder_->clear();
  }
  metrics_->merge_from(*cell.metrics_);
}

SimContext& process_context() {
  static SimContext ctx{SimContext::ProcessTag{}};
  return ctx;
}

}  // namespace qip
