#include "fs/portfolio.h"

#include "obs/trace.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace dfs::fs {
namespace {

/// Wall-clock slice per member in the first round; grows geometrically so
/// later rounds favor whichever members are still making progress.
constexpr double kInitialSliceSeconds = 0.05;
constexpr double kSliceGrowth = 1.6;

/// EvalContext view that additionally stops when a slice deadline passes.
/// Everything else delegates to the parent (in particular the evaluation
/// cache and success recording live there).
class SlicedContext : public EvalContext {
 public:
  SlicedContext(EvalContext& parent, double slice_seconds)
      : parent_(parent),
        slice_deadline_(Deadline::AfterSeconds(slice_seconds)) {}

  int num_features() const override { return parent_.num_features(); }
  int max_feature_count() const override {
    return parent_.max_feature_count();
  }
  const constraints::ConstraintSet& constraint_set() const override {
    return parent_.constraint_set();
  }
  const data::Dataset& train_data() const override {
    return parent_.train_data();
  }
  bool ShouldStop() const override {
    return parent_.ShouldStop() || slice_deadline_.Expired();
  }
  double RemainingSeconds() const override {
    return std::min(parent_.RemainingSeconds(),
                    std::max(0.0, slice_deadline_.RemainingSeconds()));
  }
  Rng& rng() override { return parent_.rng(); }
  EvalOutcome Evaluate(const FeatureMask& mask) override {
    if (slice_deadline_.Expired()) return EvalOutcome();
    return parent_.Evaluate(mask);
  }
  StatusOr<std::vector<double>> FittedImportances(
      const FeatureMask& mask) override {
    return parent_.FittedImportances(mask);
  }

 private:
  EvalContext& parent_;
  Deadline slice_deadline_;
};

}  // namespace

TimeSlicedPortfolio::TimeSlicedPortfolio(std::vector<StrategyId> members,
                                         uint64_t seed)
    : member_ids_(std::move(members)) {
  DFS_CHECK(!member_ids_.empty()) << "portfolio needs at least one member";
  for (size_t i = 0; i < member_ids_.size(); ++i) {
    members_.push_back(CreateStrategy(member_ids_[i], seed * 131 + i));
  }
}

std::string TimeSlicedPortfolio::name() const {
  std::string name = "Portfolio(";
  for (size_t i = 0; i < member_ids_.size(); ++i) {
    if (i > 0) name += "+";
    name += StrategyIdToString(member_ids_[i]);
  }
  return name + ")";
}

void TimeSlicedPortfolio::Run(EvalContext& context) {
  double slice = kInitialSliceSeconds;
  while (!context.ShouldStop()) {
    for (auto& member : members_) {
      if (context.ShouldStop()) return;
      obs::TraceSpan span("fs.portfolio_slice", member->name());
      SlicedContext sliced(context, slice);
      member->Run(sliced);
    }
    slice *= kSliceGrowth;
  }
}

}  // namespace dfs::fs
