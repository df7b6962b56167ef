#include "fftgrad/core/recovery.h"

#include <stdexcept>

#include "fftgrad/core/compressor.h"

namespace fftgrad::core {

using telemetry::HealthCondition;

const char* remedy_action_name(RemedyAction action) {
  switch (action) {
    case RemedyAction::kRollback: return "rollback";
    case RemedyAction::kCodecFallback: return "codec_fallback";
    case RemedyAction::kThetaRelax: return "theta_relax";
    case RemedyAction::kNone: break;
  }
  return "none";
}

RecoveryController::RecoveryController(RecoveryPolicy policy) : policy_(policy) {}

void RecoveryController::open(std::uint64_t iter, HealthCondition cause, RemedyAction action) {
  pending_.push_back({iter, cause, action});
  ++total_;
}

std::vector<RemedyAction> RecoveryController::step(std::uint64_t iter,
                                                   const telemetry::HealthFlags& flags) {
  using enum HealthCondition;
  std::vector<RemedyAction> actions;
  if (!policy_.enabled) return actions;

  // Close pendings whose condition has cleared. The applied-iteration row
  // stays pending until a later step shows the signal gone, which is what
  // makes iterations_to_recover meaningful. An active lossless fallback
  // ends a ratio collapse by construction (exact delivery cannot
  // collapse), so that condition reads as cleared.
  for (std::size_t i = 0; i < pending_.size();) {
    const Pending& p = pending_[i];
    const bool present = flags.test(p.cause) && !(p.cause == kRatioCollapse && fallback_active_);
    if (iter > p.iteration && !present) {
      closed_.push_back({p.iteration, telemetry::health_condition_name(p.cause),
                         remedy_action_name(p.action), iter - p.iteration, true});
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }

  const auto has_pending = [&](RemedyAction action) {
    for (const Pending& p : pending_) {
      if (p.action == action) return true;
    }
    return false;
  };

  const bool nan_gradient = flags.test(kNanGradient);
  if ((nan_gradient || flags.test(kNonfiniteLoss)) && !has_pending(RemedyAction::kRollback)) {
    open(iter, nan_gradient ? kNanGradient : kNonfiniteLoss, RemedyAction::kRollback);
    actions.push_back(RemedyAction::kRollback);
  }

  if (flags.test(kRatioCollapse) && !fallback_active_) {
    ++collapse_streak_;
    if (collapse_streak_ >= policy_.ratio_collapse_streak) {
      fallback_active_ = true;
      open(iter, kRatioCollapse, RemedyAction::kCodecFallback);
      actions.push_back(RemedyAction::kCodecFallback);
    }
  } else {
    collapse_streak_ = 0;
  }

  if (flags.test(kResidualGrowth) && !has_pending(RemedyAction::kThetaRelax)) {
    open(iter, kResidualGrowth, RemedyAction::kThetaRelax);
    actions.push_back(RemedyAction::kThetaRelax);
  }

  return actions;
}

std::vector<std::uint8_t> RecoveryController::save_decision_state() const {
  std::vector<std::uint8_t> blob;
  wire::put<std::uint64_t>(blob, collapse_streak_);
  wire::put<std::uint8_t>(blob, fallback_active_ ? 1 : 0);
  wire::put<std::uint64_t>(blob, pending_.size());
  for (const Pending& p : pending_) {
    wire::put<std::uint64_t>(blob, p.iteration);
    wire::put<std::uint8_t>(blob, static_cast<std::uint8_t>(p.cause));
    wire::put<std::uint8_t>(blob, static_cast<std::uint8_t>(p.action));
  }
  return blob;
}

void RecoveryController::load_decision_state(std::span<const std::uint8_t> blob) {
  wire::Reader reader(blob);
  const auto streak = reader.get<std::uint64_t>();
  const bool fallback = reader.get<std::uint8_t>() != 0;
  const std::size_t count = reader.get_count(sizeof(std::uint64_t) + 2);
  std::vector<Pending> pending;
  pending.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Pending p;
    p.iteration = reader.get<std::uint64_t>();
    const auto cause = reader.get<std::uint8_t>();
    const auto action = reader.get<std::uint8_t>();
    if (cause >= kRemedyConditions ||
        action > static_cast<std::uint8_t>(RemedyAction::kThetaRelax)) {
      throw std::runtime_error("recovery: malformed decision-state blob");
    }
    p.cause = static_cast<HealthCondition>(cause);
    p.action = static_cast<RemedyAction>(action);
    pending.push_back(p);
  }
  collapse_streak_ = static_cast<std::size_t>(streak);
  fallback_active_ = fallback;
  pending_ = std::move(pending);
}

std::vector<telemetry::LedgerRemediation> RecoveryController::drain_closed() {
  std::vector<telemetry::LedgerRemediation> out;
  out.swap(closed_);
  return out;
}

std::vector<telemetry::LedgerRemediation> RecoveryController::finish(
    std::uint64_t final_iteration) {
  std::vector<telemetry::LedgerRemediation> out = drain_closed();
  for (const Pending& p : pending_) {
    const std::uint64_t waited =
        final_iteration > p.iteration ? final_iteration - p.iteration : 0;
    out.push_back({p.iteration, telemetry::health_condition_name(p.cause),
                   remedy_action_name(p.action), waited, false});
  }
  pending_.clear();
  return out;
}

}  // namespace fftgrad::core
