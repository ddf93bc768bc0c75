#ifndef DFS_ROUTER_REPLAY_H_
#define DFS_ROUTER_REPLAY_H_

#include <string>
#include <vector>

#include "router/router.h"
#include "util/statusor.h"

namespace dfs::router {

/// The canonical trace encoding of one routing decision — the byte string
/// that the replay contract (DESIGN.md §2g) compares. Emitted by the
/// router as the detail of every "router.decision" span and re-derived by
/// VerifyTrace from the snapshot:
///
///   seq=3 gen=1 fp=1234 feat=1 chosen=15 probs=14:0.25,15:0.8125
///
/// Strategy ids are their fs::StrategyId integer values; probabilities are
/// %.17g (exact round-trip); an empty probability list is "-".
std::string DecisionDetail(const RouteDecision& decision);

/// The replay-relevant fields parsed back out of a DecisionDetail string.
struct TracedDecision {
  uint64_t sequence = 0;
  uint64_t generation = 0;
  uint64_t fingerprint = 0;
  bool featurized = false;
};

/// Parses the seq/gen/fp/feat fields of one "router.decision" detail.
StatusOr<TracedDecision> ParseDecisionDetail(const std::string& detail);

struct ReplayReport {
  uint64_t checked = 0;     ///< same-generation decisions re-derived
  uint64_t skipped = 0;     ///< decisions from other optimizer generations
  uint64_t mismatched = 0;  ///< re-derivations that were not byte-identical
  std::vector<std::string> mismatches;  ///< first few diffs, for diagnostics
};

/// Re-derives every "router.decision" record of `trace_jsonl` (the raw
/// contents of a TraceWriter file) against `router` — typically a fresh
/// router restored from a snapshot — and byte-compares each re-derived
/// DecisionDetail with the traced one. Decisions from optimizer
/// generations other than the snapshot's are counted as skipped: the
/// snapshot carries exactly one optimizer, so only its generation is
/// replayable.
StatusOr<ReplayReport> VerifyTrace(const StrategyRouter& router,
                                   const std::string& trace_jsonl);

/// Hermetic end-to-end exercise of the replay contract (the
/// router.replay_selfcheck ctest entry): routes synthetic traffic before
/// and after installing a trained optimizer, snapshots the router,
/// restores it into a fresh one, and requires the trace to replay
/// byte-identically. The temporary trace file is `scratch_prefix` +
/// ".trace.jsonl" and is removed on success.
Status ReplaySelfCheck(const std::string& scratch_prefix);

}  // namespace dfs::router

#endif  // DFS_ROUTER_REPLAY_H_
