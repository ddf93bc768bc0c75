#ifndef DFS_CORE_EVAL_CACHE_H_
#define DFS_CORE_EVAL_CACHE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "fs/eval_context.h"
#include "fs/feature_subset.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace dfs::core {

/// Version of the binary spill format written by SharedEvalCache::Serialize
/// and EvalCacheRegistry::SaveToFile. Bump on any layout change; readers
/// reject other versions. docs/CACHE.md specifies the byte-level layout and
/// states this same number — scripts/check_docs.py keeps the two in sync.
inline constexpr uint32_t kEvalCacheFormatVersion = 1;

/// Snapshot of one cache's (or, aggregated, a registry's) activity. The
/// engine's per-run memo keeps its own accounting ("engine.cache_hits").
struct EvalCacheStats {
  uint64_t hits = 0;      ///< Lookup served an entry
  uint64_t misses = 0;    ///< Lookup found nothing
  uint64_t inserts = 0;   ///< entries added via InsertPublished
  uint64_t spills = 0;    ///< serialize/save operations (registry level)
  uint64_t restores = 0;  ///< restore/load operations (registry level)
  size_t caches = 0;      ///< caches in the registry (registry level)
  size_t entries = 0;     ///< resident entries
};

/// Table of wrapper-evaluation outcomes shared across runs of one
/// evaluation context (the serve layer's cross-job L2, DESIGN.md §2h): one
/// mutex guarding one map. Entries are only ever inserted whole (first
/// writer wins), so there is no in-flight state: every resident entry is a
/// finished outcome.
///
/// Persistence: Serialize/RestoreState spill the entries to the versioned,
/// checksummed binary format specified in docs/CACHE.md. Stale blobs —
/// wrong suite version or wrong context fingerprint — are rejected loudly
/// with a non-OK Status, never silently merged.
class SharedEvalCache {
 public:
  /// `fingerprint` identifies the evaluation context whose outcomes this
  /// cache may hold (dataset + model + constraint set + seed + engine
  /// semantics — the serve layer computes it per job). Stamped into the
  /// spill header; RestoreState rejects a blob whose fingerprint differs.
  explicit SharedEvalCache(uint64_t fingerprint = 0)
      : fingerprint_(fingerprint) {}

  SharedEvalCache(const SharedEvalCache&) = delete;
  SharedEvalCache& operator=(const SharedEvalCache&) = delete;

  /// Non-blocking probe under the mutex; fills `*outcome` on a hit.
  bool Lookup(const fs::FeatureMask& mask, fs::EvalOutcome* outcome);

  /// Inserts an already-computed outcome (the restore path, and the engine
  /// publishing into a shared cache). First writer wins: returns false and
  /// changes nothing when the mask is already resident — with a shared
  /// evaluation context every writer would insert byte-identical values
  /// anyway (DESIGN.md §2d/§2h).
  bool InsertPublished(const fs::FeatureMask& mask,
                       const fs::EvalOutcome& outcome);

  /// Number of entries.
  size_t size() const;

  uint64_t fingerprint() const { return fingerprint_; }

  EvalCacheStats Stats() const;

  /// Spills every entry to the binary format in docs/CACHE.md, under the
  /// mutex, so the blob is a consistent cut.
  std::string Serialize() const;

  /// Merges a spilled blob's entries into this cache (first writer wins).
  /// Rejects, without touching the cache: wrong magic/format version or a
  /// truncated or checksum-corrupt blob (InvalidArgument), and stale blobs
  /// whose suite version or context fingerprint differ from this cache's
  /// (FailedPrecondition).
  Status RestoreState(const std::string& blob);

 private:
  const uint64_t fingerprint_;
  mutable util::Mutex mu_;
  std::unordered_map<fs::FeatureMask, fs::EvalOutcome, fs::MaskHasher>
      entries_ DFS_GUARDED_BY(mu_);

  // Shared-surface accounting (see EvalCacheStats). Relaxed: totals, not
  // synchronization.
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> inserts_{0};
};

/// Process-level collection of shared eval caches, one per evaluation-
/// context fingerprint, plus the container-file spill that lets the whole
/// collection survive a daemon restart (dfs_serverd --eval-cache-state).
class EvalCacheRegistry {
 public:
  EvalCacheRegistry() = default;

  EvalCacheRegistry(const EvalCacheRegistry&) = delete;
  EvalCacheRegistry& operator=(const EvalCacheRegistry&) = delete;

  /// The shared cache for `fingerprint`, created on first use.
  std::shared_ptr<SharedEvalCache> GetOrCreate(uint64_t fingerprint);

  /// Writes every cache's spill blob into one container file (docs/CACHE.md
  /// "Registry container"). Call at quiescence for a consistent cut.
  Status SaveToFile(const std::string& path) const;

  /// Restores a container file, creating caches as needed and merging
  /// entries (first writer wins). Returns the number of entries restored.
  /// NotFound when the file does not exist; any stale or corrupt member
  /// blob rejects the whole file (every member is decoded before any
  /// merge happens, so nothing is kept half-merged).
  StatusOr<size_t> LoadFromFile(const std::string& path);

  /// LoadFromFile's decode/validate/merge core over an in-memory
  /// container (`source` labels error messages). Exposed so tests and
  /// the fuzz harnesses can drive the decoder without touching disk.
  StatusOr<size_t> RestoreFromString(const std::string& container,
                                     const std::string& source = "<memory>");

  /// Aggregated stats: counters and entries summed over caches, plus the
  /// registry-level cache count and spill/restore operation counters.
  EvalCacheStats Stats() const;

  size_t size() const;

 private:
  mutable util::Mutex mu_;
  std::map<uint64_t, std::shared_ptr<SharedEvalCache>> caches_
      DFS_GUARDED_BY(mu_);
  mutable std::atomic<uint64_t> spills_{0};
  mutable std::atomic<uint64_t> restores_{0};
};

}  // namespace dfs::core

#endif  // DFS_CORE_EVAL_CACHE_H_
