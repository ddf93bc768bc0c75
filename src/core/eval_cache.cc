#include "core/eval_cache.h"

#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "core/suite_version.h"
#include "obs/metrics.h"
#include "util/file_util.h"

namespace dfs::core {
namespace {

/// Shared-cache-surface instruments (docs/PROTOCOL.md instrument registry,
/// "cache.*"). Resolved once; the lookup hot path then touches atomics only.
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& inserts;
  obs::Counter& spills;
  obs::Counter& restores;
  obs::Counter& restored_entries;

  static CacheMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Global();
    static CacheMetrics* metrics = new CacheMetrics{
        registry.counter("cache.hits"),
        registry.counter("cache.misses"),
        registry.counter("cache.inserts"),
        registry.counter("cache.spills"),
        registry.counter("cache.restores"),
        registry.counter("cache.restored_entries"),
    };
    return *metrics;
  }
};

// ---------------------------------------------------------------------------
// Binary spill encoding (docs/CACHE.md). Little-endian on every supported
// target; the fixed-width append/read helpers keep the layout explicit.

constexpr char kCacheMagic[8] = {'D', 'F', 'S', 'C', 'A', 'C', 'H', 'E'};
constexpr char kRegistryMagic[8] = {'D', 'F', 'S', 'C', 'R', 'E', 'G', '1'};
constexpr uint64_t kChecksumSeed = 0xCBF29CE484222325ULL;  // FNV-1a offset

void AppendU32(std::string* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void AppendU64(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void AppendF64(std::string* out, double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  AppendU64(out, bits);
}

/// Bounds-checked little-endian reader over a blob.
class Reader {
 public:
  explicit Reader(std::string_view blob) : blob_(blob) {}

  bool ReadBytes(void* out, size_t n) {
    if (offset_ + n > blob_.size()) return false;
    std::memcpy(out, blob_.data() + offset_, n);
    offset_ += n;
    return true;
  }
  bool ReadU32(uint32_t* out) {
    unsigned char bytes[4];
    if (!ReadBytes(bytes, 4)) return false;
    *out = 0;
    for (int i = 0; i < 4; ++i) *out |= static_cast<uint32_t>(bytes[i]) << (8 * i);
    return true;
  }
  bool ReadU64(uint64_t* out) {
    unsigned char bytes[8];
    if (!ReadBytes(bytes, 8)) return false;
    *out = 0;
    for (int i = 0; i < 8; ++i) *out |= static_cast<uint64_t>(bytes[i]) << (8 * i);
    return true;
  }
  bool ReadF64(double* out) {
    uint64_t bits;
    if (!ReadU64(&bits)) return false;
    std::memcpy(out, &bits, sizeof(bits));
    return true;
  }
  bool Skip(size_t n) {
    if (offset_ + n > blob_.size()) return false;
    offset_ += n;
    return true;
  }
  size_t offset() const { return offset_; }
  size_t remaining() const { return blob_.size() - offset_; }

 private:
  std::string_view blob_;
  size_t offset_ = 0;
};

uint64_t Fnv1a(const char* data, size_t size) {
  uint64_t hash = kChecksumSeed;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

/// One entry: bit-packed mask (LSB-first within each byte) + the
/// fs::EvalOutcome fields in declaration order.
void AppendEntry(std::string* out, const fs::FeatureMask& mask,
                 const fs::EvalOutcome& outcome) {
  AppendU32(out, static_cast<uint32_t>(mask.size()));
  const size_t bytes = (mask.size() + 7) / 8;
  for (size_t b = 0; b < bytes; ++b) {
    unsigned char packed = 0;
    for (size_t bit = 0; bit < 8; ++bit) {
      const size_t index = b * 8 + bit;
      if (index < mask.size() && mask[index]) packed |= (1u << bit);
    }
    out->push_back(static_cast<char>(packed));
  }
  unsigned char flags = 0;
  if (outcome.evaluated) flags |= 1u;
  if (outcome.satisfied_validation) flags |= 2u;
  if (outcome.success) flags |= 4u;
  out->push_back(static_cast<char>(flags));
  AppendF64(out, outcome.seconds);
  AppendF64(out, outcome.distance);
  AppendF64(out, outcome.objective);
  AppendF64(out, outcome.validation.f1);
  AppendF64(out, outcome.validation.equal_opportunity);
  AppendF64(out, outcome.validation.safety);
  AppendF64(out, outcome.validation.feature_fraction);
  AppendU32(out, static_cast<uint32_t>(outcome.validation.selected_features));
  AppendU32(out, static_cast<uint32_t>(outcome.validation.total_features));
}

bool ReadEntry(Reader* reader, fs::FeatureMask* mask,
               fs::EvalOutcome* outcome) {
  uint32_t mask_bits;
  if (!reader->ReadU32(&mask_bits)) return false;
  // A mask wider than the blob is left to hold cannot be legitimate; the
  // cap turns a corrupt width into a clean "truncated" rejection instead
  // of a giant allocation.
  if (mask_bits > 8 * reader->remaining()) return false;
  mask->assign(mask_bits, 0);
  const size_t bytes = (mask_bits + 7) / 8;
  for (size_t b = 0; b < bytes; ++b) {
    unsigned char packed;
    if (!reader->ReadBytes(&packed, 1)) return false;
    for (size_t bit = 0; bit < 8; ++bit) {
      const size_t index = b * 8 + bit;
      if (index < mask_bits) (*mask)[index] = (packed >> bit) & 1u;
    }
  }
  unsigned char flags;
  if (!reader->ReadBytes(&flags, 1)) return false;
  outcome->evaluated = (flags & 1u) != 0;
  outcome->satisfied_validation = (flags & 2u) != 0;
  outcome->success = (flags & 4u) != 0;
  uint32_t selected, total;
  if (!reader->ReadF64(&outcome->seconds) ||
      !reader->ReadF64(&outcome->distance) ||
      !reader->ReadF64(&outcome->objective) ||
      !reader->ReadF64(&outcome->validation.f1) ||
      !reader->ReadF64(&outcome->validation.equal_opportunity) ||
      !reader->ReadF64(&outcome->validation.safety) ||
      !reader->ReadF64(&outcome->validation.feature_fraction) ||
      !reader->ReadU32(&selected) || !reader->ReadU32(&total)) {
    return false;
  }
  outcome->validation.selected_features = static_cast<int>(selected);
  outcome->validation.total_features = static_cast<int>(total);
  return true;
}

using SpillEntries = std::vector<std::pair<fs::FeatureMask, fs::EvalOutcome>>;

/// One single-cache spill, decoded and validated but not merged anywhere.
struct DecodedSpill {
  uint64_t fingerprint = 0;
  SpillEntries entries;
};

/// The one DFSCACHE decoder: every check in docs/CACHE.md "Rejection
/// rules" except the fingerprint match, which only a target cache can make.
/// Decodes everything before returning, so a truncated payload cannot
/// leave a cache half-restored.
StatusOr<DecodedSpill> DecodeSpill(std::string_view blob) {
  Reader reader(blob);
  char magic[8];
  if (!reader.ReadBytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kCacheMagic, sizeof(magic)) != 0) {
    return InvalidArgumentError("not an eval-cache spill (bad magic)");
  }
  uint32_t version, reserved;
  uint64_t suite, entry_count, checksum;
  DecodedSpill spill;
  if (!reader.ReadU32(&version) || !reader.ReadU32(&reserved) ||
      !reader.ReadU64(&suite) || !reader.ReadU64(&spill.fingerprint) ||
      !reader.ReadU64(&entry_count) || !reader.ReadU64(&checksum)) {
    return InvalidArgumentError("truncated eval-cache spill header");
  }
  if (version != kEvalCacheFormatVersion) {
    return InvalidArgumentError(
        "unsupported eval-cache format version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(kEvalCacheFormatVersion) + ")");
  }
  if (suite != kSuiteVersion) {
    return FailedPreconditionError(
        "stale eval-cache spill: suite version " + std::to_string(suite) +
        " != current " + std::to_string(kSuiteVersion) +
        " (evaluation semantics changed; delete the spill)");
  }
  const size_t payload_offset = reader.offset();
  if (Fnv1a(blob.data() + payload_offset, blob.size() - payload_offset) !=
      checksum) {
    return InvalidArgumentError(
        "corrupt eval-cache spill: payload checksum mismatch");
  }
  // The entry count lives in the header, OUTSIDE the checksum (which
  // covers the payload only), so it must be sanity-checked before it sizes
  // an allocation: every entry is at least kMinEntryBytes, so a count the
  // remaining bytes cannot hold is corrupt no matter what the payload says.
  constexpr uint64_t kMinEntryBytes = 69;  // u32 mask width + flags +
                                           // 7 f64 + 2 u32, empty mask
  if (entry_count > reader.remaining() / kMinEntryBytes) {
    return InvalidArgumentError(
        "corrupt eval-cache spill: header claims " +
        std::to_string(entry_count) + " entries but only " +
        std::to_string(reader.remaining()) + " payload bytes follow");
  }
  spill.entries.reserve(entry_count);
  for (uint64_t i = 0; i < entry_count; ++i) {
    fs::FeatureMask mask;
    fs::EvalOutcome outcome;
    if (!ReadEntry(&reader, &mask, &outcome)) {
      return InvalidArgumentError(
          "truncated eval-cache spill: entry " + std::to_string(i) + " of " +
          std::to_string(entry_count) + " is cut short");
    }
    spill.entries.emplace_back(std::move(mask), outcome);
  }
  if (reader.remaining() != 0) {
    return InvalidArgumentError(
        "corrupt eval-cache spill: " + std::to_string(reader.remaining()) +
        " trailing bytes after the last entry");
  }
  return spill;
}

/// Inserts decoded entries (first writer wins); returns how many landed.
size_t MergeEntries(SharedEvalCache& cache, const SpillEntries& entries) {
  size_t merged = 0;
  for (const auto& [mask, outcome] : entries) {
    if (cache.InsertPublished(mask, outcome)) ++merged;
  }
  return merged;
}

/// One restore operation's instruments: cache.restores by 1 and
/// cache.restored_entries by the entries it merged.
void CountRestore(size_t merged) {
  CacheMetrics& metrics = CacheMetrics::Get();
  metrics.restores.Increment();
  metrics.restored_entries.Increment(merged);
}

}  // namespace

// ---------------------------------------------------------------------------
// SharedEvalCache

bool SharedEvalCache::Lookup(const fs::FeatureMask& mask,
                             fs::EvalOutcome* outcome) {
  CacheMetrics& metrics = CacheMetrics::Get();
  bool hit = false;
  {
    util::MutexLock lock(mu_);
    auto it = entries_.find(mask);
    if (it != entries_.end()) {
      *outcome = it->second;
      hit = true;
    }
  }
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    metrics.hits.Increment();
    return true;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  metrics.misses.Increment();
  return false;
}

bool SharedEvalCache::InsertPublished(const fs::FeatureMask& mask,
                                      const fs::EvalOutcome& outcome) {
  bool inserted;
  {
    util::MutexLock lock(mu_);
    inserted = entries_.try_emplace(mask, outcome).second;
  }
  if (inserted) {
    inserts_.fetch_add(1, std::memory_order_relaxed);
    CacheMetrics::Get().inserts.Increment();
  }
  return inserted;
}

size_t SharedEvalCache::size() const {
  util::MutexLock lock(mu_);
  return entries_.size();
}

EvalCacheStats SharedEvalCache::Stats() const {
  EvalCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.inserts = inserts_.load(std::memory_order_relaxed);
  stats.caches = 1;
  stats.entries = size();
  return stats;
}

std::string SharedEvalCache::Serialize() const {
  // Payload first (the checksum covers exactly these bytes), header after.
  std::string payload;
  uint64_t entry_count;
  {
    util::MutexLock lock(mu_);
    for (const auto& [mask, outcome] : entries_) {
      AppendEntry(&payload, mask, outcome);
    }
    entry_count = entries_.size();
  }
  std::string blob;
  blob.reserve(48 + payload.size());
  blob.append(kCacheMagic, sizeof(kCacheMagic));
  AppendU32(&blob, kEvalCacheFormatVersion);
  AppendU32(&blob, 0);  // reserved
  AppendU64(&blob, kSuiteVersion);
  AppendU64(&blob, fingerprint_);
  AppendU64(&blob, entry_count);
  AppendU64(&blob, Fnv1a(payload.data(), payload.size()));
  blob += payload;
  return blob;
}

Status SharedEvalCache::RestoreState(const std::string& blob) {
  DFS_ASSIGN_OR_RETURN(const DecodedSpill spill, DecodeSpill(blob));
  if (spill.fingerprint != fingerprint_) {
    return FailedPreconditionError(
        "stale eval-cache spill: context fingerprint mismatch (spill " +
        std::to_string(spill.fingerprint) + ", cache " +
        std::to_string(fingerprint_) +
        "); outcomes from a different dataset/model/constraint context "
        "must not be merged");
  }
  CountRestore(MergeEntries(*this, spill.entries));
  return OkStatus();
}

// ---------------------------------------------------------------------------
// EvalCacheRegistry

std::shared_ptr<SharedEvalCache> EvalCacheRegistry::GetOrCreate(
    uint64_t fingerprint) {
  util::MutexLock lock(mu_);
  auto it = caches_.find(fingerprint);
  if (it != caches_.end()) return it->second;
  auto cache = std::make_shared<SharedEvalCache>(fingerprint);
  caches_.emplace(fingerprint, cache);
  return cache;
}

Status EvalCacheRegistry::SaveToFile(const std::string& path) const {
  std::vector<std::shared_ptr<SharedEvalCache>> caches;
  {
    util::MutexLock lock(mu_);
    caches.reserve(caches_.size());
    for (const auto& [fingerprint, cache] : caches_) caches.push_back(cache);
  }
  std::string container;
  container.append(kRegistryMagic, sizeof(kRegistryMagic));
  AppendU32(&container, kEvalCacheFormatVersion);
  AppendU32(&container, static_cast<uint32_t>(caches.size()));
  for (const auto& cache : caches) {
    const std::string blob = cache->Serialize();
    AppendU64(&container, blob.size());
    container += blob;
  }
  // Write aside, then rename: a daemon killed mid-spill keeps the previous
  // spill instead of leaving a truncated one that the next boot rejects.
  DFS_RETURN_IF_ERROR(WriteFileAtomically(path, container));
  spills_.fetch_add(1, std::memory_order_relaxed);
  CacheMetrics::Get().spills.Increment();
  return OkStatus();
}

StatusOr<size_t> EvalCacheRegistry::LoadFromFile(const std::string& path) {
  DFS_ASSIGN_OR_RETURN(const std::string container, ReadFileToString(path));
  return RestoreFromString(container, path);
}

StatusOr<size_t> EvalCacheRegistry::RestoreFromString(
    const std::string& container, const std::string& source) {
  Reader reader(container);
  char magic[8];
  if (!reader.ReadBytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kRegistryMagic, sizeof(magic)) != 0) {
    return InvalidArgumentError(
        "not an eval-cache registry container (bad magic): " + source);
  }
  uint32_t version, cache_count;
  if (!reader.ReadU32(&version) || !reader.ReadU32(&cache_count)) {
    return InvalidArgumentError("truncated registry container header: " +
                                source);
  }
  if (version != kEvalCacheFormatVersion) {
    return InvalidArgumentError(
        "unsupported eval-cache format version " + std::to_string(version) +
        " in " + source);
  }
  // The member count is not covered by any checksum; cap it by what the
  // remaining bytes could possibly hold (each member costs at least its
  // u64 length prefix) before it sizes an allocation.
  if (cache_count > reader.remaining() / sizeof(uint64_t)) {
    return InvalidArgumentError(
        "corrupt registry container: header claims " +
        std::to_string(cache_count) + " member blobs but only " +
        std::to_string(reader.remaining()) + " bytes follow in " + source);
  }
  // Slice out every member, then decode every member, before merging
  // any, so one stale or corrupt member rejects the whole file instead of
  // leaving it half-merged.
  std::vector<std::string_view> blobs;
  blobs.reserve(cache_count);
  for (uint32_t i = 0; i < cache_count; ++i) {
    uint64_t length;
    if (!reader.ReadU64(&length) || length > reader.remaining()) {
      return InvalidArgumentError("truncated registry container: " + source);
    }
    blobs.push_back(std::string_view(container).substr(
        reader.offset(), static_cast<size_t>(length)));
    reader.Skip(static_cast<size_t>(length));  // bounds-checked above
  }
  if (reader.remaining() != 0) {
    return InvalidArgumentError(
        "corrupt registry container: trailing bytes in " + source);
  }
  std::vector<DecodedSpill> members;
  members.reserve(blobs.size());
  for (const std::string_view blob : blobs) {
    DFS_ASSIGN_OR_RETURN(DecodedSpill member, DecodeSpill(blob));
    members.push_back(std::move(member));
  }
  size_t restored = 0;
  for (const DecodedSpill& member : members) {
    restored += MergeEntries(*GetOrCreate(member.fingerprint), member.entries);
  }
  CountRestore(restored);
  restores_.fetch_add(1, std::memory_order_relaxed);
  return restored;
}

EvalCacheStats EvalCacheRegistry::Stats() const {
  std::vector<std::shared_ptr<SharedEvalCache>> caches;
  {
    util::MutexLock lock(mu_);
    caches.reserve(caches_.size());
    for (const auto& [fingerprint, cache] : caches_) caches.push_back(cache);
  }
  EvalCacheStats total;
  total.caches = caches.size();
  total.spills = spills_.load(std::memory_order_relaxed);
  total.restores = restores_.load(std::memory_order_relaxed);
  for (const auto& cache : caches) {
    const EvalCacheStats stats = cache->Stats();
    total.hits += stats.hits;
    total.misses += stats.misses;
    total.inserts += stats.inserts;
    total.entries += stats.entries;
  }
  return total;
}

size_t EvalCacheRegistry::size() const {
  util::MutexLock lock(mu_);
  return caches_.size();
}

}  // namespace dfs::core
