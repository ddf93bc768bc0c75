// Fuzz harness for the binary eval-cache spill decoders (docs/CACHE.md):
// SharedEvalCache::RestoreState (DFSCACHE single-cache spill) and
// EvalCacheRegistry::RestoreFromString (DFSCREG1 container). The magics
// differ, so feeding the same input to both costs one cheap rejection
// and lets one corpus cover both formats. Decoders must reject hostile
// bytes with a Status — never crash, over-allocate from unvalidated
// header counts, or read out of bounds.

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/eval_cache.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string blob(reinterpret_cast<const char*>(data), size);
  {
    // Fingerprint 0 matches what make_corpus.py writes into the valid
    // seeds, so the valid seeds decode and merge.
    dfs::core::SharedEvalCache cache(/*fingerprint=*/0);
    (void)cache.RestoreState(blob);
  }
  {
    dfs::core::EvalCacheRegistry registry;
    (void)registry.RestoreFromString(blob, "<fuzz>");
  }
  return 0;
}
