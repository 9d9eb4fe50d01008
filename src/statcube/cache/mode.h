/// \file
/// \brief Result-cache mode selector shared by QueryOptions and the CLIs.
///
/// Split from result_cache.h so that query/parser.h (included by nearly
/// every translation unit) can carry a cache mode without pulling the whole
/// cache implementation into its include graph.

#ifndef STATCUBE_CACHE_MODE_H_
#define STATCUBE_CACHE_MODE_H_

#include <string>

#include "statcube/common/status.h"

namespace statcube::cache {

/// How QueryProfiled consults the result cache.
enum class Mode {
  kOff,     ///< never consult or populate the cache (the default)
  kDerive,  ///< exact reuse, folded appends, roll-up from cached supersets
};

/// Name as accepted by ModeFromName ("off" / "derive").
const char* ModeName(Mode mode);

/// Parses "off" / "derive" (case-insensitive).
Result<Mode> ModeFromName(const std::string& name);

}  // namespace statcube::cache

#endif  // STATCUBE_CACHE_MODE_H_
