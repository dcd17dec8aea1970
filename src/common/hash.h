// FNV-1a content hashing, shared by the content-addressed design cache
// (cluster/design_cache.h) and the CMAC association hash.
//
// FNV-1a is not cryptographic; every consumer that uses a hash as an
// identity key must pair it with a full-key compare (the design cache
// stores the canonical text alongside the digest for exactly that
// reason).
#pragma once

#include <cstdint>
#include <string_view>

namespace db {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Fold one byte into a running FNV-1a state.
constexpr std::uint64_t Fnv1aByte(std::uint64_t hash, std::uint8_t byte) {
  return (hash ^ byte) * kFnvPrime;
}

/// FNV-1a over a byte string, continuing from `seed` so callers can
/// chain multiple fields into one digest.
constexpr std::uint64_t Fnv1a64(std::string_view bytes,
                                std::uint64_t seed = kFnvOffsetBasis) {
  std::uint64_t hash = seed;
  for (const char c : bytes)
    hash = Fnv1aByte(hash, static_cast<std::uint8_t>(c));
  return hash;
}

}  // namespace db
